"""``python -m ararps``: the ararps command-line interface."""

from .bench import main

if __name__ == "__main__":
    main()
