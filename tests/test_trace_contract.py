"""The names the benchmark tracer wraps must exist on ararps.

``perfbench/tracer.py`` looks functions up by (module, attribute) and wraps
them from outside, and the worker times ``fpseries.conv_weight`` directly,
so renaming or deleting any of them breaks ``perfbench/run.py --trace 1``.
The tracer is loaded from its file and not installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ararps
from ararps.hypalg import HypExpr

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("metric,module,attr", _traced())
def test_traced_name_resolves(metric, module, attr):
    owner = importlib.import_module(f"ararps.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer reads the method from the class dict, not by inheritance
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_worker_and_cli_names():
    assert callable(ararps.fpseries.conv_weight)
    assert callable(ararps.bench.cli.main)
    assert isinstance(vars(HypExpr)["of"], staticmethod)
