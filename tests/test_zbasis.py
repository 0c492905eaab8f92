import math

import mpmath
import pytest
from hypothesis import given, settings

from ararps.hypalg import HypExpr, Kind
from ararps.zbasis import KEY_HALF, _pslq, find_basis, pack, unpack
from strategies import pslq_vectors, term_map


class TestBasis:
    """``find_basis``: a Z-basis of the frequencies by PSLQ and a Hermite normal form, or the frequencies."""

    @pytest.mark.parametrize("freqs, gens, coords", [
        ((0.4, 0.8, 1.2), (0.4,), [[1], [2], [3]]),
        ((0.2, 0.3), (0.1,), [[2], [3]]),
        ((0.5, 0.75), (0.25,), [[2], [3]]),
        ((0.4, 0.4 * math.sqrt(2.0), 0.4 + 0.4 * math.sqrt(2.0)), (0.4, 0.4 * math.sqrt(2.0)), [[1, 0], [0, 1], [1, 1]]),
        ((1.0, 1.0 + 1e-14), (1.0, 1.0 + 1e-14), [[1, 0], [0, 1]]),
    ], ids=["multiples", "tenths", "two-and-three", "rank-2", "unrelated-within-ulps"])
    def test_found_basis(self, freqs, gens, coords):
        basis, got = find_basis(freqs)
        assert basis.gens == gens and [got[f] for f in freqs] == coords
        assert all(abs(basis.freq(pack(c)) - f) <= 4 * math.ulp(f) for f, c in got.items())
        assert find_basis(freqs)[0] is basis

    def test_rank_1_frequency_is_the_multiple_rounded_once(self):
        basis = HypExpr.of([(Kind.COSH, 0.4, 1.0), (Kind.SINH, 1.2, 1.0)]).basis
        assert basis.gens == (0.4,) and all(basis.freq(k) == k * 0.4 for k in range(1, 200))

    def test_different_bases_meet_on_one(self):
        a, b = HypExpr.cosh(0.5), HypExpr.sinh(0.75)
        assert a.basis.gens == (0.5,) and b.basis.gens == (0.75,)
        got = a * b
        assert got.basis.gens == (0.25,) and term_map(got) == pytest.approx(
            {(Kind.SINH, 1.25): 0.5, (Kind.SINH, 0.25): 0.5})

    def test_coordinate_past_the_key_range_raises(self):
        e = HypExpr.of([(Kind.COSH, 0.4, 1.0), (Kind.SINH, 0.4 * math.sqrt(2.0), 1.0)])
        key = pack([KEY_HALF - 1, 0])
        far = HypExpr(((Kind.COSH, key, 1.0),), e.basis, KEY_HALF - 1)
        assert (far * HypExpr.const(2.0)).keyed == ((Kind.COSH, key, 2.0),)
        with pytest.raises(ValueError, match="key range"):
            far * e



@settings(max_examples=300, deadline=None)
@given(pslq_vectors())
def test_pslq_matches_mpmath(x):
    # the integer fixed-point port against mpmath's own PSLQ at its default 53 bits,
    # with find_basis's tolerance and coefficient bound
    with mpmath.workprec(53):
        try:
            want = mpmath.pslq(x, tol=2.0 ** -40, maxcoeff=1000)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                _pslq(x)
            return
    assert _pslq(x) == want


@pytest.mark.parametrize("coords", [[0], [5], [-7], [3, -2], [-KEY_HALF + 1, KEY_HALF - 1], [1, 0, -1], [0, 0, 4]])
def test_keys_add_as_their_coordinates(coords):
    key, other = pack(coords), pack([1] * len(coords))
    assert unpack(key, len(coords)) == coords
    assert (key > 0) == (coords[::-1] > [0] * len(coords))  # the sign of the last nonzero coordinate
    if max(map(abs, coords)) < KEY_HALF - 1:
        assert unpack(key + other, len(coords)) == [v + 1 for v in coords]
