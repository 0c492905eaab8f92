import itertools
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from ararps.hypalg import HypExpr, Kind, _basis, _canonical, _laurent, _laurent_products, _lattice, _products
from strategies import hex_terms, hyp_exprs, lattice_exprs, term_map


class TestCanonicalForm:
    def test_zero(self):
        assert HypExpr.zero().is_zero()
        assert HypExpr.const(0.0).is_zero()

    def test_non_finite_coefficient_raises(self):
        big = HypExpr.cosh(1.0, 1e308)
        with pytest.raises(OverflowError, match=r"const\(0\*x\)"):
            big * big

    def test_scale_past_the_double_range_raises(self):
        with pytest.raises(OverflowError, match=r"cosh\(1\*x\) is not finite"):
            HypExpr.cosh(1.0, 1e10).scale(1e300)

    def test_scale_to_an_exact_zero_drops_the_term(self):
        e = HypExpr.cosh(1.0, 1e-300).scale(1e-300)
        assert e.is_zero() and e == HypExpr.zero()

    def test_negative_freq_folded(self):
        assert HypExpr.cosh(-2.0, 3.0) == HypExpr.cosh(2.0, 3.0)
        assert HypExpr.sinh(-2.0, 3.0) == HypExpr.sinh(2.0, -3.0)

    def test_sinh_zero_freq_vanishes(self):
        assert HypExpr.sinh(0.0, 5.0).is_zero()

    @pytest.mark.parametrize("freq", [1e-10, -1e-10, 2.0 ** -31])
    def test_frequency_in_constant_cell_rejected(self, freq):
        # cell 0 is the constant term: sinh(1e-10*x)*1e10 would vanish
        with pytest.raises(ValueError):
            HypExpr.sinh(freq, 1e10)
        with pytest.raises(ValueError):
            HypExpr.cosh(freq)
        for kind in Kind:
            with pytest.raises(ValueError, match="at most 2"):
                HypExpr.of([(kind, freq, 1.0)])
        assert HypExpr.sinh(2.0 ** -30, 1.0).terms == ((Kind.SINH, 2.0 ** -30, 1.0),)

    @pytest.mark.parametrize("freq", [1e300, -1e300, math.nan])
    def test_frequency_without_finite_cell_rejected(self, freq):
        # its cell index freq * 2**30 is not finite
        named = re.escape(f"{freq!r} has no finite cell")
        with pytest.raises(ValueError, match=named):
            HypExpr.cosh(freq)
        for kind in Kind:
            with pytest.raises(ValueError, match=named):
                HypExpr.of([(kind, freq, 1.0)])

    def test_of_reads_plain_int_kinds(self):
        assert HypExpr.of([(1, 1.0, 2.0)]) == HypExpr.cosh(1.0, 2.0)
        assert HypExpr.of([(1, 1.0, 2.0)]).terms[0][0] is Kind.COSH
        assert HypExpr.of([(2, 1.0, 2.0)]) == HypExpr.sinh(1.0, 2.0)
        assert HypExpr.of([(0, 0.0, 2.0)]) == HypExpr.const(2.0)
        with pytest.raises(ValueError):
            HypExpr.of([(5, 1.0, 2.0)])

    def test_product_frequency_without_finite_cell_named(self):
        # each factor passes the gate; their sum 3e299 is past 2**994
        big = HypExpr.cosh(1.5e299)
        with pytest.raises(OverflowError, match=r"frequency 3e\+299 of a product"):
            big * big

    def test_merge_of_close_frequencies(self):
        e = HypExpr.of([(Kind.COSH, 1.0, 1.0), (Kind.COSH, 1.0 + 1e-14, 2.0)])
        assert len(e.terms) == 1
        assert e.terms[0][2] == pytest.approx(3.0)

    def test_merge_is_transitive_and_order_free(self):
        # 1.0 and 1.0+1.8e-12 are more than 1e-12 apart but share a cell with
        # 1.0+0.9e-12; every order gives one term at the first frequency in
        contribs = [(Kind.COSH, 1.0, 1.0), (Kind.COSH, 1.0 + 0.9e-12, 2.0),
                    (Kind.COSH, 1.0 + 1.8e-12, 4.0)]
        for order in itertools.permutations(contribs):
            assert HypExpr.of(order).terms == ((Kind.COSH, order[0][1], 7.0),)

    def test_cancellation_residue_pruned(self):
        e = HypExpr.cosh(1.0, 1.0) + HypExpr.cosh(1.0, -1.0) + HypExpr.const(5.0)
        assert term_map(e) == {(Kind.CONST, 0.0): 5.0}

    def test_small_coefficient_on_high_frequency_kept(self):
        # 1e-6*cosh(18x) is about 2e9 at x=2: small relative to 1e18 only
        # as a coefficient, not pointwise
        e = HypExpr.const(1e18) + HypExpr.cosh(18.0, 1e-6)
        assert len(e.terms) == 2
        assert e(2.0) == math.fsum([1e18, 1e-6 * math.cosh(36.0)])

    def test_terms_sorted(self):
        e = HypExpr.sinh(1.0) + HypExpr.const(1.0) + HypExpr.cosh(2.0) + HypExpr.cosh(1.0)
        kinds = [t[0] for t in e.terms]
        assert kinds == sorted(kinds)


class TestAlgebra:
    def test_product_to_sum_cosh_cosh(self):
        e = HypExpr.cosh(2.0) * HypExpr.cosh(1.0)
        assert term_map(e) == pytest.approx({(Kind.COSH, 3.0): 0.5, (Kind.COSH, 1.0): 0.5})

    def test_product_to_sum_sinh_sinh(self):
        e = HypExpr.sinh(2.0) * HypExpr.sinh(1.0)
        assert term_map(e) == pytest.approx({(Kind.COSH, 3.0): 0.5, (Kind.COSH, 1.0): -0.5})

    def test_sinh_squared(self):
        # sinh^2(x) = (cosh(2x) - 1)/2
        e = HypExpr.sinh(1.0) * HypExpr.sinh(1.0)
        assert term_map(e) == pytest.approx({(Kind.COSH, 2.0): 0.5, (Kind.CONST, 0.0): -0.5})

    def test_diff_cycle(self):
        e = HypExpr.cosh(3.0, 2.0)
        assert e.diff(2) == HypExpr.cosh(3.0, 18.0)
        assert e.diff(1) == HypExpr.sinh(3.0, 6.0)

    def test_diff_kills_constants(self):
        assert HypExpr.const(4.0).diff().is_zero()

    @given(e1=hyp_exprs(), e2=hyp_exprs())
    def test_add_commutes(self, e1, e2):
        a, b = term_map(e1 + e2), term_map(e2 + e1)
        assert set(a) == set(b)
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-13, abs=1e-13)

    @given(e1=hyp_exprs(), e2=hyp_exprs())
    def test_mul_commutes(self, e1, e2):
        a, b = term_map(e1 * e2), term_map(e2 * e1)
        assert set(a) == set(b)
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-13, abs=1e-13)

    @settings(max_examples=50)
    @given(e1=hyp_exprs(), e2=hyp_exprs(), e3=hyp_exprs(), x=st.floats(-2.0, 2.0))
    def test_mul_associates_pointwise(self, e1, e2, e3, x):
        lhs = ((e1 * e2) * e3)(x)
        rhs = (e1 * (e2 * e3))(x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    @given(e1=hyp_exprs(), e2=hyp_exprs(), x=st.floats(-2.0, 2.0))
    def test_eval_is_ring_homomorphism(self, e1, e2, x):
        assert (e1 + e2)(x) == pytest.approx(e1(x) + e2(x), rel=1e-11, abs=1e-11)
        assert (e1 * e2)(x) == pytest.approx(e1(x) * e2(x), rel=1e-11, abs=1e-11)

    @settings(max_examples=50)
    @given(e1=hyp_exprs(), e2=hyp_exprs(), x=st.floats(-1.0, 1.0))
    def test_leibniz_rule(self, e1, e2, x):
        lhs = (e1 * e2).diff()(x)
        rhs = (e1.diff() * e2)(x) + (e1 * e2.diff())(x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @settings(max_examples=50)
    @given(e=hyp_exprs(), x=st.floats(-1.0, 1.0))
    def test_diff_matches_finite_difference(self, e, x):
        h = 1e-6
        fd = (e(x + h) - e(x - h)) / (2 * h)
        assert e.diff()(x) == pytest.approx(fd, rel=1e-7, abs=1e-6)


class TestQueries:
    def test_eval(self):
        e = HypExpr.const(1.0) + HypExpr.cosh(2.0, 3.0) + HypExpr.sinh(0.5, -1.0)
        x = 0.7
        assert e(x) == pytest.approx(
            1.0 + 3.0 * math.cosh(1.4) - math.sinh(0.35), rel=1e-15
        )

    @pytest.mark.parametrize(
        "expr,x",
        [(HypExpr.cosh(1.0), 1000.0),
         (HypExpr.cosh(1.0, 1e300) + HypExpr.cosh(1.001, -1e300), 700.0),
         (HypExpr.cosh(1.0, 1e300), 700.0),
         # e^-800 as a pair whose terms each overflow: terms are not paired (ROADMAP item 3)
         (HypExpr.cosh(1.0) - HypExpr.sinh(1.0), 800.0)],
        ids=["cosh-overflow", "inf-minus-inf", "product-overflow", "cosh-minus-sinh"],
    )
    def test_value_past_the_double_range_named(self, expr, x):
        with pytest.raises(OverflowError, match=rf"x={x!r} is not finite"):
            expr(x)

    def test_basis_past_the_double_range_is_inf(self):
        assert _basis(Kind.CONST, 0.0, 1e308) == 1.0
        assert _basis(Kind.COSH, 2.0, -400.0) == math.inf
        assert _basis(Kind.SINH, 2.0, 400.0) == math.inf
        assert _basis(Kind.SINH, 0.5, 0.7) == math.sinh(0.35)

    def test_max_abs_coeff(self):
        e = HypExpr.cosh(1.0, -4.0) + HypExpr.const(2.0)
        assert e.max_abs_coeff() == 4.0
        assert HypExpr.zero().max_abs_coeff() == 0.0

    def test_render(self):
        assert HypExpr.zero().render() == "0"
        e = HypExpr.const(-2.0 / 3.0) + HypExpr.cosh(0.5, 2.0 / 3.0)
        assert e.render() == "-0.666667 + 0.666667*cosh(0.5*x)"
        assert HypExpr.cosh(1.0).render() == "1*cosh(x)"


def _reference_canonical(raw):
    """One-pass canonical form: fold signs, bucket by (kind, cell), fsum, sort."""
    buckets = {}
    for kind, freq, coeff in raw:
        if coeff == 0.0:
            continue
        if freq < 0.0:
            freq = -freq
            if kind is Kind.SINH:
                coeff = -coeff
        cell = round(freq * 2.0 ** 30)
        if cell == 0:
            if kind is Kind.SINH:
                continue
            kind, freq = Kind.CONST, 0.0
        elif kind is Kind.CONST:
            raise ValueError("CONST term with nonzero frequency")
        buckets.setdefault((kind, cell), (freq, []))[1].append(coeff)
    kept = []
    for (k, _), (f, vs) in sorted(buckets.items()):
        c = math.fsum(vs)
        if c != 0.0:
            kept.append((k, f, c))
    return tuple(kept)


def _reference_products(pairs):
    """Term-by-term product to sum, then the one-pass canonical form."""
    sign = {(Kind.COSH, Kind.COSH): 0.5, (Kind.SINH, Kind.SINH): -0.5,
            (Kind.SINH, Kind.COSH): 0.5, (Kind.COSH, Kind.SINH): -0.5}
    raw = []
    for t1, t2, w in pairs:
        for k1, f1, c1 in t1:
            for k2, f2, c2 in t2:
                c = w * (c1 * c2)
                if k1 is Kind.CONST:
                    raw.append((k2, f2, c))
                elif k2 is Kind.CONST:
                    raw.append((k1, f1, c))
                else:
                    kind = Kind.COSH if k1 is k2 else Kind.SINH
                    raw += [(kind, f1 + f2, 0.5 * c), (kind, f1 - f2, sign[k1, k2] * c)]
    return _reference_canonical(raw)


# negative frequencies, cell 0 (constant term; zero for sinh), one cell
# holding two frequencies, and the cell next to it
raw_freq_st = st.sampled_from(
    [0.0, -0.0, 1e-12, -1e-12, 2.0 ** -31, 0.5, -0.5, 1.0, -1.0, 1.0 + 1e-13, -1.0 - 1e-13,
     1.0 + 2.0 ** -30, 1.5, -2.5]
) | st.floats(-3.0, 3.0)
raw_coeff_st = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0)
raw_kind_st = st.sampled_from([Kind.CONST, Kind.COSH, Kind.SINH])


class TestKernelMatchesReference:
    @settings(max_examples=300)
    @given(raw=st.lists(st.tuples(raw_kind_st, raw_freq_st, raw_coeff_st), max_size=12))
    def test_canonical(self, raw):
        try:
            want = _reference_canonical(raw)
        except ValueError:
            with pytest.raises(ValueError):
                _canonical(raw)
            return
        assert hex_terms(_canonical(raw)) == hex_terms(want)

    @settings(max_examples=200)
    @given(
        pairs=st.lists(
            st.tuples(hyp_exprs(), hyp_exprs(), st.sampled_from([1.0, 0.75, 3.0, 1.0 / 3.0])),
            max_size=4,
        )
    )
    def test_products(self, pairs):
        assert hex_terms(_products(pairs)) == hex_terms(_reference_products([(a.terms, b.terms, w) for a, b, w in pairs]))

    @given(e=hyp_exprs(), m=st.integers(1, 5))
    @example(e=HypExpr.cosh(0.5, 5e-324) + HypExpr.sinh(2.0), m=1)  # an underflow to 0 drops
    def test_diff_keeps_canonical_form(self, e, m):
        # diff merges nothing; the term-wise derivative through _canonical has the same bits
        swap = {Kind.COSH: Kind.SINH, Kind.SINH: Kind.COSH}
        raw = []
        for k, f, c in e.terms:
            if k is not Kind.CONST:
                for _ in range(m):
                    c *= f
                raw.append((swap[k] if m % 2 else k, f, c))
        assert hex_terms(e.diff(m).terms) == hex_terms(_canonical(raw))


def _on_lattice(terms, g, x):
    """The value at x with every frequency read as its multiple of g, so that the two
    kernels' frequencies (k*g, or a sum of frequencies in the same cell) agree."""
    return math.fsum(c * _basis(k, round(f / g) * g, x) for k, f, c in terms)


def _envelope(e, x):
    """sum |c| cosh(f x): bounds |E_k| z^k summed over the Laurent list, at z = e^(gx)."""
    return math.fsum(abs(c) * math.cosh(f * x) for _, f, c in e.terms)


class TestLaurentKernel:
    """The dense kernel against the sparse one, on lattice operands."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), g=st.floats(0.05, 1.5))
    def test_matches_sparse_kernel(self, data, g):
        exprs = data.draw(st.lists(lattice_exprs(g), min_size=1, max_size=4))
        weight = st.sampled_from([1.0, 2.0, 0.75, 1.0 / 3.0]) | st.floats(0.01, 50.0)
        pick = st.sampled_from(exprs)
        pairs = data.draw(st.lists(st.tuples(pick, pick, weight), min_size=1, max_size=5))
        dense, sparse = _laurent_products(pairs, g), _products(pairs)
        assert all(round(f / g) * g == f for _, f, _ in dense)  # frequencies are k*g
        for x in (-2.0, -0.7, 0.0, 0.3, 1.6):
            bound = 8 * 2.0 ** -53 * math.fsum(abs(w) * _envelope(a, x) * _envelope(b, x) for a, b, w in pairs)
            assert abs(_on_lattice(dense, g, x) - _on_lattice(sparse, g, x)) <= bound, x

    @pytest.mark.parametrize("g", [0.4, 1.0 / 3.0])
    def test_overflow_named_like_the_sparse_kernel(self, g):
        # c_0 = 2 c^2 and the cosh(2gx) coefficient leave the doubles on both paths
        big = HypExpr.of([(Kind.COSH, g, 1e200), (Kind.SINH, 2 * g, 1.0), (Kind.CONST, 0.0, 1.0)])
        messages = []
        for kernel in (_products, lambda pairs: _laurent_products(pairs, g)):
            with pytest.raises(OverflowError, match=r"coefficient of .* is not finite") as err:
                kernel([(big, big, 1.0)])
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_on_the_lattice_only_in_the_cell_of_a_multiple(self):
        # 1.0 + 0.6 * 2**-30 is within 2**-30 of 2 * 0.5 but in the next cell, where the
        # merge keeps it apart; 1.0 + 0.4 * 2**-30 is in the cell of 1.0
        for eps, on in ((0.6, False), (0.4, True)):
            e = HypExpr.of([(Kind.COSH, 0.5, 1.0), (Kind.COSH, 1.0 + eps * 2.0 ** -30, 1.0)])
            assert len(e.terms) == 2
            assert (_laurent(e, 0.5) is not None) == on

    def test_dense_only_on_one_lattice(self):
        # the same term counts on the lattice, off it, and on it with g below two cells
        full = lambda g, c=0.5: HypExpr.of(
            [(Kind.CONST, 0.0, c)] + [(k, j * g, c) for j in range(1, 5) for k in (Kind.COSH, Kind.SINH)])
        on = [full(0.25)] * 6
        assert _lattice(on, on, 5) == 0.25
        off = [full(0.25), full(0.25 * math.sqrt(2.0))] * 3
        assert _lattice(off, off, 5) is None
        tiny = [full(2.0 ** -30)] * 6
        assert _lattice(tiny, tiny, 5) is None
        # enough contributions, but the lists would be ten times the 100 terms
        spread = [HypExpr.of([(k, j * 0.25, 0.5) for j in range(1, 250, 5) for k in (Kind.COSH, Kind.SINH)])] * 2
        assert _lattice(spread, spread, 1) is None
