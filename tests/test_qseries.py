from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms.operators import v_op
from plusforms.qseries import (
    QSeries,
    RATIONAL,
    RingTag,
    NonIntegralCoefficientError,
    RingMismatchError,
)


def q(*coeffs):
    return QSeries.rational(coeffs)


def schoolbook_product(a: QSeries, b: QSeries) -> tuple:
    """The O(P^2) double loop: the reference every product must equal."""
    n = min(a.precision, b.precision)
    out = [0] * n
    for i, ci in enumerate(a.coeffs[:n]):
        if ci:
            for j, dj in enumerate(b.coeffs[:n - i]):
                if dj:
                    out[i + j] += ci * dj
    m = a.ring.modulus
    if m is None:
        return tuple(Fraction(c) for c in out)
    return tuple(c % m for c in out)


class TestBasics:
    def test_add_identity(self):
        assert (q(1, 1) + q(0, 0)).coeffs == q(1, 1).coeffs

    def test_add_truncates_to_min_precision(self):
        s = q(1, 1, 1) + q(2, -1)
        assert s.precision == 2
        assert s.coeffs == (3, 0)

    def test_add_mod3(self):
        a = QSeries.modular(3, (0, 2))
        s = a + a
        assert s.coeffs == (0, 1)

    def test_mul_difference_of_squares(self):
        s = q(1, 1, 0) * q(1, -1, 0)
        assert s.coeffs == (1, 0, -1)

    def test_mul_identity(self):
        a = q(3, -7, 2)
        assert (a * QSeries.one(RATIONAL, 3)).coeffs == a.coeffs

    def test_mul_q_times_q(self):
        s = q(0, 1, 0, 0) * q(0, 1, 0, 0)
        assert s.coeffs == (0, 0, 1, 0)

    def test_dilate(self):
        s = v_op(q(1, 1), 4)
        assert s.precision == 5
        assert s.coeffs == (1, 0, 0, 0, 1)

    def test_pow_zero(self):
        assert (q(1, 1) ** 0).coeffs == (1, 0)

    def test_pow_matches_repeated_products(self):
        a = q(1, Fraction(-1, 2), 3, 0, 7)
        acc = a
        for e in range(1, 9):
            assert (a ** e).coeffs == acc.coeffs, e
            acc = QSeries.rational(schoolbook_product(acc, a))

    def test_truncate_keeps_one_coefficient(self):
        assert q(1, 2).truncate(1).coeffs == (1,)
        with pytest.raises(ValueError):
            q(1, 2).truncate(0)

    def test_scale(self):
        assert q(0, 1, 1).scale(28).coeffs == (0, 28, 28)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            q(1) + QSeries.modular(3, (1,))
        with pytest.raises(RingMismatchError):
            QSeries.modular(5, (1, 2)).scale(Fraction(1, 2))

    def test_mod_requires_m_at_least_two(self):
        with pytest.raises(ValueError):
            RingTag(1)


class TestReduceMod:
    def test_non_integral_raises_with_exponent(self):
        s = QSeries.rational((0, Fraction(-44, 3)))
        with pytest.raises(NonIntegralCoefficientError) as err:
            s.reduce_mod(3)
        assert err.value.exponent == 1

    def test_half_becomes_two(self):
        s = QSeries.rational((Fraction(1, 2), 1)).reduce_mod(3)
        assert s.coeffs == (2, 1)

    def test_28q(self):
        assert q(0, 28).reduce_mod(3).coeffs == (0, 1)

    def test_only_rational_input(self):
        with pytest.raises(RingMismatchError):
            QSeries.modular(3, (1,)).reduce_mod(3)


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)
series3 = st.lists(small_rationals, min_size=1, max_size=6).map(
    lambda cs: QSeries.rational(cs))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series3, series3)
    def test_add_commutes(self, a, b):
        assert (a + b).coeffs == (b + a).coeffs

    @settings(max_examples=60, deadline=None)
    @given(series3, series3)
    def test_mul_commutes(self, a, b):
        assert (a * b).coeffs == (b * a).coeffs

    @settings(max_examples=40, deadline=None)
    @given(series3, series3, series3)
    def test_associative_and_distributive(self, a, b, c):
        p = min(a.precision, b.precision, c.precision)
        assert ((a * b) * c).coeffs[:p] == (a * (b * c)).coeffs[:p]
        assert (a * (b + c)).coeffs[:p] == (a * b + a * c).coeffs[:p]

    @settings(max_examples=40, deadline=None)
    @given(series3, series3)
    def test_reduce_mod_is_ring_hom(self, a, b):
        try:
            ra, rb = a.reduce_mod(5), b.reduce_mod(5)
        except NonIntegralCoefficientError:
            return
        assert (a * b).reduce_mod(5).coeffs == (ra * rb).coeffs
        assert (a + b).reduce_mod(5).coeffs == (ra + rb).coeffs

    @settings(max_examples=40, deadline=None)
    @given(series3, st.integers(1, 3), st.integers(1, 3))
    def test_dilate_composes(self, a, d1, d2):
        once = v_op(a, d1 * d2)
        twice = v_op(v_op(a, d1), d2)
        assert once.coeffs == twice.coeffs


def _row(rnd, n, kind, bits, denominators):
    """n coefficients of one kind: fraction, integer, zero or single."""
    def value():
        c = rnd.randint(-(1 << bits), 1 << bits)
        return Fraction(c, rnd.choice(denominators)) if kind == "fraction" \
            else c
    if kind == "zero":
        return [0] * n
    if kind == "single":
        out = [0] * n
        out[rnd.randrange(n)] = value() or 1
        return out
    return [value() for _ in range(n)]


kinds = st.sampled_from(("fraction", "integer", "zero", "single"))


class TestProductKernel:
    """The Kronecker kernel against the schoolbook oracle."""

    # random.Random fills the rows: hypothesis would need more entropy than
    # it allows per example for 300 coefficients of 256 bits
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 40), kinds, kinds,
           st.integers(0, 256), st.lists(st.integers(1, 10 ** 6),
                                         min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_rational_rows(self, n, extra, kind_a, kind_b, bits,
                           denominators, rnd):
        a = QSeries.rational(_row(rnd, n, kind_a, bits, denominators))
        b = QSeries.rational(_row(rnd, n + extra, kind_b, bits,
                                  denominators))
        for x, y in ((a, b), (b, a)):
            got = (x * y).coeffs
            assert len(got) == n
            assert all(type(c) is Fraction for c in got)
            assert got == schoolbook_product(x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 40),
           st.sampled_from(("small", "word", "huge")),
           st.booleans(), st.randoms(use_true_random=False))
    def test_modular_rows(self, n, extra, size, full, rnd):
        m = {"small": rnd.randint(2, 1000),
             "word": rnd.randint(1 << 31, 1 << 33),
             "huge": rnd.randint(1 << 63, 1 << 300)}[size]
        rows = [[m - 1] * k if full else [rnd.randrange(m) for _ in range(k)]
                for k in (n, n + extra)]
        a, b = QSeries.modular(m, rows[0]), QSeries.modular(m, rows[1])
        got = (a * b).coeffs
        assert all(type(c) is int for c in got)
        assert got == schoolbook_product(a, b)

    @pytest.mark.parametrize("n", [1, 2, 299, 300])
    @pytest.mark.parametrize("m", [2, 3, (1 << 32) + 15, (1 << 64) + 13])
    def test_all_top_residues(self, n, m):
        # every product digit takes its largest value
        a = QSeries.modular(m, [m - 1] * n)
        assert (a * a).coeffs == schoolbook_product(a, a)

    def test_extreme_magnitudes(self):
        big = (1 << 256) - 1
        a = QSeries.rational([big, -big, Fraction(-big, 10 ** 6), 0, big])
        b = QSeries.rational([-big, Fraction(1, 999983), big, big, -1])
        assert (a * b).coeffs == schoolbook_product(a, b)


class TestRendering:
    def test_text_lines_skip_zeros(self):
        s = q(1, 2, 0, 0, 2)
        assert s.to_text_lines() == ["0\t1", "1\t2", "4\t2"]

    def test_rational_text(self):
        s = QSeries.rational((Fraction(-1, 12), 5))
        assert s.to_text_lines() == ["0\t-1/12", "1\t5"]

    def test_json(self):
        s = QSeries.modular(3, (1, 2, 0))
        assert s.to_json_dict() == {
            "ring": "Z/3", "precision": 3, "coeffs": ["1", "2", "0"]}

    def test_primitive(self):
        s = QSeries.rational((Fraction(4, 3), 8, 0))
        assert s.primitive().coeffs == (1, 6, 0)
        z = QSeries.rational((0, 0))
        assert z.primitive().coeffs == (0, 0)
