import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms import qseries
from plusforms.arith import sigma_table
from plusforms.cohen_eisenstein import cohen_series, theta
from plusforms.level_one_forms import eisenstein
from plusforms.operators import dilate4, r_t, v4_precision, v_op
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


class TestDivideOut:
    def test_nine_times_a_form_mod_27(self):
        s = QSeries.modular(27, (0, 9, 18, 0, 9)).divide_out(9)
        assert s.ring == RingTag(3) and s.coeffs == (0, 1, 2, 0, 1)

    def test_an_entry_not_divisible_by_nine_raises(self):
        s = QSeries.modular(27, (9, 0, 18, 3, 12))
        with pytest.raises(NonIntegralCoefficientError) as err:
            s.divide_out(9)
        assert (err.value.exponent, err.value.coefficient,
                err.value.modulus) == (3, Fraction(1, 3), 3)

    def test_one_is_the_identity(self):
        s = QSeries.modular(3, (1, 2, 0))
        assert s.divide_out(1) is s

    @pytest.mark.parametrize("series, d", [
        (QSeries.rational((9, 18)), 9),
        (QSeries.modular(27, (9, 18)), 2),
    ])
    def test_needs_a_ring_that_d_divides(self, series, d):
        with pytest.raises(RingMismatchError):
            series.divide_out(d)


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

# a nonempty set of residue classes mod 4, or "v4" for the V_4 image of a
# dense row (dense on class 0 alone, built by dilation)
class_sets = st.one_of(st.just("v4"),
                       st.sets(st.integers(0, 3), min_size=1).map(frozenset))
SUBSETS = [frozenset(r for r in range(4) if mask >> r & 1)
           for mask in range(1, 16)]


def _class_series(ring, n, classes, value):
    """n coefficients drawn by value() on the residue classes mod 4 in
    `classes` and 0 on the others; "v4" dilates a dense row."""
    if classes == "v4":
        return dilate4(QSeries(ring, [value() for _ in
                                      range(v4_precision(n))]), n)
    return QSeries(ring, [value() if i % 4 in classes else 0
                          for i in range(n)])


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


def _widths(monkeypatch):
    """The digit widths the kernel's substitutions run at, recorded."""
    widths = []
    substitute = qseries._substitute

    def spy(x, y, width, size):
        widths.append(width)
        return substitute(x, y, width, size)

    monkeypatch.setattr(qseries, "_substitute", spy)
    return widths


def _signed_row(rnd, n, bits):
    """n entries of absolute value below 2^bits, either sign, one of them
    -(2^bits - 1) so the row's widest entry has exactly `bits` bits."""
    top = (1 << bits) - 1
    row = [rnd.randint(-top, top) for _ in range(n)]
    row[rnd.randrange(n)] = -top
    return row


class TestDigitCodecs:
    """Both digit codecs against the schoolbook oracle: a computed width of
    at most 8 bytes is widened to a 4- or 8-byte word packed by `array`,
    a wider one keeps the byte path; each product also equals the one
    taken with the byte path alone."""

    # the computed width is (bits(a) + bits(b) + bits(n) + 8) // 8 bytes:
    # at n = 100 (7 bits), entries of 6 + 6 bits give 3 bytes, 10 + 10 give
    # 4, 14 + 14 give 5, 26 + 26 give 8 and 30 + 30 give 9
    @pytest.mark.parametrize("computed, bits, used", [
        (3, 6, 4), (4, 10, 4), (5, 14, 8), (8, 26, 8), (9, 30, 9)])
    def test_each_computed_width(self, monkeypatch, computed, bits, used):
        rnd = random.Random(computed)
        a = QSeries.rational(_signed_row(rnd, 100, bits))
        b = QSeries.rational(_signed_row(rnd, 100, bits))
        assert (2 * bits + (100).bit_length() + 8) // 8 == computed
        widths = _widths(monkeypatch)
        got = (a * b).coeffs
        assert got == schoolbook_product(a, b)
        assert set(widths) == {used}
        monkeypatch.setattr(qseries, "_NARROW", {})
        assert (a * b).coeffs == got

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 40),
           st.sampled_from(("integer", "zero", "single")),
           st.sampled_from(("integer", "zero", "single")),
           st.integers(0, 40), st.integers(0, 40),
           st.randoms(use_true_random=False))
    def test_narrow_rows_either_codec(self, n, extra, kind_a, kind_b,
                                      bits_a, bits_b, rnd):
        a = QSeries.rational(_row(rnd, n, kind_a, bits_a, [1]))
        b = QSeries.rational(_row(rnd, n + extra, kind_b, bits_b, [1]))
        for x, y in ((a, b), (b, a)):
            got = (x * y).coeffs
            assert got == schoolbook_product(x, y)
            qseries._NARROW, narrow = {}, qseries._NARROW
            try:
                assert (x * y).coeffs == got
            finally:
                qseries._NARROW = narrow

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("bits", [0, 1, 20, 40])
    def test_short_and_zero_rows(self, n, bits):
        rnd = random.Random(n * 100 + bits)
        row = _signed_row(rnd, n, bits) if bits else [0] * n
        a, zero = QSeries.rational(row), QSeries.zero(RATIONAL, n)
        assert (a * a).coeffs == schoolbook_product(a, a)
        assert (a * zero).coeffs == (0,) * n
        assert (zero * a).coeffs == (0,) * n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, (1 << 64) + 13), st.integers(1, 300),
           st.randoms(use_true_random=False))
    def test_residue_rows(self, m, n, rnd):
        a = QSeries.modular(m, [rnd.randrange(m) for _ in range(n)])
        b = QSeries.modular(m, [m - 1] * n)
        for x, y in ((a, b), (b, a), (b, b)):
            assert (x * y).coeffs == schoolbook_product(x, y)

    @pytest.mark.parametrize("m, used", [
        (3, {4}), (27, {4}), (1 << 20, {8}), ((1 << 64) + 13, {18})])
    def test_residue_rows_take_their_codec(self, monkeypatch, m, used):
        # at n = 300 (9 bits), Z/2^20 needs (20 + 20 + 9 + 8) // 8 = 7
        # bytes, widened to 8; Z/(2^64 + 13) has 65-bit entries and needs
        # 18 bytes, past any machine word
        a = QSeries.modular(m, [m - 1] * 300)
        widths = _widths(monkeypatch)
        assert (a * a).coeffs == schoolbook_product(a, a)
        assert set(widths) == used

    @pytest.mark.parametrize("ring", [RATIONAL, RingTag(27)])
    def test_lopsided_pair(self, ring):
        # E_4^30 is about ten times as wide as E_4^3
        e4 = eisenstein(4, 120).series
        wide, narrow = e4 ** 30, e4 ** 3
        if ring.modulus:
            wide, narrow = wide.reduce_mod(27), narrow.reduce_mod(27)
        for x, y in ((wide, narrow), (narrow, wide)):
            assert (x * y).coeffs == schoolbook_product(x, y)


class TestClassSparseProducts:
    """Rows dense on some residue classes mod 4 and zero on the others, as
    plus forms, theta, F_2 and V_4 images are, against the schoolbook
    oracle in both operand orders."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 40), class_sets, class_sets,
           st.integers(0, 256), st.lists(st.integers(1, 10 ** 6),
                                         min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_rational_rows(self, n, extra, classes_a, classes_b, bits,
                           denominators, rnd):
        def value():
            return Fraction(rnd.randint(-(1 << bits), 1 << bits),
                            rnd.choice(denominators))
        a = _class_series(RATIONAL, n, classes_a, value)
        b = _class_series(RATIONAL, n + extra, classes_b, value)
        for x, y in ((a, b), (b, a)):
            got = (x * y).coeffs
            assert len(got) == n
            assert all(type(c) is Fraction for c in got)
            assert got == schoolbook_product(x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 40), class_sets, class_sets,
           st.sampled_from(("small", "word", "edge")),
           st.randoms(use_true_random=False))
    def test_modular_rows(self, n, extra, classes_a, classes_b, size, rnd):
        m = {"small": rnd.randint(2, 1000),
             "word": rnd.randint(1 << 31, 1 << 33),
             "edge": (1 << 64) + 13}[size]
        a = _class_series(RingTag(m), n, classes_a, lambda: rnd.randrange(m))
        b = _class_series(RingTag(m), n + extra, classes_b,
                          lambda: rnd.randrange(m))
        for x, y in ((a, b), (b, a)):
            got = (x * y).coeffs
            assert all(type(c) is int for c in got)
            assert got == schoolbook_product(x, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8,
                                   297, 298, 299, 300])
    def test_every_length_mod_4(self, n):
        # every pair of class sets with at most four nonzero class pairs,
        # each entry the top residue of Z/(2^64 + 13) so every digit of
        # every piece takes its largest value
        m = (1 << 64) + 13
        ring = RingTag(m)
        for classes_a in SUBSETS:
            a = _class_series(ring, n, classes_a, lambda: m - 1)
            for classes_b in SUBSETS:
                if len(classes_a) * len(classes_b) > 4 and n > 8:
                    continue
                b = _class_series(ring, n, classes_b, lambda: m - 1)
                assert (a * b).coeffs == schoolbook_product(a, b)

    @pytest.mark.parametrize("r,t,n", [(1, 3, 9), (1, 3, 301), (2, 2, 5),
                                       (2, 2, 297), (2, 3, 6), (2, 3, 298),
                                       (3, 3, 7), (3, 3, 299)])
    def test_top_classes_carry_into_last_index(self, r, t, n):
        # r + t >= 4: the piece lands one place further up class r + t - 4,
        # and the last index n - 1 is in that class
        a = _class_series(RATIONAL, n, {r}, lambda: 1)
        b = _class_series(RATIONAL, n, {t}, lambda: -1)
        got = (a * b).coeffs
        assert got == schoolbook_product(a, b)
        assert got[-1] != 0

    @pytest.mark.parametrize("classes", ["v4"] + SUBSETS)
    def test_zero_rows(self, classes):
        a = _class_series(RATIONAL, 41, classes, lambda: Fraction(-7, 3))
        zero = QSeries.zero(RATIONAL, 41)
        assert (a * zero).coeffs == (0,) * 41
        assert (zero * a).coeffs == (0,) * 41
        assert (zero * zero).coeffs == (0,) * 41

    @pytest.mark.parametrize("n", [298, 299, 300, 301])
    def test_theta_squared(self, n):
        th = theta(n).series
        assert (th * th).coeffs == schoolbook_product(th, th)

    @pytest.mark.parametrize("n", [298, 299, 300, 301])
    def test_f2_squared(self, n):
        f2 = QSeries.rational([s if i % 2 else 0
                               for i, s in enumerate(sigma_table(1, n))])
        assert (f2 * f2).coeffs == schoolbook_product(f2, f2)

    @pytest.mark.parametrize("n", [298, 299, 300, 301])
    def test_plus_form_times_dilated_row(self, n):
        h = cohen_series(2, n).series
        e4 = r_t(4, n).series
        for x, y in ((h, e4), (e4, h)):
            assert (x * y).coeffs == schoolbook_product(x, y)
        h3, e43 = h.primitive().reduce_mod(3), e4.reduce_mod(3)
        assert (h3 * e43).coeffs == schoolbook_product(h3, e43)


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
