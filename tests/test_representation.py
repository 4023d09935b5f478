"""QSeries against a tuple-of-Fraction oracle.

A rational series is stored as integer numerators over one positive
denominator in lowest terms; a series over Z/m as residues over 1.  The
oracle below works one Fraction at a time on the public `coeffs` view, so
every operation is checked against the plain per-coefficient definition.
The rows include many unrelated denominators up to 10^6.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plusforms.class_numbers import kronecker
from plusforms.operators import (
    Character,
    ap_project,
    hecke_t,
    twist,
    u_op,
    v_op,
)
from plusforms.qseries import (
    NonIntegralCoefficientError,
    QSeries,
    RATIONAL,
    RingTag,
)


# -- the oracle: tuples of Fractions (residues mod m), one at a time ---------


def o_mul(a, b):
    n = min(len(a), len(b))
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(n))


def o_pow(a, e):
    out = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(e):
        out = o_mul(out, a)
    return out


def o_primitive(a):
    den = lcm(*(c.denominator for c in a))
    content = gcd(*(c.numerator * (den // c.denominator) for c in a))
    if content == 0:
        return a
    return tuple(c * den / content for c in a)


def o_reduce(a, m):
    """The residues of a row, or the first exponent that is not m-integral."""
    out = []
    for n, c in enumerate(a):
        if gcd(c.denominator, m) != 1:
            return n
        out.append(c.numerator * pow(c.denominator, -1, m) % m)
    return tuple(out)


def o_hecke(a, ell, k):
    l2, sign = ell * ell, -1 if k % 2 else 1
    out = []
    for n in range((len(a) + l2 - 1) // l2):
        c = a[n * l2] + ell ** (k - 1) * kronecker(sign * n, ell) * a[n]
        if n % l2 == 0:
            c += kronecker(sign, l2) * ell ** (2 * k - 1) * a[n // l2]
        out.append(c)
    return tuple(out)


def oracle_ops(a, b, m):
    """(name, series result, oracle result) for every operation on a, b.
    Over Z/m the oracle runs over Q on the residues and reduces last."""
    fa, fb = tuple(map(Fraction, a.coeffs)), tuple(map(Fraction, b.coeffs))
    n = min(len(fa), len(fb))
    chi = Character.kronecker(-3)
    cases = [
        ("add", a + b, tuple(x + y for x, y in zip(fa, fb))),
        ("sub", a - b, tuple(x - y for x, y in zip(fa, fb))),
        ("neg", -a, tuple(-x for x in fa)),
        ("mul", a * b, o_mul(fa, fb)),
        ("pow3", a ** 3, o_pow(fa, 3)),
        ("pow0", a ** 0, o_pow(fa, 0)),
        ("truncate", a.truncate(max(1, n // 2)), fa[:max(1, n // 2)]),
        ("u3", u_op(a, 3), fa[::3]),
        ("v2", v_op(a, 2),
         tuple(fa[i // 2] if i % 2 == 0 else 0
               for i in range(2 * len(fa) - 1))),
        ("twist", twist(a, chi),
         tuple(chi(i) * c for i, c in enumerate(fa))),
        ("ap", ap_project(a, 1, 3),
         tuple(c if i % 3 == 1 else 0 for i, c in enumerate(fa))),
        ("hecke", hecke_t(a, 3, 2), o_hecke(fa, 3, 2)),
        ("hecke_odd", hecke_t(a, 3, 5), o_hecke(fa, 3, 5)),
    ]
    for c in (0, -1, 7) if m else (0, -1, 7, Fraction(-10 ** 6, 999983)):
        cases.append(("scale", a.scale(c), tuple(c * x for x in fa)))
    if m is None:
        cases.append(("primitive", a.primitive(), o_primitive(fa)))
    else:
        cases = [(name, got, tuple(Fraction(c % m) for c in want))
                 for name, got, want in cases]
    return cases


# -- strategies -------------------------------------------------------------


def rational_rows(max_size=24):
    coefficient = st.one_of(
        st.just(0),
        st.integers(-(1 << 80), 1 << 80),
        st.builds(Fraction, st.integers(-(1 << 64), 1 << 64),
                  st.integers(1, 10 ** 6)),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from((2, 3, 9))))
    return st.lists(coefficient, min_size=1, max_size=max_size)


rationals = rational_rows().map(QSeries.rational)
moduli = st.sampled_from((2, 3, 5, 7, 10 ** 9 + 7, (1 << 64) + 13))


@st.composite
def modular_pairs(draw):
    m = draw(moduli)
    row = st.lists(st.integers(0, m - 1), min_size=1, max_size=24)
    return QSeries.modular(m, draw(row)), QSeries.modular(m, draw(row)), m


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(rationals, rationals)
    def test_rational_operations(self, a, b):
        for name, got, want in oracle_ops(a, b, None):
            assert got.coeffs == want, name
            assert all(type(c) is Fraction for c in got.coeffs), name

    @settings(max_examples=60, deadline=None)
    @given(modular_pairs())
    def test_modular_operations(self, pair):
        a, b, m = pair
        for name, got, want in oracle_ops(a, b, m):
            assert got.ring == a.ring, name
            assert got.coeffs == want, name
            assert all(type(c) is int for c in got.coeffs), name

    @settings(max_examples=120, deadline=None)
    @given(rationals, st.sampled_from((2, 3, 4, 9, 10, 999983)))
    def test_reduce_mod(self, a, m):
        want = o_reduce(a.coeffs, m)
        if isinstance(want, int):
            with pytest.raises(NonIntegralCoefficientError) as err:
                a.reduce_mod(m)
            assert err.value.exponent == want
            assert err.value.coefficient == a.coeffs[want]
        else:
            assert a.reduce_mod(m).coeffs == want

    @pytest.mark.parametrize("tail", [
        (Fraction(1, 3),),
        (Fraction(2, 3), Fraction(1, 9), 1),
        (Fraction(5, 9), Fraction(1, 3)),
        (Fraction(1, 6), 0, Fraction(1, 27)),
    ])
    def test_first_non_integral_exponent_is_reported(self, tail):
        head = (1, Fraction(1, 2), 0, Fraction(-7, 5), 3, Fraction(9, 4),
                Fraction(1, 999983))
        row = QSeries.rational(head + tail)
        with pytest.raises(NonIntegralCoefficientError) as err:
            row.reduce_mod(3)
        assert err.value.exponent == 7
        assert err.value.coefficient == tail[0]
        assert row.truncate(7).reduce_mod(3).coeffs == \
            (1, 2, 0, 1, 0, 0, pow(999983, -1, 3))


# -- the stored row ---------------------------------------------------------


def assert_normal(s):
    """Residues over 1 for Z/m; lowest terms over a positive den for Q."""
    assert type(s.nums) is tuple and s.nums
    assert all(type(c) is int for c in s.nums)
    assert type(s.den) is int and s.den > 0
    m = s.ring.modulus
    if m is None:
        assert gcd(s.den, *s.nums) == 1
    else:
        assert s.den == 1 and all(0 <= c < m for c in s.nums)


class TestStoredRow:
    @settings(max_examples=120, deadline=None)
    @given(rationals, rationals)
    def test_every_rational_result_is_in_lowest_terms(self, a, b):
        assert_normal(a)
        for name, got, _ in oracle_ops(a, b, None):
            assert_normal(got)
        try:
            assert_normal(a.reduce_mod(3))
        except NonIntegralCoefficientError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(modular_pairs())
    def test_every_modular_result_is_a_residue_row(self, pair):
        a, b, m = pair
        for name, got, _ in oracle_ops(a, b, m):
            assert_normal(got)

    @settings(max_examples=120, deadline=None)
    @given(rational_rows(), st.integers(1, 10 ** 6))
    def test_row_and_fractions_build_the_same_series(self, row, k):
        built = QSeries.rational(row)
        den = lcm(*(Fraction(c).denominator for c in row)) * k
        nums = [int(c * den) for c in row]
        from_row = QSeries.from_row(RATIONAL, nums, den)
        assert from_row == built
        assert hash(from_row) == hash(built)
        assert from_row.coeffs == tuple(map(Fraction, row))
        assert (from_row.nums, from_row.den) == (built.nums, built.den)

    @example(row=[0, 0, 0])
    @example(row=[Fraction(4, 6), 2, 0])
    @settings(max_examples=60, deadline=None)
    @given(rational_rows(8))
    def test_coefficient_and_rendering_read_the_fractions(self, row):
        s = QSeries.rational(row)
        fractions = tuple(map(Fraction, row))
        assert tuple(s.coefficient(n) for n in range(len(row))) == fractions
        assert all(type(s.coefficient(n)) is Fraction
                   for n in range(len(row)))
        assert s.to_text_lines() == ["%d\t%s" % (n, c)
                                     for n, c in enumerate(fractions) if c]
        assert s.to_json_dict()["coeffs"] == [str(c) for c in fractions]

    def test_zero_row_has_denominator_one(self):
        z = QSeries.rational((0, 0, 0))
        assert (z.nums, z.den) == ((0, 0, 0), 1)
        assert QSeries.rational((Fraction(1, 2), 0)).scale(0) == z.truncate(2)

    def test_modular_rows_reduce_on_entry(self):
        s = QSeries.from_row(RingTag(5), [-1, 7, 10])
        assert (s.nums, s.den) == ((4, 2, 0), 1)
        assert s == QSeries.modular(5, (4, 2, 0))
        with pytest.raises(ValueError):
            QSeries.from_row(RingTag(5), [1, 2], 3)

    def test_denominator_must_be_positive(self):
        for den in (0, -2):
            with pytest.raises(ValueError):
                QSeries.from_row(RATIONAL, [1, 2], den)
        with pytest.raises(ValueError):
            QSeries.from_row(RATIONAL, [])
