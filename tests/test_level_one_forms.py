from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms import qseries
from plusforms.level_one_forms import (
    Weight2EmptyError,
    bernoulli,
    delta,
    dim_s,
    eisenstein,
    mk_basis,
    monomials,
)
from plusforms.arith import sigma


def bernoulli_oracle(n):
    # independent route: the explicit double-sum (Worpitzky) formula
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum((-1) ** j * comb(k, j) * Fraction(j ** n) for j in range(k + 1))
        total += inner / (k + 1)
    return total


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_explicit_formula(self):
        # the double sum lands on the B(1) = -1/2 convention directly
        for n in range(20):
            assert bernoulli(n) == bernoulli_oracle(n)


class TestSigma:
    @pytest.mark.parametrize("e,n,expected", [(3, 1, 1), (3, 2, 9), (5, 2, 33)])
    def test_examples(self, e, n, expected):
        assert sigma(e, n) == expected

    def test_multiplicative_on_coprime(self):
        assert sigma(3, 6) == sigma(3, 2) * sigma(3, 3)


class TestEisenstein:
    def test_e4(self):
        assert eisenstein(4, 3).series.coeffs == (1, 240, 2160)

    def test_e6(self):
        assert eisenstein(6, 3).series.coeffs == (1, -504, -16632)

    def test_reduce_mod_three_is_one(self):
        for w in (4, 6):
            r = eisenstein(w, 40).series.reduce_mod(3)
            assert r.coeffs == (1,) + (0,) * 39

    def test_meta(self):
        meta = eisenstein(4, 2).meta
        assert meta.twice_weight == 8 and meta.level_bound == 1


class TestDelta:
    def test_small(self):
        assert delta(3).series.coeffs == (0, 1, -24)
        assert delta(5).series.coeffs == (0, 1, -24, 252, -1472)

    def test_eta_product_matches_polynomial_identity(self):
        # (E4^3 - E6^2) / 1728 is an independent construction
        p = 60
        e4 = eisenstein(4, p).series
        e6 = eisenstein(6, p).series
        other = (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728))
        assert delta(p).series.coeffs == other.coeffs


class TestBasisAndDimensions:
    def test_basis_weight_zero(self):
        basis = mk_basis(0, 5)
        assert len(basis) == 1 and basis[0].series.coeffs[0] == 1

    def test_basis_sizes(self):
        assert len(mk_basis(12, 4)) == 2
        assert len(mk_basis(14, 4)) == 1
        for k in range(4, 41, 2):
            expected = k // 12 if k % 12 == 2 else k // 12 + 1
            assert len(mk_basis(k, 3)) == expected, k

    def test_never_multiplies_by_one(self, monkeypatch):
        # a zero exponent takes no factor, so no E_4^0 or E_6^0 enters a
        # product, and weight 0 is the series 1 with no product at all
        kernel = qseries._kronecker
        operands = []

        def spy(a, b):
            operands.extend((a, b))
            return kernel(a, b)

        monkeypatch.setattr(qseries, "_kronecker", spy)
        for k in range(0, 41, 2):
            if k != 2:
                mk_basis(k, 12)
        assert operands
        assert not [row for row in operands
                    if row[0] == 1 and not any(row[1:])]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=1, max_size=4), st.integers(1, 40))
    def test_monomials_equal_the_eisenstein_powers(self, exponents, p):
        e4, e6 = eisenstein(4, p).series, eisenstein(6, p).series
        assert monomials(exponents, p) == [e4 ** a * e6 ** b
                                           for a, b in exponents]

    def test_weight_two_raises(self):
        with pytest.raises(Weight2EmptyError):
            mk_basis(2, 5)

    def test_basis_ordering_lexicographic(self):
        b12 = mk_basis(12, 3)
        # E4^3 first (a descending): its q coefficient is 720, E6^2 has -1008
        assert b12[0].series.coeffs[1] == 720
        assert b12[1].series.coeffs[1] == -1008

    @pytest.mark.parametrize("w,expected", [
        (12, 1), (18, 1), (10, 0), (26, 1), (2, 0), (0, 0), (24, 2)])
    def test_dim_s(self, w, expected):
        assert dim_s(w) == expected
