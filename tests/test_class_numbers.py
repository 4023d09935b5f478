from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import jacobi_symbol

from plusforms import class_numbers, cohen_eisenstein
from plusforms.class_numbers import (
    Discriminant,
    NonNegativeInputError,
    class_number_of_field,
    field_discriminant,
    form_class_number,
    gen_bernoulli,
    hurwitz,
    hurwitz_numbers,
    hurwitz_weighted_form_count,
    is_fundamental,
    kronecker,
)


class TestKronecker:
    def test_principal(self):
        assert all(kronecker(1, n) == 1 for n in range(1, 60))

    def test_minus_four_at_three(self):
        assert kronecker(-4, 3) == -1

    def test_zero_iff_common_factor(self):
        for d in (-8, -4, -3, 5, 12, 21):
            for n in range(1, 40):
                assert (kronecker(d, n) == 0) == (gcd(d, n) > 1)

    def test_against_sympy_jacobi(self):
        for d in range(-30, 31):
            for n in range(1, 30, 2):  # jacobi needs odd positive n
                assert kronecker(d, n) == jacobi_symbol(d, n), (d, n)

    def test_completely_multiplicative_in_second_argument(self):
        for d in (-3, -4, 5, -20):
            for a in range(1, 25):
                for b in range(1, 25):
                    assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)

    def test_periodic_mod_abs_d_for_fundamental(self):
        for d in (-3, -4, -8, 5, 13, -23):
            for n in range(1, 80):
                assert kronecker(d, n) == kronecker(d, n + abs(d))


class TestFundamental:
    def test_examples(self):
        assert is_fundamental(1)
        assert is_fundamental(-8)
        assert not is_fundamental(-9)

    def test_against_naive_definition(self):
        def naive(d):
            def squarefree(m):
                m = abs(m)
                return all(m % (p * p) for p in range(2, m + 1))
            if d % 4 == 1:
                return squarefree(d)
            return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)

        for d in range(-150, 151):
            if d:
                assert is_fundamental(d) == naive(d), d

    def test_discriminant_type(self):
        assert Discriminant.of(-8).is_fundamental
        with pytest.raises(ValueError):
            Discriminant(-9, True)


class TestClassNumbers:
    @pytest.mark.parametrize("d,h", [(-3, 1), (-23, 3), (-47, 5), (-4, 1)])
    def test_field_values(self, d, h):
        assert class_number_of_field(d) == h

    def test_rejects_nonnegative(self):
        with pytest.raises(NonNegativeInputError):
            class_number_of_field(5)

    def test_field_discriminant(self):
        assert field_discriminant(-12) == -3
        assert field_discriminant(-52) == -52
        assert field_discriminant(-13) == -52
        assert field_discriminant(-40) == -40

    def test_non_fundamental_discriminant_counts(self):
        assert form_class_number(-12) == 1
        assert form_class_number(-36) == 2


class TestGenBernoulli:
    def test_examples(self):
        assert gen_bernoulli(1, -3) == Fraction(-1, 3)
        assert gen_bernoulli(1, -4) == Fraction(-1, 2)
        assert -gen_bernoulli(1, -23) == 3

    def test_class_number_route_agrees(self):
        # h(D) = -B_{1, chi_D} for fundamental D < -4
        for d in range(-500, -4):
            if is_fundamental(d):
                assert class_number_of_field(d) == -gen_bernoulli(1, d), d

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            gen_bernoulli(1, -9)

    def test_character_row_matches_kronecker(self):
        for d in list(range(-1200, 0)) + list(range(1, 1200)):
            if is_fundamental(d):
                f = abs(d)
                assert class_numbers._chi_row(d, f) == [
                    kronecker(d, a) for a in range(f)], d


def _module_tables():
    return {name: len(value) for name, value in vars(class_numbers).items()
            if isinstance(value, (list, dict, set, tuple))}


def test_no_module_table_grows_across_calls():
    gen_bernoulli(1, -23)
    before = _module_tables()
    for d in (-1019, -4003, -16007, 12001):
        assert is_fundamental(d)
        gen_bernoulli(2 if d > 0 else 1, d)
    cohen_eisenstein.cohen_h(3, 16007)
    assert _module_tables() == before


class TestHurwitz:
    @pytest.mark.parametrize("n,value", [
        (0, Fraction(-1, 12)), (3, Fraction(1, 3)), (4, Fraction(1, 2)),
        (5, 0), (7, 1), (12, Fraction(4, 3)), (20, 2)])
    def test_values(self, n, value):
        assert hurwitz(n) == value

    def test_vanishes_on_excluded_residues(self):
        for n in range(1, 200):
            if n % 4 in (1, 2):
                assert hurwitz(n) == 0

    def test_equals_brute_weighted_count(self):
        for n in range(3000):
            assert hurwitz(n) == hurwitz_weighted_form_count(n), n

    def test_no_form_count_where_no_discriminant_exists(self, monkeypatch):
        # -n is no discriminant for n = 1, 2 mod 4: H(n) = 0 without a walk
        def refuse(*args):
            raise AssertionError("_count_forms called for %r" % (args,))

        monkeypatch.setattr(class_numbers, "_count_forms", refuse)
        for n in range(3000):
            if n % 4 in (1, 2):
                assert hurwitz(n) == hurwitz_weighted_form_count(n) == 0, n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-2, 1500), st.integers(1, 96), st.integers(-96, 96))
    def test_batch_rows_match_oracle(self, limit, modulus, residue):
        # any class, residue 0 included: no Mobius step restricts it
        expected = [hurwitz_weighted_form_count(n) for n in range(1, limit + 1)
                    if n % modulus == residue % modulus]
        assert hurwitz_numbers(limit, modulus, residue) == expected


@pytest.mark.parametrize("cached", [class_numbers._mobius_divisors,
                                    class_numbers.form_class_number,
                                    cohen_eisenstein._l_value])
def test_caches_are_bounded(cached):
    assert cached.cache_info().maxsize is not None
