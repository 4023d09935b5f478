"""Differential tests for the small-integer routines: each against sympy
and, where one existed, against the route it replaced."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisor_sigma, divisors, factorint, isprime, mobius

from plusforms.arith import (
    factorize,
    fundamental_part,
    is_prime,
    kronecker,
    kronecker_row,
    mobius_divisors,
    sigma,
    squarefree_flags,
    squarefree_kernel,
)
from plusforms.class_numbers import field_discriminant, is_fundamental


def trial_division_sigma(e: int, n: int) -> int:
    """The divisor loop sigma used before it read factorize: the oracle."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d ** e
            other = n // d
            if other != d:
                total += other ** e
    return total


nonzero = st.integers(-2000, 2000).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 9))
def test_factorize_matches_sympy(n):
    assert factorize(n) == sorted(factorint(n).items())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 6))
def test_mobius_divisors_match_sympy(n):
    expected = sorted((e, int(mobius(e))) for e in divisors(n) if mobius(e))
    assert sorted(mobius_divisors(n)) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.integers(1, 10 ** 6))
def test_sigma_matches_sympy_and_the_divisor_loop(e, n):
    assert sigma(e, n) == divisor_sigma(n, e) == trial_division_sigma(e, n)


def test_sigma_matches_the_divisor_loop_below_3000():
    for e in range(8):
        for n in range(1, 3000):
            assert sigma(e, n) == trial_division_sigma(e, n), (e, n)


@settings(max_examples=300, deadline=None)
@given(nonzero, st.integers(1, 600))
def test_kronecker_row_matches_kronecker(d, f):
    assert kronecker_row(d, f) == [kronecker(d, n) for n in range(f)]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5000))
def test_squarefree_flags_match_squarefree_kernel(limit):
    assert squarefree_flags(limit).tolist() == [False] + [
        squarefree_kernel(n) == n for n in range(1, limit + 1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, -1))
def test_fundamental_part_matches_field_discriminant(n):
    assert fundamental_part(n) == field_discriminant(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_fundamental_part_is_a_fundamental_square_class(n):
    d = fundamental_part(n)
    assert is_fundamental(d) and isqrt(n * d) ** 2 == n * d


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 10 ** 6))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


def test_sigma_rejects_negative_exponents():
    with pytest.raises(ValueError):
        sigma(-1, 6)


@pytest.mark.parametrize("f", [0, -1])
def test_kronecker_row_rejects_empty_rows(f):
    with pytest.raises(ValueError, match="f >= 1"):
        kronecker_row(-23, f)
