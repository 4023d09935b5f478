"""Cohen-Eisenstein series, theta, and the Kohnen plus-space isomorphism.

The half-integral weight Eisenstein series H_{r+1/2} = sum(H(r, N) q^N) is
assembled from the exact values

    H(r, 0) = zeta(1 - 2r),
    H(r, N) = L(1-r, chi_D) * sum(mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d))
              over d | f, where (-1)^r N = D f^2 with D fundamental,

and L(1-r, chi_D) = -B_{r,chi_D}/r.  This finite algebraic form is the
functional-equation twin of the archimedean L(r, .) expression and is the
only route that stays in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import _cache
from .class_numbers import (
    _mobius_divisors,
    gen_bernoulli,
    hurwitz,
    hurwitz_numbers,
    kronecker,
    squarefree_kernel,
)
from .level_one_forms import Form, FormMeta, bernoulli, sigma
from .operators import dilate4, v4_precision
from .qseries import QSeries, RATIONAL


class ResidueConditionViolatedError(ValueError):
    """-b is a square mod a, so the progression series is not modular."""


class WeightMismatchError(ValueError):
    """Input weights do not fit the plus-space isomorphism parity rule."""


class PlusConditionError(ValueError):
    """A coefficient survives on a forbidden residue class mod 4."""


def forbidden_residues(k: int) -> tuple[int, int]:
    """Residues n mod 4 where a weight k+1/2 plus form must vanish."""
    return (2, 3) if k % 2 == 0 else (1, 2)


@dataclass(frozen=True)
class PlusForm:
    """A form of weight k + 1/2 satisfying the plus condition:
    the q^n coefficient vanishes whenever (-1)^k n = 2, 3 mod 4."""

    series: QSeries
    meta: FormMeta
    k: int

    def __post_init__(self):
        if self.meta.twice_weight != 2 * self.k + 1:
            raise ValueError("meta weight disagrees with k")
        bad = forbidden_residues(self.k)
        for n, c in enumerate(self.series.coeffs):
            if c and n % 4 in bad:
                raise PlusConditionError(
                    "nonzero coefficient %s at q^%d (n = %d mod 4)"
                    % (c, n, n % 4)
                )


def _fundamental_decomposition(n0: int) -> tuple[int, int]:
    # n0 = D * f^2 with D fundamental; requires n0 = 0, 1 mod 4
    d0 = squarefree_kernel(n0)
    d = d0 if d0 % 4 == 1 else 4 * d0
    f2 = n0 // d
    f = isqrt(f2)
    assert f * f == f2, "input was not 0 or 1 mod 4"
    return d, f


@lru_cache(maxsize=None)
def _l_value(r: int, d: int) -> Fraction:
    # L(1 - r, chi_d) = -B_{r, chi_d} / r
    return -gen_bernoulli(r, d) / r


def cohen_h(r: int, n: int) -> Fraction:
    """The class-number-like value H(r, N) of weight r + 1/2.

    For r = 1 this is the Hurwitz class number; for r >= 2 the finite
    L-value/divisor-sum formula above.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError("N must be nonnegative")
    if r == 1:
        return hurwitz(n)
    if n == 0:
        return -bernoulli(2 * r) / (2 * r)
    n0 = n if r % 2 == 0 else -n
    if n0 % 4 in (2, 3):
        return Fraction(0)
    d, f = _fundamental_decomposition(n0)
    acc = Fraction(0)
    for div, mu in _mobius_divisors(f):
        acc += mu * kronecker(d, div) * div ** (r - 1) * sigma(2 * r - 1, f // div)
    return _l_value(r, d) * acc


def _cohen_coeffs(r: int, precision: int) -> QSeries:
    return QSeries(RATIONAL, tuple(cohen_h(r, n) for n in range(precision)))


def cohen_series(r: int, precision: int) -> PlusForm:
    """H_{r+1/2} as a plus form of weight r + 1/2 on level 4, r >= 2."""
    if r < 2:
        raise ValueError("cohen_series needs r >= 2 (r = 1 is the Hurwitz row)")
    series = _cache.series_at(("cohen", r), precision, lambda p: _cohen_coeffs(r, p))
    return PlusForm(series, FormMeta(2 * r + 1, 4), r)


def theta(precision: int) -> Form:
    """1 + 2 sum(q^(n^2)), weight 1/2 on level 4."""
    coeffs = [0] * precision
    coeffs[0] = 1
    n = 1
    while n * n < precision:
        coeffs[n * n] = 2
        n += 1
    return Form(QSeries.rational(coeffs), FormMeta(1, 4))


def g_ab(a: int, b: int, precision: int) -> Form:
    """Hurwitz numbers along the progression n = b mod a, as a weight-3/2
    form; requires -b to be a quadratic non-residue mod a."""
    if a < 1:
        raise ValueError("a must be >= 1")
    target = (-b) % a
    if any((x * x) % a == target for x in range(a)):
        raise ResidueConditionViolatedError(
            "-%d is a square mod %d; the progression is not modular" % (b, a)
        )
    coeffs = [Fraction(0)] * precision
    coeffs[b % a::a] = hurwitz_numbers(precision - 1, a, b)
    level = a * a if a % 2 == 0 else 4 * a * a
    return Form(QSeries.rational(coeffs), FormMeta(3, level, character="unset"))


def plus_isomorphism(k: int, f: Form | None, h: Form | None,
                     precision: int) -> PlusForm:
    """Image of (f, h) in the plus space of weight k + 1/2.

    Even k maps M_k + M_{k-2} via f(4z) theta(z) + h(4z) H_{5/2}(z); odd k
    maps M_{k-3} + M_{k-5} via f(4z) H_{7/2}(z) + h(4z) H_{11/2}(z).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k % 2 == 0:
        expect_f, expect_h = 2 * k, 2 * (k - 2)
        first, second = theta(precision).series, cohen_series(2, precision).series
    else:
        expect_f, expect_h = 2 * (k - 3), 2 * (k - 5)
        first = cohen_series(3, precision).series
        second = cohen_series(5, precision).series
    total = QSeries.zero(RATIONAL, precision)
    for form, expect, partner in ((f, expect_f, first), (h, expect_h, second)):
        if form is None:
            continue
        if form.meta.twice_weight != expect:
            raise WeightMismatchError(
                "component of twice-weight %d where %d was required"
                % (form.meta.twice_weight, expect)
            )
        if form.series.precision < precision:
            raise ValueError("component precision %d < requested %d"
                             % (form.series.precision, precision))
        small = form.series.truncate(v4_precision(precision))
        total = total + dilate4(small, precision) * partner
    return PlusForm(total, FormMeta(2 * k + 1, 4), k)
