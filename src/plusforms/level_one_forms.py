"""Classical level-one modular forms as exact q-expansions.

Bernoulli numbers, the normalized Eisenstein series E_4 and E_6 (their
divisor sums from arith.sigma_table), the discriminant cusp form Delta
(computed as an eta product; the tests hold it against the independent
identity Delta = (E_4^3 - E_6^2)/1728), monomial bases of M_k, and the
dimension of level-one cusp spaces.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .arith import sigma_table
from .qseries import QSeries, RATIONAL


class Weight2EmptyError(ValueError):
    """M_2 at level one is zero; there is no basis to hand out."""


class FormMeta(namedtuple("FormMeta", "twice_weight level_bound")):
    """Weight (stored doubled so half-integral weights stay integral) and
    a conservative level bound."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.twice_weight < 0:
            raise ValueError("negative weight")
        if self.level_bound < 1:
            raise ValueError("level bound must be >= 1")
        return self

    @property
    def weight(self) -> Fraction:
        return Fraction(self.twice_weight, 2)


class Form(namedtuple("Form", "series meta")):
    """A q-expansion together with its weight/level metadata."""

    __slots__ = ()

    def scaled(self, c) -> "Form":
        return Form(self.series.scale(c), self.meta)


_bernoulli_cache = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, convention B_1 = -1/2.

    Computed by the defining recurrence sum(C(n+1, k) B_k, k=0..n) = 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = sum(comb(m + 1, k) * _bernoulli_cache[k] for k in range(m))
        _bernoulli_cache.append(-acc / Fraction(m + 1))
    return _bernoulli_cache[n]


def eisenstein(weight: int, precision: int) -> Form:
    """Normalized Eisenstein series of even weight >= 4 at level one.

    E_w = 1 - (2w / B_w) * sum(sigma_{w-1}(n) q^n), so E_4 = 1 + 240*...,
    E_6 = 1 - 504*....
    """
    if weight < 4 or weight % 2:
        raise ValueError("weight must be an even integer >= 4")
    if precision < 1:
        raise ValueError("precision must be positive")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    num, den = factor.numerator, factor.denominator
    table = sigma_table(weight - 1, precision)
    row = [den] + [num * s for s in table[1:]]
    return Form(QSeries.from_row(RATIONAL, row, den), FormMeta(2 * weight, 1))


def _eta_series(precision: int) -> QSeries:
    # prod(1 - q^n) by Euler's pentagonal number theorem
    coeffs = [0] * precision
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < precision:
        sign = -1 if k % 2 else 1
        for idx in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if idx < precision:
                coeffs[idx] += sign
        k += 1
    return QSeries.from_row(RATIONAL, coeffs)


def delta(precision: int) -> Form:
    """The weight-12 cusp form q * prod((1 - q^n)^24)."""
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision == 1:
        return Form(QSeries.zero(RATIONAL, 1), FormMeta(24, 1))
    eta24 = _eta_series(precision - 1) ** 24
    return Form(QSeries.from_row(RATIONAL, (0,) + eta24.nums),
                FormMeta(24, 1))


def mk_basis(k: int, precision: int) -> list[Form]:
    """Monomials E_4^a E_6^b with 4a + 6b = k, listed with a descending.

    These span M_k at level one for even k != 2.
    """
    if k < 0 or k % 2:
        raise ValueError("k must be a nonnegative even integer")
    if k == 2:
        raise Weight2EmptyError("M_2 at level one is trivial")
    if k == 0:
        return [Form(QSeries.one(RATIONAL, precision), FormMeta(0, 1))]
    e4 = eisenstein(4, precision).series
    e6 = eisenstein(6, precision).series
    basis = []
    for a in range(k // 4, -1, -1):
        rem = k - 4 * a
        if rem % 6 == 0:
            basis.append(Form((e4 ** a) * (e6 ** (rem // 6)), FormMeta(2 * k, 1)))
    return basis


def dim_s(weight: int) -> int:
    """Dimension of the level-one cusp space of the given even weight."""
    if weight < 0 or weight % 2:
        raise ValueError("weight must be a nonnegative even integer")
    if weight < 12:
        return 0
    if weight % 12 == 2:
        return weight // 12 - 1
    return weight // 12
