"""Cohen-Eisenstein series, theta, the Kohnen plus space and its
isomorphism with pairs of level-one forms.

M_{k+1/2}(Gamma_0(4)) is spanned by the integer rows theta^a F_2^b with
a + 4b = 2k + 1, where F_2 = sum(sigma_1(n) q^n) over odd n.  The plus
space M+_{k+1/2} is cut out of it by the linear conditions that the q^n
coefficient vanishes whenever (-1)^k n = 2, 3 mod 4.  plus_space_basis
solves those conditions once per weight on the first few coefficients, in
one exact elimination.  Integer back-substitution turns the rows into forms
g_b = q^b + O(q^size); one echelon of the allowed g_b, read first at the
forbidden coefficients, then at the allowed q^b, then at their coordinates
in the rows, leaves the echelon basis of the kernel in the rows that pivot
past the forbidden block.  Their number is checked against Kohnen's
dimension dim M+_{k+1/2} = dim M_{2k} = 1 + dim S_{2k} (k >= 2).  Every
plus form lies in the kernel of any finite set of plus conditions, so a
kernel of that dimension is the plus space itself: the solve proves its
result.  It reads the rows only at its own length, 4 (top + 1)
coefficients for 2k + 1 = 4 top + eps, and keeps only the pivots and each
basis form's coordinates in the rows.

Every plus form, a basis element or a Cohen series, is then evaluated at
the requested precision by one routine: with X = theta^4 and Y = F_2 it
forms theta^eps sum(c_b X^(top-b) Y^b) by Horner in X over the powers of
Y, over Z with one common denominator.  A form whose first nonzero
coordinate is c_b0 takes top - b0 + 1 full-length products.  Building every
row whole would take about 3 top, so one form is cheaper this way and a
basis of dimension d >= 4 (from about k = 20) dearer.  The powers of theta
and F_2 are built once per call, shared by the forms of that call (H_{7/2}
and H_{11/2} for phi), and dropped when it returns.

A plus form is fixed by its coefficients at the basis pivots, so the
Eisenstein series H_{r+1/2} = sum(H(r, N) q^N) needs only the single values

    H(r, 0) = zeta(1 - 2r),
    H(r, N) = L(1-r, chi_D) * sum(mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d))
              over d | f, where (-1)^r N = D f^2 with D fundamental,

with L(1-r, chi_D) = -B_{r,chi_D}/r, at the pivots.  For r = 2, 3, 4, 5, 7
the cusp space is zero, the only pivot is N = 0, and no L-value is computed.
cohen_h evaluates the formula at any single N; it is also the oracle the
tests hold the series against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from . import _cache
from .arith import (
    fundamental_part,
    kronecker,
    mobius_divisors,
    sigma,
    sigma_table,
)
from .class_numbers import gen_bernoulli, hurwitz, hurwitz_numbers
from .level_one_forms import Form, FormMeta, bernoulli, dim_s
from .operators import dilate4, v4_precision
from .qseries import QSeries, RATIONAL


class ResidueConditionViolatedError(ValueError):
    """-b is a square mod a, so the progression series is not modular."""


class WeightMismatchError(ValueError):
    """Input weights do not fit the plus-space isomorphism parity rule."""


class PlusConditionError(ValueError):
    """A coefficient survives on a forbidden residue class mod 4."""


class PlusSpaceDimensionError(ArithmeticError):
    """The plus conditions left a space of the wrong dimension."""


def forbidden_residues(k: int) -> tuple[int, int]:
    """Residues n mod 4 where a weight k+1/2 plus form must vanish."""
    return (2, 3) if k % 2 == 0 else (1, 2)


class PlusForm(namedtuple("PlusForm", "series meta k")):
    """A form of weight k + 1/2 satisfying the plus condition:
    the q^n coefficient vanishes whenever (-1)^k n = 2, 3 mod 4."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.meta.twice_weight != 2 * self.k + 1:
            raise ValueError("meta weight disagrees with k")
        bad = forbidden_residues(self.k)
        nums = self.series.nums
        if any(any(nums[r::4]) for r in bad):
            n = next(n for n, c in enumerate(nums) if c and n % 4 in bad)
            raise PlusConditionError(
                "nonzero coefficient %s at q^%d (n = %d mod 4)"
                % (self.series.coefficient(n), n, n % 4)
            )
        return self


@lru_cache(maxsize=4096)
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
    d = fundamental_part(n0)
    f = isqrt(n0 // d)
    assert f * f * d == n0, "n0 = 0, 1 mod 4 makes n0 / d a square"
    acc = Fraction(0)
    for div, mu in mobius_divisors(f):
        acc += mu * kronecker(d, div) * div ** (r - 1) * sigma(2 * r - 1, f // div)
    return _l_value(r, d) * acc


class _Rungs:
    """theta^a (a <= 4) and F_2^b at one precision, each built on first use
    and kept only as long as the object: one call's plus forms share them."""

    __slots__ = ("precision", "_theta", "_f2")

    def __init__(self, precision: int):
        self.precision = precision
        self._theta: dict[int, QSeries] = {}
        self._f2: list[QSeries] = []

    def theta_power(self, a: int) -> QSeries:
        power = self._theta.get(a)
        if power is None:
            power = theta(self.precision).series if a == 1 else \
                self.theta_power(a - a // 2) * self.theta_power(a // 2)
            self._theta[a] = power
        return power

    def f2_power(self, b: int) -> QSeries:
        powers = self._f2
        if not powers:
            powers.append(QSeries.from_row(RATIONAL, [
                s if n % 2 else 0
                for n, s in enumerate(sigma_table(1, self.precision))]))
        while len(powers) < b:
            powers.append(powers[-1] * powers[0])
        return powers[b - 1]


def _echelon(work: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Q of integer rows, rewritten in place:
    the nonzero rows, scaled to integers with content 1, and their pivot
    columns.  No Fraction is made, and the smallest pivot on offer keeps the
    integers short (the first nonzero one is ten times slower at k = 100)."""
    pivots: list[int] = []
    for col in range(len(work[0])):
        rank = len(pivots)
        piv = min((i for i in range(rank, len(work)) if work[i][col]),
                  key=lambda i: abs(work[i][col]), default=None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        lead = work[rank]
        for i, row in enumerate(work):
            if i != rank and row[col]:
                p, f = lead[col], row[col]
                row = [p * a - f * b for a, b in zip(row, lead)]
                content = gcd(*row)
                work[i] = [a // content for a in row] if content > 1 else row
        pivots.append(col)
    return work[:len(pivots)], pivots


def _evaluate(k: int, coord, rungs: _Rungs) -> QSeries:
    """sum(coord[b] theta^(eps + 4 (top - b)) F_2^b), 2k + 1 = 4 top + eps,
    at the rungs' precision: theta^eps times the Horner scheme in
    X = theta^4 over the powers of F_2, formed over Z with one common
    denominator, so it takes top - b0 + 1 full-length products, b0 the
    first nonzero coordinate."""
    top, eps = divmod(2 * k + 1, 4)
    weights = QSeries.rational(coord)
    c = weights.nums
    x = rungs.theta_power(4)
    acc = x.scale(c[0]) if c[0] else None
    for b in range(1, top + 1):
        if c[b]:
            term = rungs.f2_power(b).scale(c[b])
            acc = term if acc is None else acc + term
        if b < top and acc is not None:
            acc = acc * x
    return QSeries.from_row(RATIONAL, (acc * rungs.theta_power(eps)).nums,
                            weights.den)


def _plus_space(k: int) -> tuple[list[int], list[tuple[Fraction, ...]]]:
    """The echelon pivots n_i of M+_{k+1/2} and the coordinates of each
    basis form in the graded rows theta^(eps + 4j) F_2^b, j = top - b."""
    if k < 2:
        raise ValueError("the plus-space basis needs k >= 2")
    top, eps = divmod(2 * k + 1, 4)
    size = top + 1
    # the plus conditions are read from the first 4 * size coefficients:
    # twice as many conditions as rows, and more than twice the coefficients
    # any weight up to 121/2 needs; the dimension check makes the solve a
    # proof either way
    length = 4 * size
    rungs = _Rungs(length)
    x = rungs.theta_power(4)
    leads = [rungs.theta_power(eps)]
    for _ in range(top):
        leads.append(leads[-1] * x)
    rows = [leads[top].nums] + [(leads[top - b] * rungs.f2_power(b)).nums
                                for b in range(1, size)]
    # row b is q^b + O(q^(b+1)), so integer back-substitution gives forms
    # g_b = q^b + O(q^size); each carries its coordinates in the rows
    # behind its first `length` coefficients
    head = [list(row) + [int(b == c) for c in range(size)]
            for b, row in enumerate(rows)]
    for b in range(size - 2, -1, -1):
        for c in range(b + 1, size):
            f = head[b][c]
            if f:
                head[b] = [u - f * v for u, v in zip(head[b], head[c])]
    # sum(x_b g_b) is a plus form below q^length iff x_b = 0 at forbidden
    # b < size and the forbidden coefficients from q^size on vanish; g_b
    # reads x_b at the allowed q^b, so the dim(allowed) - rank(forbidden)
    # rows that pivot past the forbidden block are the echelon basis
    bad = forbidden_residues(k)
    unknowns = [b for b in range(size) if b % 4 not in bad]
    columns = [n for n in range(size, length) if n % 4 in bad] + unknowns
    skip = len(columns) - len(unknowns)
    echelon, pivots = _echelon([[head[b][n] for n in columns]
                                + head[b][length:] for b in unknowns])
    basis = [(columns[col], tuple(Fraction(v, row[col]) for v in row[-size:]))
             for row, col in zip(echelon, pivots) if col >= skip]
    if len(basis) != 1 + dim_s(2 * k):
        raise PlusSpaceDimensionError(
            "the plus conditions on %d coefficients leave dimension %d in "
            "weight %d/2, not 1 + dim S_%d = %d"
            % (length, len(basis), 2 * k + 1, 2 * k, 1 + dim_s(2 * k)))
    return [n for n, _ in basis], [coord for _, coord in basis]


def plus_space_basis(k: int, precision: int) -> list[tuple[int, PlusForm]]:
    """The echelon basis of M+_{k+1/2}(Gamma_0(4)), k >= 2, as pairs
    (n_i, f_i) with the q^(n_j) coefficient of f_i equal to 1 if i = j
    and 0 otherwise; n_0 = 0 and f_1, f_2, ... span the cusp space S+.

    Raises PlusSpaceDimensionError if the plus conditions leave a space
    whose dimension is not 1 + dim S_{2k}."""
    pivots, coords = _plus_space(k)
    rungs = _Rungs(precision)
    meta = FormMeta(2 * k + 1, 4)
    return [(n, PlusForm(_evaluate(k, coord, rungs), meta, k))
            for n, coord in zip(pivots, coords)]


def _cohen_coordinates(r: int) -> list[Fraction]:
    """The coordinates of H_{r+1/2} in the graded rows: sum(cohen_h(r, n_i)
    times the coordinates of f_i) over the plus-space basis (n_i, f_i)."""
    pivots, coords = _plus_space(r)
    values = [cohen_h(r, n) for n in pivots]
    return [sum(v * c for v, c in zip(values, column))
            for column in zip(*coords)]


def cohen_series_many(rs, precision: int) -> list[PlusForm]:
    """[cohen_series(r, precision) for r in rs], with the theta and F_2
    powers built once for all of them and dropped on return."""
    if min(rs) < 2:
        raise ValueError("cohen_series needs r >= 2 (r = 1 is the Hurwitz row)")
    rungs = _Rungs(precision)
    forms = []
    for r in rs:
        series = _cache.series_at(
            ("cohen", r), precision,
            lambda p: _evaluate(r, _cohen_coordinates(r), rungs))
        forms.append(PlusForm(series, FormMeta(2 * r + 1, 4), r))
    return forms


def cohen_series(r: int, precision: int) -> PlusForm:
    """H_{r+1/2} as a plus form of weight r + 1/2 on level 4, r >= 2: the
    sum of cohen_h(r, n_i) f_i over the plus-space basis (n_i, f_i),
    evaluated by the one route every plus form takes.  Only the values at
    the pivots are computed one by one; for r = 2, 3, 4, 5, 7 that is the
    constant term zeta(1 - 2r) alone."""
    (form,) = cohen_series_many((r,), precision)
    return form


def theta(precision: int) -> Form:
    """1 + 2 sum(q^(n^2)), weight 1/2 on level 4."""
    if precision < 1:
        raise ValueError("precision must be positive")
    row = [0] * precision
    for n in range(isqrt(precision - 1) + 1):
        row[n * n] = 2 if n else 1
    return Form(QSeries.from_row(RATIONAL, row), FormMeta(1, 4))


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
    coeffs = [0] * precision
    coeffs[b % a::a] = hurwitz_numbers(precision - 1, a, b)
    level = a * a if a % 2 == 0 else 4 * a * a
    return Form(QSeries.rational(coeffs), FormMeta(3, level))


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
        first, second = (form.series
                         for form in cohen_series_many((3, 5), precision))
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
