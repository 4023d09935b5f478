"""Cohen-Eisenstein series, theta, the Kohnen plus space and its
isomorphism with pairs of level-one forms.

The plus space M+_{k+1/2}(Gamma_0(4)) holds the forms whose q^n coefficient
vanishes whenever (-1)^k n = 2, 3 mod 4.  By Kohnen's isomorphism (Math.
Ann. 248, 1980) it is the sum of the images

    even k: M_k(4z) theta + M_{k-2}(4z) H_{5/2},
    odd k:  M_{k-3}(4z) H_{7/2} + M_{k-5}(4z) H_{11/2},

of dimension dim M_{2k} = 1 + dim S_{2k} (k >= 2).  Each partner besides
theta is a seed: its plus space (r = 2, 3, 5) is a line, and Cohen's
identities (Math. Ann. 217, 1975) give it from theta^4 and
F_2 = sum(sigma_1(n) q^n) over odd n, scaled to its constant term
zeta(1 - 2r).  One call builds only the seeds it needs, and they share
theta^2, theta^3 and theta^4.

kohnen_images is the one route from level-one forms into the plus space
(plus_isomorphism, phi, psi, psi10 and the basis below): it dilates
level-one series built at a quarter of the precision and multiplies them by
the partners in use, the only ones it builds; the product kernel takes such
a pair in quarter-length pieces.  It is the one route over a ring too: each
summand carries a scale a_i, and its constant a_i zeta(1 - 2r_i) (a_i for
theta) may have 3 in its denominator.  kohnen_ring reads v, the 3-adic
valuation of the constants' common denominator, and over Z/3^(v+1) the
partners are theta and the seed bodies H_{r+1/2} / zeta(1 - 2r), whose
coefficients are integers, so the images come out as 3^v times the forms
with no rational entry built; constructions divides by 3^v.
plus_space_basis(k, P) takes the images
of every monomial E_4^a E_6^b of each nonzero summand.  One exact elimination of the images' first
floor((2k+1)/4) + 1 coefficients, beside a change-of-basis block, gives
the echelon pivots and each basis form's weights on the images.  That
length does not depend on P: a nonzero plus form f has f^4 of weight
4k + 2 on Gamma_0(4), whose Sturm bound is 2k + 1, so f has order at most
floor((2k+1)/4).  The rank is checked against Kohnen's dimension, which
proves that the images span the plus space.

A plus form is fixed by its coefficients at the basis pivots, so the
Eisenstein series H_{r+1/2} = sum(H(r, N) q^N) needs only the single values

    H(r, 0) = zeta(1 - 2r),
    H(r, N) = L(1-r, chi_D) * sum(mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d))
              over d | f, where (-1)^r N = D f^2 with D fundamental,

with L(1-r, chi_D) = -B_{r,chi_D}/r, at the pivots, and cohen_series
combines the images once by sum(H(r, n_i) (weights of f_i)).  For r = 4, 7
the cusp space is zero, the only pivot is N = 0, and no L-value is computed.
cohen_h evaluates the formula at any single N; it is also the oracle the
tests hold the series against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from . import _cache
from .arith import (
    fundamental_part,
    kronecker,
    mobius_divisors,
    sigma,
    sigma_table,
)
from .class_numbers import gen_bernoulli, hurwitz, hurwitz_sixfold
from .level_one_forms import (
    Form,
    FormMeta,
    bernoulli,
    dim_s,
    mk_exponents,
    monomials,
)
from .operators import dilate4, v4_precision
from .qseries import QSeries, RATIONAL, RingTag


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


def _seed_body(r: int, rungs: dict, precision: int, ring: RingTag) -> QSeries:
    """H_{r+1/2} / zeta(1 - 2r) over `ring`, for r = 2, 3, 5, by Cohen's
    identities in X = theta^4 and Y = F_2:

        H_{5/2} = zeta(-3) theta (X - 20 Y),
        H_{7/2} = zeta(-5) theta^3 (X - 14 Y),
        H_{11/2} = zeta(-9) theta^3 ((X - 22 Y) X + 88 Y^2).

    The body has integer coefficients, so it is built over Q or Z/m alike.
    `rungs` keeps theta, theta^2, X and Y, and theta^3 once a seed needs
    it, for the other seeds of one call; a theta already in it is used."""
    if "x" not in rungs:
        if "theta" not in rungs:
            rungs["theta"] = theta(precision, ring=ring).series
        th2 = rungs["theta"] * rungs["theta"]
        rungs.update(theta2=th2, x=th2 * th2, y=QSeries.from_row(
            ring, [s if n % 2 else 0
                   for n, s in enumerate(sigma_table(1, precision))]))
    x, y = rungs["x"], rungs["y"]
    if r == 2:
        return rungs["theta"] * (x - 20 * y)
    if "theta3" not in rungs:
        rungs["theta3"] = rungs["theta2"] * rungs["theta"]
    return rungs["theta3"] * (x - 14 * y if r == 3
                              else (x - 22 * y) * x + 88 * (y * y))


def _partners(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Kohnen's isomorphism in weight k + 1/2 as one pair (w, r) per summand
    M_w(4z) g, g = theta for r = 0 and H_{r+1/2} otherwise: (k, theta) and
    (k - 2, H_{5/2}) for even k, (k - 3, H_{7/2}) and (k - 5, H_{11/2})."""
    return ((k, 0), (k - 2, 2)) if k % 2 == 0 else ((k - 3, 3), (k - 5, 5))


def _constants(k: int, scales) -> list[Fraction]:
    """a_i zeta(1 - 2 r_i) for the scale a_i of each summand (w_i, r_i) of
    _partners(k): the constant term of its partner times a_i, with
    theta's constant term 1."""
    return [Fraction(a) * (cohen_h(r, 0) if r else 1)
            for a, (_, r) in zip(scales, _partners(k))]


def kohnen_ring(k: int, scales) -> RingTag:
    """Z/3^(v+1), v the 3-adic valuation of the common denominator of the
    summand constants of kohnen_images(k, ..., scales): the least ring in
    which those images, times 3^v, are built with integral constants.  A
    zero scale marks an unused summand."""
    v, _ = _split3(lcm(*(c.denominator for c in _constants(k, scales))))
    return RingTag(3 ** (v + 1))


def _split3(n: int) -> tuple[int, int]:
    """(v, n / 3^v) for the 3-adic valuation v of n != 0."""
    v = 0
    while n % 3 == 0:
        n, v = n // 3, v + 1
    return v, n


def kohnen_images(k: int, components, precision: int, scales=(1, 1),
                  ring: RingTag = RATIONAL) -> list[PlusForm]:
    """The plus form sum(a_i c_i(4z) g_i) of weight k + 1/2 for each tuple
    (c_1, c_2) in the list `components`, over the summands (w_i, g_i) of
    _partners(k) with scales (a_1, a_2): c_i has weight w_i at
    v4_precision(precision), or is None where its summand is unused.  Only
    the partners in use are built.

    Over Q the partners are theta and the Cohen series.  Over
    Z/3^(v+1), v >= 0, the components are given over that ring and the
    partners are theta and the seed bodies H_{r+1/2} / zeta(1 - 2r), which
    have integer coefficients; each image is then 3^v times the form, with
    3^v a_i zeta(1 - 2r_i) taken mod 3^(v+1), which needs v at least the
    valuation kohnen_ring(k, scales) reads."""
    rs = [r for _, r in _partners(k)]
    used = {r for c in components for r, s in zip(rs, c) if s is not None}
    seeds = sorted(used - {0})
    partner: dict = {}
    rungs: dict = {}
    if 0 in used:
        # theta is also the first rung of the seeds
        partner[0] = rungs["theta"] = theta(precision, ring=ring).series
    m = ring.modulus
    if m is None:
        multipliers = scales
        for r, h in zip(seeds, cohen_series_many(seeds, precision, rungs)):
            partner[r] = h.series
    else:
        e, rest = _split3(m)
        if rest != 1:
            raise ValueError("kohnen_images builds over Q or Z/3^e, not %s"
                             % ring.label())
        multipliers = [c.numerator * pow(c.denominator, -1, m) % m
                       for c in (3 ** (e - 1) * c
                                 for c in _constants(k, scales))]
        for r in seeds:
            partner[r] = _cache.series_at(
                ("seed", r, m), precision,
                lambda p: _seed_body(r, rungs, p, ring))
    meta = FormMeta(2 * k + 1, 4)
    terms = [[dilate4(s if a == 1 else s.scale(a), precision) * partner[r]
              for r, a, s in zip(rs, multipliers, c) if s is not None]
             for c in components]
    return [PlusForm(sum(t[1:], t[0]) if t
                     else QSeries.zero(ring, precision), meta, k)
            for t in terms]


def _kohnen_basis(k: int, precision: int):
    """The rows of the isomorphism images E_4^a E_6^b(4z) g at `precision`
    (at least the solve's length), and the echelon basis of M+_{k+1/2} as
    pairs (n_i, weights of f_i on those rows)."""
    if k < 2:
        raise ValueError("the plus-space basis needs k >= 2")
    # a nonzero plus form f has f^4 of weight 4k + 2 on Gamma_0(4), whose
    # Sturm bound is 2k + 1, so f has order at most (2k + 1) / 4 and its
    # first `length` coefficients fix it, whatever the precision
    length = (2 * k + 1) // 4 + 1
    precision = max(precision, length)
    # M_w is zero for w < 0 and w = 2, and such a summand takes no partner;
    # one monomials call builds E_4 and E_6 once for both summands
    summands = [(i, e) for i, (w, _) in enumerate(_partners(k))
                if w >= 0 and w != 2 for e in mk_exponents(w)]
    series = monomials([e for _, e in summands], v4_precision(precision))
    components = [(s, None) if i == 0 else (None, s)
                  for (i, _), s in zip(summands, series)]
    rows = [im.series.nums for im in kohnen_images(k, components, precision)]
    eye = range(len(rows))
    echelon, pivots = _echelon([list(row[:length]) + [int(i == j) for j in eye]
                                for i, row in zip(eye, rows)])
    basis = [(col, [Fraction(c, row[col]) for c in row[length:]])
             for row, col in zip(echelon, pivots) if col < length]
    if len(basis) != 1 + dim_s(2 * k):
        raise PlusSpaceDimensionError(
            "the %d isomorphism images span dimension %d in weight %d/2, "
            "not 1 + dim S_%d = %d"
            % (len(rows), len(basis), 2 * k + 1, 2 * k, 1 + dim_s(2 * k)))
    return rows, basis


def _combine(weights, rows, precision: int) -> QSeries:
    """sum(weights[j] rows[j]) for rational weights and integer rows, cut
    to `precision` and formed over Z with one common denominator."""
    den = lcm(*(w.denominator for w in weights))
    acc = [0] * precision
    for w, row in zip(weights, rows):
        if w:
            c = w.numerator * (den // w.denominator)
            acc = [a + c * v for a, v in zip(acc, row)]
    return QSeries.from_row(RATIONAL, acc, den)


def plus_space_basis(k: int, precision: int) -> list[tuple[int, PlusForm]]:
    """The echelon basis of M+_{k+1/2}(Gamma_0(4)), k >= 2, as pairs
    (n_i, f_i) with the q^(n_j) coefficient of f_i equal to 1 if i = j
    and 0 otherwise; n_0 = 0 and f_1, f_2, ... span the cusp space S+.

    Raises PlusSpaceDimensionError if the isomorphism images span a space
    whose dimension is not 1 + dim S_{2k}."""
    rows, basis = _kohnen_basis(k, precision)
    meta = FormMeta(2 * k + 1, 4)
    return [(n, PlusForm(_combine(weights, rows, precision), meta, k))
            for n, weights in basis]


def _cohen_series(r: int, precision: int) -> QSeries:
    """sum(cohen_h(r, n_i) f_i) over the plus-space basis (n_i, f_i),
    combined once on the image rows."""
    rows, basis = _kohnen_basis(r, precision)
    values = [cohen_h(r, n) for n, _ in basis]
    return _combine([sum(v * c for v, c in zip(values, column))
                     for column in zip(*(w for _, w in basis))],
                    rows, precision)


def cohen_series_many(rs, precision: int,
                      rungs: dict | None = None) -> list[PlusForm]:
    """[cohen_series(r, precision) for r in rs], with theta^2, theta^3,
    theta^4 and F_2 built once for the seeds r = 2, 3, 5 among them.
    `rungs` may hold theta(precision).series under "theta" (see
    _seed_body)."""
    rs = tuple(rs)
    if any(r < 2 for r in rs):
        raise ValueError("cohen_series needs r >= 2 (r = 1 is the Hurwitz row)")
    rungs = {} if rungs is None else rungs
    forms = []
    for r in rs:
        series = _cache.series_at(
            ("cohen", r), precision,
            lambda p: _seed_body(r, rungs, p, RATIONAL).scale(cohen_h(r, 0))
            if r in (2, 3, 5) else _cohen_series(r, p))
        forms.append(PlusForm(series, FormMeta(2 * r + 1, 4), r))
    return forms


def cohen_series(r: int, precision: int) -> PlusForm:
    """H_{r+1/2} as a plus form of weight r + 1/2 on level 4, r >= 2: a
    seed for r = 2, 3, 5, otherwise the sum of cohen_h(r, n_i) f_i over the
    plus-space basis (n_i, f_i).  Only the values at the pivots are
    computed one by one; for r = 4 and 7 that is the constant term
    zeta(1 - 2r) alone."""
    (form,) = cohen_series_many((r,), precision)
    return form


def theta(precision: int, ring: RingTag = RATIONAL) -> Form:
    """1 + 2 sum(q^(n^2)), weight 1/2 on level 4, over Q or Z/m."""
    if precision < 1:
        raise ValueError("precision must be positive")
    row = [0] * precision
    for n in range(isqrt(precision - 1) + 1):
        row[n * n] = 2 if n else 1
    return Form(QSeries.from_row(ring, row), FormMeta(1, 4))


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
    # the row of 6 H(n), over the denominator 6
    row = [0] * precision
    row[b % a::a] = hurwitz_sixfold(precision - 1, a, b)
    level = a * a if a % 2 == 0 else 4 * a * a
    return Form(QSeries.from_row(RATIONAL, row, 6), FormMeta(3, level))


def plus_isomorphism(k: int, f: Form | None, h: Form | None,
                     precision: int) -> PlusForm:
    """Image of (f, h) in the plus space of weight k + 1/2.

    Even k maps M_k + M_{k-2} via f(4z) theta(z) + h(4z) H_{5/2}(z); odd k
    maps M_{k-3} + M_{k-5} via f(4z) H_{7/2}(z) + h(4z) H_{11/2}(z).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    for form, (weight, _) in zip((f, h), _partners(k)):
        if form is not None and form.meta.twice_weight != 2 * weight:
            raise WeightMismatchError(
                "component of twice-weight %d where %d was required"
                % (form.meta.twice_weight, 2 * weight))
        if form is not None and form.series.precision < precision:
            raise ValueError("component precision %d < requested %d"
                             % (form.series.precision, precision))
    small = v4_precision(precision)
    components = [None if form is None else form.series.truncate(small)
                  for form in (f, h)]
    return kohnen_images(k, [components], precision)[0]
