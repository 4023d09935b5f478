"""Coefficient-side operators on q-expansions.

U_d and V_d act by a(n) -> a(nd) and q^n -> q^(dn); quadratic twists
multiply a(n) by a character value; T(l^2, k) is the half-integral weight
Hecke operator in its coefficient form; R_t is the Eisenstein monomial
E_4(4z)^i E_6(4z)^j of weight t used to equalize weights mod 3; ap_project
restricts a series to an arithmetic progression of exponents.

Each operator comes with a conservative level-bound rule.  The bounds are
upper bounds only - that is all a Sturm cutoff needs.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import cycle
from math import lcm

from . import _cache
from .arith import is_prime, kronecker, kronecker_row, sigma_table
from .level_one_forms import Form, FormMeta, eisenstein
from .qseries import QSeries, RATIONAL


class NotOddPrimeError(ValueError):
    """The Hecke operator index must be an odd prime."""


class Character(namedtuple("Character", "modulus values label")):
    """A residue character given by its value table mod `modulus`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.modulus < 1 or len(self.values) != self.modulus:
            raise ValueError("value table must have length = modulus")
        return self

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @classmethod
    def kronecker(cls, d: int) -> "Character":
        return cls(abs(d), tuple(kronecker_row(d, abs(d))),
                   "kronecker(%d)" % d)

    @classmethod
    def trivial(cls) -> "Character":
        return cls(1, (1,), "trivial")


def level_after_u(level: int, d: int) -> int:
    return lcm(level, 4 * d)


def level_after_v(level: int, d: int) -> int:
    return level * d


def level_after_twist(level: int, modulus: int) -> int:
    return level * modulus * modulus


level_after_ap = level_after_twist


def u_op(g: QSeries, d: int) -> QSeries:
    """a(n) -> a(nd); output knows ceil(P/d) coefficients."""
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return g
    return QSeries._trusted(g.ring, g.nums[::d], g.den)


def v_op(g: QSeries, d: int) -> QSeries:
    """q^n -> q^(dn).  Every exponent below d*(P-1)+1 is determined by the
    input, so the output carries that full precision (the gaps are exact
    zeros, not unknowns)."""
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return g
    out = [0] * (d * (g.precision - 1) + 1)
    out[::d] = g.nums
    return QSeries._trusted(g.ring, out, g.den)


def twist(g: QSeries, chi: Character) -> QSeries:
    """a(n) -> chi(n) a(n)."""
    return QSeries.from_row(g.ring, [v * c for v, c in
                                     zip(cycle(chi.values), g.nums)], g.den)


def ap_project(g: QSeries, a: int, modulus: int) -> QSeries:
    """Keep coefficients with n = a mod modulus, zero the rest."""
    if not 0 <= a < modulus:
        raise ValueError("need 0 <= a < modulus")
    out = [0] * g.precision
    out[a::modulus] = g.nums[a::modulus]
    return QSeries._trusted(g.ring, out, g.den)


def check_odd_prime(ell: int) -> None:
    """Raise NotOddPrimeError unless ell is an odd prime."""
    if ell < 3 or not is_prime(ell):
        raise NotOddPrimeError("%r is not an odd prime" % (ell,))


def hecke_t(g: QSeries, ell: int, k: int) -> QSeries:
    """Half-integral weight Hecke operator T(l^2, k) on coefficients:

    c(n) -> c(l^2 n) + l^(k-1) ((-1)^k n / l) c(n)
                     + ((-1)^k / l^2) l^(2k-1) c(n / l^2),

    with c(n/l^2) = 0 unless l^2 | n.  Input precision l^2 * P yields
    output precision P.
    """
    check_odd_prime(ell)
    ell2 = ell * ell
    out_prec = (g.precision + ell2 - 1) // ell2
    sign = -1 if k % 2 else 1
    mid_scale = ell ** (k - 1)
    top_scale = kronecker(sign, ell2) * ell ** (2 * k - 1)
    m = g.ring.modulus
    if m is not None:
        mid_scale %= m
        top_scale %= m
    c = g.nums
    out = list(c[::ell2])
    for n in range(out_prec):
        if mid_scale:
            kr = kronecker(sign * n, ell)
            if kr:
                out[n] += kr * mid_scale * c[n]
        if top_scale and n % ell2 == 0:
            out[n] += top_scale * c[n // ell2]
    return QSeries.from_row(g.ring, out, g.den)


def m_of(t: int) -> int:
    """The E_6 exponent (t - 4*floor(t/4)) / 2 of the weight-t monomial."""
    if t < 0 or t % 2:
        raise ValueError("t must be a nonnegative even integer")
    return (t - 4 * (t // 4)) // 2


def v4_precision(precision: int) -> int:
    """The least precision p whose V_4 image, which covers 4(p-1)+1
    exponents, spans `precision` coefficients."""
    return (precision + 2) // 4 + 1


def dilate4(g: QSeries, precision: int) -> QSeries:
    """V_4 of a series built at v4_precision(precision), cut to
    `precision` coefficients.  V_4 is a ring homomorphism, so a product
    taken before it equals the product of the dilated factors while it
    multiplies a quarter of the coefficients."""
    return v_op(g, 4).truncate(precision)


def r_monomial(t: int, precision: int) -> QSeries:
    """E_4^(floor(t/4) - m) E_6^m with m = m_of(t): R_t before V_4."""
    e6_pow = m_of(t)
    e4_pow = t // 4 - e6_pow
    if e4_pow < 0:
        raise ValueError("t = %d has no nonnegative monomial exponents" % t)
    acc = None
    for weight, e in ((4, e4_pow), (6, e6_pow)):
        if e:
            piece = eisenstein(weight, precision).series ** e
            acc = piece if acc is None else acc * piece
    return QSeries.one(RATIONAL, precision) if acc is None else acc


def r_t(t: int, precision: int) -> Form:
    """The weight-t monomial E_4(4z)^(floor(t/4) - m) E_6(4z)^m with
    m = (t - 4 floor(t/4))/2, over Q; identically 1 mod 3 for every valid
    even t.  t = 2 is rejected: no monomial in E_4, E_6 has weight 2."""
    series = _cache.series_at(
        ("r_t", t), precision,
        lambda p: dilate4(r_monomial(t, v4_precision(p)), p))
    return Form(series, FormMeta(2 * t, 4))


def e2_level_two(precision: int) -> QSeries:
    """2 E_2(2z) - E_2(z) = 1 + 24 sum((sigma_1(n) - 2 sigma_1(n/2)) q^n),
    the weight-2 bridge before V_4; every nonconstant coefficient is a
    multiple of 24."""
    sigma1 = sigma_table(1, precision)
    coeffs = [24 * (s - (0 if n % 2 else 2 * sigma1[n // 2]))
              for n, s in enumerate(sigma1)]
    coeffs[0] = 1
    return QSeries.rational(coeffs)

