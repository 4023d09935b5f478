"""The named forms: phi(k), F, G_{3,1}, psi(k), psi10.

phi(k) = 28 H_{7/2} R_{k-3} - (44/3) H_{11/2} R_{k-5} is the weight k + 1/2
plus-space cusp form whose coefficients reduce mod 3 to Hurwitz class
numbers along n = 1 mod 3; F packages that reduction by removing exponents
divisible by 3 and symmetrizing with a quadratic twist, which is twice the
projection to n = 1 mod 3.  psi(k) = Delta(4z) R_{k-12} theta and its
k = 10 companion play the same role along n = 2 mod 3 with the Hurwitz
numbers H(3n).

phi, psi and psi10's base come from cohen_eisenstein.kohnen_images, which
checks the plus condition; every builder checks 3-integrality and the other
supports eagerly where its construction does not ensure them.

phi, F and psi also build mod 3 (ring=MOD3) without a rational entry:
kohnen_ring reads v, the 3-adic valuation of the common denominator of the
summand constants, and the form is built times 3^v over Z/3^(v+1) and
divided by 3^v once.  For phi the constants are 28 zeta(-5) = -1/9 and
-(44/3) zeta(-9) = 1/9, so 9 phi is built over Z/27; psi's constant is 1,
so it is built over Z/3.  The division raises NonIntegralCoefficientError
where the form is not 3-integral, as the check over Q does.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import _cache
from .cohen_eisenstein import (
    g_ab,
    kohnen_images,
    kohnen_ring,
    plus_space_basis,
)
from .level_one_forms import FormMeta, delta
from .operators import (
    Character,
    ap_project,
    e2_level_two,
    level_after_ap,
    level_after_twist,
    level_after_u,
    level_after_v,
    r_monomials,
    u_op,
    v4_precision,
)
from .qseries import QSeries, RATIONAL, RingTag


# the ring of the mod-3 builds of phi, F and psi
MOD3 = RingTag(3)
CHI3 = Character.kronecker(-3)
# chi3 squared: the indicator of n coprime to 3
CHI3_SQUARED = Character(3, (0, 1, 1), "kronecker(-3)^2")


class SupportError(ValueError):
    """A named form has a nonzero coefficient outside its claimed support."""


class NamedForm(namedtuple("NamedForm", "name series meta trace")):
    """A named series with its meta and `trace`, the tuple of tags of the
    operators that define it."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        payload = self.series.to_json_dict()
        payload.update({
            "name": self.name,
            "twice_weight": self.meta.twice_weight,
            "level_bound": self.meta.level_bound,
            "trace": list(self.trace),
        })
        return payload


def _check_three_integral(series: QSeries) -> None:
    series.reduce_mod(3)  # raises NonIntegralCoefficientError on failure


# the scales of the two summands of Kohnen's isomorphism (see
# cohen_eisenstein.kohnen_images): phi takes 28 H_{7/2} and -44/3 H_{11/2},
# psi theta alone
PHI_SCALES = (28, -Fraction(44, 3))
PSI_SCALES = (1, 0)


def _named_series(name: str, k: int, scales, build, precision: int,
                  ring: RingTag) -> QSeries:
    """The series of the named form (name, k) at `precision` over `ring`,
    cached under a key that carries the modulus of a mod-3 build, from
    build(k, p, work), which builds it at precision p over the ring `work`.
    Over Z/3 the work ring is kohnen_ring(k, scales) = Z/3^(v+1), build
    gives 3^v times the form, and one division by 3^v gives the form mod 3;
    a coefficient that is not 3-integral raises
    NonIntegralCoefficientError there."""
    if ring.is_rational:
        return _cache.series_at((name, k), precision,
                                lambda p: build(k, p, ring))
    if ring != MOD3:
        raise ValueError("the named forms are built over Q or Z/3, not %s"
                         % ring.label())
    work = kohnen_ring(k, scales)
    return _cache.series_at(
        (name, k, 3), precision,
        lambda p: build(k, p, work).divide_out(work.modulus // 3))


def _phi_series(k: int, precision: int, work: RingTag) -> QSeries:
    r_3, r_5 = r_monomials((k - 3, k - 5), v4_precision(precision), work)
    return kohnen_images(k, [(r_3, r_5)], precision, PHI_SCALES,
                         work)[0].series


def phi(k: int, precision: int, ring: RingTag = RATIONAL) -> NamedForm:
    """28 H_{7/2} R_{k-3} - (44/3) H_{11/2} R_{k-5}, odd k >= 9, over Q, or
    reduced mod 3 for ring Z/3, where it is built over Z/27 (see
    _named_series)."""
    if k < 9 or k % 2 == 0:
        raise ValueError("phi requires odd k >= 9, got %r" % (k,))
    series = _named_series("phi", k, PHI_SCALES, _phi_series, precision,
                           ring)
    if ring.is_rational:
        _check_three_integral(series)
    return NamedForm("phi:%d" % k, series, FormMeta(2 * k + 1, 4),
                     ("28*cohen(3)*r_t(%d)" % (k - 3),
                      "-44/3*cohen(5)*r_t(%d)" % (k - 5)))


def f_form(precision: int, ring: RingTag = RATIONAL) -> NamedForm:
    """phi(9) with exponents divisible by 3 removed, plus its quadratic
    twist by chi3.  1 + chi3(n) is 2 on n = 1 mod 3 and 0 elsewhere, so
    this is twice the projection of phi(9) to n = 1 mod 3, 3-integral
    because phi(9) is.  Over Q, or reduced mod 3 for ring Z/3."""
    base = phi(9, precision, ring)
    # the tags and the level record the definition, U_3, V_3 and the
    # twist; a Sturm bound holds for the series however it is computed
    level = level_after_twist(
        level_after_v(level_after_u(base.meta.level_bound, 3), 3),
        CHI3.modulus)
    return NamedForm("F", ap_project(base.series, 1, 3).scale(2),
                     FormMeta(base.meta.twice_weight, level),
                     base.trace + ("U_3", "V_3", "+twist(chi3)"))


def g31(precision: int) -> NamedForm:
    """Hurwitz numbers along n = 1 mod 3: a weight-3/2 form on level 36."""
    form = g_ab(3, 1, precision)
    _check_three_integral(form.series)
    return NamedForm("G_{3,1}", form.series, form.meta,
                     ("hurwitz | n=1 mod 3",))


def _psi_series(k: int, precision: int, work: RingTag) -> QSeries:
    small = v4_precision(precision)
    delta_r = delta(small, work).series
    if k - 12 == 2:
        # no weight-2 monomial exists; the level-8 bridge is 1 mod 3 and
        # keeps the support inside exponents 0, 1 mod 4
        delta_r = delta_r * e2_level_two(small, work)
    elif k > 12:  # R_0 is the series 1
        delta_r = delta_r * r_monomials([k - 12], small, work)[0]
    # Delta(4z) R_{k-12} = V_4(Delta R') is the component on theta alone
    return kohnen_images(k, [(delta_r, None)], precision, PSI_SCALES,
                         work)[0].series


def psi(k: int, precision: int, ring: RingTag = RATIONAL) -> NamedForm:
    """Delta(4z) R_{k-12} theta, even k > 10; integral coefficients.  Over
    Q, or reduced mod 3 for ring Z/3, where it is built over Z/3.

    k = 14 needs a weight-2 equalizer, which no E_4/E_6 monomial provides;
    there the construction substitutes 2 E_2(8z) - E_2(4z) and the level
    bound grows to 8."""
    if k <= 10 or k % 2:
        raise ValueError("psi requires even k > 10, got %r" % (k,))
    series = _named_series("psi", k, PSI_SCALES, _psi_series, precision,
                           ring)
    level = 8 if k == 14 else 4
    tag = "w2_bridge" if k == 14 else "r_t(%d)" % (k - 12)
    return NamedForm("psi:%d" % k, series, FormMeta(2 * k + 1, level),
                     ("delta|V_4", tag, "theta"))


def _psi10_base(precision: int) -> QSeries:
    r_10, r_8 = r_monomials((10, 8), v4_precision(precision))
    return kohnen_images(10, [(r_10, -r_8)], precision)[0].series


def psi10(precision: int) -> NamedForm:
    """-(theta E_4(4z) E_6(4z) - H_{5/2} E_4(4z)^2) twisted by chi3, plus
    the chi3^2 twist of the same.  chi3^2(n) - chi3(n) is 2 on n = 2 mod 3
    and 0 elsewhere, so this is twice the projection of the base to
    n = 2 mod 3."""
    base = _cache.series_at(("psi10-base",), precision, _psi10_base)
    series = ap_project(base, 2, 3).scale(2)
    _check_three_integral(series)
    return NamedForm("psi10", series,
                     FormMeta(21, level_after_twist(4, CHI3.modulus)),
                     ("theta*E4(4z)*E6(4z)-cohen(2)*E4(4z)^2",
                      "-twist(chi3)+twist(chi3^2)"))


def hurwitz_progression(precision: int) -> NamedForm:
    """sum(H(1, 3n) q^n) over n = 2 mod 3: the U_3 image of the Hurwitz
    progression form on N = 6 mod 9, weight 3/2 with conservative level 324."""
    base = g_ab(9, 6, 3 * (precision - 1) + 1)
    series = u_op(base.series, 3)
    level = level_after_u(base.meta.level_bound, 3)
    name = "hurwitz(3n)|n=2 mod 3"
    _check_three_integral(series)
    bad = next((n for n, c in enumerate(series.nums) if c and n % 3 != 2), None)
    if bad is not None:
        raise SupportError("%s has unexpected coefficient %s at q^%d"
                           % (name, series.coefficient(bad), bad))
    return NamedForm(name, series, FormMeta(3, level), ("G_{9,6}", "U_3"))


def cusp_line_13_half(precision: int) -> NamedForm:
    """Primitive integral generator of the one-dimensional cusp line in the
    weight 13/2 plus space: the basis element of M+_{13/2} with zero
    constant term, scaled to coprime integer coefficients.  Its q^1
    coefficient is +1."""
    (series,) = [form.series.primitive()
                 for n, form in plus_space_basis(6, precision) if n]
    return NamedForm("S+(13/2) primitive generator", series, FormMeta(13, 4),
                     ("plus_space_basis(6) cusp element", "primitive"))


def theta_off_multiples_of_three(precision: int) -> NamedForm:
    """sum(q^(n^2)) over n >= 1 with 3 not dividing n."""
    coeffs = [0] * precision
    n = 1
    while n * n < precision:
        if n % 3:
            coeffs[n * n] = 1
        n += 1
    return NamedForm("sum q^(n^2), 3!|n", QSeries.rational(coeffs),
                     FormMeta(1, 36), ("theta restricted",))


def ap_named(form: NamedForm, a: int, modulus: int) -> NamedForm:
    """Arithmetic-progression projection of a named form, with the level
    bound following the modulus^2 rule."""
    level = level_after_ap(form.meta.level_bound, modulus)
    return NamedForm("%s|n=%d mod %d" % (form.name, a, modulus),
                     ap_project(form.series, a, modulus),
                     FormMeta(form.meta.twice_weight, level),
                     form.trace + ("proj(%d mod %d)" % (a, modulus),))
