"""The named forms: phi(k), F, G_{3,1}, psi(k), psi10.

phi(k) = 28 H_{7/2} R_{k-3} - (44/3) H_{11/2} R_{k-5} is the weight k + 1/2
plus-space cusp form whose coefficients reduce mod 3 to Hurwitz class
numbers along n = 1 mod 3; F packages that reduction by removing exponents
divisible by 3 and symmetrizing with a quadratic twist, which is twice the
projection to n = 1 mod 3.  psi(k) = Delta(4z) R_{k-12} theta and its
k = 10 companion play the same role along n = 2 mod 3 with the Hurwitz
numbers H(3n).

Every builder validates 3-integrality and the support constraints eagerly,
where its construction does not already ensure them: a failure there is a
build error, not a condition to handle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import _cache
from .cohen_eisenstein import (
    cohen_series,
    forbidden_residues,
    g_ab,
    plus_space_basis,
    theta,
)
from .level_one_forms import FormMeta, delta
from .operators import (
    Character,
    ap_project,
    dilate4,
    e2_level_two,
    level_after_ap,
    level_after_twist,
    level_after_u,
    level_after_v,
    r_monomial,
    r_t,
    u_op,
    v4_precision,
)
from .qseries import QSeries


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


def _check_support(name: str, series: QSeries, allowed) -> None:
    for n, c in enumerate(series.nums):
        if c and not allowed(n):
            raise SupportError("%s has unexpected coefficient %s at q^%d"
                               % (name, series.coefficient(n), n))


def _phi_series(k: int, precision: int) -> QSeries:
    c3 = cohen_series(3, precision).series
    c5 = cohen_series(5, precision).series
    heavy = c3 * r_t(k - 3, precision).series
    light = c5 * r_t(k - 5, precision).series
    return 28 * heavy - Fraction(44, 3) * light


def phi(k: int, precision: int) -> NamedForm:
    """28 H_{7/2} R_{k-3} - (44/3) H_{11/2} R_{k-5}, odd k >= 9."""
    if k < 9 or k % 2 == 0:
        raise ValueError("phi requires odd k >= 9, got %r" % (k,))
    series = _cache.series_at(("phi", k), precision,
                              lambda p: _phi_series(k, p))
    name = "phi:%d" % k
    _check_three_integral(series)
    bad = forbidden_residues(k)
    _check_support(name, series, lambda n: n % 4 not in bad)
    return NamedForm(name, series, FormMeta(2 * k + 1, 4),
                     ("28*cohen(3)*r_t(%d)" % (k - 3),
                      "-44/3*cohen(5)*r_t(%d)" % (k - 5)))


def f_form(precision: int) -> NamedForm:
    """phi(9) with exponents divisible by 3 removed, plus its quadratic
    twist by chi3.  1 + chi3(n) is 2 on n = 1 mod 3 and 0 elsewhere, so
    this is twice the projection of phi(9) to n = 1 mod 3, 3-integral
    because phi(9) is."""
    base = phi(9, precision)
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


def _psi_series(k: int, precision: int) -> QSeries:
    small = v4_precision(precision)
    delta_r = delta(small).series
    if k - 12 == 2:
        # no weight-2 monomial exists; the level-8 bridge is 1 mod 3 and
        # keeps the support inside exponents 0, 1 mod 4
        delta_r = delta_r * e2_level_two(small)
    elif k > 12:  # R_0 is the series 1
        delta_r = delta_r * r_monomial(k - 12, small)
    # Delta(4z) R_{k-12} = V_4(Delta R')
    return dilate4(delta_r, precision) * theta(precision).series


def psi(k: int, precision: int) -> NamedForm:
    """Delta(4z) R_{k-12} theta, even k > 10; integral coefficients.

    k = 14 needs a weight-2 equalizer, which no E_4/E_6 monomial provides;
    there the construction substitutes 2 E_2(8z) - E_2(4z) and the level
    bound grows to 8."""
    if k <= 10 or k % 2:
        raise ValueError("psi requires even k > 10, got %r" % (k,))
    series = _cache.series_at(("psi", k), precision,
                              lambda p: _psi_series(k, p))
    name = "psi:%d" % k
    bad = forbidden_residues(k)
    _check_support(name, series, lambda n: n % 4 not in bad)
    level = 8 if k == 14 else 4
    tag = "w2_bridge" if k == 14 else "r_t(%d)" % (k - 12)
    return NamedForm(name, series, FormMeta(2 * k + 1, level),
                     ("delta|V_4", tag, "theta"))


def _psi10_base(precision: int) -> QSeries:
    # R_10 = E_4(4z) E_6(4z) and R_8 = E_4(4z)^2
    return theta(precision).series * r_t(10, precision).series \
        - cohen_series(2, precision).series * r_t(8, precision).series


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
    _check_support(name, series, lambda n: n % 3 == 2)
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
