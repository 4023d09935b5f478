"""Sturm bounds and machine verification of q-series congruences.

Two half-integral weight forms are compared modulo m by reducing the claim
to a congruence of classical integral-weight forms, where Sturm's theorem
gives an explicit coefficient cutoff:

* Even weight gap t: the lighter side is multiplied by the weight-t
  monomial R_t (identically 1 mod 3), then both sides by theta, whose
  leading coefficient is a unit, landing in one integral weight.  The gap
  t = 2 has no monomial, so there the heavy side takes R_4 and the light
  side R_6 instead.

* Odd weight gap: no Eisenstein monomial bridges an odd gap, but the
  squares of the two sides are classical forms of integral weights with
  matching quadratic character, and their gap is even.  Sturm applied to
  lhs^2 vs rhs^2 * R forces lhs = +-lambda * rhs identically once the
  series agree to the bound, and the direct coefficient check settles the
  sign.

All comparisons run on mod-m reductions, so the Cauchy products stay in
small integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .class_numbers import _factorize
from .cohen_eisenstein import theta
from .constructions import NamedForm
from .operators import r_t
from .qseries import QSeries


class HalfIntegralWeightError(ValueError):
    """Sturm bounds are stated for integral weights only."""


class IncompatibleWeightsError(ValueError):
    """The weight gap is negative or odd, so R_t cannot equalize it."""


def index_gamma0(level: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N * prod(1 + 1/p) over p | N."""
    if level < 1:
        raise ValueError("level must be >= 1")
    idx = level
    for p, _ in _factorize(level):
        idx = idx // p * (p + 1)
    return idx


def sturm_bound(twice_weight: int, level: int) -> int:
    """ceil(weight * index / 12) + 1, the +1 being a safety margin."""
    if twice_weight < 1:
        raise ValueError("weight must be positive")
    if twice_weight % 2:
        raise HalfIntegralWeightError(
            "twice-weight %d is odd; equalize to integral weight first"
            % twice_weight)
    prod = twice_weight * index_gamma0(level)
    return (prod + 23) // 24 + 1


def _r_weights(t: int) -> tuple[int, int]:
    """Weights of the R factors (heavy side, light side) that bridge an even
    weight gap t, by the rule in the module docstring; the heavy side's
    weight rises by the first."""
    return (4, 6) if t == 2 else (0, t)


def _equalize(heavy: QSeries, light: QSeries, t: int,
              m: int | None = None) -> tuple[QSeries, QSeries]:
    """Multiply each side by its R factor from _r_weights(t), reduced mod m
    when m is given."""
    precision = min(heavy.precision, light.precision)
    sides = []
    for side, weight in zip((heavy, light), _r_weights(t)):
        if weight:
            r = r_t(weight, precision).series
            side = side * (r if m is None else r.reduce_mod(m))
        sides.append(side)
    return sides[0], sides[1]


def equalize_and_integralize(lhs: NamedForm, rhs: NamedForm,
                             m: int) -> tuple[QSeries, QSeries, int, int]:
    """Equalize two half-integral weights with R_t (a mod-3 no-op) and
    multiply both sides by theta; returns the two integral-weight series,
    their common twice-weight and a conservative common level."""
    wl, wr = lhs.meta.twice_weight, rhs.meta.twice_weight
    if wl % 2 == 0 or wr % 2 == 0:
        raise HalfIntegralWeightError("both inputs must be half-integral")
    gap2 = wl - wr
    if gap2 < 0 or gap2 % 4 != 0:
        raise IncompatibleWeightsError(
            "weight gap %s/2 is negative or odd" % gap2)
    t = gap2 // 2
    if t > 0 and m != 3:
        raise ValueError("R_t is a congruence no-op only modulo 3")
    precision = min(lhs.series.precision, rhs.series.precision)
    left, right = _equalize(lhs.series.truncate(precision),
                            rhs.series.truncate(precision), t)
    th = theta(precision).series
    level = lcm(lhs.meta.level_bound, rhs.meta.level_bound, 4)
    return left * th, right * th, wl + 1 + 2 * _r_weights(t)[0], level


@dataclass(frozen=True)
class CongruenceReport:
    lhs_name: str
    rhs_name: str
    modulus: int
    bound_used: int
    weight_equalizer: int | None
    strategy: str
    status: str                      # verified | mismatch | insufficient_precision
    unit: int | None = None
    first_n: int | None = None
    lhs_value: int | None = None
    rhs_value: int | None = None
    required: int | None = None
    available: int | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_dict(self) -> dict:
        out = {
            "lhs": self.lhs_name,
            "rhs": self.rhs_name,
            "modulus": self.modulus,
            "bound": self.bound_used,
            "equalizer_t": self.weight_equalizer,
            "strategy": self.strategy,
            "status": self.status,
            "unit": self.unit,
        }
        if self.status == "mismatch":
            out["first_mismatch"] = {
                "n": self.first_n,
                "lhs": self.lhs_value,
                "rhs": self.rhs_value,
            }
        if self.status == "insufficient_precision":
            out["required"] = self.required
            out["available"] = self.available
        return out


def _first_difference(a: QSeries, b: QSeries, m: int, depth: int,
                      units: tuple[int, ...]) -> tuple[int | None, int | None]:
    """Compare two rows reduced mod m on the exponents below depth.  Returns
    (u, None) for the first u in `units` with a = u * b, else (None, n) with
    n the first exponent where a != units[0] * b."""
    firsts = []
    for unit in units:
        first = next((n for n in range(depth)
                      if a.coeffs[n] != unit * b.coeffs[n] % m), None)
        if first is None:
            return unit, None
        firsts.append(first)
    return None, firsts[0]


def _candidate_units(m: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, m) if gcd(u, m) == 1)


def direct_report(lhs_name: str, rhs_name: str, lhs: QSeries, rhs: QSeries,
                  depth: int, units: tuple[int, ...] | None = None,
                  equalizer_t: int | None = None) -> CongruenceReport:
    """Plain coefficient comparison of two rows reduced mod m at a
    caller-chosen depth, with no Sturm claim.  Verified for the first unit
    in `units` (every unit mod m, from 1, when None) that matches; else a
    mismatch at the first n where lhs != units[0] * rhs."""
    m = lhs.ring.modulus
    unit, first = _first_difference(lhs, rhs, m, depth,
                                    units or _candidate_units(m))
    if unit is not None:
        return CongruenceReport(lhs_name, rhs_name, m, depth, equalizer_t,
                                "direct", "verified", unit=unit)
    return CongruenceReport(lhs_name, rhs_name, m, depth, equalizer_t,
                            "direct", "mismatch", first_n=first,
                            lhs_value=lhs.coeffs[first],
                            rhs_value=rhs.coeffs[first])


def verify_congruence(lhs: NamedForm, rhs: NamedForm, m: int = 3, *,
                      units: tuple[int, ...] | None = None) -> CongruenceReport:
    """Check lhs = unit * rhs mod m up to the Sturm bound of the equalized
    integral-weight pair; units are tried in ascending order starting at 1
    (or restricted to `units` when given).  A mismatch is reported at the
    first n where lhs != u0 * rhs, u0 the first unit tried; when the rows
    match a unit u but the Sturm-level rows do not, at the first n where
    those differ under u (u^2 under the squared strategy).  For prime m
    that u is u0.  Outcomes are reported, never raised."""
    if lhs.meta.twice_weight % 2 == 0 or rhs.meta.twice_weight % 2 == 0:
        raise HalfIntegralWeightError("verify_congruence compares "
                                      "half-integral weight forms")
    heavy, light, flipped = lhs, rhs, False
    if lhs.meta.twice_weight < rhs.meta.twice_weight:
        heavy, light, flipped = rhs, lhs, True
    gap2 = heavy.meta.twice_weight - light.meta.twice_weight
    level = lcm(heavy.meta.level_bound, light.meta.level_bound, 4)
    if gap2 % 4 == 0:
        strategy, t = "theta_integralize", gap2 // 2
        out_tw = heavy.meta.twice_weight + 1
    else:
        strategy = "squared"
        t = gap2          # gap of the squared weights, always even
        out_tw = 2 * heavy.meta.twice_weight
    bound = sturm_bound(out_tw + 2 * _r_weights(t)[0], level)

    available = min(lhs.series.precision, rhs.series.precision)
    if available < bound:
        return CongruenceReport(lhs.name, rhs.name, m, bound, t, strategy,
                                "insufficient_precision",
                                required=bound, available=available)

    hv = heavy.series.truncate(bound).reduce_mod(m)
    lt = light.series.truncate(bound).reduce_mod(m)
    if strategy == "theta_integralize":
        th = theta(bound).series.reduce_mod(m)
        hv_int, lt_int = _equalize(hv * th, lt * th, t, m)
    else:
        hv_int, lt_int = _equalize(hv * hv, lt * lt, t, m)

    if units is None:
        units = _candidate_units(m)
    elif flipped:
        # requested units speak lhs = u * rhs; internally we test the
        # heavier side against the lighter one
        units = tuple(pow(u, -1, m) for u in units)
    unit, first = _first_difference(hv, lt, m, bound, units)
    rows = hv, lt
    if unit is not None:
        # Sturm-level object: for squares the unit acts as unit^2
        unit_int = unit if strategy == "theta_integralize" else unit * unit % m
        rows = hv_int, lt_int
        matched, first = _first_difference(hv_int, lt_int, m, bound,
                                           (unit_int,))
        if matched is not None:
            reported = unit if not flipped else pow(unit, -1, m)
            return CongruenceReport(lhs.name, rhs.name, m, bound, t, strategy,
                                    "verified", unit=reported)
    lhs_val, rhs_val = rows[0].coeffs[first], rows[1].coeffs[first]
    if flipped:
        lhs_val, rhs_val = rhs_val, lhs_val
    return CongruenceReport(lhs.name, rhs.name, m, bound, t, strategy,
                            "mismatch", unit=None, first_n=first,
                            lhs_value=lhs_val, rhs_value=rhs_val)
