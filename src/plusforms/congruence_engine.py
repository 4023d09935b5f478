"""Sturm bounds and machine verification of q-series congruences.

Two half-integral weight forms are compared modulo m by reducing the claim
to a congruence of classical integral-weight forms, where Sturm's theorem
gives an explicit coefficient cutoff.  `sturm_plan` reads that reduction
off the two forms' metadata alone, either side being the lighter one: the
strategy, the gap t, and the twice-weight and level of the integral-weight
pair, whose Sturm bound is the bound a target is checked to.

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

R_t is identically 1 only mod 3, so a gap t > 0 is compared mod 3 only.
Below a cutoff B a product's coefficients depend only on its factors'
coefficients below B, theta(0) = 1, and every R factor is 1 mod 3.  So
lhs = u * rhs mod m below B gives theta lhs R = u theta rhs R' and
lhs^2 R = u^2 rhs^2 R' below B, and theta moves no first difference: the
reduced rows decide the integral-weight pair, and verify_congruence
compares them alone, forming no product.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from math import gcd, lcm

from .arith import factorize
from .cohen_eisenstein import theta
from .constructions import NamedForm
from .level_one_forms import FormMeta
from .operators import r_t
from .qseries import QSeries


class HalfIntegralWeightError(ValueError):
    """Sturm bounds are stated for integral weights only."""


class IncompatibleWeightsError(ValueError):
    """The weight gap is odd, so R_t and theta cannot equalize it."""


def index_gamma0(level: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N * prod(1 + 1/p) over p | N."""
    if level < 1:
        raise ValueError("level must be >= 1")
    idx = level
    for p, _ in factorize(level):
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


class SturmPlan(namedtuple("SturmPlan",
                           "strategy t r_weights twice_weight level")):
    """The integral-weight pair a half-integral pair is checked on: the
    strategy (theta_integralize | squared), the R_t gap t, the R weights on
    (lhs, rhs), and the pair's twice-weight and level."""

    __slots__ = ()

    @property
    def bound(self) -> int:
        """The Sturm bound of the integral-weight pair."""
        return sturm_bound(self.twice_weight, self.level)

    def check_modulus(self, m: int) -> None:
        """R_t is identically 1 mod 3 only, so a gap t > 0 needs m = 3."""
        if self.t and m != 3:
            raise ValueError("R_t is a congruence no-op only modulo 3")


def sturm_plan(lhs_meta: FormMeta, rhs_meta: FormMeta) -> SturmPlan:
    """The Sturm plan of two half-integral weight forms, by the rules in the
    module docstring; either side may be the lighter one."""
    wl, wr = lhs_meta.twice_weight, rhs_meta.twice_weight
    if wl % 2 == 0 or wr % 2 == 0:
        raise HalfIntegralWeightError("both sides must be half-integral")
    gap2, heavy = abs(wl - wr), max(wl, wr)
    if gap2 % 4 == 0:
        strategy, t, twice_weight = "theta_integralize", gap2 // 2, heavy + 1
    else:       # the squares have weights wl and wr, an even gap
        strategy, t, twice_weight = "squared", gap2, 2 * heavy
    up, down = (4, 6) if t == 2 else (0, t)     # R weights (heavy, light)
    return SturmPlan(strategy, t, (up, down) if wl >= wr else (down, up),
                     twice_weight + 2 * up,
                     lcm(lhs_meta.level_bound, rhs_meta.level_bound, 4))


def equalize_and_integralize(lhs: NamedForm, rhs: NamedForm,
                             m: int) -> tuple[QSeries, QSeries, int, int]:
    """The theta_integralize pair of two half-integral forms over Q: theta
    times each side, times that side's R factor, with the plan's
    twice-weight and level."""
    plan = sturm_plan(lhs.meta, rhs.meta)
    if plan.strategy != "theta_integralize":
        raise IncompatibleWeightsError("odd weight gap: compare the squares")
    plan.check_modulus(m)
    precision = min(lhs.series.precision, rhs.series.precision)
    th = theta(precision).series
    sides = []
    for form, weight in zip((lhs, rhs), plan.r_weights):
        side = form.series * th
        sides.append(side * r_t(weight, precision).series if weight else side)
    return (*sides, plan.twice_weight, plan.level)


class CongruenceReport(namedtuple(
        "CongruenceReport", "lhs_name rhs_name modulus bound_used "
        "weight_equalizer strategy status unit first_n lhs_value rhs_value "
        "required available", defaults=(None,) * 6)):
    """status is verified | mismatch | insufficient_precision; the fields
    from unit on default to None."""

    __slots__ = ()

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


def _candidate_units(m: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, m) if gcd(u, m) == 1)


def _compare(report, lhs: QSeries, rhs: QSeries, depth: int,
             units: tuple[int, ...] | None) -> CongruenceReport:
    """Compare two rows reduced mod m on the exponents below depth, and
    complete `report` (a CongruenceReport short of its status): verified
    for the first unit in `units` (every unit mod m, from 1, when None)
    with lhs = u * rhs; else a mismatch at the first n where
    lhs != units[0] * rhs."""
    m = lhs.ring.modulus
    first = None
    for unit in units or _candidate_units(m):
        n = next((n for n in range(depth)
                  if lhs.nums[n] != unit * rhs.nums[n] % m), None)
        if n is None:
            return report("verified", unit=unit)
        first = n if first is None else first
    return report("mismatch", first_n=first, lhs_value=lhs.nums[first],
                  rhs_value=rhs.nums[first])


def direct_report(lhs_name: str, rhs_name: str, lhs: QSeries, rhs: QSeries,
                  depth: int, units: tuple[int, ...] | None = None,
                  equalizer_t: int | None = None) -> CongruenceReport:
    """Plain coefficient comparison of two rows reduced mod m at a
    caller-chosen depth, with no Sturm claim, reported as by _compare."""
    return _compare(partial(CongruenceReport, lhs_name, rhs_name,
                            lhs.ring.modulus, depth, equalizer_t, "direct"),
                    lhs, rhs, depth, units)


def verify_congruence(lhs: NamedForm, rhs: NamedForm, m: int = 3, *,
                      units: tuple[int, ...] | None = None) -> CongruenceReport:
    """Check lhs = unit * rhs mod m up to the bound B of sturm_plan; units
    are tried in ascending order from 1 (or only `units` when given).
    Below B the integral-weight pair depends only on the rows below B, each
    R factor is 1 mod 3 and theta(0) = 1: rows that agree under u give a
    pair that agrees under u (u^2 for the squares), and theta moves no
    first difference.  So the two rows reduced mod m are compared once,
    and a mismatch is reported at the first n where lhs != u0 * rhs, u0
    the first unit tried.  Outcomes are reported, never raised; t > 0 with
    m != 3 is a ValueError."""
    plan = sturm_plan(lhs.meta, rhs.meta)
    plan.check_modulus(m)
    bound = plan.bound
    report = partial(CongruenceReport, lhs.name, rhs.name, m, bound, plan.t,
                     plan.strategy)
    available = min(lhs.series.precision, rhs.series.precision)
    if available < bound:
        return report("insufficient_precision", required=bound,
                      available=available)
    return _compare(report, lhs.series.truncate(bound).reduce_mod(m),
                    rhs.series.truncate(bound).reduce_mod(m), bound, units)
