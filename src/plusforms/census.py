"""Discriminant sieves, class-number batches, and density censuses.

The bulk class-number engine walks every (a, beta) pair once, counts every
reduced form of discriminant -d, primitive or not, with strided numpy slice
additions on one int32 row, and takes primitive class numbers by a Mobius
inversion over square divisors f^2 | d.  A table may cover one class
d = r mod s with s | 24 and gcd(r, s) = 1, which the inversion never leaves;
the census asks for d = 1 mod 3 only.  Several workers split the a-range
into interleaved stripes whose counts are summed exactly, so results are
bit-identical for any worker count.  The per-discriminant route in
class_numbers stays the oracle; the tests hold the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt

import numpy as np

from .class_numbers import _factorize

NINE_OVER_8PI2 = "0.11398"
NINE_OVER_16PI2 = "0.05699"


class BridgeViolationError(AssertionError):
    """A discriminant where the coefficient test and the class-number test
    disagree; this is a build-failing bug, not a data condition."""

    def __init__(self, d: int):
        self.discriminant = d
        super().__init__("bridge violated at D = %d" % d)


def starstar_ok(m: int, n: int) -> bool:
    """Arithmetic compatibility of the progression D = m mod N:
    every odd prime dividing gcd(m, N) must not divide m twice, and an even
    N must have 4 | N with m = 1 mod 4, or 16 | N with m = 8, 12 mod 16."""
    if m < 1 or n < 1:
        raise ValueError("m and N must be positive")
    g = gcd(m, n)
    for p, _ in _factorize(g):
        if p % 2 and m % (p * p) == 0:
            return False
    if n % 2 == 0:
        if n % 4 == 0 and m % 4 == 1:
            return True
        if n % 16 == 0 and m % 16 in (8, 12):
            return True
        return False
    return True


def _squarefree_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in range(2, isqrt(limit) + 1):
        flags[p * p::p * p] = False
    return flags


def fundamental_negative_mask(x: int) -> np.ndarray:
    """mask[j] (1 <= j < x) says whether D = -j is a fundamental discriminant."""
    sf = _squarefree_flags(x)
    j = np.arange(x, dtype=np.int64)
    mask = np.zeros(x, dtype=bool)
    odd = (j % 4 == 3) & sf[:x]
    mask |= odd
    quarters = j // 4
    four = (j % 4 == 0) & (j > 0) & np.isin(quarters % 4, (1, 2)) & sf[quarters]
    mask |= four
    mask[0] = False
    return mask


def fundamental_positive_mask(x: int) -> np.ndarray:
    """mask[d] (1 <= d < x) says whether d is a fundamental discriminant."""
    sf = _squarefree_flags(x)
    d = np.arange(x, dtype=np.int64)
    mask = np.zeros(x, dtype=bool)
    mask |= (d % 4 == 1) & sf[:x]
    quarters = d // 4
    mask |= (d % 4 == 0) & (d > 0) & np.isin(quarters % 4, (2, 3)) & sf[quarters]
    mask[0] = False
    return mask


def n2minus(x: int, m: int, n: int) -> int:
    """Number of fundamental discriminants D with -x < D < 0, D = m mod N."""
    if x < 1 or n < 1 or m < 0:
        raise ValueError("x and N must be positive, m nonnegative")
    if n > 1 and (m < 1 or not starstar_ok(m, n)):
        import warnings

        warnings.warn("progression (%d mod %d) fails the compatibility "
                      "condition; the count is still well-defined" % (m, n))
    mask = fundamental_negative_mask(x)
    j = np.arange(x, dtype=np.int64)
    return int(np.count_nonzero(mask & ((-j) % n == m % n)))


# -- bulk primitive class numbers -------------------------------------------


def _count_forms(limit: int, modulus: int, first: int, stripes: int,
                 stripe: int) -> np.ndarray:
    """N(d), the number of reduced forms of discriminant -d, primitive or
    not, for d <= limit in the class of first mod modulus, at index
    (d - first) // modulus, from the a = stripe + 1 mod stripes only."""
    counts = np.zeros(max(0, (limit - first) // modulus + 1), np.int32)
    for a in range(stripe + 1, isqrt(limit // 3) + 1, stripes):
        g = gcd(4 * a, modulus)
        step, period = 4 * a // g, modulus // g  # strides of index and c
        inverse = pow(step, -1, period)
        for beta in range(a + 1):
            bb = beta * beta
            # c = c0 + k * period, k <= n: c >= a, 4ac - bb = first mod modulus
            c0 = a + ((first + bb) // g * inverse - a) % period
            n = ((limit + bb) // (4 * a) - c0) // period
            if (first + bb) % g or n < 0:
                continue
            lo = (4 * a * c0 - bb - first) // modulus
            # b = +beta from c >= a, and b = -beta (0 < beta < a) from c > a
            twice = 0 < beta < a
            counts[lo:lo + n * step + 1:step] += 1 + twice
            if twice and c0 == a:
                counts[lo] -= 1
    return counts


def class_number_table(limit: int, workers: int = 1, modulus: int = 1,
                       residue: int = 0) -> np.ndarray:
    """h(-d) for 1 <= d <= limit with d = residue mod modulus, at index
    (d - d0) // modulus where d0 is the least positive member of the class
    (index d - 1 by default).  Zero unless d is 0 or 3 mod 4."""
    if modulus < 1 or 24 % modulus or gcd(residue, modulus) != 1:
        raise ValueError("the Mobius step over f^2 stays in d = r mod s "
                         "only for s | 24 and gcd(r, s) = 1")
    first = (residue - 1) % modulus + 1
    stripes = max(1, min(workers, isqrt(limit // 3)))
    if stripes > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=stripes) as pool:
            counts = sum(pool.map(
                partial(_count_forms, limit, modulus, first, stripes),
                range(stripes)))
    else:
        counts = _count_forms(limit, modulus, first, 1, 0)
    # h(d) = sum over f^2 | d of mu(f) N(d / f^2), applied as one factor
    # N(d) - N(d / p^2) per prime p; p^2 = 1 mod modulus for p prime to it,
    # so d / p^2 lies in the class of d
    for p in range(2, isqrt(limit // first) + 1):
        if modulus % p == 0 or _factorize(p) != [(p, 1)]:
            continue
        n = (limit // (p * p) - first) // modulus + 1
        start = (p * p - 1) * first // modulus
        counts[start:start + p * p * (n - 1) + 1:p * p] -= counts[:n]
    return counts


# -- the census ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    x: int
    n2minus_count: int
    n2minus_density: Fraction
    nonvanishing_count: int
    nonvanishing_density: Fraction
    ratio_nonvanishing_to_n2minus: Fraction | None

    def to_json_dict(self) -> dict:
        ratio = self.ratio_nonvanishing_to_n2minus
        return {
            "x": self.x,
            "n2minus_count": self.n2minus_count,
            "n2minus_density": "%.6f" % float(self.n2minus_density),
            "nonvanishing_count": self.nonvanishing_count,
            "nonvanishing_density": "%.6f" % float(self.nonvanishing_density),
            "ratio_nonvanishing_to_n2minus":
                None if ratio is None else "%.6f" % float(ratio),
            "reference_densities": {
                "nine_over_8pi2": NINE_OVER_8PI2,
                "nine_over_16pi2": NINE_OVER_16PI2,
            },
        }


def _census_population(x: int):
    """Fundamental D with 0 < D < x, D = 1 mod 3, plus the discriminant of
    Q(sqrt(-D)) for each."""
    mask = fundamental_positive_mask(x)
    d = np.arange(x, dtype=np.int64)
    mask &= d % 3 == 1
    ds = d[mask]
    quarters = ds // 4
    field = np.where(ds % 4 == 1, -4 * ds,
                     np.where(quarters % 4 == 2, -ds, -quarters))
    return ds, field


def _census_classes(x: int, workers: int):
    """The census population, its field discriminants and h(-D) for each
    D, from one class-number table."""
    ds, field = _census_population(x)
    # -field is 4D, D or D/4 with D = 1 mod 3, so it is 1 mod 3 as well
    table = class_number_table(int((-field).max()) if len(ds) else 0,
                               workers=workers, modulus=3, residue=1)
    return ds, field, table[(-field - 1) // 3]


def _tally(x: int, h: np.ndarray) -> CensusReport:
    nonvanishing = int(np.count_nonzero(h % 3 != 0))
    n2m = n2minus(x, 1, 3)
    return CensusReport(
        x=x,
        n2minus_count=n2m,
        n2minus_density=Fraction(n2m, x),
        nonvanishing_count=nonvanishing,
        nonvanishing_density=Fraction(nonvanishing, x),
        ratio_nonvanishing_to_n2minus=(
            Fraction(nonvanishing, n2m) if n2m else None),
    )


def _rows(ds, field, h) -> list[tuple[int, int, int, int]]:
    return [(int(d), int(f), int(hh), int(hh % 3))
            for d, f, hh in zip(ds, field, h)]


def nonvanishing_census(x: int, workers: int = 1) -> CensusReport:
    """Count fundamental D = 1 mod 3 in (0, x) whose imaginary quadratic
    class number h(-D) is prime to 3, against the negative-side progression
    count N_2^-(x, 1, 3)."""
    if x < 12:
        raise ValueError("x must be at least 12")
    return _tally(x, _census_classes(x, workers)[2])


def census_rows(x: int, workers: int = 1):
    """(D, field_discriminant, h, h mod 3) per fundamental D = 1 mod 3 in
    (0, x), for the CSV output."""
    return _rows(*_census_classes(x, workers))


def census_with_rows(x: int, workers: int = 1):
    """nonvanishing_census and census_rows from one class-number table."""
    if x < 12:
        raise ValueError("x must be at least 12")
    ds, field, h = _census_classes(x, workers)
    return _tally(x, h), _rows(ds, field, h)


def beta_census_crosscheck(x: int, phi_form=None) -> int:
    """For every fundamental D = 1 mod 3 with 1 < D < x on the plus-space
    support, assert that the q^D coefficient of phi(9) is nonzero mod 3
    exactly when 3 does not divide h(Q(sqrt(-D))).  Returns the number of
    discriminants checked; a violation raises."""
    if phi_form is None:
        from .constructions import phi

        phi_form = phi(9, x)
    if phi_form.series.precision < x:
        raise ValueError("phi(9) precision %d < x = %d"
                         % (phi_form.series.precision, x))
    ds, _, hs = _census_classes(x, 1)
    checked = 0
    for d, h in zip(ds.tolist(), hs.tolist()):
        if d % 4:  # off the plus-space support D = 0, 3 mod 4
            continue
        beta = phi_form.series.coeffs[d]
        beta_res = beta.numerator * pow(beta.denominator, -1, 3) % 3
        if (beta_res != 0) != (h % 3 != 0):
            raise BridgeViolationError(d)
        checked += 1
    return checked
