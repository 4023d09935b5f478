"""Discriminant sieves and density censuses.

The census takes fundamental discriminants from strided slices of
arith.squarefree_flags and its class numbers h(-D) from class_number_table,
the reduced-form count of class_numbers.form_counts read at field
discriminants, one table per class of FIELD_CLASSES.
Each field discriminant -4D, -D or -D/4 of a census D (D = 1 mod 3) lies
in exactly one of them: 4D = 4 mod 48 up to 4x for D = 1 mod 4,
D = 40 mod 48 up to x for D = 8 mod 16, and D/4 = 7 mod 12 up to x/4 for
D = 12 mod 16.  The tables hold about x/8 entries together.

numpy is imported inside the functions that build arrays (the masks, the
population and the squarefree sieve), not at module import: the module
loads with plusforms, and a process that never runs a census should not
pay for numpy.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .arith import factorize, squarefree_flags
from .class_numbers import form_counts

# (modulus, residue) of the classes of -field the census reads h from
FIELD_CLASSES = ((48, 4), (48, 40), (12, 7))

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
    for p, _ in factorize(g):
        if p % 2 and m % (p * p) == 0:
            return False
    if n % 2 == 0:
        if n % 4 == 0 and m % 4 == 1:
            return True
        if n % 16 == 0 and m % 16 in (8, 12):
            return True
        return False
    return True


def _fundamental_mask(x: int, sign: int):
    # mask[j] for D = sign * j: D = 1 mod 4 squarefree, or D = 4m with
    # m = 2, 3 mod 4 squarefree; strided slices, no index temporaries
    import numpy as np

    sf = squarefree_flags(x)
    mask = np.zeros(x, dtype=bool)
    odd = sign % 4
    mask[odd::4] = sf[odd:x:4]
    for q in (2, 3):
        m0 = q * sign % 4
        mask[4 * m0::16] = sf[m0:(x - 1) // 4 + 1:4]
    return mask


def fundamental_negative_mask(x: int):
    """mask[j] (1 <= j < x) says whether D = -j is a fundamental discriminant."""
    return _fundamental_mask(x, -1)


def fundamental_positive_mask(x: int):
    """mask[d] (1 <= d < x) says whether d is a fundamental discriminant."""
    return _fundamental_mask(x, 1)


def n2minus(x: int, m: int, n: int) -> int:
    """Number of fundamental discriminants D with -x < D < 0, D = m mod N."""
    if x < 1 or n < 1 or m < 0:
        raise ValueError("x and N must be positive, m nonnegative")
    if n > 1 and (m < 1 or not starstar_ok(m, n)):
        import warnings

        warnings.warn("progression (%d mod %d) fails the compatibility "
                      "condition; the count is still well-defined" % (m, n))
    # D = -j = m mod N means j = -m mod N; mask[0] is False
    return int(fundamental_negative_mask(x)[-m % n::n].sum())


# -- the census ---------------------------------------------------------------


class CensusReport(namedtuple(
        "CensusReport", "x n2minus_count n2minus_density nonvanishing_count "
        "nonvanishing_density ratio_nonvanishing_to_n2minus")):
    __slots__ = ()

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
    import numpy as np

    ds = 3 * np.flatnonzero(fundamental_positive_mask(x)[1::3]) + 1
    quarters = ds // 4
    field = np.where(ds % 4 == 1, -4 * ds,
                     np.where(quarters % 4 == 2, -ds, -quarters))
    return ds, field


def class_number_table(limit: int, modulus: int = 1,
                       residue: int = 0):
    """h(-d) for every fundamental -d with 1 <= d <= limit and d = residue
    mod modulus, indexed as in class_numbers.form_counts.

    The entries are the counts N(d) of all reduced forms of discriminant
    -d.  A form (a, b, c) with g = gcd(a, b, c) > 1 is g times a form of
    discriminant -d / g^2, and a fundamental -d has no discriminant -d / g^2
    with g > 1, so at fundamental -d every counted form is primitive and
    N(d) = h(-d).  The census reads no other entry; elsewhere N(d) counts
    the imprimitive forms too."""
    return form_counts(limit, modulus, residue)


def _census_classes(x: int):
    """The census population, its field discriminants and h(-D) for each
    D, from one class-number table per class of FIELD_CLASSES."""
    import numpy as np

    ds, field = _census_population(x)
    h = np.zeros(len(ds), np.int32)  # the dtype of the tables
    for modulus, residue in FIELD_CLASSES:
        picked = -field % modulus == residue
        d = -field[picked]
        table = class_number_table(int(d.max()) if len(d) else 0,
                                   modulus=modulus, residue=residue)
        h[picked] = table[(d - residue) // modulus]
    return ds, field, h


def _tally(x: int, h) -> CensusReport:
    nonvanishing = int((h % 3 != 0).sum())
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


def _rows(ds, field, h):
    # iterating a memoryview yields Python ints without a list per column,
    # which would raise the census's peak memory
    return zip(memoryview(ds), memoryview(field), memoryview(h),
               memoryview(h % 3))


def nonvanishing_census(x: int) -> CensusReport:
    """Count fundamental D = 1 mod 3 in (0, x) whose imaginary quadratic
    class number h(-D) is prime to 3, against the negative-side progression
    count N_2^-(x, 1, 3)."""
    if x < 12:
        raise ValueError("x must be at least 12")
    return _tally(x, _census_classes(x)[2])


def census_rows(x: int) -> list[tuple[int, int, int, int]]:
    """(D, field_discriminant, h, h mod 3) per fundamental D = 1 mod 3 in
    (0, x), for the CSV output."""
    return list(_rows(*_census_classes(x)))


def census_with_rows(x: int):
    """nonvanishing_census and the rows of census_rows from one set of
    class-number tables.  The rows come as an iterator over the arrays, so a
    CSV writer streams them without a list of row tuples."""
    if x < 12:
        raise ValueError("x must be at least 12")
    ds, field, h = _census_classes(x)
    return _tally(x, h), _rows(ds, field, h)


def beta_census_crosscheck(x: int, phi_form=None) -> int:
    """For every fundamental D = 1 mod 3 with 1 < D < x on the plus-space
    support, assert that the q^D coefficient of phi(9) is nonzero mod 3
    exactly when 3 does not divide h(Q(sqrt(-D))).  Returns the number of
    discriminants checked; a violation raises, and so does (with
    NonIntegralCoefficientError) a phi_form that is not 3-integral."""
    if phi_form is None:
        from .constructions import phi

        phi_form = phi(9, x)
    if phi_form.series.precision < x:
        raise ValueError("phi(9) precision %d < x = %d"
                         % (phi_form.series.precision, x))
    betas = phi_form.series.reduce_mod(3).coeffs
    ds, _, hs = _census_classes(x)
    checked = 0
    for d, h in zip(ds.tolist(), hs.tolist()):
        if d % 4:  # off the plus-space support D = 0, 3 mod 4
            continue
        if (betas[d] != 0) != (h % 3 != 0):
            raise BridgeViolationError(d)
        checked += 1
    return checked
