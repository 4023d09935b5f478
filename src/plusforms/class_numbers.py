"""Fundamental discriminants, class numbers and Hurwitz numbers.

One batch engine, form_counts, counts every reduced form of discriminant
-d, primitive or not, along one class d = r mod s (any s >= 1), one numpy
batch per first coefficient a: the forms (a, +-beta, c) in the class lie on
one arithmetic run of indices per root beta of beta^2 = -r mod gcd(4a, s),
and one np.add.at adds all the runs of an a.  Two tables read it: the
census reads the count as h(-d) at fundamental -d, where every reduced form
is primitive (census.class_number_table says why), and hurwitz_numbers
takes the Hurwitz numbers H(n), weighting (a, 0, a) by 1/2 and (a, a, a)
by 1/3.

form_class_number and hurwitz_weighted_form_count enumerate the reduced
forms of one discriminant at a time; they are the oracles the tests hold
the engine against, and class_number_of_field reads form_class_number.
Generalized Bernoulli numbers, over the rows of arith.kronecker_row, give
an independent route to h through h(D) = -B_{1,chi_D}.

numpy is imported inside form_counts, where the count array is built, and
nowhere else, so only form_counts, hurwitz_numbers and hurwitz load it;
every other routine here works on Python ints.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .arith import fundamental_part, kronecker_row
from .arith import kronecker  # noqa: F401 (re-exported)
from .level_one_forms import bernoulli


class NonNegativeInputError(ValueError):
    """An imaginary-quadratic routine was fed a nonnegative value."""


def is_fundamental(d: int) -> bool:
    """True iff d = 1 or d is the discriminant of a quadratic field."""
    if d == 0:
        raise ValueError("0 is not a discriminant")
    return fundamental_part(d) == d


class Discriminant(namedtuple("Discriminant", "value is_fundamental")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.is_fundamental != is_fundamental(self.value):
            raise ValueError("inconsistent fundamentality flag for %d" % self.value)
        return self

    @classmethod
    def of(cls, value: int) -> "Discriminant":
        return cls(value, is_fundamental(value))


def _reduced_forms(disc: int):
    """The reduced forms (a, b, c) of discriminant disc < 0, primitive or
    not: |b| <= a <= c with b >= 0 whenever |b| = a or a = c."""
    for a in range(1, isqrt(-disc // 3) + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % four_a == 0:
                c = num // four_a
                if c > a or (c == a and b >= 0):
                    yield a, b, c


@lru_cache(maxsize=4096)
def form_class_number(disc: int) -> int:
    """Number of primitive reduced forms of discriminant disc < 0, one
    discriminant at a time: the oracle the batch form count is tested
    against.

    Valid for any negative integer disc congruent to 0 or 1 mod 4.
    """
    if disc >= 0:
        raise NonNegativeInputError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("%d is not a discriminant" % disc)
    return sum(1 for a, b, c in _reduced_forms(disc)
               if gcd(gcd(a, abs(b)), c) == 1)


def field_discriminant(d: int) -> int:
    """Discriminant of the imaginary quadratic field Q(sqrt(d)), d < 0."""
    if d >= 0:
        raise NonNegativeInputError("expected a negative integer")
    return fundamental_part(d)


def class_number_of_field(d: int) -> int:
    """Class number of Q(sqrt(d)) for d < 0, by reduced-forms enumeration."""
    return form_class_number(field_discriminant(d))


# -- generalized Bernoulli numbers ----------------------------------------

def gen_bernoulli(r: int, d: int) -> Fraction:
    """Generalized Bernoulli number B_{r, chi_d} for fundamental d.

    B_{r,chi} = f^(r-1) * sum(chi(a) B_r(a/f), a = 1..f) with f = |d|;
    evaluated with a common-denominator integer Horner scheme so the per-a
    work stays in plain integers.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if not is_fundamental(d):
        raise ValueError("%d is not a fundamental discriminant" % d)
    f = abs(d)
    binom_bern = [comb(r, j) * bernoulli(j) for j in range(r + 1)]
    den = lcm(*(c.denominator for c in binom_bern))
    # f^r * B_r(a/f) = (1/L) * sum_j (L*C(r,j)*B_j*f^j) * a^(r-j), L = den
    poly = [int(c * den) * f ** j for j, c in enumerate(binom_bern)]
    chi = kronecker_row(d, f)
    total = 0
    for a in range(1, f + 1):
        ca = chi[a % f]
        if ca:
            acc = 0
            for cj in poly:
                acc = acc * a + cj
            total += ca * acc
    return Fraction(total, den * f)


# -- the batch engine: class numbers and Hurwitz numbers -------------------


def form_counts(limit: int, modulus: int = 1,
                residue: int = 0):
    """N(d), the number of reduced forms of discriminant -d, primitive or
    not, for 1 <= d <= limit with d = residue mod modulus (any modulus >=
    1), at index (d - d0) // modulus where d0 is the least positive member
    of the class (index d - 1 by default).  Zero unless d is 0 or 3 mod 4.

    For each a, the forms (a, +-beta, c) in the class have c = c0 mod
    modulus / g, g = gcd(4a, modulus), so beta's run of indices starts at
    the index lo of 4a c0 - beta^2 and steps by 4a / g to the end of the
    table.  One np.add.at adds all of a's runs: weight 2 for 0 < beta < a
    (b = +-beta) and 1 for beta = 0 or a (b = beta only), less 1 at lo
    when c0 = a, since (a, -beta, a) is not reduced.  The arithmetic is
    int64, and its largest product stays under modulus^2."""
    import numpy as np

    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus * modulus >= 1 << 63:
        raise ValueError("modulus %d is too large for the form count's "
                         "int64 arithmetic" % modulus)
    first = (residue - 1) % modulus + 1
    size = max(0, (limit - first) // modulus + 1)
    counts = np.zeros(size, np.int32)
    top = isqrt(max(limit, 0) // 3)
    shifted = first + np.arange(top + 1) ** 2  # first + beta^2
    residues = shifted % modulus
    for a in range(1, top + 1):
        g = gcd(4 * a, modulus)
        step, period = 4 * a // g, modulus // g  # strides of index and c
        inverse = pow(step, -1, period)
        # 4ac - beta^2 = first mod g has a solution c only for these beta
        beta = np.flatnonzero(residues[:a + 1] % g == 0)
        # the least c >= a with 4ac - beta^2 = first mod modulus
        c0 = a + (residues[beta] // g * inverse - a) % period
        lo = (4 * a * c0 - shifted[beta]) // modulus
        # a run starts inside the table and ends at its last index
        inside = lo < size
        beta, c0, lo = beta[inside], c0[inside], lo[inside]
        lengths = (size - 1 - lo) // step + 1
        starts = np.cumsum(lengths) - lengths
        twice = (0 < beta) & (beta < a)
        # int32 weights, the dtype of counts, keep np.add.at on its fast path
        weights = np.repeat(twice.astype(np.int32) + np.int32(1), lengths)
        weights[starts[twice & (c0 == a)]] -= 1
        np.add.at(counts, np.repeat(lo - step * starts, lengths)
                  + step * np.arange(len(weights)), weights)
    return counts


def hurwitz_numbers(limit: int, modulus: int = 1,
                    residue: int = 0) -> list[Fraction]:
    """H(n) for 1 <= n <= limit with n = residue mod modulus, indexed as in
    form_counts.

    H(n) is the count N(n) of all reduced forms of discriminant -n, with
    (a, 0, a) weighted 1/2 and (a, a, a) weighted 1/3; those forms exist
    only at n = 4a^2 and n = 3a^2, one each.
    """
    out = [Fraction(c) for c in form_counts(limit, modulus, residue).tolist()]
    for scale, weight in ((4, Fraction(1, 2)), (3, Fraction(1, 3))):
        for a in range(1, isqrt(max(limit, 0) // scale) + 1):
            n = scale * a * a
            if (n - residue) % modulus == 0:
                # n0 lies in [1, modulus], so (n - n0) // modulus is this
                out[(n - 1) // modulus] -= 1 - weight
    return out


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n): H(0) = -1/12, 0 for n = 1, 2 mod 4 (no
    discriminant -n exists), and otherwise the one-element class n mod n
    of hurwitz_numbers."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    return hurwitz_numbers(n, n, 0)[0]


def hurwitz_weighted_form_count(n: int) -> Fraction:
    """Hurwitz oracle, one n at a time: the reduced forms of discriminant
    -n, primitive or not, with weight 1/2 for multiples of x^2 + y^2 and
    1/3 for multiples of x^2 + xy + y^2; H(0) = -1/12."""
    if n <= 0:
        return Fraction(-1, 12) if n == 0 else Fraction(0)
    total = Fraction(0)
    for a, b, c in _reduced_forms(-n):
        if b == 0 and a == c:
            total += Fraction(1, 2)
        elif a == b == c:
            total += Fraction(1, 3)
        else:
            total += 1
    return total
