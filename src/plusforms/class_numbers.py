"""Kronecker symbols, fundamental discriminants, and class numbers.

One batch engine, _count_forms, walks once over every pair (a, beta) that
has a reduced form (a, +-beta, c) in the class, that is every root of
beta^2 = -r mod gcd(4a, s), and counts every reduced form of discriminant
-d, primitive or not, along one class d = r mod s with strided numpy slice
additions.  Two tables read it: class_number_table takes primitive class
numbers h(-d) by a Mobius inversion over square divisors f^2 | d, which is
exact only on some classes with s | 48 (its docstring names them);
hurwitz_numbers takes the Hurwitz numbers H(n) directly, weighting
(a, 0, a) by 1/2 and (a, a, a) by 1/3, for any s.
Several workers may split the a-range of class_number_table into
interleaved stripes whose counts are summed exactly, so results are
bit-identical for any worker count.

form_class_number and hurwitz_weighted_form_count enumerate the reduced
forms of one discriminant at a time; they are the oracles the tests hold
the engine against, and class_number_of_field reads form_class_number.
Generalized Bernoulli numbers give an independent route to h through
h(D) = -B_{1,chi_D}.

numpy is imported inside _count_forms, where the count array is built, and
nowhere else, so only class_number_table, hurwitz_numbers and hurwitz load
it; every other routine here works on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, isqrt, lcm
from typing import TYPE_CHECKING

from .level_one_forms import bernoulli

if TYPE_CHECKING:
    import numpy as np


class NonNegativeInputError(ValueError):
    """An imaginary-quadratic routine was fed a nonnegative value."""


_KRON2 = {0: 0, 1: 1, 2: 0, 3: -1, 4: 0, 5: -1, 6: 0, 7: 1}


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), with the standard conventions at 2, 0, -1."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 1:
        k = _KRON2[d % 8]
    if n < 0:
        n = -n
        if d < 0:
            k = -k
    # Jacobi-style reciprocity loop on odd positive n
    a = d % n
    while a:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def _factorize(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 5
    step = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step  # wheel over 6k +- 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=4096)
def _mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(e, mu(e)) over the squarefree divisors e of n."""
    out = [(1, 1)]
    for p, _ in _factorize(n):
        out += [(e * p, -mu) for e, mu in out]
    return tuple(out)


def squarefree_kernel(n: int) -> int:
    """The squarefree part of n, carrying n's sign."""
    if n == 0:
        raise ValueError("0 has no squarefree kernel")
    kernel = 1
    for p, e in _factorize(abs(n)):
        if e % 2:
            kernel *= p
    return kernel if n > 0 else -kernel


def is_squarefree(n: int) -> bool:
    return abs(squarefree_kernel(n)) == abs(n)


def is_fundamental(d: int) -> bool:
    """True iff d = 1 or d is the discriminant of a quadratic field."""
    if d == 0:
        raise ValueError("0 is not a discriminant")
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


@dataclass(frozen=True)
class Discriminant:
    value: int
    is_fundamental: bool

    def __post_init__(self):
        if self.value == 0:
            raise ValueError("0 is not a discriminant")
        if self.is_fundamental != is_fundamental(self.value):
            raise ValueError("inconsistent fundamentality flag for %d" % self.value)

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
    discriminant at a time: the oracle for class_number_table.

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
    d0 = squarefree_kernel(d)
    return d0 if d0 % 4 == 1 else 4 * d0


def class_number_of_field(d: int) -> int:
    """Class number of Q(sqrt(d)) for d < 0, by reduced-forms enumeration."""
    return form_class_number(field_discriminant(d))


# -- generalized Bernoulli numbers ----------------------------------------

def _chi_row(d: int, f: int) -> list[int]:
    # chi_d(a) for a = 0..f-1 via complete multiplicativity, over one prime
    # factor per a sieved on each call: cheaper than gen_bernoulli's O(f r)
    # Horner loop over the row, and no table outlives the call
    if f == 1:
        return [1]
    factor = list(range(f))
    for p in range(2, isqrt(f - 1) + 1):
        if factor[p] == p:
            factor[p * p::p] = [p] * ((f - 1 - p * p) // p + 1)
    row = [0] * f
    row[1] = 1
    chi_p = {}
    for a in range(2, f):
        p = factor[a]
        v = chi_p.get(p)
        if v is None:
            v = kronecker(d, p)
            chi_p[p] = v
        row[a] = row[a // p] * v
    return row


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
    chi = _chi_row(d, f) if f > 1 else [1]
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


def _count_forms(limit: int, modulus: int, first: int, stripes: int,
                 stripe: int) -> np.ndarray:
    """N(d), the number of reduced forms of discriminant -d, primitive or
    not, for d <= limit in the class of first mod modulus, at index
    (d - first) // modulus, from the a = stripe + 1 mod stripes only."""
    import numpy as np

    counts = np.zeros(max(0, (limit - first) // modulus + 1), np.int32)
    for a in range(stripe + 1, isqrt(limit // 3) + 1, stripes):
        g = gcd(4 * a, modulus)
        step, period = 4 * a // g, modulus // g  # strides of index and c
        inverse = pow(step, -1, period)
        # 4ac - beta^2 = first mod g has a solution c only for these beta
        roots = [rho for rho in range(min(g, a + 1))
                 if (first + rho * rho) % g == 0]
        for beta in (b for rho in roots for b in range(rho, a + 1, g)):
            bb = beta * beta
            # c = c0 + k * period, k <= n: c >= a, 4ac - bb = first mod modulus
            c0 = a + ((first + bb) // g * inverse - a) % period
            n = ((limit + bb) // (4 * a) - c0) // period
            if n < 0:
                continue
            lo = (4 * a * c0 - bb - first) // modulus
            # b = +beta from c >= a, and b = -beta (0 < beta < a) from c > a
            twice = 0 < beta < a
            counts[lo:lo + n * step + 1:step] += 1 + twice
            if twice and c0 == a:
                counts[lo] -= 1
    return counts


def _mobius_class(modulus: int, residue: int) -> bool:
    if modulus < 1 or 48 % modulus or 24 * residue % modulus:
        return False
    if modulus % 3 == 0 and residue % 3 == 0:
        return False
    return (modulus % 2 or residue % 2 == 1
            or (modulus % 16 == 0 and residue % 16 in (4, 8)))


def class_number_table(limit: int, workers: int = 1, modulus: int = 1,
                       residue: int = 0) -> np.ndarray:
    """h(-d) for 1 <= d <= limit with d = residue mod modulus, at index
    (d - d0) // modulus where d0 is the least positive member of the class
    (index d - 1 by default).  Zero unless d is 0 or 3 mod 4.

    The Mobius step is exact only on some classes r mod s, and only those
    are accepted: s | 48 and s | 24 r, so that d / p^2 stays in the class
    for every prime p prime to s; and the primes 2, 3 that divide s never
    contribute, because 3 does not divide r when 3 | s, and when 2 | s
    either r is odd or 16 | s with r = 4, 8 mod 16 (then d / 4 = 1, 2 mod 4
    is no discriminant)."""
    if not _mobius_class(modulus, residue):
        raise ValueError("the Mobius step over f^2 is not exact on the "
                         "class %d mod %d" % (residue, modulus))
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


def hurwitz_numbers(limit: int, modulus: int = 1,
                    residue: int = 0) -> list[Fraction]:
    """H(n) for 1 <= n <= limit with n = residue mod modulus (any
    modulus >= 1), at index (n - n0) // modulus where n0 is the least
    positive member of the class.

    H(n) is the count N(n) of all reduced forms of discriminant -n, with
    (a, 0, a) weighted 1/2 and (a, a, a) weighted 1/3; those forms exist
    only at n = 4a^2 and n = 3a^2, one each.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if limit < 1:
        return []
    first = (residue - 1) % modulus + 1
    out = [Fraction(c) for c in
           _count_forms(limit, modulus, first, 1, 0).tolist()]
    for scale, weight in ((4, Fraction(1, 2)), (3, Fraction(1, 3))):
        for a in range(1, isqrt(limit // scale) + 1):
            n = scale * a * a
            if n % modulus == first % modulus:
                out[(n - first) // modulus] -= 1 - weight
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
