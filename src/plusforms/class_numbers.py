"""Kronecker symbols, fundamental discriminants, and class numbers.

Imaginary-quadratic class numbers are counted by enumerating SL_2(Z)-reduced
primitive positive-definite binary quadratic forms.  Generalized Bernoulli
numbers give a second, independent route to the same values through
h(D) = -B_{1,chi_D}; the test suite keeps both routes honest against each
other.  Hurwitz class numbers combine the form counts over imprimitive
discriminants with the usual 1/2 and 1/3 weights at -4 and -3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .level_one_forms import bernoulli


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def form_class_number(disc: int) -> int:
    """Number of primitive reduced forms (a, b, c) of discriminant disc < 0.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    Valid for any negative integer disc congruent to 0 or 1 mod 4.
    """
    if disc >= 0:
        raise NonNegativeInputError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("%d is not a discriminant" % disc)
    count = 0
    for a in range(1, isqrt(-disc // 3) + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % four_a:
                continue
            c = num // four_a
            if c < a:
                continue
            if c == a and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                count += 1
    return count


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

_spf: list[int] = []


def _spf_table(limit: int) -> list[int]:
    # smallest-prime-factor sieve, grown on demand and kept around
    global _spf
    if len(_spf) <= limit:
        size = max(limit + 1, 2 * len(_spf), 1024)
        table = list(range(size))
        for p in range(2, isqrt(size - 1) + 1):
            if table[p] == p:
                for m in range(p * p, size, p):
                    if table[m] == m:
                        table[m] = p
        _spf = table
    return _spf


def _chi_row(d: int, f: int) -> list[int]:
    # chi_d(a) for a = 0..f-1 via complete multiplicativity
    spf = _spf_table(f)
    row = [0] * f
    if f == 1:
        return [1]
    row[1 % f] = 1
    chi_p = {}
    for a in range(2, f):
        p = spf[a]
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


# -- Hurwitz class numbers --------------------------------------------------

@lru_cache(maxsize=None)
def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n).

    H(0) = -1/12; H(n) = 0 for n = 1, 2 mod 4; otherwise the sum of the
    primitive class counts h(-n/f^2) over f^2 | n with -n/f^2 = 0, 1 mod 4,
    weighted by 1/3 at discriminant -3 and 1/2 at -4.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    f = 1
    while f * f <= n:
        if n % (f * f) == 0:
            disc = -(n // (f * f))
            if disc % 4 in (0, 1):
                h = form_class_number(disc)
                if disc == -3:
                    total += Fraction(h, 3)
                elif disc == -4:
                    total += Fraction(h, 2)
                else:
                    total += h
        f += 1
    return total


def hurwitz_weighted_form_count(n: int) -> Fraction:
    """Brute-force Hurwitz oracle: weighted count over ALL reduced forms
    (primitive or not) of discriminant -n, with weight 1/2 for multiples of
    x^2 + y^2 and 1/3 for multiples of x^2 + xy + y^2."""
    if n <= 0 or n % 4 in (1, 2):
        return hurwitz(max(n, 0)) if n >= 0 else Fraction(0)
    disc = -n
    total = Fraction(0)
    for a in range(1, isqrt(n // 3) + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % four_a:
                continue
            c = num // four_a
            if c < a:
                continue
            if c == a and b < 0:
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
    return total
