"""Small-integer arithmetic, one route per job: factorization by trial
division (primality, Mobius divisors, squarefree kernels, field
discriminants and sigma read it), divisor sums of a whole row by a sieve,
Kronecker symbols singly and as rows, and a squarefree sieve, the one
routine here that imports numpy (inside the function)."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, prod

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


def kronecker_row(d: int, f: int) -> list[int]:
    """[kronecker(d, n) for n in range(f)], f >= 1.

    (d/n) is completely multiplicative in n > 0, so the row takes one
    symbol per prime below f and one prime factor per n, sieved on each
    call: no table outlives the call."""
    if f < 1:
        raise ValueError("a Kronecker row needs length f >= 1, got %d" % f)
    factor = list(range(f))
    for p in range(2, isqrt(f - 1) + 1):
        if factor[p] == p:
            factor[p * p::p] = [p] * ((f - 1 - p * p) // p + 1)
    row = [kronecker(d, 0)] + [1] * (f - 1)
    chi_p = {}
    for a in range(2, f):
        p = factor[a]
        v = chi_p.get(p)
        if v is None:
            v = chi_p[p] = kronecker(d, p)
        row[a] = row[a // p] * v
    return row


def factorize(n: int) -> list[tuple[int, int]]:
    """[(p, e)] with n = prod(p^e), primes ascending, for n >= 1."""
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


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == [(n, 1)]


@lru_cache(maxsize=4096)
def mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(e, mu(e)) over the squarefree divisors e of n."""
    out = [(1, 1)]
    for p, _ in factorize(n):
        out += [(e * p, -mu) for e, mu in out]
    return tuple(out)


def squarefree_kernel(n: int) -> int:
    """The squarefree part of n, carrying n's sign."""
    if n == 0:
        raise ValueError("0 has no squarefree kernel")
    kernel = prod(p for p, e in factorize(abs(n)) if e % 2)
    return kernel if n > 0 else -kernel


def fundamental_part(n: int) -> int:
    """The discriminant D of Q(sqrt(n)) for nonzero n: n / D is a square."""
    d0 = squarefree_kernel(n)
    return d0 if d0 % 4 == 1 else 4 * d0


def sigma(e: int, n: int) -> int:
    """Divisor power sum: sum of d^e over divisors d of n."""
    if e < 0 or n < 1:
        raise ValueError("sigma needs e >= 0 and n >= 1, got (%d, %d)"
                         % (e, n))
    return prod(sum(p ** (e * i) for i in range(k + 1))
                for p, k in factorize(n))


def sigma_table(e: int, precision: int) -> list[int]:
    """sigma(e, n) at index n for 0 < n < precision (0 at index 0), by a
    sieve over the divisors: O(P log P) for a whole row."""
    table = [0] * precision
    for d in range(1, precision):
        de = d ** e
        for n in range(d, precision, d):
            table[n] += de
    return table


def squarefree_flags(limit: int):
    """flags[n] (0 <= n <= limit) says whether n >= 1 is squarefree."""
    import numpy as np

    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in range(2, isqrt(limit) + 1):
        flags[p * p::p * p] = False
    return flags
