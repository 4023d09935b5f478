"""Fundamental discriminants, class numbers and Hurwitz numbers.

One batch engine, form_counts, counts every reduced form of discriminant
-d, primitive or not, along one class d = r mod s (any s >= 1): the forms
(a, +-beta, c) in the class lie on one arithmetic run of indices per root
beta of beta^2 = -r mod gcd(4a, s).  The runs of a block of a with one
gcd(4a, s) are built at once, and np.add.at adds them in batches no longer
than the table (and at most _BATCH_CAP entries), so one batch can hold
many a and one a can fill several batches.  Two tables read it: the
census reads the count as h(-d) at fundamental -d, where every reduced
form is primitive (census.class_number_table says why), and
hurwitz_sixfold takes 6 H(n), six times the Hurwitz numbers, weighting
(a, 0, a) by 1/2 and (a, a, a) by 1/3; hurwitz(n) divides its one-entry
class n mod n by 6.

form_class_number enumerates the reduced forms of one discriminant at a
time: class_number_of_field reads it, and the tests hold the engine
against it.  Generalized Bernoulli numbers, over the rows of
arith.kronecker_row, give an independent route to h through
h(D) = -B_{1,chi_D}.

numpy is imported inside form_counts, where the count array is built, and
nowhere else, so only form_counts and the Hurwitz rows built on it load
it; every other routine here works on Python ints.
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


@lru_cache(maxsize=4096)
def form_class_number(disc: int) -> int:
    """Number of primitive reduced forms (a, b, c) of discriminant
    disc < 0, |b| <= a <= c with b >= 0 whenever |b| = a or a = c, one
    discriminant at a time: the oracle the batch form count is tested
    against.

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
            if num % four_a == 0:
                c = num // four_a
                if (c > a or (c == a and b >= 0)) \
                        and gcd(gcd(a, abs(b)), c) == 1:
                    count += 1
    return count


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


# the most entries one np.add.at of form_counts takes, whatever the table's
# length: on the census tables at x = 10^7 (a Xeon with 2 MiB of L2 cache
# per core), batches of 2^16 and 2^18 entries were both slower than 2^17
_BATCH_CAP = 1 << 17


def _add_runs(counts, lo, step, weight, less, position) -> None:
    """Add to counts the runs lo, lo + step, ... to the end of the table,
    `weight` at each index but one less at lo where `less` holds, by
    np.add.at in batches of at most len(position) entries; a batch may
    end inside a run.  position is np.arange(len(position)), made once
    for all the calls of a table: an arange per batch made the census
    tables at x = 10^7 about a quarter slower."""
    import numpy as np

    lengths = (len(counts) - 1 - lo) // step + 1
    ends = np.cumsum(lengths)
    heads = ends - lengths
    origin = lo - step * heads  # entry e of a run is at origin + step e
    less = heads[less]  # the entries that weigh one less
    total = int(ends[-1]) if len(ends) else 0
    bound = len(position)
    for start in range(0, total, bound):
        stop = min(start + bound, total)
        # the runs j0 .. j1 - 1 meet [start, stop), `taken` entries each
        j0, j1 = np.searchsorted(ends, (start, stop - 1), "right") + (0, 1)
        run = slice(j0, j1)
        taken = np.minimum(ends[run], stop) - np.maximum(heads[run], start)
        index = np.repeat(step[run], taken)
        index *= position[:stop - start]
        index += np.repeat(origin[run] + step[run] * start, taken)
        weights = np.repeat(weight[run], taken)
        k0, k1 = np.searchsorted(less, (start, stop))
        weights[less[k0:k1] - start] -= 1
        np.add.at(counts, index, weights)


def form_counts(limit: int, modulus: int = 1,
                residue: int = 0):
    """N(d), the number of reduced forms of discriminant -d, primitive or
    not, for 1 <= d <= limit with d = residue mod modulus (any modulus >=
    1), at index (d - d0) // modulus where d0 is the least positive member
    of the class (index d - 1 by default).  Zero unless d is 0 or 3 mod 4.

    For each a, the forms (a, +-beta, c) in the class have c = c0 mod
    modulus / g, g = gcd(4a, modulus), so beta's run of indices starts at
    the index lo of 4a c0 - beta^2 and steps by 4a / g to the end of the
    table: weight 2 for 0 < beta < a (b = +-beta) and 1 for beta = 0 or a
    (b = beta only), less 1 at lo when c0 = a, since (a, -beta, a) is not
    reduced.

    The a with one g are taken together, so every division is by a
    scalar, and the runs of a block of them are built at once: at most
    bound / 8 pairs (a, beta), or one a's.  _add_runs adds their entries
    in batches of at most `bound`, the table's length (or top + 1, if
    larger) up to _BATCH_CAP, so the temporaries stay O(table) and the
    runs of one a can span several batches.  The arithmetic is int64, and
    its largest product stays under modulus^2."""
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
    bound = min(max(size, top + 1), _BATCH_CAP)
    pair_bound = max(bound // 8, top + 1)
    position = np.arange(bound)
    shifted = first + np.arange(top + 1) ** 2  # first + beta^2
    residues = shifted % modulus
    every_a = np.arange(1, top + 1)
    gs = np.gcd(4 * every_a, modulus)
    for g in sorted(set(gs.tolist())):
        # 4ac - beta^2 = first mod g has a solution c only for these beta
        betas = np.flatnonzero(residues % g == 0)
        a_g = every_a[gs == g]
        # c steps by period = modulus / g, and the run's index by 4a / g,
        # which is prime to period
        period = modulus // g
        inverse_g = np.array([pow(v, -1, period)
                              for v in (4 * a_g // g).tolist()], np.int64)
        # the pairs (a, beta) with beta <= a in betas, per a and up to a
        per_a_g = np.searchsorted(betas, a_g, "right")
        pairs = np.cumsum(per_a_g)
        i0 = 0
        while i0 < len(a_g):
            before = int(pairs[i0 - 1]) if i0 else 0
            i1 = int(np.searchsorted(pairs, before + pair_bound, "right"))
            # the pairs of a_g[i0:i1]
            per_a = per_a_g[i0:i1]
            a = np.repeat(a_g[i0:i1], per_a)
            beta = betas[np.arange(len(a))
                         - np.repeat(pairs[i0:i1] - per_a - before, per_a)]
            # the least c >= a with 4ac - beta^2 = first mod modulus
            c0 = residues[beta] // g
            c0 *= np.repeat(inverse_g[i0:i1], per_a)
            c0 = a + (c0 - a) % period
            lo = (4 * a * c0 - shifted[beta]) // modulus
            # a run starts inside the table and ends at its last index
            inside = lo < size
            if inside.any():
                a, beta, c0, lo = (v[inside] for v in (a, beta, c0, lo))
                twice = (0 < beta) & (beta < a)
                # int32 weights, the dtype of counts, keep np.add.at on its
                # fast path; (a, -beta, a) is not reduced
                weight = twice.astype(np.int32) + np.int32(1)
                _add_runs(counts, lo, 4 * a // g, weight, twice & (c0 == a),
                      position)
            i0 = i1
    return counts


def hurwitz_sixfold(limit: int, modulus: int = 1,
                    residue: int = 0) -> list[int]:
    """6 H(n) for 1 <= n <= limit with n = residue mod modulus, indexed as
    in form_counts: 6 N(n), less 3 at n = 4a^2 and 4 at n = 3a^2.

    H(n) is the count N(n) of all reduced forms of discriminant -n, with
    (a, 0, a) weighted 1/2 and (a, a, a) weighted 1/3; those forms exist
    only at n = 4a^2 and n = 3a^2, one each.
    """
    out = [6 * c for c in form_counts(limit, modulus, residue).tolist()]
    for scale, less in ((4, 3), (3, 4)):
        for a in range(1, isqrt(max(limit, 0) // scale) + 1):
            n = scale * a * a
            if (n - residue) % modulus == 0:
                # n0 lies in [1, modulus], so (n - n0) // modulus is this
                out[(n - 1) // modulus] -= less
    return out


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n): H(0) = -1/12, 0 for n = 1, 2 mod 4 (no
    discriminant -n exists), and otherwise the one-element class n mod n
    of hurwitz_sixfold over 6."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    return Fraction(hurwitz_sixfold(n, n, 0)[0], 6)
