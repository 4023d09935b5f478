"""Exact truncated power series in q.

A series is one dense integer row `nums` over one positive denominator
`den`: index n holds the numerator of the coefficient of q^n, and the row's
length is the precision P (exponents 0..P-1 are known).  Over Q the row is
in lowest terms, gcd(den, *nums) = 1, so equal series have equal rows; over
Z/m it holds residues in [0, m) over den = 1.  `coeffs` is the read view:
Fractions over Q, residues over Z/m.  A QSeries is a slotted value type:
its fields (ring, nums, den) cannot be assigned, and equality, hash, pickle
and copy go by their values.  Precision propagates as the minimum across
operands.

Operations touch only integers.  A sum brings both rows to the lcm of the
denominators, a scaling multiplies row and denominator, and one gcd brings a
result back to lowest terms.  A product multiplies the two integer rows by
Kronecker substitution (each row packed into one big integer, one digit per
coefficient, wide enough that no digit of the product overflows), over the
product of the denominators, or reduced mod m; it equals the schoolbook
double loop, which the tests keep as the oracle.  Plus forms, theta, F_2
and V_4 images vanish on some residue classes mod 4, and class r of one row
meets class t of the other only in class (r + t) mod 4 of the product; when
at most four class pairs are nonzero in both rows, the product is assembled
from their quarter-length substitutions.  The digits have one of two
codecs: a digit of at most 8 bytes is widened to a 4- or 8-byte machine
word, packed by `array` and read back by one `memoryview` cast, always in
little-endian order; a wider digit is packed and read one `to_bytes` /
`from_bytes` at a time.  Residue rows over a small modulus, such as the
mod-3 builds over Z/3^e, always take the word codec.  A lowest-terms row
is m-integral exactly when gcd(den, m) = 1, so reduce_mod is one gcd and
one inverse; only a failing check scans for the first offending exponent.
divide_out(d) takes a Z/m row holding d times a form to the form over
Z/(m/d), and fails the same way where d does not divide an entry.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm


class RingMismatchError(ValueError):
    """Operands live over different coefficient rings."""


class NonIntegralCoefficientError(ValueError):
    """A coefficient's denominator is not invertible modulo m."""

    def __init__(self, exponent: int, coefficient, modulus: int):
        self.exponent = exponent
        self.coefficient = coefficient
        self.modulus = modulus
        super().__init__(
            "coefficient %s of q^%d is not %d-integral"
            % (coefficient, exponent, modulus)
        )


class RingTag(namedtuple("RingTag", "modulus", defaults=(None,))):
    """Coefficient ring: exact rationals (modulus=None) or Z/mZ (modulus=m)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2, got %r" % (self.modulus,))
        return self

    @property
    def is_rational(self) -> bool:
        return self.modulus is None

    def label(self) -> str:
        return "Q" if self.modulus is None else "Z/%d" % self.modulus


RATIONAL = RingTag(None)

# digit width in bytes -> the `array` type code of a signed machine word
# that wide, and whether a word's bytes must be swapped to read it
# little-endian; `array` is imported by the first narrow product, so a
# start-up that forms no product does not load it
_NARROW = {4: "i", 8: "q"}
_SWAP = sys.byteorder == "big"


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """The first n coefficients of the product of two integer rows of
    length n, by Kronecker substitution.

    The coefficients in residue class r mod 4 of one row meet those in
    class t of the other only in class (r + t) mod 4 of the product, one
    place further up that class when r + t >= 4.  So when at most four class
    pairs are nonzero in both rows (a V_4 image times any row; plus forms,
    theta and F_2, on two classes each, times each other), the product is
    the sum of those pairs' quarter-length products, each put back in its
    class.  Otherwise it is one dense product: the split by the one class
    mod 1.

    Every product coefficient is below n * 2^(bits(a) + bits(b)) in absolute
    value, so a digit of w bits with one more to spare holds it, and every
    partial sum of its terms, in two's complement.  Each class is packed
    once into such digits.  Adding 2^(w-1) to every digit (`bias`) makes
    each one nonnegative, so the digits of a packed row, and the low digits
    of a product, read back independently without borrows.  Each piece is
    at most a quarter as long as the dense product and no wider.  A width
    of at most 8 bytes is rounded up to 4 or 8, so that `array` packs the
    digits and a `memoryview` reads them back in one call each; wider
    digits go through `to_bytes` and `from_bytes` one by one."""
    n = len(a)
    width = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
             + n.bit_length() + 8) // 8
    if width <= 8:
        width = 4 if width <= 4 else 8
    step = 4
    split_a = [(r, x) for r in range(4) if any(x := a[r::4])]
    split_b = [(t, y) for t in range(4) if any(y := b[t::4])]
    if len(split_a) * len(split_b) > 4:
        step, split_a, split_b = 1, [(0, a)], [(0, b)]
    packed_b = [(t, _pack(y, width)) for t, y in split_b]
    out, filled = [0] * n, set()
    for r, x in split_a:
        packed_x = _pack(x, width)
        for t, packed_y in packed_b:
            carry, cls = divmod(r + t, step)
            start = cls + step * carry
            piece = _substitute(packed_x, packed_y, width,
                                len(range(start, n, step)))
            if cls in filled:
                piece = [u + v for u, v in zip(out[start::step], piece)]
            out[start::step] = piece
            filled.add(cls)
    return out


def _substitute(x: int, y: int, width: int, size: int) -> list[int]:
    """The low `size` digits of the product of two packed rows, read as
    signed integers."""
    mask = (1 << 8 * width * size) - 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    x = ((x & mask) ^ bias) - bias
    y = ((y & mask) ^ bias) - bias
    low = ((x * y + bias) & mask) ^ bias
    digits = low.to_bytes(width * size, "little")
    code = _NARROW.get(width)
    if code is None:
        return [int.from_bytes(digits[i:i + width], "little", signed=True)
                for i in range(0, width * size, width)]
    if _SWAP:
        from array import array

        words = array(code, digits)
        words.byteswap()
        return words.tolist()
    return memoryview(digits).cast(code).tolist()


def _pack(row: list[int], width: int) -> int:
    """The row's coefficients as consecutive two's complement digits of
    `width` bytes, read as one nonnegative integer."""
    code = _NARROW.get(width)
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(width, "little",
                                                   signed=True)
                                        for c in row]), "little")
    from array import array

    words = array(code, row)
    if _SWAP:
        words.byteswap()
    return int.from_bytes(words, "little")


def _coerce(ring: RingTag, value):
    """A scalar in normal form: int or Fraction over Q, residue over Z/m."""
    if ring.modulus is None:
        if isinstance(value, (int, Fraction)):
            return value
        raise RingMismatchError("not a rational coefficient: %r" % (value,))
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise RingMismatchError(
                "fraction %s given for a Z/%d series" % (value, ring.modulus)
            )
        value = value.numerator
    if not isinstance(value, int):
        raise RingMismatchError("not a residue: %r" % (value,))
    return value % ring.modulus


class QSeries:
    """A truncated q-expansion sum(nums[n] / den * q^n, 0 <= n < precision).

    QSeries(ring, coeffs) takes ints, and Fractions over Q; from_row takes
    an integer row over a denominator."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: RingTag, coeffs):
        object.__setattr__(self, "ring", ring)
        self.__post_init__(coeffs)

    def __post_init__(self, coeffs):
        coeffs, den = [_coerce(self.ring, c) for c in coeffs], 1
        if self.ring.modulus is None:
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        self._store(coeffs, den)

    def _store(self, nums, den: int) -> "QSeries":
        """Set the row over den in lowest terms (residues over 1 for Z/m)."""
        if not nums:
            raise ValueError("a series needs at least one known coefficient")
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.nums, self.den) == \
            (other.ring, other.nums, other.den)

    def __hash__(self):
        return hash((self.ring, self.nums, self.den))

    def __repr__(self):
        return "QSeries(ring=%r, nums=%r, den=%r)" % (self.ring, self.nums,
                                                      self.den)

    def __reduce__(self):
        return QSeries.from_row, (self.ring, self.nums, self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, ring: RingTag, nums, den: int = 1) -> "QSeries":
        series = object.__new__(cls)
        object.__setattr__(series, "ring", ring)
        return series._store(nums, den)

    @classmethod
    def from_row(cls, ring: RingTag, nums, den: int = 1) -> "QSeries":
        """sum(nums[n] / den * q^n) for an integer row, in lowest terms over
        Q; over Z/m the row is reduced mod m and den must be 1."""
        m = ring.modulus
        if den < 1 or (m is not None and den != 1):
            raise ValueError("denominator %d for a %s series"
                             % (den, ring.label()))
        return cls._trusted(ring, nums if m is None else [c % m for c in nums],
                            den)

    @classmethod
    def rational(cls, coeffs) -> "QSeries":
        return cls(RATIONAL, coeffs)

    @classmethod
    def modular(cls, m: int, coeffs) -> "QSeries":
        return cls(RingTag(m), coeffs)

    @classmethod
    def one(cls, ring: RingTag, precision: int) -> "QSeries":
        if precision < 1:
            raise ValueError("a series needs at least one known coefficient")
        return cls.from_row(ring, (1,) + (0,) * (precision - 1))

    @classmethod
    def zero(cls, ring: RingTag, precision: int) -> "QSeries":
        return cls.from_row(ring, (0,) * precision)

    # -- basic queries -----------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.nums)

    @property
    def coeffs(self) -> tuple:
        """The coefficients: Fractions over Q, residues over Z/m."""
        if self.ring.modulus is not None:
            return self.nums
        return tuple(Fraction(c, self.den) for c in self.nums)

    def coefficient(self, n: int):
        if not 0 <= n < self.precision:
            raise IndexError("coefficient of q^%d unknown at precision %d"
                             % (n, self.precision))
        c = self.nums[n]
        return c if self.ring.modulus is not None else Fraction(c, self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- ring operations ---------------------------------------------------

    def _same_ring(self, other: "QSeries"):
        if self.ring != other.ring:
            raise RingMismatchError(
                "ring mismatch: %s vs %s" % (self.ring.label(), other.ring.label())
            )

    def __add__(self, other: "QSeries") -> "QSeries":
        self._same_ring(other)
        m = self.ring.modulus
        if m is not None:
            return QSeries._trusted(self.ring, [
                (a + b) % m for a, b in zip(self.nums, other.nums)])
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return QSeries._trusted(self.ring, [
            a * fa + b * fb for a, b in zip(self.nums, other.nums)], den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + -other

    def __neg__(self) -> "QSeries":
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._same_ring(other)
        n = min(self.precision, other.precision)
        row = _kronecker(self.nums[:n], other.nums[:n])
        m = self.ring.modulus
        if m is not None:
            return QSeries._trusted(self.ring, [c % m for c in row])
        return QSeries._trusted(self.ring, row, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        c = _coerce(self.ring, c)
        m = self.ring.modulus
        if m is not None:
            return QSeries._trusted(self.ring, [c * x % m for x in self.nums])
        num = c.numerator
        return QSeries._trusted(self.ring, [num * x for x in self.nums],
                                self.den * c.denominator)

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if e == 0:
            return QSeries.one(self.ring, self.precision)
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def reduce_mod(self, m: int) -> "QSeries":
        """Map each p/q to p * q^(-1) mod m; fails on non-m-integral input,
        which for a lowest-terms row means gcd(den, m) != 1."""
        if not self.ring.is_rational:
            raise RingMismatchError("reduce_mod expects a rational series")
        if m < 2:
            raise ValueError("modulus must be >= 2")
        den = self.den
        if gcd(den, m) != 1:
            n = next(n for n, c in enumerate(self.nums)
                     if gcd(den // gcd(den, c), m) != 1)
            raise NonIntegralCoefficientError(n, self.coefficient(n), m)
        inv = pow(den, -1, m)
        return QSeries._trusted(RingTag(m), [c * inv % m for c in self.nums])

    def divide_out(self, d: int) -> "QSeries":
        """For a Z/m series holding d times a form f, d | m: f over
        Z/(m/d), each entry divided by d.  An entry that d does not divide
        means that f is not (m/d)-integral there, and raises
        NonIntegralCoefficientError at the first such exponent."""
        m = self.ring.modulus
        if m is None or m % d:
            raise RingMismatchError("divide_out(%d) expects a series over "
                                    "Z/m with %d | m, got %s"
                                    % (d, d, self.ring.label()))
        if d == 1:
            return self
        bad = next((n for n, c in enumerate(self.nums) if c % d), None)
        if bad is not None:
            raise NonIntegralCoefficientError(
                bad, Fraction(self.nums[bad], d), m // d)
        return QSeries._trusted(RingTag(m // d),
                                [c // d for c in self.nums])

    def primitive(self) -> "QSeries":
        """Scale a rational series to integer coefficients with content 1
        (the canonical integral normalization; zero stays zero)."""
        if not self.ring.is_rational:
            raise RingMismatchError("primitive() expects a rational series")
        content = gcd(*self.nums)
        if content == 0:
            return self
        return QSeries._trusted(self.ring, [c // content for c in self.nums])

    def truncate(self, precision: int) -> "QSeries":
        if precision < 1:
            raise ValueError("a series needs at least one known coefficient")
        if precision > self.precision:
            raise ValueError("cannot extend precision %d to %d"
                             % (self.precision, precision))
        if precision == self.precision:
            return self
        return QSeries._trusted(self.ring, self.nums[:precision], self.den)

    # -- rendering ---------------------------------------------------------

    def to_text_lines(self) -> list[str]:
        """One "n<TAB>coefficient" line per nonzero coefficient."""
        return ["%d\t%s" % (n, c) for n, c in enumerate(self.coeffs) if c]

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.label(),
            "precision": self.precision,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __str__(self):
        terms = ["%s*q^%d" % (c, n) for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return "%s + O(q^%d)" % (body, self.precision)
