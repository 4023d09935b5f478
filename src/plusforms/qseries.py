"""Exact truncated power series in q.

Coefficients live over one of two rings: arbitrary-precision rationals
(``fractions.Fraction``, always in lowest terms) or integers modulo m.
Storage is dense: index n holds the coefficient of q^n, and the length of
the coefficient tuple is the precision P (exponents 0..P-1 are known).

Every value is immutable, every operation is a pure function, and precision
propagates as the minimum across operands, so a result is never silently
pretending to know more coefficients than its inputs supplied.

Products have one exact kernel.  Over Q (integer series included) each
operand's denominators are cleared by their lcm, the two integer rows are
multiplied once by Kronecker substitution (each row packed into one big
integer, one digit per coefficient, wide enough that no digit of the
product overflows), and the first P digits are divided by the product of
the two lcms.  Over Z/m the residue rows take the same big-integer route
and the product is reduced mod m, so it is exact for every modulus.  The
results are identical to the schoolbook double loop, which the tests keep
as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class RingTag:
    """Coefficient ring: exact rationals (modulus=None) or Z/mZ (modulus=m)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2, got %r" % (self.modulus,))

    @property
    def is_rational(self) -> bool:
        return self.modulus is None

    def label(self) -> str:
        return "Q" if self.modulus is None else "Z/%d" % self.modulus


RATIONAL = RingTag(None)


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """The first n coefficients of the product of two integer rows of
    length n, by Kronecker substitution.

    Every product coefficient is below n * 2^(bits(a) + bits(b)) in absolute
    value, so a digit of w bits with one more to spare holds it in two's
    complement.  Adding 2^(w-1) to every digit (`bias`) makes each one
    nonnegative, so the digits of a packed row, and the low n digits of the
    product, read back independently without borrows."""
    n = len(a)
    bits = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
            + n.bit_length() + 1)
    width = (bits + 7) // 8
    size = width * n
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    x = (_pack(a, width) ^ bias) - bias
    y = (_pack(b, width) ^ bias) - bias
    low = ((x * y + bias) & ((1 << 8 * size) - 1)) ^ bias
    view = memoryview(low.to_bytes(size, "little"))
    return [int.from_bytes(view[i:i + width], "little", signed=True)
            for i in range(0, size, width)]


def _pack(row: list[int], width: int) -> int:
    """The row's coefficients as consecutive two's complement digits of
    `width` bytes, read as one nonnegative integer."""
    buf = bytearray(width * len(row))
    for i, c in enumerate(row):
        if c:
            start = i * width
            buf[start:start + width] = c.to_bytes(width, "little", signed=True)
    return int.from_bytes(buf, "little")


def _cleared(row, denominator: int) -> list[int]:
    """Numerators of a Fraction row over the common `denominator`."""
    return [c.numerator * (denominator // c.denominator) for c in row]


def _coerce(ring: RingTag, value):
    if ring.modulus is None:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
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


@dataclass(frozen=True)
class QSeries:
    """A truncated q-expansion sum(coeffs[n] * q^n, 0 <= n < precision)."""

    ring: RingTag
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(_coerce(self.ring, c) for c in self.coeffs)
        )
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least one known coefficient")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, ring: RingTag, coeffs: tuple) -> "QSeries":
        """Wrap a nonempty tuple already in normal form (Fractions over Q,
        residues in [0, m) over Z/m) without coercing it again."""
        series = object.__new__(cls)
        object.__setattr__(series, "ring", ring)
        object.__setattr__(series, "coeffs", coeffs)
        return series

    @classmethod
    def rational(cls, coeffs) -> "QSeries":
        return cls(RATIONAL, tuple(coeffs))

    @classmethod
    def modular(cls, m: int, coeffs) -> "QSeries":
        return cls(RingTag(m), tuple(coeffs))

    @classmethod
    def one(cls, ring: RingTag, precision: int) -> "QSeries":
        return cls(ring, (1,) + (0,) * (precision - 1))

    @classmethod
    def zero(cls, ring: RingTag, precision: int) -> "QSeries":
        return cls(ring, (0,) * precision)

    # -- basic queries -----------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int):
        if not 0 <= n < self.precision:
            raise IndexError("coefficient of q^%d unknown at precision %d"
                             % (n, self.precision))
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self):
        return tuple(n for n, c in enumerate(self.coeffs) if c)

    # -- ring operations ---------------------------------------------------

    def _same_ring(self, other: "QSeries"):
        if self.ring != other.ring:
            raise RingMismatchError(
                "ring mismatch: %s vs %s" % (self.ring.label(), other.ring.label())
            )

    def __add__(self, other: "QSeries") -> "QSeries":
        self._same_ring(other)
        n = min(self.precision, other.precision)
        return QSeries(self.ring,
                       tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._same_ring(other)
        n = min(self.precision, other.precision)
        return QSeries(self.ring,
                       tuple(a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    def __neg__(self) -> "QSeries":
        return QSeries(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, QSeries):
            self._same_ring(other)
            return self._cauchy(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _cauchy(self, other: "QSeries") -> "QSeries":
        n = min(self.precision, other.precision)
        a, b = self.coeffs[:n], other.coeffs[:n]
        m = self.ring.modulus
        if m is None:
            la = lcm(*(c.denominator for c in a))
            lb = lcm(*(c.denominator for c in b))
            den = la * lb
            out = tuple(Fraction(c, den) for c in
                        _kronecker(_cleared(a, la), _cleared(b, lb)))
        else:
            out = tuple(c % m for c in _kronecker(list(a), list(b)))
        return QSeries._trusted(self.ring, out)

    def scale(self, c) -> "QSeries":
        c = _coerce(self.ring, c)
        return QSeries(self.ring, tuple(c * x for x in self.coeffs))

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
        """Map each p/q to p * q^(-1) mod m; fails on non-m-integral input."""
        if not self.ring.is_rational:
            raise RingMismatchError("reduce_mod expects a rational series")
        if m < 2:
            raise ValueError("modulus must be >= 2")
        out = []
        for n, c in enumerate(self.coeffs):
            den = c.denominator
            if gcd(den, m) != 1:
                raise NonIntegralCoefficientError(n, c, m)
            out.append(c.numerator * pow(den, -1, m) % m)
        return QSeries(RingTag(m), tuple(out))

    def primitive(self) -> "QSeries":
        """Scale a rational series to integer coefficients with content 1
        (the canonical integral normalization; zero stays zero)."""
        if not self.ring.is_rational:
            raise RingMismatchError("primitive() expects a rational series")
        den = lcm(*(c.denominator for c in self.coeffs))
        content = gcd(*_cleared(self.coeffs, den))
        if content == 0:
            return self
        return self.scale(Fraction(den, content))

    def truncate(self, precision: int) -> "QSeries":
        if precision < 1:
            raise ValueError("a series needs at least one known coefficient")
        if precision > self.precision:
            raise ValueError("cannot extend precision %d to %d"
                             % (self.precision, precision))
        if precision == self.precision:
            return self
        return QSeries._trusted(self.ring, self.coeffs[:precision])

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
