import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def residue(fr, m=3):
    """Residue of an exact rational mod m (denominator must be a unit)."""
    return fr.numerator * pow(fr.denominator, -1, m) % m


def hurwitz_weighted_form_count(n):
    """Hurwitz oracle, one n at a time: the reduced forms (a, b, c) of
    discriminant -n, primitive or not (|b| <= a <= c, b >= 0 whenever
    |b| = a or a = c), with weight 1/2 for multiples of x^2 + y^2 and 1/3
    for multiples of x^2 + xy + y^2; H(0) = -1/12 and H(n) = 0 for n < 0."""
    if n <= 0:
        return Fraction(-1, 12) if n == 0 else Fraction(0)
    total = Fraction(0)
    for a in range(1, isqrt(n // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
    return total
