"""The plus-space cusp forms against the Kohnen-Zagier formula, an analytic
oracle outside exact q-series.

For a normalized eigenform F of weight 2k on SL_2(Z), the form g of weight
k + 1/2 in the Kohnen plus space that corresponds to it, and fundamental D
with (-1)^k D > 0 (Kohnen and Zagier, Invent. Math. 64, 1981):

    c(|D|)^2 / <g, g> = ((k-1)! / pi^k) |D|^(k-1/2) L(F, D, k) / <F, F>.

So c(|D|)^2 |D0|^(k-1/2) / (c(|D0|)^2 |D|^(k-1/2)) = L(F, D, k) / L(F, D0, k)
for any two such D, and the Petersson norms drop out.  Where dim S_2k = 1,
F is Delta times a monomial in E_4, E_6 and g is the cusp element of
plus_space_basis(k, P).  L(F, D, k) comes from the approximate functional
equation at the centre, whose root number is +1 for these D:

    L(F, D, k) = 2 sum(a(n) chi_D(n) n^-k Gamma(k, 2 pi n/|D|) / Gamma(k)),

and for integral k, Gamma(k, x) / Gamma(k) = e^-x sum(x^j / j!, j < k).
mpmath gives pi, e^-x, the Taylor coefficients and a(n) n^-k to 50 digits;
the sum itself runs over integers with the binary point at 2^-BITS, which
keeps far more digits than the check needs at a sixth of the cost of mpf
arithmetic.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from plusforms.arith import kronecker_row
from plusforms.class_numbers import is_fundamental
from plusforms.cohen_eisenstein import plus_space_basis
from plusforms.level_one_forms import delta, eisenstein

MAX_D = 200
# the sum stops at x = 2 pi n/|D| = CUTOFF, where e^-x x^(k-1)/(k-1)! is
# below 2e-17 for every k here
CUTOFF = 70
BITS = 160

# k -> (i, j) with F = Delta E_4^i E_6^j of weight 2k and dim S_2k = 1
WEIGHTS = {6: (0, 0), 8: (1, 0), 9: (0, 1), 10: (2, 0), 11: (1, 1),
           13: (2, 1)}


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _fixed(x) -> int:
    return int(mpmath.nint(x * mpf(2) ** BITS))


def _central_value(scaled, d: int, k: int):
    """L(F, d, k) from the approximate functional equation, given
    scaled[n] = a(n) n^-k in fixed point."""
    h = 2 * mpmath.pi / abs(d)
    # Horner coefficients of sum((h n)^j / j!, j < k) as a polynomial in n
    taylor = [_fixed(h ** j / mpmath.factorial(j)) for j in reversed(range(k))]
    decay = _fixed(mpmath.exp(-h))
    terms = int(CUTOFF / h) + 1
    chi = kronecker_row(d, terms)
    exp_nh, total = 1 << BITS, 0
    for n in range(1, terms):
        exp_nh = exp_nh * decay >> BITS
        if chi[n]:
            poly = 0
            for c in taylor:
                poly = poly * n + c
            total += chi[n] * scaled[n] * exp_nh * poly
    return 2 * mpf(total) / mpf(2) ** (3 * BITS)


@pytest.mark.parametrize("k", sorted(WEIGHTS), ids=lambda k: "2k=%d" % (2 * k))
def test_squared_coefficients_follow_the_central_values(k):
    i, j = WEIGHTS[k]
    precision = int(CUTOFF * MAX_D / (2 * mpmath.pi)) + 2
    f = delta(precision).series
    for weight, e in ((4, i), (6, j)):
        if e:
            f = f * eisenstein(weight, precision).series ** e
    a = f.coeffs
    assert a[1] == 1
    scaled = [0] + [_fixed(mpf(int(a[n])) / mpf(n) ** k)
                    for n in range(1, precision)]

    basis = plus_space_basis(k, MAX_D + 1)
    assert len(basis) == 2
    (c,) = [form.series.coeffs for n, form in basis if n]

    sign = -1 if k % 2 else 1
    discriminants = [sign * m for m in range(1, MAX_D + 1)
                     if is_fundamental(sign * m)]
    assert len(discriminants) > 50
    d0 = discriminants[0]
    assert c[abs(d0)] != 0
    base = _central_value(scaled, d0, k)
    for d in discriminants[1:]:
        ratio = Fraction(c[abs(d)] ** 2, c[abs(d0)] ** 2)
        lhs = (mpf(ratio.numerator) / ratio.denominator
               * (mpf(abs(d0)) / abs(d)) ** (k - mpf(1) / 2))
        rhs = _central_value(scaled, d, k) / base
        assert float(lhs) == pytest.approx(float(rhs), rel=1e-9, abs=1e-30), d
