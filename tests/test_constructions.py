from fractions import Fraction

import pytest

from conftest import residue
from plusforms import _cache, qseries
from plusforms.class_numbers import hurwitz
from plusforms.cohen_eisenstein import (
    cohen_h,
    cohen_series,
    plus_isomorphism,
    plus_space_basis,
    theta,
)
from plusforms.constructions import (
    CHI3,
    CHI3_SQUARED,
    ap_named,
    cusp_line_13_half,
    f_form,
    g31,
    hurwitz_progression,
    phi,
    psi,
    psi10,
    theta_off_multiples_of_three,
)
from plusforms.level_one_forms import delta, eisenstein
from plusforms.operators import (
    ap_project,
    dilate4,
    e2_level_two,
    r_monomial,
    r_t,
    twist,
    u_op,
    v4_precision,
    v_op,
)
from plusforms.qseries import RATIONAL, QSeries

DISPLAY_PHI = {4: 2, 7: 1, 19: 1, 28: 2, 40: 2, 43: 1, 52: 2, 55: 1,
               64: 2, 67: 1, 76: 1}
DISPLAY_PSI = {8: 2, 17: 2, 20: 1, 41: 2, 44: 1, 53: 1, 56: 1, 65: 1,
               68: 2, 80: 2, 89: 2, 92: 2}


@pytest.mark.parametrize("precision", [0, -1])
@pytest.mark.parametrize("build", [
    lambda p: QSeries.one(RATIONAL, p), lambda p: QSeries.zero(RATIONAL, p),
    lambda p: eisenstein(4, p), theta, delta, lambda p: r_t(4, p),
    lambda p: cohen_series(2, p), lambda p: phi(9, p), lambda p: psi(12, p),
    g31, lambda p: plus_space_basis(2, p)],
    ids=["one", "zero", "eisenstein", "theta", "delta", "r_t", "cohen_series",
         "phi", "psi", "g31", "plus_space_basis"])
def test_builders_reject_precision_below_one(build, precision):
    with pytest.raises(ValueError):
        build(precision)


class TestPhi:
    def test_first_coefficients(self):
        series = phi(9, 8).series
        # assembled independently from the H(r, N) values and the
        # dilated Eisenstein coefficients at q^4 (E6: -504, E4: +240)
        beta3 = 28 * cohen_h(3, 3) - Fraction(44, 3) * cohen_h(5, 3)
        beta4 = (28 * (cohen_h(3, 4) - 504 * cohen_h(3, 0))
                 - Fraction(44, 3) * (cohen_h(5, 4) + 240 * cohen_h(5, 0)))
        beta7 = (28 * (cohen_h(3, 7) - 504 * cohen_h(3, 3))
                 - Fraction(44, 3) * (cohen_h(5, 7) + 240 * cohen_h(5, 3)))
        assert (beta3, beta4, beta7) == (-16, 32, 256)
        assert series.coeffs[3] == beta3
        assert series.coeffs[4] == beta4
        assert series.coeffs[7] == beta7
        assert series.coeffs[0] == 0

    def test_three_integral_and_plus_supported(self):
        for k in (9, 11):
            series = phi(k, 120).series
            series.reduce_mod(3)  # must not raise
            assert all(c == 0 for n, c in enumerate(series.coeffs)
                       if n % 4 in (1, 2))

    def test_preconditions(self):
        for bad in (7, 8, 10):
            with pytest.raises(ValueError):
                phi(bad, 10)

    def test_stability_mod_three(self):
        base = phi(9, 90).series.reduce_mod(3)
        for k in (11, 13):
            assert phi(k, 90).series.reduce_mod(3).coeffs == base.coeffs


class TestF:
    def test_multiples_of_three_removed(self):
        series = f_form(100).series
        assert all(series.coeffs[n] == 0 for n in range(0, 100, 3)
                   if n < series.precision)

    def test_support_on_one_mod_three(self):
        series = f_form(100).series
        assert all(c == 0 for n, c in enumerate(series.coeffs) if n % 3 != 1)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 100])
    def test_equals_the_u3_v3_twist_route(self, p):
        # the definition, built by its operators: phi(9) less V_3 U_3 of
        # it, plus the chi3 twist of that; the U_3 / V_3 round trip trims
        # up to two coefficients, so phi(9) is built two deeper
        base = phi(9, p + 2).series
        stripped = (base - v_op(u_op(base, 3), 3)).truncate(p)
        assert f_form(p).series == stripped + twist(stripped, CHI3)

    def test_displayed_residues_with_unit_two(self):
        red = f_form(100).series.reduce_mod(3)
        for n, expected in DISPLAY_PHI.items():
            if n < red.precision:
                assert red.coeffs[n] == 2 * expected % 3, n

    def test_level_bound(self):
        assert f_form(30).meta.level_bound == 324


class TestG31:
    def test_residues(self):
        series = g31(60).series
        assert series.coeffs[4] == Fraction(1, 2)
        assert residue(series.coeffs[4]) == 2
        assert series.coeffs[7] == 1
        red = series.reduce_mod(3)
        for n, expected in DISPLAY_PHI.items():
            if n < 60:
                assert red.coeffs[n] == expected


class TestPsi:
    def test_against_direct_convolution(self):
        # alpha_12(n) = sum(tau(a) * theta_weight(s), 4a + s^2 = n)
        p = 120
        series = psi(12, p).series
        tau = delta(p // 4 + 2).series.coeffs
        for n in range(p):
            total = 0
            for a in range(1, len(tau)):
                rest = n - 4 * a
                if rest < 0:
                    break
                if rest == 0:
                    total += tau[a]
                else:
                    s = int(rest ** 0.5)
                    while s * s < rest:
                        s += 1
                    if s * s == rest:
                        total += 2 * tau[a]
            assert series.coeffs[n] == total, n

    def test_displayed_residues(self):
        red = psi(12, 100).series.reduce_mod(3)
        for n, expected in DISPLAY_PSI.items():
            if n < 100:
                assert red.coeffs[n] == expected, n

    def test_undilated_products_cover_every_window(self):
        # Delta R' and the E_4 E_6 products are multiplied before V_4; at
        # every P mod 4 psi and psi10 must equal the products of the dilated
        # series at full precision
        _cache.clear()
        for p in range(1, 26):
            delta4 = v_op(delta(p).series, 4).truncate(p)
            th = theta(p).series
            e2_4 = v_op(e2_level_two(p), 4).truncate(p)
            for k, equalizer in ((14, e2_4), (16, r_t(4, p).series),
                                 (24, r_t(12, p).series)):
                expected = delta4 * equalizer * th
                assert psi(k, p).series.coeffs == expected.coeffs, (k, p)
            e4_4 = v_op(eisenstein(4, p).series, 4).truncate(p)
            e6_4 = v_op(eisenstein(6, p).series, 4).truncate(p)
            base = th * e4_4 * e6_4 \
                - cohen_series(2, p).series * e4_4 * e4_4
            expected = twist(base, CHI3).scale(-1) + twist(base, CHI3_SQUARED)
            assert psi10(p).series.coeffs == expected.coeffs, p

    def test_psi12_never_multiplies_by_one(self, monkeypatch):
        # R_0 is the series 1, so psi(12) is V_4(Delta) theta with no
        # product by it
        _cache.clear()
        kernel = qseries._kronecker
        operands = []

        def spy(a, b):
            operands.extend((a, b))
            return kernel(a, b)

        monkeypatch.setattr(qseries, "_kronecker", spy)
        psi(12, 1622)
        assert operands
        assert not [row for row in operands
                    if row[0] == 1 and not any(row[1:])]

    def test_psi14_uses_level8_bridge(self):
        form = psi(14, 60)
        assert form.meta.level_bound == 8
        assert "w2_bridge" in form.trace

    def test_projection_stability(self):
        base = ap_project(psi(12, 90).series, 2, 3).reduce_mod(3)
        for k in (14, 16):
            other = ap_project(psi(k, 90).series, 2, 3).reduce_mod(3)
            assert other.coeffs == base.coeffs, k

    def test_preconditions(self):
        for bad in (10, 13):
            with pytest.raises(ValueError):
                psi(bad, 10)

    def test_hurwitz_link(self):
        red = psi(12, 100).series.reduce_mod(3)
        for n in range(2, 100, 3):
            assert red.coeffs[n] == residue(hurwitz(3 * n)), n


class TestPsi10:
    def test_support(self):
        series = psi10(80).series
        assert all(c == 0 for n, c in enumerate(series.coeffs) if n % 3 != 2)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 80])
    def test_equals_the_twist_route(self, p):
        # the definition, built by its operators: the base twisted by
        # -chi3 plus its chi3^2 twist, where -chi3(n) + chi3^2(n) is 2 at
        # n = 2 mod 3 and 0 elsewhere
        assert [-CHI3(n) + CHI3_SQUARED(n) for n in range(3)] == [0, 0, 2]
        small = v4_precision(p)
        base = theta(p).series * dilate4(r_monomial(10, small), p) \
            - cohen_series(2, p).series * dilate4(r_monomial(8, small), p)
        expected = twist(base, CHI3).scale(-1) + twist(base, CHI3_SQUARED)
        assert psi10(p).series == expected

    def test_congruent_to_twice_projection_of_psi12(self):
        p = 80
        lhs = psi10(p).series.reduce_mod(3)
        rhs = ap_project(psi(12, p).series, 2, 3).scale(2).reduce_mod(3)
        assert lhs.coeffs == rhs.coeffs

    def test_displayed_residues_doubled(self):
        red = psi10(100).series.reduce_mod(3)
        for n, expected in DISPLAY_PSI.items():
            assert red.coeffs[n] == 2 * expected % 3, n


class TestAuxiliaryForms:
    def test_hurwitz_progression_values(self):
        form = hurwitz_progression(60)
        for n in range(60):
            expected = hurwitz(3 * n) if n % 3 == 2 else 0
            assert form.series.coeffs[n] == expected, n
        assert form.meta.level_bound == 324

    def test_cusp_line_is_the_classical_eigenform(self):
        series = cusp_line_13_half(12).series
        assert series.coeffs[:10] == (0, 1, 0, 0, -56, 120, 0, 0, -240, 9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 40, 301])
    def test_cusp_line_equals_the_isomorphism_image(self, p):
        # the zero-constant-term line of M_6 + M_4 through the plus-space
        # isomorphism: E_6(4z) theta - 120 E_4(4z) H_{5/2}, made primitive
        image = plus_isomorphism(6, eisenstein(6, p),
                                 eisenstein(4, p).scaled(-120), p)
        assert cusp_line_13_half(p).series.coeffs == \
            image.series.primitive().coeffs

    def test_remark3_reduction(self):
        p = 120
        lhs = cusp_line_13_half(p).series.reduce_mod(3)
        rhs = theta_off_multiples_of_three(p).series.reduce_mod(3)
        assert lhs.coeffs == rhs.coeffs  # the unit c is 1 here

    def test_ap_named_level(self):
        form = ap_named(psi(12, 20), 2, 3)
        assert form.meta.level_bound == 36
        assert form.meta.twice_weight == 25
