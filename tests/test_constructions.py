from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import residue
from plusforms import _cache, level_one_forms, qseries
from plusforms.class_numbers import hurwitz
from plusforms.cohen_eisenstein import (
    cohen_h,
    cohen_series,
    cohen_series_many,
    kohnen_images,
    kohnen_ring,
    plus_isomorphism,
    plus_space_basis,
    theta,
)
from plusforms.constructions import (
    CHI3,
    CHI3_SQUARED,
    MOD3,
    PHI_SCALES,
    PSI_SCALES,
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
    r_monomials,
    r_t,
    twist,
    u_op,
    v4_precision,
    v_op,
)
from plusforms.qseries import (
    RATIONAL,
    NonIntegralCoefficientError,
    QSeries,
    RingTag,
)

DISPLAY_PHI = {4: 2, 7: 1, 19: 1, 28: 2, 40: 2, 43: 1, 52: 2, 55: 1,
               64: 2, 67: 1, 76: 1}
DISPLAY_PSI = {8: 2, 17: 2, 20: 1, 41: 2, 44: 1, 53: 1, 56: 1, 65: 1,
               68: 2, 80: 2, 89: 2, 92: 2}


# The named forms' formulas as they read before every plus form went through
# kohnen_images: each product is taken whole, at the target precision.

def phi_oracle(k, p):
    """28 H_{7/2} R_{k-3} - (44/3) H_{11/2} R_{k-5}."""
    c3, c5 = (form.series for form in cohen_series_many((3, 5), p))
    return 28 * (c3 * r_t(k - 3, p).series) \
        - Fraction(44, 3) * (c5 * r_t(k - 5, p).series)


def psi_oracle(k, p):
    """V_4(Delta R') theta: R' is 1 at k = 12 and the E_2 bridge at 14."""
    small = v4_precision(p)
    delta_r = delta(small).series
    if k == 14:
        delta_r = delta_r * e2_level_two(small)
    elif k > 12:
        delta_r = delta_r * r_monomials([k - 12], small)[0]
    return dilate4(delta_r, p) * theta(p).series


def psi10_base_oracle(p):
    """theta R_10 - H_{5/2} R_8, with R_10 = E_4(4z) E_6(4z), R_8 = E_4(4z)^2."""
    return theta(p).series * r_t(10, p).series \
        - cohen_series(2, p).series * r_t(8, p).series


class TestAgainstTheWrittenOutFormulas:
    # each example builds cold, so the cache serves no truncation
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 20).map(lambda i: 2 * i + 1), st.integers(1, 300))
    @example(9, 1)
    @example(9, 2)
    @example(41, 3)
    @example(13, 4)
    @example(11, 297)
    @example(39, 298)
    @example(9, 299)
    @example(41, 300)
    def test_phi(self, k, p):
        _cache.clear()
        assert phi(k, p).series == phi_oracle(k, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 20).map(lambda i: 2 * i), st.integers(1, 300))
    @example(12, 1)
    @example(14, 2)
    @example(40, 3)
    @example(14, 4)
    @example(16, 297)
    @example(14, 298)
    @example(24, 299)
    @example(40, 300)
    def test_psi(self, k, p):
        _cache.clear()
        assert psi(k, p).series == psi_oracle(k, p)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 300))
    @example(1)
    @example(2)
    @example(3)
    @example(4)
    @example(297)
    @example(298)
    @example(299)
    @example(300)
    def test_psi10(self, p):
        _cache.clear()
        base = psi10_base_oracle(p)
        assert psi10(p).series == ap_project(base, 2, 3).scale(2)


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


@pytest.mark.parametrize("build", [
    lambda p: phi(9, p), lambda p: phi(13, p), psi10],
    ids=["phi9", "phi13", "psi10"])
def test_the_two_r_factors_share_e4_and_e6(monkeypatch, build):
    # R'_{k-3} and R'_{k-5} (R'_10 = E_4 E_6 and R'_8 = E_4^2 for psi10)
    # come from one r_monomials call, which builds E_4 and E_6 once each
    weights = []
    built = level_one_forms.eisenstein

    def spy(weight, precision):
        weights.append(weight)
        return built(weight, precision)

    monkeypatch.setattr(level_one_forms, "eisenstein", spy)
    _cache.clear()
    build(300)
    assert sorted(weights) == [4, 6]


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

    def test_cold_build_takes_nine_full_length_products(self, monkeypatch):
        # the seeds H_{7/2} and H_{11/2} share theta^2, theta^3 and
        # theta^4 and take seven products between them by Cohen's
        # identities, and phi adds two products with R_t(4z); building
        # every graded row whole for each series takes 15
        precision = 600
        full = []
        multiply = QSeries.__mul__

        def counting(a, b):
            if isinstance(b, QSeries) and \
                    a.precision == b.precision == precision:
                full.append(a)
            return multiply(a, b)

        _cache.clear()
        monkeypatch.setattr(QSeries, "__mul__", counting)
        phi(9, precision)
        assert 0 < len(full) <= 9

    def test_cold_build_caches_only_its_series(self):
        # the seeds' shared theta powers and F_2 live only as long as
        # the build, and R_t is not cached
        _cache.clear()
        phi(9, 300)
        assert set(_cache._store) == {("cohen", 3), ("cohen", 5), ("phi", 9)}

    def test_cold_ring_build_caches_only_ring_keyed_series(self):
        # the mod-3 build keeps its seed bodies over Z/27 and phi mod 3,
        # each under a key that names its modulus, and nothing over Q
        _cache.clear()
        phi(9, 300, ring=MOD3)
        assert set(_cache._store) == {("seed", 3, 27), ("seed", 5, 27),
                                      ("phi", 9, 3)}


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

    @pytest.mark.parametrize("k", [12, 14, 24])
    def test_cold_build_caches_only_its_series(self, k):
        # psi takes the theta summand alone, so H_{5/2} is never built
        _cache.clear()
        psi(k, 300)
        assert set(_cache._store) == {("psi", k)}

    @pytest.mark.parametrize("k", [12, 14, 24])
    def test_cold_ring_build_caches_only_ring_keyed_series(self, k):
        _cache.clear()
        psi(k, 300, ring=MOD3)
        assert set(_cache._store) == {("psi", k, 3)}

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
        base = psi10_base_oracle(p)
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


class TestRingBuild:
    """The mod-3 builds over Z/3^(v+1) against the Q builds reduced mod 3,
    each from a cold cache."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 20).map(lambda i: 2 * i + 1), st.integers(1, 2000))
    @example(9, 1)
    @example(9, 2000)
    @example(41, 2000)
    def test_phi(self, k, p):
        _cache.clear()
        expected = phi(k, p).series.reduce_mod(3)
        _cache.clear()
        form = phi(k, p, ring=MOD3)
        assert form.series == expected
        assert form._replace(series=expected) == \
            phi(k, p)._replace(series=expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 20).map(lambda i: 2 * i), st.integers(1, 2000))
    @example(12, 1)
    @example(14, 2000)
    @example(40, 2000)
    def test_psi(self, k, p):
        # k = 14 takes the weight-2 bridge, 1 mod 3 over Z/3
        _cache.clear()
        expected = psi(k, p).series.reduce_mod(3)
        _cache.clear()
        form = psi(k, p, ring=MOD3)
        assert form.series == expected
        assert form._replace(series=expected) == \
            psi(k, p)._replace(series=expected)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 2000))
    @example(1)
    @example(2000)
    def test_f(self, p):
        _cache.clear()
        expected = f_form(p).series.reduce_mod(3)
        _cache.clear()
        assert f_form(p, ring=MOD3).series == expected

    def test_a_warm_q_cache_does_not_serve_the_ring_build(self):
        _cache.clear()
        rational = phi(9, 400)
        ring = phi(9, 300, ring=MOD3)
        assert ring.series.ring == MOD3 and rational.series.ring == RATIONAL
        assert ring.series == rational.series.truncate(300).reduce_mod(3)

    def test_the_ring_comes_from_the_constants(self):
        # phi: 28 zeta(-5) = -1/9 and -(44/3) zeta(-9) = 1/9, so v = 2;
        # psi: theta alone with constant 1, so v = 0; with H_{5/2} in use,
        # zeta(-3) = 1/120 has one 3, so v = 1
        assert [a * cohen_h(r, 0) for a, r in zip(PHI_SCALES, (3, 5))] == \
            [Fraction(-1, 9), Fraction(1, 9)]
        assert kohnen_ring(9, PHI_SCALES) == RingTag(27)
        assert kohnen_ring(41, PHI_SCALES) == RingTag(27)
        assert kohnen_ring(12, PSI_SCALES) == RingTag(3)
        assert kohnen_ring(12, (1, 1)) == RingTag(9)
        assert kohnen_ring(9, (28, 0)) == RingTag(27)
        assert kohnen_ring(9, (0, 132)) == RingTag(3)

    def test_a_larger_power_of_three_gives_the_same_residues(self):
        # over Z/3^(u+1) with u > v the image is 3^u times the form
        p, small = 300, v4_precision(300)
        expected = phi(9, p).series.reduce_mod(3)
        for modulus in (81, 243):
            ring = RingTag(modulus)
            (image,) = kohnen_images(9, [tuple(r_monomials((6, 4), small,
                                                           ring))],
                                     p, PHI_SCALES, ring)
            assert image.series.divide_out(modulus // 3) == expected

    @pytest.mark.parametrize("modulus", [9, 5, 6])
    def test_refuses_a_ring_its_constants_do_not_fit(self, modulus):
        # Z/9 is short of the 3^2 in the denominators of phi's constants;
        # Z/5 and Z/6 are no powers of 3
        ring = RingTag(modulus)
        small = v4_precision(50)
        with pytest.raises(ValueError):
            kohnen_images(9, [tuple(r_monomials((6, 4), small, ring))], 50,
                          PHI_SCALES, ring)

    def test_a_form_that_is_not_three_integral_fails_where_q_fails(self):
        # H_{7/2} R_6 + H_{11/2} R_4 has 3 in some denominators: the ring
        # build fails at the first exponent the Q build fails at
        p, small, scales = 200, v4_precision(200), (1, 1)
        (rational,) = kohnen_images(9, [tuple(r_monomials((6, 4), small))],
                                    p, scales)
        with pytest.raises(NonIntegralCoefficientError) as over_q:
            rational.series.reduce_mod(3)
        ring = kohnen_ring(9, scales)
        (image,) = kohnen_images(9, [tuple(r_monomials((6, 4), small,
                                                       ring))],
                                 p, scales, ring)
        with pytest.raises(NonIntegralCoefficientError) as over_ring:
            image.series.divide_out(ring.modulus // 3)
        assert over_ring.value.exponent == over_q.value.exponent
        assert over_ring.value.modulus == 3

    @pytest.mark.parametrize("build", [phi, psi])
    def test_only_q_and_z3(self, build):
        with pytest.raises(ValueError, match="over Q or Z/3"):
            build(12 if build is psi else 9, 10, ring=RingTag(5))
