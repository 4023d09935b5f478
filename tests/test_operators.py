import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms import _cache
from plusforms.cohen_eisenstein import cohen_series, theta
from plusforms.arith import sigma
from plusforms.level_one_forms import eisenstein
from plusforms.operators import (
    Character,
    NotOddPrimeError,
    ap_project,
    e2_level_two,
    hecke_t,
    level_after_twist,
    level_after_u,
    level_after_v,
    r_monomials,
    r_t,
    twist,
    u_op,
    v4_precision,
    v_op,
)
from plusforms.qseries import RATIONAL, QSeries


def q(*coeffs):
    return QSeries.rational(coeffs)


int_series = st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(
    lambda cs: QSeries.rational(cs))


class TestUV:
    def test_u_identity(self):
        g = q(1, 2, 3)
        assert u_op(g, 1).coeffs == g.coeffs

    def test_u_picks_multiples(self):
        g = q(0, 0, 0, 1, 0, 0, 1, 1)  # q^3 + q^6 + q^7
        assert u_op(g, 3).coeffs == (0, 1, 1)

    def test_v_examples(self):
        assert v_op(q(1, 1), 3).coeffs == (1, 0, 0, 1)
        assert v_op(q(1, 2), 1).coeffs == (1, 2)

    @settings(max_examples=50, deadline=None)
    @given(int_series, st.integers(1, 4))
    def test_u_after_v_is_identity(self, g, d):
        back = u_op(v_op(g, d), d)
        assert back.coeffs == g.coeffs

    @settings(max_examples=50, deadline=None)
    @given(int_series, st.integers(1, 4))
    def test_v_after_u_projects_onto_multiples(self, g, d):
        proj = v_op(u_op(g, d), d)
        for n in range(proj.precision):
            expected = g.coeffs[n] if n % d == 0 else 0
            assert proj.coeffs[n] == expected

    def test_level_rules(self):
        assert level_after_u(4, 3) == 12
        assert level_after_v(12, 3) == 36
        assert level_after_twist(36, 3) == 324


class TestTwist:
    def test_trivial(self):
        g = q(5, -1, 7)
        assert twist(g, Character.trivial()).coeffs == g.coeffs

    def test_chi3_values(self):
        chi = Character.kronecker(-3)
        g = q(0, 1, 1, 1)
        assert twist(g, chi).coeffs == (0, 1, -1, 0)

    def test_sum_with_twist_splits_progressions(self):
        chi = Character.kronecker(-3)
        rng = random.Random(11)
        g = q(*[rng.randrange(-9, 9) for _ in range(30)])
        combined = g + twist(g, chi)
        for n in range(30):
            expected = (2 * g.coeffs[n] if n % 3 == 1
                        else g.coeffs[n] if n % 3 == 0 else 0)
            assert combined.coeffs[n] == expected

    def test_double_twist_projects_to_coprime(self):
        chi = Character.kronecker(-3)
        g = q(*range(1, 13))
        tt = twist(twist(g, chi), chi)
        for n in range(12):
            assert tt.coeffs[n] == (0 if n % 3 == 0 else g.coeffs[n])


class TestApProject:
    def test_whole_projection(self):
        g = q(1, 2, 3)
        assert ap_project(g, 0, 1).coeffs == g.coeffs

    def test_simple(self):
        assert ap_project(q(1, 1, 1, 1), 1, 3).coeffs == (0, 1, 0, 0)

    def test_partition(self):
        g = q(*range(10))
        total = (ap_project(g, 0, 3) + ap_project(g, 1, 3)
                 + ap_project(g, 2, 3))
        assert total.coeffs == g.coeffs


class TestHecke:
    def test_rejects_non_odd_prime(self):
        for bad in (2, 9, 1):
            with pytest.raises(NotOddPrimeError):
                hecke_t(q(1), bad, 5)

    def test_zero_is_fixed(self):
        z = QSeries.zero(QSeries.rational((1,)).ring, 18)
        assert hecke_t(z, 3, 4).is_zero()

    def test_formula_on_crafted_series(self):
        # support only at n = 1 and n = 9 = ell^2, ell = 3, k = 2
        coeffs = [0] * 19
        coeffs[1] = 5
        coeffs[9] = 7
        g = QSeries.rational(coeffs)
        out = hecke_t(g, 3, 2)
        # n=0: c(0) + 3*(0/3)c(0) + 27*c(0) -> 0
        assert out.coeffs[0] == 0
        # n=1: c(9) + 3*(1/3)*c(1) + 0 = 7 + 3*1*5
        assert out.coeffs[1] == 7 + 15
        # n=2: c(18) + 3*(2/3)*c(2) = 0 + 0
        assert out.coeffs[2] == 0

    def test_output_precision(self):
        g = QSeries.rational([1] * 90)
        assert hecke_t(g, 3, 1).precision == 10

    def test_u_t_congruence_small(self):
        ell, depth = 3, 30
        g = theta(ell * ell * depth).series.primitive().reduce_mod(ell)
        lhs = u_op(g, ell)
        rhs = hecke_t(g ** ell, ell, ell * 0 + 1)
        assert lhs.coeffs[:depth] == rhs.coeffs[:depth]
        assert any(lhs.coeffs[:depth])


class TestFermatProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
           st.sampled_from((3, 5)))
    def test_v_is_power_mod_ell(self, coeffs, ell):
        g = QSeries.modular(ell, [c % ell for c in coeffs])
        left = v_op(g, ell)
        right = g ** ell
        n = min(left.precision, right.precision)
        assert left.coeffs[:n] == right.coeffs[:n]


class TestRt:
    def test_r0_is_one(self):
        assert r_t(0, 6).series.coeffs == (1, 0, 0, 0, 0, 0)

    def test_r4_r6_are_dilated_eisenstein(self):
        p = 40
        e4_4 = v_op(eisenstein(4, p).series, 4).truncate(p)
        e6_4 = v_op(eisenstein(6, p).series, 4).truncate(p)
        assert r_t(4, p).series.coeffs == e4_4.coeffs
        assert r_t(6, p).series.coeffs == e6_4.coeffs

    def test_undilated_product_covers_every_window(self):
        # R_t is multiplied before V_4; at every P mod 4 it must equal the
        # product of the dilated series at full precision
        _cache.clear()
        for p in range(1, 26):
            e4_4 = v_op(eisenstein(4, p).series, 4).truncate(p)
            e6_4 = v_op(eisenstein(6, p).series, 4).truncate(p)
            for t in (8, 10, 22):
                m = (t % 4) // 2
                expected = e4_4 ** (t // 4 - m) * e6_4 ** m
                assert r_t(t, p).series.coeffs == expected.coeffs, (t, p)

    def test_t2_rejected(self):
        with pytest.raises(ValueError):
            r_t(2, 10)

    def test_r_monomials_take_the_first_exponent_pair(self):
        # E_4^(t//4 - m) E_6^m, m = (t mod 4) / 2, one entry per t in order
        p = 30
        e4, e6 = (eisenstein(w, p).series for w in (4, 6))
        assert r_monomials((10, 8, 6, 0, 22), p) == [
            e4 * e6, e4 ** 2, e6, QSeries.one(RATIONAL, p), e4 ** 4 * e6]
        with pytest.raises(ValueError):
            r_monomials((8, 2), p)

    def test_one_mod_three_up_to_forty(self):
        one = (1,) + (0,) * 49
        for t in range(0, 41, 2):
            if t == 2:
                continue
            assert r_t(t, 50).series.reduce_mod(3).coeffs == one, t

    def test_weights(self):
        assert r_t(8, 4).meta.twice_weight == 16

    @pytest.mark.parametrize("p", [1, 2, 5, 541, 1351])
    def test_built_mod_three_is_the_reduction_of_the_rational_row(self, p):
        # reduction mod 3 is a ring homomorphism on 3-integral series: the
        # monomial built from E_4, E_6 reduced before the powers is the
        # rational R_t reduced, at the Sturm bounds 541 and 1351 of verify
        small = v4_precision(p)
        e4, e6 = (eisenstein(w, small).series.reduce_mod(3) for w in (4, 6))
        for t in range(0, 47, 2):
            if t == 2:
                continue
            m = (t % 4) // 2
            built = e4 ** (t // 4 - m) * e6 ** m
            assert v_op(built, 4).truncate(p) == \
                r_t(t, p).series.reduce_mod(3), t

    def test_e2_level_two_is_2e2_2z_minus_e2(self):
        # E_2 = 1 - 24 sum(sigma_1(n) q^n), so 2 E_2(2z) - E_2(z) has
        # 24 (sigma_1(n) - 2 sigma_1(n/2)) at q^n
        coeffs = e2_level_two(60).coeffs
        assert coeffs[0] == 1
        for n in range(1, 60):
            half = 2 * sigma(1, n // 2) if n % 2 == 0 else 0
            assert coeffs[n] == 24 * (sigma(1, n) - half), n


class TestUTForCohenSeries:
    @pytest.mark.parametrize("r,k", [(2, 2), (3, 3)])
    def test_u_t_congruence(self, r, k):
        ell, depth = 3, 40
        g = cohen_series(r, ell * ell * depth).series.primitive().reduce_mod(ell)
        lhs = u_op(g, ell)
        rhs = hecke_t(g ** ell, ell, ell * k + (ell - 1) // 2)
        assert lhs.coeffs[:depth] == rhs.coeffs[:depth]
        assert any(lhs.coeffs[:depth])
