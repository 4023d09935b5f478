from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms import qseries
from plusforms.cohen_eisenstein import theta
from plusforms.congruence_engine import (
    HalfIntegralWeightError,
    IncompatibleWeightsError,
    direct_report,
    equalize_and_integralize,
    index_gamma0,
    sturm_bound,
    sturm_plan,
    verify_congruence,
)
from plusforms.constructions import (
    NamedForm,
    ap_named,
    f_form,
    g31,
    hurwitz_progression,
    phi,
    psi,
)
from plusforms.level_one_forms import FormMeta
from plusforms.operators import r_t
from plusforms.qseries import QSeries, RingTag


def _named(name, series, twice_weight, level):
    return NamedForm(name, series, FormMeta(twice_weight, level), (name,))


class TestBounds:
    @pytest.mark.parametrize("n,idx", [(1, 1), (4, 6), (36, 72), (324, 648)])
    def test_index(self, n, idx):
        assert index_gamma0(n) == idx

    @pytest.mark.parametrize("tw,level,bound", [
        (20, 4, 6), (20, 324, 541), (2, 1, 2), (50, 324, 1351)])
    def test_sturm_values(self, tw, level, bound):
        assert sturm_bound(tw, level) == bound

    def test_monotone(self):
        for tw in (2, 10, 24):
            for level in (1, 4, 36):
                assert sturm_bound(tw, level) <= sturm_bound(tw + 2, level)
                assert sturm_bound(tw, level) <= sturm_bound(tw, level * 2)

    def test_half_integral_rejected(self):
        with pytest.raises(HalfIntegralWeightError):
            sturm_bound(19, 4)


class TestEqualize:
    def test_f_vs_g31_shape(self):
        lhs, rhs, tw, level = equalize_and_integralize(f_form(60), g31(60), 3)
        assert tw == 20 and level == 324
        assert lhs.precision == 60 and rhs.precision == 60

    def test_equal_weights(self):
        a = phi(9, 30)
        _, _, tw, level = equalize_and_integralize(a, a, 3)
        assert tw == 20 and level == 4

    def test_odd_gap_rejected(self):
        lhs = ap_named(psi(12, 30), 2, 3)
        with pytest.raises(IncompatibleWeightsError):
            equalize_and_integralize(lhs, hurwitz_progression(30), 3)

    def test_r_multiplication_is_mod3_noop(self):
        g = g31(50).series
        assert (g * r_t(8, 50).series).reduce_mod(3).coeffs == \
            g.reduce_mod(3).coeffs


class TestVerify:
    def test_main_congruence(self):
        report = verify_congruence(f_form(650), g31(650), 3)
        assert report.verified
        assert report.unit == 2
        assert report.bound_used == 541
        assert report.strategy == "theta_integralize"
        assert report.weight_equalizer == 8

    def test_unit_restriction(self):
        report = verify_congruence(f_form(650), g31(650), 3, units=(1,))
        assert report.status == "mismatch"   # unit 1 alone cannot match
        report2 = verify_congruence(f_form(650), g31(650), 3, units=(2,))
        assert report2.verified and report2.unit == 2

    def test_psi_congruence_squared_strategy(self):
        p = 1622
        report = verify_congruence(ap_named(psi(12, p), 2, 3),
                                   hurwitz_progression(p), 3)
        assert report.verified
        assert report.unit == 1
        assert report.strategy == "squared"
        assert report.bound_used == 1351

    def test_insufficient_precision(self):
        report = verify_congruence(f_form(80), g31(80), 3)
        assert report.status == "insufficient_precision"
        assert report.required == 541 and report.available == 80

    def test_negative_control_reports_exact_index(self):
        base = phi(9, 60)
        coeffs = list(base.series.coeffs)
        coeffs[4] += 1
        perturbed = NamedForm("phi:9-perturbed", QSeries.rational(coeffs),
                              base.meta, base.trace)
        report = verify_congruence(base, perturbed, 3, units=(1,))
        assert report.status == "mismatch"
        assert report.first_n == 4
        assert report.bound_used == 6

    def test_theta_against_delta_coefficients(self):
        from plusforms.level_one_forms import delta

        th = _named("theta", theta(40).series, 1, 4)
        fake = _named("delta-as-half", delta(40).series, 1, 4)
        report = verify_congruence(th, fake, 3)
        assert report.status == "mismatch"
        assert report.first_n == 0

    def test_verified_survives_double_bound_recheck(self):
        report = verify_congruence(f_form(650), g31(650), 3)
        assert report.verified
        depth = 2 * report.bound_used
        lhs = f_form(depth).series.reduce_mod(3)
        rhs = g31(depth).series.reduce_mod(3).scale(report.unit)
        assert lhs.coeffs == rhs.coeffs

    def test_report_json_shape(self):
        report = verify_congruence(f_form(650), g31(650), 3)
        payload = report.to_json_dict()
        assert payload["status"] == "verified"
        assert payload["bound"] == 541
        assert payload["unit"] == 2
        assert set(payload) >= {"lhs", "rhs", "modulus", "bound",
                                "equalizer_t", "status", "unit"}


class TestMismatchUnit:
    def test_mismatch_against_requested_unit_on_squared_path(self):
        # the raw rows agree under unit 1 but not under the requested unit 2
        p = 1622
        report = verify_congruence(ap_named(psi(12, p), 2, 3),
                                   hurwitz_progression(p), 3, units=(2,))
        assert report.status == "mismatch"
        assert report.lhs_value != 2 * report.rhs_value % 3

    def test_direct_mismatch_is_reported_against_unit_1_under_auto(self):
        # unit 1 first fails at n = 1, unit 2 already at n = 0
        lhs = QSeries(RingTag(3), (1, 1, 0))
        rhs = QSeries(RingTag(3), (1, 2, 0))
        report = direct_report("a", "b", lhs, rhs, 3)
        assert report.status == "mismatch"
        assert (report.first_n, report.lhs_value, report.rhs_value) == \
            (1, 1, 2)
        assert direct_report("a", "b", lhs, lhs, 3).unit == 1
        assert direct_report("a", "b", lhs, lhs.scale(2), 3).unit == 2


class TestGapTwo:
    def test_r4_on_the_heavy_side_and_r6_on_the_light_side(self):
        p = 20
        series = g31(p).series
        heavy = _named("heavy", series, 7, 4)
        light = _named("light", series, 3, 4)
        lhs, rhs, tw, level = equalize_and_integralize(heavy, light, 3)
        th = theta(p).series
        assert tw == 16 and level == 4
        assert lhs == series * r_t(4, p).series * th
        assert rhs == series * r_t(6, p).series * th

    @pytest.mark.parametrize("heavy_tw,strategy,out_tw", [
        (7, "theta_integralize", 7 + 1 + 8), (5, "squared", 2 * 5 + 8)])
    def test_verify_bound_counts_the_r4_weight(self, heavy_tw, strategy,
                                                out_tw):
        series = g31(20).series
        report = verify_congruence(_named("heavy", series, heavy_tw, 4),
                                   _named("light", series, 3, 4), 3)
        assert report.verified and report.strategy == strategy
        assert report.weight_equalizer == 2
        assert report.bound_used == sturm_bound(out_tw, 4)


class TestLighterLhs:
    # the lighter form as lhs: bound, strategy and t are those of the
    # heavier-first order, and units and values speak lhs = u * rhs
    def test_g31_against_f_verifies_with_unit_2(self):
        report = verify_congruence(g31(650), f_form(650), 3)
        assert report.verified
        assert (report.unit, report.bound_used) == (2, 541)
        assert report.strategy == "theta_integralize"
        assert report.weight_equalizer == 8

    def test_g31_against_f_unit_1_mismatch(self):
        report = verify_congruence(g31(650), f_form(650), 3, units=(1,))
        assert report.status == "mismatch"
        assert (report.first_n, report.lhs_value, report.rhs_value) == \
            (4, 2, 1)

    def test_hurwitz_against_psi_unit_2_mismatch(self):
        p = 1622
        report = verify_congruence(hurwitz_progression(p),
                                   ap_named(psi(12, p), 2, 3), 3, units=(2,))
        assert report.status == "mismatch"
        assert report.strategy == "squared" and report.bound_used == 1351
        assert (report.first_n, report.lhs_value, report.rhs_value) == \
            (5, 2, 2)


class TestSturmPlan:
    def test_f_against_g31(self):
        plan = sturm_plan(f_form(1).meta, g31(1).meta)
        assert (plan.strategy, plan.t, plan.twice_weight, plan.level) == \
            ("theta_integralize", 8, 20, 324)
        assert plan.r_weights == (0, 8)
        assert sturm_bound(plan.twice_weight, plan.level) == 541

    @pytest.mark.parametrize("heavy_tw,light_tw", [(19, 3), (25, 3), (7, 3),
                                                   (5, 3), (9, 9)])
    def test_either_side_may_be_the_lighter(self, heavy_tw, light_tw):
        heavy, light = FormMeta(heavy_tw, 36), FormMeta(light_tw, 324)
        plan = sturm_plan(heavy, light)
        swapped = sturm_plan(light, heavy)
        assert swapped.r_weights == plan.r_weights[::-1]
        assert (swapped.strategy, swapped.t, swapped.twice_weight,
                swapped.level) == (plan.strategy, plan.t, plan.twice_weight,
                                   plan.level)

    def test_psi14_level_is_648(self):
        plan = sturm_plan(ap_named(psi(14, 1), 2, 3).meta,
                          hurwitz_progression(1).meta)
        assert plan.strategy == "squared"
        assert plan.level == 648
        assert sturm_bound(plan.twice_weight, plan.level) == 3133

    def test_integral_weight_rejected(self):
        with pytest.raises(HalfIntegralWeightError):
            sturm_plan(FormMeta(4, 4), FormMeta(3, 4))


class TestModulusRule:
    # R_t is identically 1 only mod 3: a nonzero gap needs m = 3
    def test_verify_rejects_a_gap_modulo_5(self):
        with pytest.raises(ValueError, match="only modulo 3"):
            verify_congruence(f_form(650), g31(650), 5)

    def test_equalize_rejects_a_gap_modulo_5(self):
        with pytest.raises(ValueError, match="only modulo 3"):
            equalize_and_integralize(f_form(60), g31(60), 5)

    def test_gap_zero_keeps_every_modulus(self):
        a = phi(9, 30)
        report = verify_congruence(a, a, 5)
        assert report.verified and report.unit == 1
        assert equalize_and_integralize(a, a, 7)[2:] == (20, 4)


def _sturm_pair_mod3(plan, lhs, rhs):
    """The plan's integral-weight pair built over Q from the public theta
    and r_t, then reduced mod 3: theta (or the square) times each side,
    times that side's R factor."""
    precision = lhs.precision
    if plan.strategy == "theta_integralize":
        th = theta(precision).series
        sides = [lhs * th, rhs * th]
    else:
        sides = [lhs * lhs, rhs * rhs]
    for i, weight in enumerate(plan.r_weights):
        if weight:
            sides[i] = sides[i] * r_t(weight, precision).series
    return [side.reduce_mod(3) for side in sides]


def _first_index(a, b, unit):
    """The first n with a != unit * b in two rows reduced mod 3."""
    return next((n for n, (x, y) in enumerate(zip(a.nums, b.nums))
                 if x != unit * y % 3), None)


@st.composite
def _rows_near_a_congruence(draw):
    """Two 3-integral rows of a common length B <= 80 over one denominator
    prime to 3, lhs = unit * rhs + 3 * noise, sometimes with one coefficient
    of lhs moved off the congruence."""
    length = draw(st.integers(1, 80))
    unit = draw(st.sampled_from((1, 2)))
    den = draw(st.sampled_from((1, 2, 5, 28)))
    ints = st.lists(st.integers(-60, 60), min_size=length, max_size=length)
    rhs, noise = draw(ints), draw(ints)
    lhs = [unit * r + 3 * e for r, e in zip(rhs, noise)]
    if draw(st.booleans()):
        lhs[draw(st.integers(0, length - 1))] += draw(st.sampled_from((1, 2)))
    return (unit, QSeries.rational([Fraction(c, den) for c in lhs]),
            QSeries.rational([Fraction(c, den) for c in rhs]))


class TestRowsDecideTheSturmPair:
    # below a cutoff B a product's coefficients depend only on its factors'
    # coefficients below B, theta(0) = 1, and every R factor is 1 mod 3: so
    # rows that agree mod 3 under u give a Sturm pair that agrees under u
    # (u^2 for the squares), and theta moves no first difference
    @pytest.mark.parametrize("gap2,strategy,t", [
        (0, "theta_integralize", 0), (4, "theta_integralize", 2),
        (8, "theta_integralize", 4), (16, "theta_integralize", 8),
        (2, "squared", 2), (6, "squared", 6), (10, "squared", 10)])
    @settings(max_examples=25, deadline=None)
    @given(rows=_rows_near_a_congruence(),
           light=st.sampled_from((1, 3, 5, 9)), heavy_first=st.booleans())
    def test_the_integral_weight_pair_follows_the_rows(
            self, gap2, strategy, t, rows, light, heavy_first):
        unit, lhs, rhs = rows
        metas = FormMeta(light + gap2, 4), FormMeta(light, 4)
        lhs_meta, rhs_meta = metas if heavy_first else metas[::-1]
        plan = sturm_plan(lhs_meta, rhs_meta)
        assert (plan.strategy, plan.t) == (strategy, t)
        first = _first_index(lhs.reduce_mod(3), rhs.reduce_mod(3), unit)
        pair = _sturm_pair_mod3(plan, lhs, rhs)
        if strategy == "squared":
            if first is None:
                assert _first_index(*pair, unit * unit % 3) is None
        else:
            assert _first_index(*pair, unit) == first

        bound = sturm_bound(plan.twice_weight, plan.level)
        if bound <= lhs.precision:
            report = verify_congruence(
                NamedForm("lhs", lhs, lhs_meta, ("lhs",)),
                NamedForm("rhs", rhs, rhs_meta, ("rhs",)),
                3, units=(unit,))
            assert report.verified == (first is None or first >= bound)
            if not report.verified:
                assert report.first_n == first


class TestOneComparison:
    @pytest.mark.parametrize("build,unit", [
        (lambda: (f_form(650), g31(650)), 2),
        (lambda: (ap_named(psi(12, 1622), 2, 3), hurwitz_progression(1622)),
         1)], ids=["cong", "psi12"])
    def test_verify_forms_no_product(self, monkeypatch, build, unit):
        # the reduced rows decide the Sturm pair, so none is multiplied out
        lhs, rhs = build()

        def refuse(a, b):
            raise AssertionError("verify_congruence formed a product")

        monkeypatch.setattr(qseries, "_kronecker", refuse)
        report = verify_congruence(lhs, rhs, 3)
        assert report.verified and report.unit == unit
