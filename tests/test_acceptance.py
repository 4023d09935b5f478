"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from contextlib import contextmanager

from conftest import hurwitz_weighted_form_count
from plusforms import cli
from plusforms.census import beta_census_crosscheck, nonvanishing_census
from plusforms.class_numbers import (
    class_number_of_field,
    gen_bernoulli,
    hurwitz,
    is_fundamental,
)
from plusforms.cohen_eisenstein import cohen_series, plus_isomorphism, theta
from plusforms.congruence_engine import verify_congruence
from plusforms.constructions import (
    NamedForm,
    ap_named,
    cusp_line_13_half,
    f_form,
    hurwitz_progression,
    phi,
    psi,
    theta_off_multiples_of_three,
)
from plusforms.level_one_forms import eisenstein, mk_basis
from plusforms.operators import hecke_t, r_t, u_op, v_op
from plusforms.qseries import QSeries

DISPLAY_PHI_N = [4, 7, 19, 28, 40, 43, 52, 55, 64, 67, 76]
DISPLAY_PHI_R = [2, 1, 1, 2, 2, 1, 2, 1, 2, 1, 1]
DISPLAY_PSI_N = [8, 17, 20, 41, 44, 53, 56, 65, 68, 80, 89, 92]
DISPLAY_PSI_R = [2, 2, 1, 2, 1, 1, 1, 1, 2, 2, 2, 2]


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d: FAIL  %s" % (number, description))
        raise
    print("ACCEPTANCE %2d: PASS  %s  (%.1fs)"
          % (number, description, time.monotonic() - started))


def test_criterion_1_main_congruence(capsys):
    with criterion(1, "F == lambda*G_{3,1} mod 3 to Sturm bound >= 541"):
        started = time.monotonic()
        code = cli.main(["verify", "cong"])
        out = capsys.readouterr().out
        elapsed = time.monotonic() - started
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "verified"
        assert report["bound"] >= 541
        lam = report["unit"]
        assert lam in (1, 2)
        assert lam == 2  # fixed once empirically, frozen here
        red = f_form(100).series.reduce_mod(3)
        assert [red.coeffs[n] for n in DISPLAY_PHI_N] == \
            [lam * r % 3 for r in DISPLAY_PHI_R]
        assert elapsed < 60, "took %.1fs" % elapsed


def test_criterion_2_psi_congruence():
    with criterion(2, "proj(psi(12)) == lambda*hurwitz(3n) mod 3 to Sturm bound"):
        started = time.monotonic()
        precision = 1622
        lhs = ap_named(psi(12, precision), 2, 3)
        rhs = hurwitz_progression(precision)
        report = verify_congruence(lhs, rhs, 3)
        elapsed = time.monotonic() - started
        assert report.verified
        lam = report.unit
        assert lam in (1, 2) and lam == 1
        red = lhs.series.reduce_mod(3)
        assert [red.coeffs[n] for n in DISPLAY_PSI_N] == \
            [lam * r % 3 for r in DISPLAY_PSI_R]
        assert elapsed < 60, "took %.1fs" % elapsed


def test_criterion_3_stability_in_k():
    with criterion(3, "phi(k) mod 3 constant for k in 9..15, psi proj for 12..16 (precision 600)"):
        p = 600
        base_phi = phi(9, p).series.reduce_mod(3)
        for k in (11, 13, 15):
            assert phi(k, p).series.reduce_mod(3).coeffs == base_phi.coeffs, k
        base_psi = ap_named(psi(12, p), 2, 3).series.reduce_mod(3)
        for k in (14, 16):
            other = ap_named(psi(k, p), 2, 3).series.reduce_mod(3)
            assert other.coeffs == base_psi.coeffs, k


def test_criterion_4_class_number_bridge():
    with criterion(4, "beta_9(D) != 0 mod 3 iff 3 does not divide h(-D), D < 2000"):
        checked = beta_census_crosscheck(2000, phi(9, 2000))
        # the full qualifying set: fundamental D = 1 mod 3, 0 mod 4, D < 2000
        assert checked == 78


def test_criterion_5_class_number_oracles():
    with criterion(5, "forms count == -B_{1,chi} on (-500,-4); hurwitz == brute count to 500"):
        matched = 0
        for d in range(-500, -4):
            if is_fundamental(d):
                assert class_number_of_field(d) == -gen_bernoulli(1, d), d
                matched += 1
        assert matched > 100
        for n in range(501):
            assert hurwitz(n) == hurwitz_weighted_form_count(n), n


def test_criterion_6_density_reproduction():
    with criterion(6, "x=1e5 densities: n2minus in [0.1106,0.1174], nonvanishing > 0.057"):
        started = time.monotonic()
        report = nonvanishing_census(100000)
        elapsed = time.monotonic() - started
        density = float(report.n2minus_density)
        assert 0.1106 <= density <= 0.1174, density
        assert float(report.nonvanishing_density) > 0.057
        assert elapsed < 300, "took %.1fs" % elapsed


def test_criterion_7_operator_properties():
    with criterion(7, "U-T mod 3 (prec 100); V_3 = cube mod 3; R_t == 1 mod 3, t <= 40"):
        ell, depth = 3, 100
        in_prec = ell * ell * depth
        sources = [(theta(in_prec).series, 0),
                   (cohen_series(2, in_prec).series, 2),
                   (cohen_series(3, in_prec).series, 3)]
        for series, k in sources:
            g = series.primitive().reduce_mod(ell)
            lhs = u_op(g, ell)
            rhs = hecke_t(g ** ell, ell, ell * k + (ell - 1) // 2)
            assert lhs.coeffs[:depth] == rhs.coeffs[:depth]
            assert any(lhs.coeffs[:depth])

        import random

        rng = random.Random(20260808)
        for _ in range(20):
            g = QSeries.modular(3, [rng.randrange(3) for _ in range(45)])
            left = v_op(g, 3)
            right = g ** 3
            n = min(left.precision, right.precision)
            assert left.coeffs[:n] == right.coeffs[:n]

        one = (1,) + (0,) * 99
        for t in range(0, 41, 2):
            if t != 2:
                assert r_t(t, 100).series.reduce_mod(3).coeffs == one, t


def test_criterion_8_plus_condition():
    with criterion(8, "plus condition to precision 600 on phi, cohen, isomorphism images"):
        p = 600
        odd_forbidden = (1, 2)
        even_forbidden = (2, 3)
        for form, bad in ((phi(9, p), odd_forbidden),
                          (phi(11, p), odd_forbidden),
                          (cohen_series(2, p), even_forbidden),
                          (cohen_series(3, p), odd_forbidden),
                          (cohen_series(5, p), odd_forbidden)):
            assert all(c == 0 for n, c in enumerate(form.series.coeffs)
                       if n % 4 in bad), form
        images = [
            (plus_isomorphism(4, eisenstein(4, p), None, p), even_forbidden),
            (plus_isomorphism(9, mk_basis(6, p)[0], mk_basis(4, p)[0], p),
             odd_forbidden),
            (plus_isomorphism(6, eisenstein(6, p),
                              eisenstein(4, p).scaled(-120), p),
             even_forbidden),
        ]
        for image, bad in images:
            assert all(c == 0 for n, c in enumerate(image.series.coeffs)
                       if n % 4 in bad)


def test_criterion_9_remark3():
    with criterion(9, "weight 13/2 cusp line == c * sum(q^(n^2), 3!|n) mod 3, precision 300"):
        p = 300
        lhs = cusp_line_13_half(p).series.reduce_mod(3)
        rhs = theta_off_multiples_of_three(p).series.reduce_mod(3)
        unit = next((c for c in (1, 2)
                     if lhs.coeffs == rhs.scale(c).coeffs), None)
        assert unit in (1, 2)
        assert unit == 1  # frozen after the first run
        assert any(lhs.coeffs)


def test_criterion_10_negative_control():
    with criterion(10, "perturbed phi(9) reports Mismatch at exactly the altered index"):
        base = phi(9, 60)
        coeffs = list(base.series.coeffs)
        target = 4  # must sit below the Sturm bound (6) of the pair
        coeffs[target] += 1
        perturbed = NamedForm("phi:9-perturbed", QSeries.rational(coeffs),
                              base.meta, base.trace)
        report = verify_congruence(base, perturbed, 3, units=(1,))
        assert report.status == "mismatch"
        assert report.first_n == target
