import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from plusforms import census, cli, level_one_forms
from plusforms.constructions import MOD3
from plusforms.operators import v4_precision
from plusforms.qseries import RATIONAL, QSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_theta_lines(self, capsys):
        code, out, _ = run(capsys, "expand", "--form", "theta", "--prec", "5")
        assert code == 0
        assert out.splitlines() == ["0\t1", "1\t2", "4\t2"]

    def test_phi9_mod3_displays(self, capsys):
        code, out, _ = run(capsys, "expand", "--form", "phi:9",
                           "--prec", "80", "--mod", "3")
        assert code == 0
        lines = out.splitlines()
        assert "4\t2" in lines and "7\t1" in lines

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "expand", "--form", "e4", "--prec", "3",
                           "--json")
        payload = json.loads(out)
        assert payload == {"ring": "Q", "precision": 3,
                           "coeffs": ["1", "240", "2160"]}

    def test_named_form_json_carries_metadata(self, capsys):
        code, out, _ = run(capsys, "expand", "--form", "g31", "--prec", "8",
                           "--json")
        payload = json.loads(out)
        assert payload["name"] == "G_{3,1}"
        assert payload["twice_weight"] == 3
        assert payload["level_bound"] == 36
        assert payload["coeffs"][4] == "1/2"
        assert payload["trace"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "theta.tsv"
        code, out, _ = run(capsys, "expand", "--form", "theta", "--prec", "5",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines() == ["0\t1", "1\t2", "4\t2"]

    def test_bad_weight_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--form", "phi:7", "--prec", "10")
        assert code == 64
        assert "odd k >= 9" in err

    def test_unknown_form(self, capsys):
        code, _, _ = run(capsys, "expand", "--form", "nope", "--prec", "5")
        assert code == 64

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "theta.tsv"
        code, out, err = run(capsys, "expand", "--form", "theta",
                             "--prec", "5", "--out", str(target))
        assert code == 64 and out == ""
        assert err.startswith("plusforms: cannot write")

    @pytest.mark.parametrize("prec", ["0", "-3"])
    def test_prec_below_one_is_usage_error(self, capsys, prec):
        code, out, err = run(capsys, "expand", "--form", "theta",
                             "--prec", prec)
        assert code == 64 and out == ""
        assert "--prec must be >= 1" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_prec_cap_below_one_is_usage_error(self, capsys, monkeypatch,
                                               cap):
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", cap)
        code, out, err = run(capsys, "expand", "--form", "theta",
                             "--prec", "5")
        assert code == 64 and out == ""
        assert "PLUSFORMS_PREC_CAP must be >= 1" in err

    def test_non_integral_reduction_exits_3(self, capsys):
        code, _, err = run(capsys, "expand", "--form", "cohen:2",
                           "--prec", "8", "--mod", "3")
        assert code == 3
        assert "not 3-integral" in err

    @pytest.mark.parametrize("spec, name", [
        ("phi:9", "phi"), ("phi:13", "phi"), ("psi:14", "psi"),
        ("f", "f_form")])
    @pytest.mark.parametrize("mod", [None, "3", "5"])
    def test_only_mod_3_builds_in_the_ring(self, capsys, monkeypatch, spec,
                                           name, mod):
        # the output is the Q build reduced mod m either way
        rings = []
        builder = getattr(cli, name)

        def spy(*args, ring=RATIONAL):
            rings.append(ring)
            return builder(*args, ring=ring)

        monkeypatch.setattr(cli, name, spy)
        argv = ["expand", "--form", spec, "--prec", "300", "--json"]
        code, out, _ = run(capsys, *argv + (["--mod", mod] if mod else []))
        assert code == 0
        assert rings == [MOD3 if mod == "3" else RATIONAL]
        index = () if name == "f_form" else (int(spec.split(":")[1]),)
        expected = builder(*index, 300).series
        if mod:
            expected = expected.reduce_mod(int(mod))
        assert json.loads(out)["coeffs"] == \
            expected.to_json_dict()["coeffs"]


class TestVerify:
    def test_rt(self, capsys):
        code, out, _ = run(capsys, "verify", "rt", "--prec", "40")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 20  # even t in 0..40 minus t = 2
        assert all(r["status"] == "verified" for r in reports)

    def test_rt_builds_e4_and_e6_once(self, capsys, monkeypatch):
        weights = []
        eisenstein = level_one_forms.eisenstein
        monkeypatch.setattr(level_one_forms, "eisenstein", lambda w, p:
                            weights.append(w) or eisenstein(w, p))
        assert run(capsys, "verify", "rt", "--prec", "300")[0] == 0
        assert sorted(weights) == [4, 6]

    @pytest.mark.parametrize("target, names", [
        ("cong", ("f_form",)), ("psi:12", ("psi",)), ("psi:14", ("psi",))])
    def test_pairs_build_their_plus_form_mod_3(self, capsys, monkeypatch,
                                               target, names):
        rings = []
        for name in names:
            builder = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, ring=RATIONAL,
                                builder=builder: rings.append(ring)
                                or builder(*args, ring=ring))
        assert run(capsys, "verify", target)[0] == 0
        # one build at precision 1 for the plan, one for the comparison
        assert rings == [MOD3, MOD3]

    def test_remark3(self, capsys):
        code, out, _ = run(capsys, "verify", "remark3", "--prec", "120")
        assert code == 0
        assert json.loads(out)["unit"] == 1

    def test_remark3_below_its_sturm_bound_is_insufficient(self, capsys):
        # the pair (13/2, level 4) against (1/2, level 36) is planned as
        # theta_integralize with t = 6, whose Sturm bound is 43
        code, out, err = run(capsys, "verify", "remark3", "--prec", "42")
        assert code == 2
        report = json.loads(out)
        assert (report["status"], report["required"], report["available"]) \
            == ("insufficient_precision", 43, 42)
        assert err.startswith("INSUFFICIENT_PRECISION")
        code, out, _ = run(capsys, "verify", "remark3", "--prec", "43")
        assert code == 0
        assert json.loads(out)["status"] == "verified"

    def test_remark3_depth_is_read_after_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "42")
        code, out, _ = run(capsys, "verify", "remark3")
        assert code == 2
        assert json.loads(out)["available"] == 42

    def test_remark3_unit_2_reports_first_mismatch(self, capsys):
        code, out, _ = run(capsys, "verify", "remark3", "--prec", "120",
                           "--unit", "2")
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "mismatch"
        first = report["first_mismatch"]
        # the first n where lhs != 2 * rhs mod 3
        assert first["n"] is not None
        assert first["lhs"] != 2 * first["rhs"] % 3

    def test_ut(self, capsys):
        code, out, _ = run(capsys, "verify", "ut:3", "--prec", "25")
        assert code == 0
        reports = json.loads(out)
        assert [r["status"] for r in reports] == ["verified"] * 3

    def test_precision_cap_forces_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "100")
        code, out, _ = run(capsys, "verify", "cong")
        assert code == 2
        assert json.loads(out)["status"] == "insufficient_precision"

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_prec_cap_below_one_is_usage_error(self, capsys, monkeypatch,
                                               cap):
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", cap)
        code, out, err = run(capsys, "verify", "cong")
        assert code == 64 and out == ""
        assert "PLUSFORMS_PREC_CAP must be >= 1" in err

    @pytest.mark.parametrize("target", ["cong", "psi:12", "remark3",
                                        "ut:3", "rt"])
    @pytest.mark.parametrize("prec", ["0", "-1"])
    def test_prec_below_one_is_usage_error(self, capsys, target, prec):
        code, out, err = run(capsys, "verify", target, "--prec", prec)
        assert code == 64 and out == ""
        assert "--prec must be >= 1" in err

    def test_unknown_target(self, capsys):
        code, _, _ = run(capsys, "verify", "bogus")
        assert code == 64

    def test_psi_unit_2_reports_first_mismatch(self, capsys):
        code, out, _ = run(capsys, "verify", "psi:12", "--unit", "2")
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "mismatch"
        first = report["first_mismatch"]
        assert isinstance(first["n"], int)
        assert first["lhs"] != 2 * first["rhs"] % 3

    def test_ut_rejects_non_prime_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a series for a rejected target")

        monkeypatch.setattr(cli, "theta", refuse)
        monkeypatch.setattr(cli, "cohen_series", refuse)
        code, out, err = run(capsys, "verify", "ut:4")
        assert code == 64 and out == ""
        assert "not an odd prime" in err

    def test_ut_input_precision_is_capped(self, capsys, monkeypatch):
        built = []

        def recording(builder):
            def build(*args):
                form = builder(*args)
                built.append(form.series.precision)
                return form
            return build

        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "90")
        monkeypatch.setattr(cli, "theta", recording(cli.theta))
        monkeypatch.setattr(cli, "cohen_series", recording(cli.cohen_series))
        code, _, _ = run(capsys, "verify", "ut:3")
        assert code == 0
        assert len(built) == 3 and max(built) <= 90


# exit code and SHA-256 of the stdout of each invocation: these reports are
# a stable output format, pinned byte for byte
PINNED_OUTPUTS = [
    (("verify", "rt", "--prec", "40"), 0,
     "eafaf1c536301b732f01fde01fa5fed4331d6486c2e085253e389ffb387ce483"),
    (("verify", "ut:3", "--prec", "25"), 0,
     "bff876948a0ce36877dd7bdf7076c8a3a869403374c174f6a819e0b8db4bfd15"),
    (("verify", "remark3", "--prec", "120"), 0,
     "468bc00234bb2d6997d902d76c320f592cb09fc200d67adc0e3f74bd2d683239"),
    (("verify", "remark3", "--prec", "120", "--unit", "2"), 1,
     "68cfb1334d5f3cab7e3e14220e64644745fea5d665be11ecb0824f4b9a08bdf1"),
    (("verify", "cong", "--unit", "1"), 1,
     "5034e1695b191573ba22dda232a4ba4bcbd771de55df0a22a34afcad3a57a9d4"),
    (("verify", "cong"), 0,
     "04bf260c7d1c632c37ecdffea2735e998b1dfdf756b95119c3be9a89a4346859"),
    (("verify", "psi:12"), 0,
     "7ef7a16bffe6bfcd1db11d8b7d87a99a5b8f344f303b1ddeb140755d5412b61d"),
    (("expand", "--form", "phi:9", "--prec", "30", "--mod", "3", "--json"), 0,
     "2929a72b1756068bdb9853cc0f863597fbb5c5c603840a8e6bad054044b80dad"),
    (("verify", "psi:24"), 0,
     "570e0337f13adb8e60ed654bbb99c2716194eaa76d50c6e8d4962c2121d26fc1"),
    (("expand", "--form", "g31", "--prec", "2000", "--json"), 0,
     "d61e383279e206e4cc0b308ca6bd3459bb14a0f4c5c5e59b7d993e72322cd0cc"),
    (("expand", "--form", "cohen:2", "--prec", "300", "--json"), 0,
     "0c8d8e2fb4c61d4555c419aa5dfaa420f036968ccd1f9ef6955ed8d93d9158da"),
    (("expand", "--form", "cohen:3", "--prec", "300", "--json"), 0,
     "6162447270e90318e7356b53cb2de63223237e814a48568692eb00ba36e8c123"),
    (("expand", "--form", "cohen:5", "--prec", "300", "--json"), 0,
     "10d9325123b0686547b1773738d4bfde8f93a308e6078008280ddecc67d177e3"),
    (("expand", "--form", "cohen:6", "--prec", "300", "--json"), 0,
     "c72d99b1376b1feae31b04312bc77ef849f77fb7f91407dd5b07e6a327ecd8c9"),
    (("expand", "--form", "cohen:12", "--prec", "300", "--json"), 0,
     "22078bbd8dd5bfca1dad6d287c75e2d5f4dbdcc7f696f4e1f0373831ed5a4b9b"),
    (("expand", "--form", "cohen:13", "--prec", "300", "--json"), 0,
     "03d5c2b2acdc2dbda682f7513dbba7135070f5eae95dc1e56b0c4d0b81f2452f"),
    # products whose factors live on one or two residue classes mod 4
    (("expand", "--form", "phi:13", "--prec", "400", "--json"), 0,
     "be78e88a97dc9d283e6263c06738bc3f63351bf2e216ece1780ca47b4fd02fe8"),
    (("expand", "--form", "psi:24", "--prec", "400", "--json"), 0,
     "2d1cca450922cab6280e22bec1e7c336cbc4fee027132375f7eb9a03b4aecfbe"),
    (("expand", "--form", "psi10", "--prec", "400", "--json"), 0,
     "8ef56bdbcd00a974132d0b3e8301eb80a39d77056a0b58edc86c77e11a9f65e5"),
    (("expand", "--form", "f", "--prec", "400", "--json"), 0,
     "a030f27d2406631bcaa73e6cd91a6993f23e88f71c50a58ad14160015097b670"),
    # a verify decided by one comparison of the reduced rows: the level-8
    # and the heaviest default pair, a bound above the precision, and a
    # mismatch under a pinned unit on the squared path
    (("verify", "psi:14"), 0,
     "f0aa9298b1c58430000a220e3231fe16efbb8d7c22b21c53cf518432cd4045e8"),
    (("verify", "psi:30"), 0,
     "d98fa1fca60799fbd07c7f744f840079e648ab4e78b751d4ddc1037b0384aabf"),
    (("verify", "cong", "--prec", "540"), 2,
     "777e691ef5ad831aa9144fee9cd3f70f984a19ffb139da50503a0dece50ef643"),
    (("verify", "psi:12", "--unit", "2"), 1,
     "39b35c7180488a54f34375e291b6db87c4c728596961a1b59ba3d5a40a3c4086"),
]


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_OUTPUTS,
                         ids=["_".join(a.lstrip("-") for a in c[0])
                              for c in PINNED_OUTPUTS])
def test_pinned_output(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCensusCommand:
    def test_json_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, "census", "--x", "1000")
        code2, out2, _ = run(capsys, "census", "--x", "1000",
                             "--workers", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["x"] == 1000
        assert set(payload["reference_densities"]) == {
            "nine_over_8pi2", "nine_over_16pi2"}

    def test_csv(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "census", "--x", "50", "--csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "D,field_discriminant,h,h_mod_3"
        assert "13,-52,2,2" in lines

    def test_csv_run_builds_one_table(self, capsys, tmp_path, monkeypatch):
        calls = []
        table = census.class_number_table

        def counting(limit, modulus=1, residue=0):
            calls.append((modulus, residue))
            return table(limit, modulus, residue)

        monkeypatch.setattr(census, "class_number_table", counting)
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "census", "--x", "1000",
                           "--csv", str(target))
        # one table per class of field discriminants, none built twice
        assert code == 0 and len(set(calls)) == len(calls)
        assert sorted(calls) == sorted(census.FIELD_CLASSES)
        # the JSON report and the CSV are pinned byte for byte
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "e03f615ca0563193cbbb3b0da5a7e93651a3e6843a039369ff221351f47d07c5"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == \
            "f112ae2b2472625af36581c6e31e8507b35172825f39a1b0954e412b0e461d40"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pinned_output_across_the_old_chunk_boundary(
            self, capsys, tmp_path, workers):
        # x = 10^5 needs h(-d) for d up to about 4x, past 2^18
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "census", "--x", "100000",
                           "--workers", workers, "--csv", str(target))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "970b32348bde5a87a93cbf02ff0912c3aaaba25769c2782dece97ef61f953ea4"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == \
            "ba3a6f55667d812051a2a93b46ecdee7495922011eedd5b1784e8e08c4510f5b"

    def test_census_starts_no_process(self, capsys, tmp_path, monkeypatch):
        # --workers is accepted and ignored: however large, the census runs
        # in this process and gives the digests pinned above
        def refuse(process):
            raise AssertionError("the census started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "census", "--x", "100000",
                           "--workers", "100000", "--csv", str(target))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "970b32348bde5a87a93cbf02ff0912c3aaaba25769c2782dece97ef61f953ea4"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == \
            "ba3a6f55667d812051a2a93b46ecdee7495922011eedd5b1784e8e08c4510f5b"

    def test_unwritable_csv_fails_before_the_table(self, capsys, tmp_path,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a table for an unwritable CSV")

        monkeypatch.setattr(census, "class_number_table", refuse)
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "census", "--x", "50",
                             "--csv", str(target))
        assert code == 64 and out == ""
        assert err.startswith("plusforms: cannot write")

    def test_too_small_x(self, capsys):
        code, _, _ = run(capsys, "census", "--x", "10")
        assert code == 64

    def test_census_above_the_ceiling(self, capsys, tmp_path, monkeypatch):
        def refuse(x):
            raise AssertionError("the census ran past the ceiling at %d" % x)

        monkeypatch.setattr(cli, "census_with_csv", refuse)
        monkeypatch.setattr(cli, "nonvanishing_census", refuse)
        above = str(cli.CENSUS_CEILING + 1)
        target = tmp_path / "rows.csv"
        for extra in ([], ["--csv", str(target)]):
            code, out, err = run(capsys, "census", "--x", above, *extra)
            assert code == 64 and out == ""
            assert above in err
        assert not target.exists()
        # the ceiling itself is accepted
        report = census.nonvanishing_census(1000)
        monkeypatch.setattr(cli, "nonvanishing_census", lambda x: report)
        code, out, _ = run(capsys, "census", "--x", str(cli.CENSUS_CEILING))
        assert code == 0
        assert json.loads(out) == report.to_json_dict()


class TestOtherCommands:
    def test_classnum(self, capsys):
        code, out, _ = run(capsys, "classnum", "--d", "-23")
        assert code == 0
        assert json.loads(out) == {"d": -23, "field_discriminant": -23,
                                   "h": 3, "h_mod_3": 0}

    def test_classnum_hurwitz(self, capsys):
        code, out, _ = run(capsys, "classnum", "--hurwitz", "12")
        assert json.loads(out) == {"n": 12, "hurwitz": "4/3"}

    def test_classnum_hurwitz_above_the_ceiling(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("hurwitz(%d) ran past the ceiling" % n)

        monkeypatch.setattr(cli, "hurwitz", refuse)
        code, out, err = run(capsys, "classnum", "--hurwitz", "1000000003")
        assert code == 64 and out == ""
        assert "1000000003" in err
        # the ceiling itself is accepted
        monkeypatch.setattr(cli, "hurwitz", lambda n: Fraction(1, 3))
        code, out, _ = run(capsys, "classnum", "--hurwitz", "1000000000")
        assert code == 0
        assert json.loads(out) == {"n": 10 ** 9, "hurwitz": "1/3"}

    def test_classnum_d_below_the_ceiling(self, capsys, monkeypatch):
        def refuse(d):
            raise AssertionError("D = %d was worked on past the ceiling" % d)

        monkeypatch.setattr(cli, "class_number_of_field", refuse)
        monkeypatch.setattr(cli, "field_discriminant", refuse)
        code, out, err = run(capsys, "classnum", "--d", "-10000000019")
        assert code == 64 and out == ""
        assert "-10000000019" in err
        # the ceiling itself is accepted
        monkeypatch.setattr(cli, "class_number_of_field", lambda d: 4)
        monkeypatch.setattr(cli, "field_discriminant", lambda d: d)
        code, out, _ = run(capsys, "classnum", "--d", "-100000000")
        assert code == 0
        assert json.loads(out) == {"d": -10 ** 8, "h": 4, "h_mod_3": 1,
                                   "field_discriminant": -10 ** 8}

    def test_expand_cohen_above_the_ceiling(self, capsys, monkeypatch):
        def refuse(r, precision):
            raise AssertionError("cohen_series(%d) ran past the ceiling" % r)

        monkeypatch.setattr(cli, "cohen_series", refuse)
        code, out, err = run(capsys, "expand", "--form", "cohen:101",
                             "--prec", "10")
        assert code == 64 and out == ""
        assert "r = 101" in err
        # the ceiling itself is accepted
        monkeypatch.setattr(cli, "cohen_series",
                            lambda r, precision: cli.theta(precision))
        code, out, _ = run(capsys, "expand", "--form", "cohen:100",
                           "--prec", "10")
        assert code == 0 and out.splitlines() == ["0\t1", "1\t2", "4\t2",
                                                  "9\t2"]

    @pytest.mark.parametrize("r,prec", [(100, 10000), (50, 100000),
                                        (2, 1000000)])
    def test_expand_cohen_above_the_cost_ceiling(self, capsys, monkeypatch,
                                                 r, prec):
        def refuse(r, precision):
            raise AssertionError("cohen_series(%d, %d) ran past the ceiling"
                                 % (r, precision))

        monkeypatch.setattr(cli, "cohen_series", refuse)
        code, out, err = run(capsys, "expand", "--form", "cohen:%d" % r,
                             "--prec", str(prec))
        assert code == 64 and out == ""
        assert "--prec %d" % prec in err and "cost estimate" in err

    @pytest.mark.parametrize("r,prec", [(100, 2000), (50, 8000),
                                        (20, 20000), (2, 300000)])
    def test_expand_cohen_below_the_cost_ceiling(self, capsys, monkeypatch,
                                                 r, prec):
        built = []
        monkeypatch.setattr(cli, "cohen_series", lambda r, precision:
                            built.append((r, precision)) or cli.theta(1))
        code, _, _ = run(capsys, "expand", "--form", "cohen:%d" % r,
                         "--prec", str(prec))
        assert code == 0 and built == [(r, prec)]

    def test_classnum_usage(self, capsys):
        code, _, _ = run(capsys, "classnum", "--d", "5")
        assert code == 64

    def test_sturm(self, capsys):
        code, out, _ = run(capsys, "sturm", "--twice-weight", "20",
                           "--level", "324")
        assert json.loads(out) == {"twice_weight": 20, "level": 324,
                                   "index": 648, "bound": 541}

    def test_sturm_odd_weight_usage(self, capsys):
        code, _, _ = run(capsys, "sturm", "--twice-weight", "19",
                         "--level", "4")
        assert code == 64

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 64


class TestDefaultVerifyPrecision:
    def test_psi14_verifies_at_default_precision(self, capsys):
        code, out, _ = run(capsys, "verify", "psi:14")
        assert code == 0
        report = json.loads(out)
        assert (report["status"], report["bound"], report["unit"]) == \
            ("verified", 3133, 1)

    @pytest.mark.parametrize("target", ["cong"] + ["psi:%d" % k
                                                   for k in range(12, 31, 2)])
    def test_default_precision_is_six_fifths_of_the_engine_bound(
            self, capsys, monkeypatch, target):
        # every builder records the precision asked of it and builds at
        # precision 1, so the engine reports the bound it needs instead of
        # running the comparison
        requested = []

        def at_precision_one(builder):
            def build(*args, **kwargs):
                requested.append(args[-1])
                return builder(*args[:-1], 1, **kwargs)
            return build

        for name in ("f_form", "g31", "psi", "hurwitz_progression"):
            builder = at_precision_one(getattr(cli, name))
            monkeypatch.setattr(cli, name, builder)
        code, out, _ = run(capsys, "verify", target)
        assert code == 2
        bound = json.loads(out)["required"]
        assert max(requested) == -(-bound * 6 // 5)


class TestVerifyCostGuard:
    @pytest.mark.parametrize("argv, needed", [
        (["psi:1000000"], 129600066),
        (["ut:101"], 101 * 101 * 100),
        (["rt", "--prec", "1000001"], 1000001),
        (["cong", "--prec", "2000000"], 2000000),
        (["remark3", "--prec", "1000001"], 1000001),
    ])
    def test_refuses_a_build_above_the_ceiling(self, capsys, argv, needed):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 64 and out == ""
        assert argv[0] in err and str(needed) in err and "--prec" in err

    def test_ut_is_refused_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a series for a refused target")

        monkeypatch.setattr(cli, "theta", refuse)
        monkeypatch.setattr(cli, "cohen_series", refuse)
        code, _, err = run(capsys, "verify", "ut:101")
        assert code == 64 and "1020100" in err

    def test_the_ceiling_applies_after_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_CEILING", 100)
        assert run(capsys, "verify", "rt", "--prec", "100")[0] == 0
        assert run(capsys, "verify", "rt", "--prec", "101")[0] == 64
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "100")
        assert run(capsys, "verify", "rt", "--prec", "101")[0] == 0

    def test_expand_refuses_a_build_above_the_ceiling(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--form", "theta",
                             "--prec", "2000000")
        assert time.perf_counter() - start < 0.5
        assert code == 64 and out == ""
        assert "theta" in err and "2000000" in err and "--prec" in err

    def test_expand_ceiling_applies_after_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_CEILING", 100)
        argv = ("expand", "--form", "theta", "--prec")
        assert run(capsys, *argv, "100")[0] == 0
        assert run(capsys, *argv, "101")[0] == 64
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "100")
        assert run(capsys, *argv, "101")[0] == 0


def _refuse(*args):
    raise AssertionError("ran past a ceiling on %r" % (args,))


@pytest.fixture
def built(monkeypatch):
    """Every builder of a weighted form records each precision above 1 asked
    of it and builds at precision 1 instead: a verify pair reads its plan
    from builds at precision 1, so a refusal must come with no record."""
    monkeypatch.delenv("PLUSFORMS_PREC_CAP", raising=False)
    requests = []

    def recording(name, builder):
        def build(*args, **kwargs):
            if args[-1] > 1:
                requests.append((name, *args))
            return builder(*args[:-1], 1, **kwargs)
        return build

    for name in ("phi", "psi", "f_form", "psi10", "g31",
                 "hurwitz_progression"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    return requests


class TestWeightCostGuard:
    @pytest.mark.parametrize("argv", [
        ["expand", "--form", "phi:2001", "--prec", "4000"],
        ["expand", "--form", "psi:1002", "--prec", "10"],
        ["verify", "psi:1002"],
        ["verify", "psi:2000"],
    ], ids=" ".join)
    def test_refuses_a_weight_above_the_ceiling(self, capsys, built, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 64 and out == "" and built == []
        k = [a for a in argv if ":" in a][0].split(":")[1]
        assert "k = %s is above the limit of 1000" % k in err

    @pytest.mark.parametrize("argv", [
        ["expand", "--form", "phi:9", "--prec", "97266"],
        ["expand", "--form", "phi:999", "--prec", "8156"],
        ["expand", "--form", "psi:12", "--prec", "370033"],
        ["expand", "--form", "psi:1000", "--prec", "10755"],
        ["expand", "--form", "f", "--prec", "97266"],
        ["expand", "--form", "psi10", "--prec", "92019"],
        ["verify", "cong", "--prec", "97266"],
        ["verify", "psi:12", "--prec", "370033"],
        ["verify", "psi:252"],
    ], ids=" ".join)
    def test_refuses_a_cost_above_the_ceiling(self, capsys, built, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and built == []
        assert "cost estimate" in err and "choose a smaller --prec" in err

    @pytest.mark.parametrize("argv, requests, exit_code", [
        (["expand", "--form", "phi:9", "--prec", "97265"],
         [("phi", 9, 97265)], 0),
        (["expand", "--form", "phi:999", "--prec", "8155"],
         [("phi", 999, 8155)], 0),
        (["expand", "--form", "psi:12", "--prec", "370032"],
         [("psi", 12, 370032)], 0),
        (["expand", "--form", "psi:1000", "--prec", "10754"],
         [("psi", 1000, 10754)], 0),
        (["expand", "--form", "f", "--prec", "97265"],
         [("f_form", 97265)], 0),
        (["expand", "--form", "psi10", "--prec", "92018"],
         [("psi10", 92018)], 0),
        (["verify", "cong", "--prec", "97265"],
         [("f_form", 97265), ("g31", 97265)], 2),
        (["verify", "psi:250"],
         [("psi", 250, 32466), ("hurwitz_progression", 32466)], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list)
        and isinstance(v[0], str) else None)
    def test_accepts_the_largest_request(self, capsys, built, argv,
                                         requests, exit_code):
        code, _, _ = run(capsys, *argv)
        assert code == exit_code and built == requests

    @pytest.mark.parametrize("spec", ["psi:-4", "phi:-7", "cohen:-3"])
    def test_a_negative_index_reaches_the_builder(self, capsys, spec):
        # its cost estimate is no complex number: the builder rejects it
        code, out, err = run(capsys, "expand", "--form", spec, "--prec", "9")
        assert code == 64 and out == "" and "Traceback" not in err
        assert "got -" in err or "r >= 2" in err

    def test_cost_is_checked_after_the_cap(self, capsys, built, monkeypatch):
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "97265")
        code, _, _ = run(capsys, "expand", "--form", "phi:9",
                         "--prec", "97266")
        assert code == 0 and built == [("phi", 9, 97265)]


class TestFactorizationBounds:
    def test_sturm_level_above_the_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "index_gamma0", _refuse)
        monkeypatch.setattr(cli, "sturm_bound", _refuse)
        for level in (cli.STURM_LEVEL_CEILING + 1, 2 ** 61 - 1):
            start = time.perf_counter()
            code, out, err = run(capsys, "sturm", "--twice-weight", "2",
                                 "--level", str(level))
            assert time.perf_counter() - start < 0.5
            assert code == 64 and out == "" and str(level) in err

    def test_sturm_level_at_the_ceiling(self, capsys):
        # the largest prime below the ceiling: trial division runs to its
        # square root
        code, out, _ = run(capsys, "sturm", "--twice-weight", "2",
                           "--level", "999999999989")
        assert code == 0
        assert json.loads(out)["index"] == 999999999990

    @pytest.mark.parametrize("cap", [None, "50"])
    def test_ut_bounds_l_before_the_primality_test(self, capsys, monkeypatch,
                                                   cap):
        monkeypatch.setattr(cli, "check_odd_prime", _refuse)
        monkeypatch.delenv("PLUSFORMS_PREC_CAP", raising=False)
        if cap:
            monkeypatch.setenv("PLUSFORMS_PREC_CAP", cap)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "ut:2305843009213693951")
        assert time.perf_counter() - start < 0.5
        assert code == 64 and out == "" and "2305843009213693951" in err

    def test_ut_under_the_cap_keeps_its_primality_test(self, capsys,
                                                       monkeypatch):
        monkeypatch.setenv("PLUSFORMS_PREC_CAP", "50")
        code, _, err = run(capsys, "verify", "ut:999")
        assert code == 64 and "999 is not an odd prime" in err

    # remark3 solves plus_space_basis(6, P), so it takes the cohen estimate
    # at r = 6; rt and delta have estimates of their own in P alone
    @pytest.mark.parametrize("argv, builder", [
        (["verify", "remark3", "--prec", "103148"], "cusp_line_13_half"),
        (["verify", "rt", "--prec", "55810"], "r_monomials"),
        (["expand", "--form", "delta", "--prec", "248121"], "delta"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_refuses_a_cost_above_the_ceiling(self, capsys, monkeypatch,
                                              argv, builder):
        monkeypatch.delenv("PLUSFORMS_PREC_CAP", raising=False)
        monkeypatch.setattr(cli, builder, _refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 64 and out == ""
        assert "cost estimate" in err and "P = %s" % argv[-1] in err

    def test_accepts_the_largest_cost(self, capsys, monkeypatch):
        monkeypatch.delenv("PLUSFORMS_PREC_CAP", raising=False)
        requests = []
        cheap = cli.theta_off_multiples_of_three
        monkeypatch.setattr(cli, "cusp_line_13_half", lambda p:
                            requests.append(("remark3", p)) or cheap(p))
        # every R_t comes from one r_monomials call at the V_4 precision
        monkeypatch.setattr(cli, "r_monomials", lambda ts, p: requests.append(
            ("r_monomials", p)) or [QSeries.one(RATIONAL, p)] * len(ts))
        monkeypatch.setattr(cli, "delta", lambda p:
                            requests.append(("delta", p)) or cli.theta(p))
        assert run(capsys, "verify", "remark3", "--prec", "103147")[0] == 0
        assert run(capsys, "verify", "rt", "--prec", "55809")[0] == 0
        assert run(capsys, "expand", "--form", "delta",
                   "--prec", "248120")[0] == 0
        assert requests == [("remark3", 103147),
                            ("r_monomials", v4_precision(55809)),
                            ("delta", 248120)]


SRC = str(Path(__file__).resolve().parent.parent / "src")
ENTRY = ("import sys; sys.path.insert(0, %r); "
         "from plusforms.cli import entry; entry()" % SRC)


@pytest.mark.parametrize("argv", [
    ["verify", "rt"],
    ["expand", "--form", "delta", "--prec", "2000"],
    ["census", "--x", "1000"],
], ids=" ".join)
def test_closed_stdout_is_a_usage_error(argv):
    # the reader went away before the output was written: no traceback, and
    # not exit 1, which would report a mismatch
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-c", ENTRY] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 64, done.stderr
    assert "Traceback" not in done.stderr
