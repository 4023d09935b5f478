import hashlib
import json

import pytest

from plusforms import census, cli


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


class TestVerify:
    def test_rt(self, capsys):
        code, out, _ = run(capsys, "verify", "rt", "--prec", "40")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 20  # even t in 0..40 minus t = 2
        assert all(r["status"] == "verified" for r in reports)

    def test_remark3(self, capsys):
        code, out, _ = run(capsys, "verify", "remark3", "--prec", "120")
        assert code == 0
        assert json.loads(out)["unit"] == 1

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

        def counting(limit, workers=1, modulus=1, residue=0):
            calls.append((modulus, residue))
            return table(limit, workers, modulus, residue)

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


class TestOtherCommands:
    def test_classnum(self, capsys):
        code, out, _ = run(capsys, "classnum", "--d", "-23")
        assert code == 0
        assert json.loads(out) == {"d": -23, "field_discriminant": -23,
                                   "h": 3, "h_mod_3": 0}

    def test_classnum_hurwitz(self, capsys):
        code, out, _ = run(capsys, "classnum", "--hurwitz", "12")
        assert json.loads(out) == {"n": 12, "hurwitz": "4/3"}

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
