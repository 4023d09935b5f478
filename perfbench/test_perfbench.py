"""Tests for the benchmark's own code: the span tracer and the child runner.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from child import SpeedSampler  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402


def _plusforms_names():
    import plusforms.cli  # noqa: F401  (loads every submodule)
    from plusforms.qseries import QSeries

    snapshot = {(name, key): value
                for name, module in sys.modules.items()
                if name == "plusforms" or name.startswith("plusforms.")
                for key, value in vars(module).items()}
    snapshot.update({("QSeries", key): value
                     for key, value in vars(QSeries).items()})
    return snapshot


def test_uninstall_restores_every_wrapped_name():
    import plusforms
    from plusforms import cli, constructions

    before = _plusforms_names()
    t = Tracer()
    t.install()
    try:
        assert cli.main is not before[("plusforms.cli", "main")]
        # re-exported and re-imported names are wrapped too
        assert plusforms.phi is not before[("plusforms", "phi")]
        assert cli.phi is plusforms.phi is constructions.phi
        changed = {k for k, v in _plusforms_names().items()
                   if before.get(k) is not v}
        assert len(changed) == len(t._patches)
    finally:
        t.uninstall()
    after = _plusforms_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_products_and_cache_lookups_are_classified():
    from plusforms import QSeries, _cache

    t = Tracer()
    t.install()
    try:
        z = QSeries.rational([1, 2, 3])
        q = QSeries.rational([Fraction(1, 2), 1, 0])
        z * z
        z * q
        z.reduce_mod(3) * z.reduce_mod(3)
        z * 2                                   # scaling is not a product
        _cache.clear()
        _cache.series_at(("test",), 3, lambda p: z)
        _cache.series_at(("test",), 2, lambda p: z)
    finally:
        t.uninstall()
        _cache.clear()
    totals = aggregate(t.spans)
    for kind in tracer.MUL_KINDS:
        assert totals[kind]["calls"] == 1
        assert totals[kind]["coeffs"] == 3
    # (1 + 2q + 3q^2)^2 = 1 + 4q + 10q^2 + O(q^3)
    assert totals["qseries.mul_z"]["max_bits"] == (10).bit_length()
    assert totals["cache.series_at"]["calls"] == 2
    assert totals["cache.series_at"]["hit"] == 1


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 9.5, 10.0, 0),
    ]
    assert self_times(spans) == [2.5, 2.0, 1.0, 4.0, 0.5]
    totals = aggregate(spans)
    assert totals["a"] == {"calls": 2, "self_s": 2.5}
    assert totals["root"]["self_s"] == 2.5


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("c", 1.0, 5.0, 0),
        _span("c", 3.0, 6.0, 0),
        _span("c", 8.0, 12.0, 0),          # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_traced_output_is_byte_identical(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PLUSFORMS_PREC_CAP", None)
    argvs = [
        ["expand", "--form", "phi:9", "--prec", "200", "--mod", "3"],
        ["verify", "remark3", "--prec", "60"],
        ["census", "--x", "3000", "--csv", str(tmp_path / "plain.csv")],
    ]
    plain = [subprocess.run([sys.executable, "-m", "plusforms"] + argv,
                            env=env, capture_output=True, check=True).stdout
             for argv in argvs]

    traced_argvs = argvs[:2] + [argvs[2][:-1] + [str(tmp_path / "t.csv")]]
    job = {
        "ops": [{"argv": argv, "stdout": str(tmp_path / ("op%d" % i))}
                for i, argv in enumerate(traced_argvs)],
        "result": str(tmp_path / "result"),
        "spans": str(tmp_path / "spans"),
    }
    (tmp_path / "job").write_text(json.dumps(job))
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                    str(tmp_path / "job")], env=env, check=True)

    results = json.loads((tmp_path / "result").read_text())
    assert [r["rc"] for r in results["ops"]] == [0, 0, 0]
    for i, expected in enumerate(plain):
        assert (tmp_path / ("op%d" % i)).read_bytes() == expected
    assert all(r["rate"] > 0 for r in results["ops"])
    assert results["peak_rss_kb"] > 0
    assert (tmp_path / "t.csv").read_bytes() == \
        (tmp_path / "plain.csv").read_bytes()
    names = {s[tracer.NAME] for s in
             json.loads((tmp_path / "spans").read_text())}
    assert {"cli.main", "qseries.mul_q", "census.class_number_table"} <= names


def test_speed_sampler_averages_rates_inside_an_interval():
    sampler = SpeedSampler()
    sampler.samples = [(1.0, 0.5), (2.0, 0.25), (3.0, 0.5), (9.0, 0.1)]
    assert sampler.interval(0.5, 3.5) == (1.25, (2 + 4 + 2) / 3)
    # no sample inside: the nearest one stands in, and nothing was spent
    assert sampler.interval(7.0, 8.5) == (0.0, 10.0)
    assert SpeedSampler().interval(0.0, 1.0) == (0.0, None)


def test_census_check_reports_bad_output_instead_of_raising(tmp_path):
    import random

    from ops import census_check

    csv_path = tmp_path / "census.csv"
    check = census_check(100000, str(csv_path), random.Random(0))
    counts = b'{"n2minus_count": 11404, "nonvanishing_count": 7029}'
    assert isinstance(check(0, b""), str)
    assert isinstance(check(0, b"[1, 2]"), str)
    assert isinstance(check(0, counts), str)            # no CSV written
    csv_path.write_text("")
    assert isinstance(check(0, counts), str)            # empty CSV
    csv_path.write_text("D,field_discriminant,h,h_mod_3\n3,x,1,1\n")
    assert isinstance(check(0, counts), str)            # not a number
