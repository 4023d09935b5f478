"""The benchmark's workloads: which CLI invocations make up one pass, and how
each one's output is checked against the results recorded at the seed
commit and against the paper's class-number bridge.

Every check returns None when the output is right, else a one-line reason.
Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

SAMPLE = 24          # rows or discriminants spot-checked per op

# (status, unit, bound) of every report `plusforms verify TARGET` prints
VERIFY_EXPECTED = {
    "cong": [("verified", 2, 541)],
    "psi:12": [("verified", 1, 1351)],
    "psi:24": [("verified", 1, 2647)],
    "remark3": [("verified", 1, 300)],
    "rt": [("verified", 1, 100)] * 20,
    "ut:3": [("verified", 1, 100)] * 3,
}
# precision the CLI picks for a psi:k target: ceil(6/5 * Sturm bound)
VERIFY_PRECISION = {"psi:12": 1622, "psi:24": 3177}

# SHA-256 of `expand --form phi:k --prec P --mod 3`; the same for k = 9, 11, 13
EXPAND_SHA256 = {
    1000: "6670a7515de00da450c0efef20e91b9fd3fc8f10e95104580f37e9605c3010b6",
    1500: "9ac24be95e59d19c83d375fd9a619fed4cdf6f6697ca964da28f9a8a93855f4f",
    2000: "0fc02156d1893f524a21b5817a2417ef30ff8d9c0ac1ee6137bb9f5d05d90d6a",
}
EXPAND_KS = (9, 11, 13)

# x -> (n2minus_count, nonvanishing_count, CSV data rows)
CENSUS_EXPECTED = {
    100000: (11404, 7029, 11395),
    200000: (22804, 13947, 22790),
}


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[int, bytes], str | None]
    size: int | None = None      # input size, for the size exponent
    writes: tuple = ()           # files the op writes; removed before it runs


# -- checks -------------------------------------------------------------------


def verify_check(target: str):
    expected = VERIFY_EXPECTED[target]

    def check(rc: int, out: bytes):
        if rc != 0:
            return "exit code %d" % rc
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        reports = payload if isinstance(payload, list) else [payload]
        if not all(isinstance(r, dict) for r in reports):
            return "output is not a list of reports"
        got = [(r.get("status"), r.get("unit"), r.get("bound"))
               for r in reports]
        if got != expected:
            return "reports %r, expected %r" % (got[:3], expected[:3])
        return None
    return check


def _bridge_candidates(limit: int) -> list[int]:
    from plusforms import is_fundamental

    return [d for d in range(2, limit)
            if d % 3 == 1 and is_fundamental(-d)]


def expand_check(precision: int, rng: random.Random):
    """Digest check, then the paper's bridge on a seeded sample: for -D a
    fundamental discriminant with D = 1 mod 3, the q^D residue is nonzero
    exactly when 3 does not divide h(Q(sqrt(-D)))."""
    sample = rng.sample(_bridge_candidates(precision), SAMPLE)

    def check(rc: int, out: bytes):
        from plusforms import class_number_of_field

        if rc != 0:
            return "exit code %d" % rc
        if hashlib.sha256(out).hexdigest() != EXPAND_SHA256[precision]:
            return "output digest differs at P=%d" % precision
        residues = {}
        for line in out.decode().splitlines():
            n, c = line.split("\t")
            residues[int(n)] = int(c)
        for d in sample:
            if (residues.get(d, 0) != 0) != \
                    (class_number_of_field(-d) % 3 != 0):
                return "bridge fails at D=%d" % d
        return None
    return check


def census_check(x: int, csv_path: str, rng: random.Random):
    n2minus, nonvanishing, rows_expected = CENSUS_EXPECTED[x]
    picks = sorted(rng.sample(range(rows_expected), SAMPLE))

    def check(rc: int, out: bytes):
        from plusforms import class_number_of_field, field_discriminant

        if rc != 0:
            return "exit code %d" % rc
        try:
            report = json.loads(out)
            got = (report.get("n2minus_count"),
                   report.get("nonvanishing_count"))
        except (ValueError, AttributeError):
            return "output is not a JSON report"
        if got != (n2minus, nonvanishing):
            return "counts %r, expected %r" % (got, (n2minus, nonvanishing))
        try:
            with open(csv_path, newline="") as fh:
                rows = list(csv.reader(fh))
            header = rows[0]
            body = [[int(v) for v in row] for row in rows[1:]]
        except (OSError, IndexError, ValueError) as exc:
            return "CSV unreadable (%s)" % type(exc).__name__
        if header != ["D", "field_discriminant", "h", "h_mod_3"] \
                or len(body) != rows_expected \
                or any(len(row) != 4 for row in body):
            return "CSV header, row count or row width differs"
        if sum(1 for row in body if row[3]) != nonvanishing:
            return "CSV disagrees with the nonvanishing count"
        for i in picks:
            d, field, h, h3 = body[i]
            if (field, h, h3) != (field_discriminant(-d),
                                  class_number_of_field(-d),
                                  class_number_of_field(-d) % 3):
                return "CSV row %r is wrong" % (body[i],)
        return None
    return check


# -- workloads ----------------------------------------------------------------


def setup_op() -> Op:
    """The trivial command whose cold start is the benchmark's set-up time."""
    expected = {"twice_weight": 20, "level": 324, "index": 648, "bound": 541}

    def check(rc: int, out: bytes):
        try:
            got = json.loads(out)
        except ValueError:
            got = None
        if rc != 0 or got != expected:
            return "sturm printed %r (exit %d)" % (got, rc)
        return None
    return Op("setup sturm", ["sturm", "--twice-weight", "20", "--level",
                              "324"], check)


def verify_op(target: str) -> Op:
    return Op("verify " + target, ["verify", target], verify_check(target),
              VERIFY_PRECISION.get(target))


def expand_op(k: int, precision: int, rng: random.Random) -> Op:
    return Op("expand phi:%d P=%d" % (k, precision),
              ["expand", "--form", "phi:%d" % k, "--prec", str(precision),
               "--mod", "3"],
              expand_check(precision, rng), precision)


def census_op(x: int, workdir: str, rng: random.Random) -> Op:
    csv_path = "%s/census-%d.csv" % (workdir, x)
    return Op("census x=%d" % x,
              ["census", "--x", str(x), "--workers", "1", "--csv", csv_path],
              census_check(x, csv_path, rng), x, (csv_path,))


def build_pass(workload: str, rng: random.Random, workdir: str):
    """The ops of one pass and the indexes of the (smaller, larger) pair
    whose times give the size exponent."""
    if workload == "verify":
        targets = list(VERIFY_EXPECTED)
        rng.shuffle(targets)
        return [verify_op(t) for t in targets], (targets.index("psi:12"),
                                                 targets.index("psi:24"))
    if workload == "expand":
        ops = [expand_op(rng.choice(EXPAND_KS), p, rng) for p in (1000, 2000)]
        return ops, (0, 1)
    if workload == "census":
        ops = [census_op(x, workdir, rng) for x in (100000, 200000)]
        return ops, (0, 1)
    if workload == "session":
        k = rng.choice((11, 13))
        ops = [expand_op(9, 1000, rng), verify_op("cong"),
               expand_op(9, 2000, rng), verify_op("psi:12"),
               verify_op("psi:24"), verify_op("remark3"),
               expand_op(k, 2000, rng), expand_op(9, 1500, rng),
               verify_op("cong")]
        return ops, (0, 2)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("verify", "expand", "census", "session")
# workloads that run all their ops in one interpreter
IN_PROCESS = frozenset({"session"})
