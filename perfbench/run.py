"""Benchmark for the plusforms CLI.

    python3 perfbench/run.py --workload verify|expand|census|session|all \
        --seed N --seconds S --trace 0|1

Run from the root of a plusforms checkout: the program is imported from
./src and driven only through its CLI and its public functions.  One process
at a time does the work.  Cold workloads start a fresh interpreter per op,
because a user pays that on every CLI call; the `session` workload runs its
ops through `plusforms.cli.main` in one interpreter, the only place the
series cache and the lru caches get hits.

A run repeats passes over the workload's ops until --seconds have gone by.
Between jobs it times a cold `plusforms sturm`, one per SETUP_EVERY_S of the
run, and reports their median as setup_s.  Each op's output is checked after its pass, outside the timed region; a wrong
output, a nonzero exit or a time-out counts as a failed op.

Times are rescaled to a reference host speed.  The speed of a shared host
swings by half within seconds, so every child samples it while it works
(child.py) and each interval is rescaled by the mean speed sampled in it;
REF_CAL_S defines the reference.  The raw wall times are kept in the
provenance line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics from the spans of the traced
ones, plus the tracing overhead.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's provenance and per-pass detail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import ops
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# seconds child.calibration_work() takes at the reference host speed
REF_CAL_S = 0.0006
# one timed cold start per this much of the run, taken between jobs, so the
# set-up samples cover the same host-speed phases as the passes
SETUP_EVERY_S = 1.5

OP_LIMIT_S = 60.0           # per cold op; a session child gets PASS_LIMIT_S
PASS_LIMIT_S = 120.0
RUN_LIMIT_S = 165.0         # hard stop for the whole run, set-up included


@dataclass
class Spawned:
    rc: int | None          # None: killed at its time limit
    wall_s: float


def spawn(argv, env, stdout, stderr, limit_s: float) -> Spawned:
    """Run `python3 ARGV` to completion or its time limit, then reap it."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
         0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
         0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                         file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        try:
            ready, _, _ = select.select([fd], [], [], max(limit_s, 0.0))
        except BaseException:            # interrupted: leave no child behind
            signal.pidfd_send_signal(fd, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    finally:
        os.close(fd)
    wall = time.perf_counter() - t0
    return Spawned(os.waitstatus_to_exitcode(status) if ready else None,
                   wall)


@dataclass
class OpResult:
    label: str
    ref_s: float            # in-process op time at the reference speed
    wall_s: float           # the same, as measured
    error: str | None


@dataclass
class JobResult:
    """One child interpreter: its ops, raw wall time (speed sampling
    excluded), the same time at the reference speed, and peak RSS."""
    results: list
    wall_s: float
    ref_s: float
    peak_rss_kb: int


@dataclass
class PassResult:
    traced: bool
    size_pair: tuple                # op indexes of the sized pair
    sizes: tuple
    wall_s: float = 0.0
    ref_s: float = 0.0
    peak_rss_kb: int = 0
    results: list = field(default_factory=list)


class Bench:
    def __init__(self, root: str, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "PLUSFORMS_"))}
        # plusforms calls no BLAS routine; the BLAS thread pool numpy starts
        # on import makes start-up depend on the other core, which the
        # children's single-threaded speed samples do not see
        self.env.update(PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.layers: dict = {}          # span totals of all traced passes
        self.setup_samples: list[tuple[float, float]] = []   # (ref_s, wall_s)
        self.start = time.monotonic()

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append("%s: %s" % (label, error))

    def warm_up(self) -> None:
        """A first cold start, not timed: it compiles the bytecode.  The run's
        clock starts after it."""
        self.run_job("setup", [ops.setup_op()], False, OP_LIMIT_S)
        self.start = time.monotonic()

    def sample_setup(self) -> None:
        """Time cold starts of a fresh interpreter running a trivial command
        until there is one per SETUP_EVERY_S of the run so far."""
        while len(self.setup_samples) <= \
                (time.monotonic() - self.start) / SETUP_EVERY_S:
            job = self.run_job("setup", [ops.setup_op()], False, OP_LIMIT_S)
            self.setup_samples.append((job.ref_s, job.wall_s))

    def setup_s(self) -> float:
        """Median set-up time at the reference speed."""
        return statistics.median(ref for ref, _ in self.setup_samples)

    def run_pass(self, traced: bool) -> PassResult:
        pass_ops, size_pair = ops.build_pass(self.workload, self.rng,
                                             self.workdir)
        result = PassResult(traced, size_pair,
                            tuple(pass_ops[i].size for i in size_pair))
        if self.workload in ops.IN_PROCESS:
            jobs = [(pass_ops, PASS_LIMIT_S)]
        else:
            jobs = [([op], OP_LIMIT_S) for op in pass_ops]
        for j, (job_ops, limit_s) in enumerate(jobs):
            self.sample_setup()
            job = self.run_job("job%d" % j, job_ops, traced, limit_s)
            result.wall_s += job.wall_s
            result.ref_s += job.ref_s
            result.peak_rss_kb = max(result.peak_rss_kb, job.peak_rss_kb)
            result.results += job.results
        return result

    def run_job(self, name: str, job_ops, traced: bool,
                limit_s: float) -> JobResult:
        """Run ops in one child interpreter (child.py), then check their
        outputs; spans of a traced job are folded into self.layers."""
        path = {ext: self._path(name + "." + ext)
                for ext in ("job", "result", "spans", "log", "err")}
        outs = [self._path("%s-op%d.out" % (name, i))
                for i in range(len(job_ops))]
        for stale in [path["result"], path["spans"]] + \
                [p for op in job_ops for p in op.writes]:
            if os.path.exists(stale):
                os.remove(stale)
        with open(path["job"], "w") as fh:
            json.dump({
                "ops": [{"argv": op.argv, "stdout": out}
                        for op, out in zip(job_ops, outs)],
                "result": path["result"],
                "spans": path["spans"] if traced else None,
            }, fh)
        limit_s = min(limit_s, self.deadline - time.monotonic())
        got = spawn([CHILD, path["job"]], self.env, path["log"], path["err"],
                    limit_s) if limit_s > 0 else Spawned(None, 0.0)
        child = {"startup_rate": None, "ops": [], "sampling_s": 0.0,
                 "peak_rss_kb": 0}
        if got.rc is not None and os.path.exists(path["result"]):
            with open(path["result"]) as fh:
                child = json.load(fh)
            if traced and os.path.exists(path["spans"]):
                with open(path["spans"]) as fh:
                    tracer.aggregate(json.load(fh), self.layers)

        # rescale each interval by the host speed sampled during it; the
        # interpreter start-up and imports by the speed sampled in imports
        wall = got.wall_s - child["sampling_s"]
        startup = wall - sum(r["wall_s"] for r in child["ops"])
        ref = startup * _speedup(child["startup_rate"])
        job = JobResult([], wall, 0.0, child["peak_rss_kb"])
        for i, op in enumerate(job_ops):
            if i < len(child["ops"]):
                rc, op_wall = child["ops"][i]["rc"], child["ops"][i]["wall_s"]
                op_ref = op_wall * _speedup(child["ops"][i]["rate"])
                with open(outs[i], "rb") as fh:
                    error = op.check(rc, fh.read())
            else:
                rc, op_wall, op_ref = None, 0.0, 0.0
                error = "timed out" if got.rc is None \
                    else "child exited with %d" % got.rc
            if error and rc != 0:
                with open(path["err"], errors="replace") as fh:
                    tail = fh.read().strip().splitlines()[-1:]
                error += "".join(" (%s)" % line for line in tail)
            ref += op_ref
            job.results.append(OpResult(op.label, op_ref, op_wall, error))
            self._record(op.label, error)
        job.ref_s = ref
        return job


def _speedup(rate: float | None) -> float:
    """Factor from host time to reference time, given the mean sampled
    speed (1 / calibration seconds); 1 when nothing was sampled."""
    return 1.0 if rate is None else rate * REF_CAL_S


# -- metrics ------------------------------------------------------------------


def size_exponent(passes) -> float:
    """log(time ratio) / log(size ratio) between the median times of the
    two sized ops, timed inside the interpreter, so start-up and imports
    are left out."""
    small, big = (max(statistics.median(p.results[p.size_pair[j]].ref_s
                                        for p in passes), 1e-6)
                  for j in (0, 1))
    sizes = passes[0].sizes
    return math.log(big / small) / math.log(sizes[1] / sizes[0])


def end_to_end(bench: Bench, passes) -> dict:
    return {
        "pass_s": (statistics.median(p.ref_s for p in passes), "s"),
        "setup_s": (bench.setup_s(), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_kb for p in passes)
                        / 1024.0, "MB"),
        "ok_ratio": (1.0 - bench.failed / bench.attempted, "ratio"),
        "size_exponent": (size_exponent(passes), "1"),
    }


def per_layer(totals: dict, traced, untraced) -> dict:
    """Per-pass averages of the traced passes' span totals."""
    n = len(traced)
    out = {}
    for name in tracer.SPAN_NAMES:
        entry = totals.get(name, {})
        out[name + ".calls"] = (entry.get("calls", 0) / n, "count")
        out[name + ".self_s"] = (entry.get("self_s", 0.0) / n, "s")
    products = [totals.get(k, {}) for k in tracer.MUL_KINDS]
    out["qseries.mul.coeffs"] = (
        sum(e.get("coeffs", 0) for e in products) / n, "count")
    out["qseries.mul.max_bits"] = (
        max(e.get("max_bits", 0) for e in products), "bits")
    out["census.class_number_table.entries"] = (
        totals.get("census.class_number_table", {}).get("entries", 0) / n,
        "count")
    cache = totals.get("cache.series_at", {})
    hits = cache.get("hit", 0)
    out["cache.series_at.hits"] = (hits / n, "count")
    out["cache.series_at.misses"] = ((cache.get("calls", 0) - hits) / n,
                                      "count")
    out["cache.hit_ratio"] = (
        hits / cache["calls"] if cache.get("calls") else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(p.ref_s for p in traced)
        / statistics.median(p.ref_s for p in untraced) - 1.0, "ratio")
    return out


# -- provenance ---------------------------------------------------------------


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "plusforms")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(root: str, workload: str, args) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ref_cal_s": REF_CAL_S,
    }


# -- entry point --------------------------------------------------------------


def run_workload(root: str, workload: str, args) -> tuple[dict, dict]:
    workdir = os.path.join(HERE, ".work", "%d-%s" % (os.getpid(), workload))
    os.makedirs(workdir, exist_ok=True)
    try:
        bench = Bench(root, workload, args.seed, workdir)
        info = provenance(root, workload, args)
        info["loadavg_before"] = os.getloadavg()
        bench.warm_up()
        passes = []
        min_passes = 2 if args.trace else 1   # traced runs need one of each
        start = time.monotonic()
        last = 0.0
        # stop when another pass would end further past --seconds than
        # stopping now falls short of it
        while len(passes) < min_passes or (
                time.monotonic() - start + last / 2 < args.seconds
                and time.monotonic() + last < bench.deadline):
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.monotonic()
            passes.append(bench.run_pass(traced))
            last = time.monotonic() - t0
        bench.sample_setup()
        info["loadavg_after"] = os.getloadavg()
        info["setup_samples"] = bench.setup_samples
        info["passes"] = [{"traced": p.traced, "wall_s": p.wall_s,
                           "ref_s": p.ref_s,
                           "ops": [[r.label, r.ref_s, r.wall_s]
                                   for r in p.results]}
                          for p in passes]
        info["errors"] = bench.errors
        if args.trace:
            metrics = per_layer(bench.layers,
                                [p for p in passes if p.traced],
                                [p for p in passes if not p.traced])
        else:
            metrics = end_to_end(bench, passes)
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return info, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))      # only if now empty


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=ops.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so spawn() kills its child and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plusforms", "cli.py")):
        print("perfbench: run from the root of a plusforms checkout "
              "(no src/plusforms here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    workloads = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        info, result = run_workload(root, workload, args)
        results[workload] = result
        for error in info["errors"]:
            print("perfbench: FAILED %s" % error, file=sys.stderr)
        print(json.dumps(info))
        if args.workload == "all":
            for name, metric in result["metrics"].items():
                print("%-8s %-40s %14.6g %s" % (workload, name,
                                                metric["value"],
                                                metric["unit"]))
    print(json.dumps(results if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
