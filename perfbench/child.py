"""Runs plusforms CLI invocations inside one interpreter, for the benchmark.

    python3 perfbench/child.py JOB.json

JOB.json holds {"ops": [{"argv": [...], "stdout": path}, ...],
"result": path, "spans": path or null}.  Each op calls
`plusforms.cli.main(argv)` with standard output sent to its own file, the
way `python3 -m plusforms ARGV > file` would.

From its first line on, the child samples the host's speed: a timer
signal interrupts the work at fixed intervals and times a small fixed
calibration workload.  It writes {"startup_rate", "ops": [{"rc", "wall_s",
"rate"}, ...], "sampling_s", "peak_rss_kb"} to "result", where wall_s
excludes the sampling, "rate" is the mean of 1 / (calibration seconds) over
the samples taken during the op, "startup_rate" the same over the imports,
and peak_rss_kb the high-water mark of this process's own memory.  When
"spans" is set, the span tracer wraps plusforms' public callables first and
the spans are written there at exit.  plusforms must be importable
(PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.05
STARTUP_SAMPLE_EVERY_S = 0.01     # imports are short: sample them densely


def calibration_work() -> None:
    # a small mix of the program's hot operations: small-int arithmetic,
    # Fraction sums and a big-integer product
    acc = 0
    for i in range(1, 4000):
        acc += (i * i) % 7
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i)
    big = 3 ** 6000
    big * big


class SpeedSampler:
    """Times calibration_work() from a SIGALRM handler at fixed intervals
    of wall time, so the samples cover the work evenly."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (end, seconds)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_work()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self, every: float) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, t_from: float,
                 t_to: float) -> tuple[float, float | None]:
        """(seconds spent sampling, mean sampled speed) within the interval;
        with no sample inside, the speed of the nearest sample."""
        inside = [c for t, c in self.samples if t_from <= t <= t_to]
        if inside:
            return sum(inside), sum(1 / c for c in inside) / len(inside)
        if not self.samples:
            return 0.0, None
        mid = (t_from + t_to) / 2
        _, c = min(self.samples, key=lambda s: abs(s[0] - mid))
        return 0.0, 1 / c


def peak_rss_kb() -> int:
    """VmHWM of this address space.  Not ru_maxrss: a spawned child's
    ru_maxrss starts at its parent's peak, which exec carries over."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_op(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:            # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def main(job_path: str, sampler: SpeedSampler, t_start: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import plusforms.cli

    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _, startup_rate = sampler.interval(t_start, time.perf_counter())
    sampler.start(SAMPLE_EVERY_S)
    results = []
    try:
        for op_id, op in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = op_id
            with open(op["stdout"], "w") as out, \
                    contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                rc = run_op(plusforms.cli.main, op["argv"])
                t1 = time.perf_counter()
            spent, rate = sampler.interval(t0, t1)
            results.append({"rc": rc, "wall_s": t1 - t0 - spent,
                            "rate": rate})
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(job["spans"])
        with open(job["result"], "w") as fh:
            json.dump({"startup_rate": startup_rate, "ops": results,
                       "sampling_s": sum(c for _, c in sampler.samples),
                       "peak_rss_kb": peak_rss_kb()}, fh)
    return 0


if __name__ == "__main__":
    _t_start = time.perf_counter()
    _sampler = SpeedSampler()
    _sampler.start(STARTUP_SAMPLE_EVERY_S)
    sys.exit(main(sys.argv[1], _sampler, _t_start))
