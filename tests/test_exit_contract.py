"""The CLI exit-code contract, property-tested over argv.

Every subcommand, on small, malformed and huge arguments, with
PLUSFORMS_PREC_CAP set, malformed or unset, exits 0, 1, 2, 3 or 64 within
TIMEOUT seconds and prints no traceback.  Each example is one cold
interpreter, as a user runs the tool.  Huge values sit above every
ceiling, so they must be refused at once; small ones stay far below the
ceilings, where a request takes at most a few seconds (a request just
under a ceiling may take about a minute by design, and the ceilings'
own tests cover those).
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENTRY = ("import sys; sys.path.insert(0, %r); "
         "from plusforms.cli import entry; entry()" % SRC)
TIMEOUT = 30
EXIT_CODES = {0, 1, 2, 3, 64}

MALFORMED = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "٣"])


def numbers(low, high):
    """Integer text from [low, high], above every ceiling in either sign,
    or text that is no integer."""
    huge = st.integers(10 ** 13, 10 ** 40)
    return st.one_of(st.integers(low, high), huge, huge.map(lambda n: -n)
                     ).map(str) | MALFORMED


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def indexed(families, low, high):
    return st.builds(lambda f, n: "%s:%s" % (f, n), st.sampled_from(families),
                     numbers(low, high))


EXPAND = st.builds(
    lambda form, prec, mod, as_json: ["expand", *form, *prec, *mod,
                                      *as_json],
    option("--form", st.sampled_from(["e4", "e6", "delta", "theta", "psi10",
                                      "f", "g31", "phi", "psi:", "nope"])
           | indexed(["phi", "psi", "cohen", "e4"], -3, 40)),
    option("--prec", numbers(-2, 60)),
    option("--mod", numbers(-2, 7)),
    st.sampled_from([[], ["--json"]]))

VERIFY = st.builds(
    lambda target, prec, unit: ["verify", *target, *prec, *unit],
    st.one_of(st.just([]), (st.sampled_from(["cong", "remark3", "rt", "psi:",
                                             "ut:", "nope"])
                            | indexed(["psi", "ut"], -3, 40)).map(
        lambda t: [t])),
    option("--prec", numbers(-2, 200)),
    option("--unit", st.sampled_from(["auto", "1", "2", "3"])))

CENSUS = st.builds(
    lambda x, workers: ["census", *x, *workers],
    option("--x", numbers(-3, 3000)), option("--workers", numbers(-2, 4)))

CLASSNUM = st.builds(
    lambda d, n: ["classnum", *d, *n],
    option("--d", numbers(-3000, 5)), option("--hurwitz", numbers(-3, 3000)))

STURM = st.builds(
    lambda w, level: ["sturm", *w, *level],
    option("--twice-weight", numbers(-3, 40)),
    option("--level", numbers(-3, 5000)))

ARGV = st.one_of(EXPAND, VERIFY, CENSUS, CLASSNUM, STURM,
                 st.sampled_from([[], ["nope"], ["--prec", "3"]]))
CAP = st.sampled_from([None, "1", "50", "500", "0", "-3", "x"])


@settings(max_examples=55, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV, cap=CAP)
def test_every_run_keeps_the_exit_code_contract(argv, cap):
    env = {k: v for k, v in os.environ.items() if k != "PLUSFORMS_PREC_CAP"}
    if cap is not None:
        env["PLUSFORMS_PREC_CAP"] = cap
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT)
    assert done.returncode in EXIT_CODES, (argv, cap, done.stderr)
    assert "Traceback" not in done.stderr, (argv, cap, done.stderr)
