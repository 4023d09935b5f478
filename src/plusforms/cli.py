"""Command-line surface.

Subcommands: expand (render a form's q-expansion), verify (machine-check a
congruence target), census (discriminant densities), classnum (single class
number / Hurwitz values), sturm (bound calculator).  verify cong and
verify psi:k check a pair, either side the lighter one, to the Sturm bound
of its sturm_plan (read off the forms' metadata), at 6/5 of it by default.

Exit codes are a stable contract: 0 verified/ok, 1 mismatch, 2 insufficient
precision, 3 non-integral coefficient, 64 usage.  JSON goes to stdout;
human-readable notes go to stderr.  The environment variable
PLUSFORMS_PREC_CAP, when set, caps every precision the tool will use.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import partial

from .census import census_with_rows, nonvanishing_census
from .class_numbers import class_number_of_field, field_discriminant, hurwitz
from .cohen_eisenstein import cohen_series, theta
from .congruence_engine import (
    CongruenceReport,
    direct_report,
    index_gamma0,
    sturm_bound,
    sturm_plan,
    verify_congruence,
)
from .constructions import (
    NamedForm,
    ap_named,
    cusp_line_13_half,
    f_form,
    g31,
    hurwitz_progression,
    phi,
    psi,
    psi10,
    theta_off_multiples_of_three,
)
from .level_one_forms import delta, eisenstein
from .operators import check_odd_prime, hecke_t, r_t, u_op
from .qseries import NonIntegralCoefficientError, QSeries

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PRECISION = 2
EXIT_INTEGRALITY = 3
EXIT_USAGE = 64

# the most coefficients a verify target or an expand builds: far above the
# paper's bounds
VERIFY_CEILING = 10 ** 6
# per form family: the letter of its index (r of cohen:r, the weight k of
# phi:k and psi:k), the largest index taken, the exponents of the index and
# of P in the cost estimate of a build at --prec P, and the largest
# estimate taken.  F and psi10 count as phi:9 and phi:10.  Cold on one
# Xeon core, the plus-space solve grows steeply in r (at --prec 10: 0.6 s
# at r = 100, 2.3 s at 150) and takes about 5e-9 r^2 P^1.7 s ((50, 8000):
# 56 s, (20, 20000): 31 s); the E_4 power rows of R_t widen linearly in k
# (phi:2001 --prec 4000: 23 s); phi:k takes at most 2.2e-9 k P^1.9 s
# (phi:999 --prec 9349: 75 s), and psi:k, verify psi:k too, at most
# 3.3e-10 k^1.4 P^1.75 s.  So each estimate's limit is about a minute.
COST_MODELS = {"cohen": ("r", 100, 2, 1.7, 1.2e10),
               "phi": ("k", 1000, 1, 1.9, 2.7e10),
               "psi": ("k", 1000, 1.4, 1.75, 1.8e11)}
# the largest N classnum --hurwitz takes: H(999999999) takes about 4 s on
# one Xeon core
HURWITZ_CEILING = 10 ** 9
# the largest |D| classnum --d takes: the field discriminant is found by
# trial division and h by walking every reduced (a, b) of it, which is up
# to 4|D|: cold, D = -99999989 (field discriminant -399999956) takes 13 s
CLASSNUM_CEILING = 10 ** 8
# the largest x census --x takes: time grows as x^(3/2) and memory linearly;
# cold on one Xeon core, x = 5 * 10^7 takes 74 s and 303 MB (4 * 10^7: 40 s)
CENSUS_CEILING = 5 * 10 ** 7
# the largest level sturm --level takes: the index needs the level's
# primes, found by trial division; a prime near 10^12 takes 0.06 s
STURM_LEVEL_CEILING = 10 ** 12


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(ValueError):
    pass


def _prec_cap() -> int | None:
    raw = os.environ.get("PLUSFORMS_PREC_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("PLUSFORMS_PREC_CAP must be an integer, got %r" % raw)
    if cap < 1:
        raise UsageError("PLUSFORMS_PREC_CAP must be >= 1, got %d" % cap)
    return cap


def _capped(precision: int) -> int:
    if precision < 1:
        raise UsageError("--prec must be >= 1")
    cap = _prec_cap()
    return precision if cap is None else min(precision, cap)


def _verify_precision(command: str, precision: int) -> int:
    """The capped precision `command` (say "verify cong") builds, at most
    the ceiling."""
    precision = _capped(precision)
    if precision > VERIFY_CEILING:
        raise UsageError("%s would build %d coefficients, above the "
                         "limit of %d; choose a smaller --prec"
                         % (command, precision, VERIFY_CEILING))
    return precision


def _check_cost(request: str, family: str, index: int,
                precision: int) -> None:
    """Refuse `request` before it builds at `precision` when its index or
    its cost estimate, by COST_MODELS[family], is above its ceiling."""
    letter, ceiling, a, b, limit = COST_MODELS[family]
    if index > ceiling:
        raise UsageError("%s: %s = %d is above the limit of %d"
                         % (request, letter, index, ceiling))
    cost = max(index, 0) ** a * precision ** b   # the builder rejects k < 0
    if cost > limit:
        raise UsageError("%s: the cost estimate %s^%g P^%g at %s = %d, P = %d "
                         "is %.3g, above the limit of %.3g; choose a smaller "
                         "--prec" % (request, letter, a, b, letter, index,
                                     precision, cost, limit))


def _open_output(path: str, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


# -- expand -----------------------------------------------------------------


def _build_form(spec: str, precision: int):
    """Returns the built object: a NamedForm for the composite forms, a
    Form/PlusForm for the classical ones."""
    name, _, arg = spec.partition(":")
    request = "expand --form %s --prec %d" % (spec, precision)
    if name in ("cohen", "phi", "psi") and arg:
        index = int(arg)
        _check_cost(request, name, index, precision)
        return {"cohen": cohen_series, "phi": phi, "psi": psi}[name](
            index, precision)
    weight = {"f": 9, "psi10": 10}.get(name)
    if weight and not arg:
        _check_cost(request, "phi", weight, precision)
    builders = {"e4": partial(eisenstein, 4), "e6": partial(eisenstein, 6),
                "delta": delta, "theta": theta, "psi10": psi10, "f": f_form,
                "g31": g31}
    if arg or name not in builders:
        raise UsageError("unknown form %r" % spec)
    return builders[name](precision)


def _cmd_expand(args) -> int:
    precision = _verify_precision("expand --form " + args.form, args.prec)
    form = _build_form(args.form, precision)
    series = form.series
    if args.mod is not None:
        series = series.reduce_mod(args.mod)
    if args.json:
        shown = form._replace(series=series) \
            if isinstance(form, NamedForm) else series
        text = json.dumps(shown.to_json_dict(), indent=2)
    else:
        text = "\n".join(series.to_text_lines())
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def _verify_pair(target, precision, units) -> CongruenceReport:
    """verify_congruence mod 3 on the pair `target` (cong or psi:k) names, at
    --prec or 6/5 of its Sturm bound, planned from a build at precision 1."""
    k = 9 if target == "cong" else int(target.split(":")[1])

    def build(p):
        if target == "cong":
            return f_form(p), g31(p)
        return ap_named(psi(k, p), 2, 3), hurwitz_progression(p)

    if precision is None:
        plan = sturm_plan(*(form.meta for form in build(1)))
        precision = -(-plan.bound * 6 // 5)
    precision = _verify_precision("verify " + target, precision)
    _check_cost("verify " + target, "phi" if target == "cong" else "psi", k,
                precision)
    return verify_congruence(*build(precision), 3, units=units)


def _verify_remark3(precision, units) -> CongruenceReport:
    """The weight-13/2 cusp line against theta off multiples of 3, compared
    mod 3 at --prec (300 by default); a depth below the Sturm bound of
    their sturm_plan (43) is insufficient precision."""
    precision = _verify_precision("verify remark3",
                                  300 if precision is None else precision)
    lhs = cusp_line_13_half(precision)
    rhs = theta_off_multiples_of_three(precision)
    bound = sturm_plan(lhs.meta, rhs.meta).bound
    if precision < bound:
        return CongruenceReport(lhs.name, rhs.name, 3, bound, None, "direct",
                                "insufficient_precision", required=bound,
                                available=precision)
    return direct_report(lhs.name, rhs.name, lhs.series.reduce_mod(3),
                         rhs.series.reduce_mod(3), precision, units)


def _verify_ut(ell, precision) -> list[CongruenceReport]:
    out_prec = _capped(100 if precision is None else precision)
    # bounded under the cap too: the primality test trial-divides
    if ell * ell > VERIFY_CEILING:
        raise UsageError("verify ut:%d: l^2 is above the limit of %d"
                         % (ell, VERIFY_CEILING))
    in_prec = _verify_precision("verify ut:%d" % ell, ell * ell * out_prec)
    # theta, H_{5/2} and H_{7/2} at in_prec cost about one solve with r = 4
    _check_cost("verify ut:%d" % ell, "cohen", 4, in_prec)
    check_odd_prime(ell)
    sources = [
        ("theta", theta(in_prec).series, 0),
        ("cohen:2", cohen_series(2, in_prec).series, 2),
        ("cohen:3", cohen_series(3, in_prec).series, 3),
    ]
    reports = []
    for name, series, k in sources:
        g = series.primitive().reduce_mod(ell)
        lhs = u_op(g, ell)
        rhs = hecke_t(g ** ell, ell, ell * k + (ell - 1) // 2)
        reports.append(direct_report(
            "%s|U_%d" % (name, ell), "%s^%d|T(%d^2,...)" % (name, ell, ell),
            lhs, rhs, min(lhs.precision, rhs.precision, out_prec), units=(1,)))
    return reports


def _verify_rt(precision) -> list[CongruenceReport]:
    depth = _verify_precision("verify rt",
                              100 if precision is None else precision)
    reports = []
    for t in range(0, 41, 2):
        if t == 2:
            continue
        series = r_t(t, depth).series.reduce_mod(3)
        reports.append(direct_report("r_t(%d)" % t, "1", series,
                                     QSeries.one(series.ring, depth), depth,
                                     units=(1,), equalizer_t=t))
    return reports


def _report_exit(report: CongruenceReport) -> int:
    return {"verified": EXIT_OK,
            "mismatch": EXIT_MISMATCH,
            "insufficient_precision": EXIT_PRECISION}[report.status]


def _cmd_verify(args) -> int:
    units = None if args.unit == "auto" else (int(args.unit),)
    target = args.target
    if target == "cong" or target.startswith("psi:"):
        reports = [_verify_pair(target, args.prec, units)]
    elif target == "remark3":
        reports = [_verify_remark3(args.prec, units)]
    elif target.startswith("ut:"):
        reports = _verify_ut(int(target.split(":")[1]), args.prec)
    elif target == "rt":
        reports = _verify_rt(args.prec)
    else:
        raise UsageError("unknown verify target %r" % target)
    payload = [r.to_json_dict() for r in reports]
    print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    worst = EXIT_OK
    for r in reports:
        print("%s: %s vs %s (mod %d), bound %d, unit %s"
              % (r.status.upper(), r.lhs_name, r.rhs_name, r.modulus,
                 r.bound_used, r.unit), file=sys.stderr)
        worst = max(worst, _report_exit(r))
    return worst


# -- census, classnum, sturm --------------------------------------------------


def _cmd_census(args) -> int:
    if args.x < 12:
        raise UsageError("--x must be at least 12")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.x > CENSUS_CEILING:
        raise UsageError("census --x %d is above the limit of %d"
                         % (args.x, CENSUS_CEILING))
    if args.csv:
        with _open_output(args.csv, newline="") as fh:
            report, rows = census_with_rows(args.x)
            writer = csv.writer(fh)
            writer.writerow(["D", "field_discriminant", "h", "h_mod_3"])
            writer.writerows(rows)
    else:
        report = nonvanishing_census(args.x)
    print(json.dumps(report.to_json_dict(), indent=2))
    print("x=%d  N2-(x,1,3)=%d (density %.5f)  3!|h count=%d (density %.5f)"
          % (args.x, report.n2minus_count, float(report.n2minus_density),
             report.nonvanishing_count, float(report.nonvanishing_density)),
          file=sys.stderr)
    return EXIT_OK


def _cmd_classnum(args) -> int:
    if args.hurwitz is not None:
        if args.hurwitz > HURWITZ_CEILING:
            raise UsageError("classnum --hurwitz %d is above the limit of %d"
                             % (args.hurwitz, HURWITZ_CEILING))
        value = hurwitz(args.hurwitz)
        print(json.dumps({"n": args.hurwitz, "hurwitz": str(value)}))
        return EXIT_OK
    if args.d is None or args.d >= 0:
        raise UsageError("classnum needs --d D with D < 0, or --hurwitz N")
    if -args.d > CLASSNUM_CEILING:
        raise UsageError("classnum --d %d is below the limit of -%d"
                         % (args.d, CLASSNUM_CEILING))
    h = class_number_of_field(args.d)
    print(json.dumps({
        "d": args.d,
        "field_discriminant": field_discriminant(args.d),
        "h": h,
        "h_mod_3": h % 3,
    }))
    return EXIT_OK


def _cmd_sturm(args) -> int:
    if args.level > STURM_LEVEL_CEILING:
        raise UsageError("sturm --level %d is above the limit of %d"
                         % (args.level, STURM_LEVEL_CEILING))
    bound = sturm_bound(args.twice_weight, args.level)
    print(json.dumps({
        "twice_weight": args.twice_weight,
        "level": args.level,
        "index": index_gamma0(args.level),
        "bound": bound,
    }))
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="plusforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="render a form's q-expansion")
    p_expand.add_argument("--form", required=True,
                          help="phi:k | psi:k | psi10 | f | g31 | e4 | e6 | "
                               "delta | theta | cohen:r")
    p_expand.add_argument("--prec", type=int, required=True)
    p_expand.add_argument("--mod", type=int, default=None)
    p_expand.add_argument("--json", action="store_true")
    p_expand.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="machine-check a congruence")
    p_verify.add_argument("target",
                          help="cong | psi:k | remark3 | ut:l | rt")
    p_verify.add_argument("--prec", type=int, default=None)
    p_verify.add_argument("--unit", choices=("auto", "1", "2"),
                          default="auto")

    p_census = sub.add_parser("census", help="discriminant densities")
    p_census.add_argument("--x", type=int, required=True)
    p_census.add_argument("--workers", type=int, default=1,
                          help="accepted for compatibility and ignored: "
                               "the census runs in one process")
    p_census.add_argument("--csv", default=None)

    p_class = sub.add_parser("classnum", help="class number of Q(sqrt(D))")
    p_class.add_argument("--d", type=int, default=None)
    p_class.add_argument("--hurwitz", type=int, default=None)

    p_sturm = sub.add_parser("sturm", help="Sturm bound calculator")
    p_sturm.add_argument("--twice-weight", type=int, required=True,
                         dest="twice_weight")
    p_sturm.add_argument("--level", type=int, required=True)
    return parser


_HANDLERS = {
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "classnum": _cmd_classnum,
    "sturm": _cmd_sturm,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader of stdout went away: the output could not be written,
        # like an unwritable --csv or --out; stdout now points at devnull so
        # the flush at shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("plusforms: stdout was closed", file=sys.stderr)
        return EXIT_USAGE
    except NonIntegralCoefficientError as exc:
        print("plusforms: non-integral coefficient: %s" % exc,
              file=sys.stderr)
        return EXIT_INTEGRALITY
    except (UsageError, ValueError) as exc:
        # HalfIntegralWeightError, NotOddPrimeError and malformed arguments
        # all land here: the invocation was wrong, not the mathematics
        print("plusforms: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ModuleNotFoundError as exc:
        # numpy is imported only where a class-number table is built, so a
        # broken install fails here, on use, and not at start-up
        if exc.name != "numpy":
            raise
        print("plusforms: this command needs numpy", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
