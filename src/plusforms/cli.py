"""Command-line surface.

Subcommands: expand (render a form's q-expansion), verify (machine-check a
congruence target), census (discriminant densities), classnum (single class
number / Hurwitz values), sturm (bound calculator).

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
from dataclasses import replace

from .census import census_with_rows, nonvanishing_census
from .class_numbers import class_number_of_field, field_discriminant, hurwitz
from .cohen_eisenstein import cohen_series, theta
from .congruence_engine import (
    CongruenceReport,
    direct_report,
    index_gamma0,
    sturm_bound,
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
    try:
        if name == "e4" and not arg:
            return eisenstein(4, precision)
        if name == "e6" and not arg:
            return eisenstein(6, precision)
        if name == "delta" and not arg:
            return delta(precision)
        if name == "theta" and not arg:
            return theta(precision)
        if name == "cohen":
            return cohen_series(int(arg), precision)
        if name == "phi":
            return phi(int(arg), precision)
        if name == "psi" and arg:
            return psi(int(arg), precision)
        if name == "psi10" and not arg:
            return psi10(precision)
        if name == "f" and not arg:
            return f_form(precision)
        if name == "g31" and not arg:
            return g31(precision)
    except NonIntegralCoefficientError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc))
    raise UsageError("unknown form %r" % spec)


def _cmd_expand(args) -> int:
    precision = _capped(args.prec)
    form = _build_form(args.form, precision)
    series = form.series
    if args.mod is not None:
        series = series.reduce_mod(args.mod)
    if args.json:
        shown = replace(form, series=series) \
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


def _verify_cong(precision, units) -> CongruenceReport:
    bound = sturm_bound(20, 324)
    precision = _capped(-(-bound * 6 // 5) if precision is None else precision)
    return verify_congruence(f_form(precision), g31(precision), 3,
                             units=units)


def _verify_psi(k, precision, units) -> CongruenceReport:
    bound = sturm_bound(2 * (2 * k + 1), 324)
    precision = _capped(-(-bound * 6 // 5) if precision is None else precision)
    lhs = ap_named(psi(k, precision), 2, 3)
    rhs = hurwitz_progression(precision)
    return verify_congruence(lhs, rhs, 3, units=units)


def _verify_remark3(precision, units) -> CongruenceReport:
    precision = _capped(300 if precision is None else precision)
    lhs = cusp_line_13_half(precision)
    rhs = theta_off_multiples_of_three(precision)
    return direct_report(lhs.name, rhs.name, lhs.series.reduce_mod(3),
                         rhs.series.reduce_mod(3), precision, units)


def _verify_ut(ell, precision) -> list[CongruenceReport]:
    check_odd_prime(ell)
    out_prec = _capped(100 if precision is None else precision)
    in_prec = _capped(ell * ell * out_prec)
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
    depth = _capped(100 if precision is None else precision)
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
    if target == "cong":
        reports = [_verify_cong(args.prec, units)]
    elif target.startswith("psi:"):
        reports = [_verify_psi(int(target.split(":")[1]), args.prec, units)]
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
    if args.csv:
        with _open_output(args.csv, newline="") as fh:
            report, rows = census_with_rows(args.x, workers=args.workers)
            writer = csv.writer(fh)
            writer.writerow(["D", "field_discriminant", "h", "h_mod_3"])
            writer.writerows(rows)
    else:
        report = nonvanishing_census(args.x, workers=args.workers)
    print(json.dumps(report.to_json_dict(), indent=2))
    print("x=%d  N2-(x,1,3)=%d (density %.5f)  3!|h count=%d (density %.5f)"
          % (args.x, report.n2minus_count, float(report.n2minus_density),
             report.nonvanishing_count, float(report.nonvanishing_density)),
          file=sys.stderr)
    return EXIT_OK


def _cmd_classnum(args) -> int:
    if args.hurwitz is not None:
        value = hurwitz(args.hurwitz)
        print(json.dumps({"n": args.hurwitz, "hurwitz": str(value)}))
        return EXIT_OK
    if args.d is None or args.d >= 0:
        raise UsageError("classnum needs --d D with D < 0, or --hurwitz N")
    h = class_number_of_field(args.d)
    print(json.dumps({
        "d": args.d,
        "field_discriminant": field_discriminant(args.d),
        "h": h,
        "h_mod_3": h % 3,
    }))
    return EXIT_OK


def _cmd_sturm(args) -> int:
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
    p_census.add_argument("--workers", type=int, default=1)
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
        return _HANDLERS[args.command](args)
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
