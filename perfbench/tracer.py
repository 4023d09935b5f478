"""In-memory span tracer that wraps plusforms' public callables from outside.

`Tracer.install()` replaces each traced callable with a wrapper that records
a span (name, start, end, parent, op id, attributes).  A module-level
function is replaced under every name that holds it in any loaded
`plusforms` module, so `from .x import f` re-bindings are traced too.
`Tracer.uninstall()` puts every original object back.

Spans stay in memory until the caller writes them out (`dump`).  A span's
self time is its duration minus the part of it that its child spans cover
(`self_times`); `aggregate` folds spans into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module, public names); the names are looked up in the module
# and then replaced wherever plusforms re-binds the same object
FUNCTION_GROUPS = {
    "cli.main": ("cli", ("main",)),
    "congruence_engine.verify_congruence": (
        "congruence_engine", ("verify_congruence",)),
    "constructions.builders": ("constructions", (
        "phi", "f_form", "g31", "psi", "psi10", "hurwitz_progression",
        "cusp_line_13_half", "theta_off_multiples_of_three", "ap_named")),
    "operators.r_t": ("operators", ("r_t",)),
    "operators.hecke_t": ("operators", ("hecke_t",)),
    "operators.coeff_maps": ("operators", ("u_op", "v_op", "twist",
                                           "ap_project")),
    "level_one_forms.eisenstein": ("level_one_forms", ("eisenstein",)),
    "level_one_forms.delta": ("level_one_forms", ("delta",)),
    "cohen_eisenstein.cohen_h": ("cohen_eisenstein", ("cohen_h",)),
    "cohen_eisenstein.g_ab": ("cohen_eisenstein", ("g_ab",)),
    "class_numbers.gen_bernoulli": ("class_numbers", ("gen_bernoulli",)),
    "class_numbers.form_class_number": ("class_numbers",
                                        ("form_class_number",)),
    "class_numbers.hurwitz": ("class_numbers", ("hurwitz",)),
    "census.report": ("census", ("nonvanishing_census", "census_rows")),
    "census.class_number_table": ("census", ("class_number_table",)),
    "census.masks": ("census", ("fundamental_negative_mask",
                                "fundamental_positive_mask")),
    "cache.series_at": ("_cache", ("series_at",)),
}

MUL_KINDS = ("qseries.mul_q", "qseries.mul_z", "qseries.mul_mod")
METHOD_SPANS = {"reduce_mod": "qseries.reduce_mod",
                "__post_init__": "qseries.init"}
SPAN_NAMES = tuple(FUNCTION_GROUPS) + MUL_KINDS + tuple(METHOD_SPANS.values())

# span record layout
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                self.op, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[END] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _wrap_mul(self, fn, series_type):
        @functools.wraps(fn)
        def traced(a, b):
            if not isinstance(b, series_type):
                return fn(a, b)          # scalar scaling, not a product
            if a.ring.modulus is not None:
                kind = "qseries.mul_mod"
            else:
                n = min(a.precision, b.precision)
                integral = all(c.denominator == 1 for c in a.coeffs[:n]) \
                    and all(c.denominator == 1 for c in b.coeffs[:n])
                kind = "qseries.mul_z" if integral else "qseries.mul_q"
            span = self._open(kind)
            try:
                out = fn(a, b)
                span[ATTRS] = {
                    "coeffs": out.precision,
                    "max_bits": max(map(_coeff_bits, out.coeffs)),
                }
                return out
            finally:
                self._close(span)
        return traced

    def _wrap_series_at(self, fn):
        @functools.wraps(fn)
        def traced(key, precision, builder):
            built = []

            def counting_builder(p):
                built.append(p)
                return builder(p)

            span = self._open("cache.series_at")
            try:
                return fn(key, precision, counting_builder)
            finally:
                span[ATTRS] = {"hit": not built}
                self._close(span)
        return traced

    def _wrap_table(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open("census.class_number_table")
            try:
                out = fn(*args, **kwargs)
                span[ATTRS] = {"entries": len(out)}
                return out
            finally:
                self._close(span)
        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable; plusforms must already be importable."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        qseries = importlib.import_module("plusforms.qseries")
        modules = {mod: importlib.import_module("plusforms." + mod)
                   for mod, _ in FUNCTION_GROUPS.values()}
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "plusforms" or n.startswith("plusforms.")]

        cls = qseries.QSeries
        self._set(cls, "__mul__", self._wrap_mul(cls.__mul__, cls))
        for method, name in METHOD_SPANS.items():
            self._set(cls, method, self.wrap(name, cls.__dict__[method]))

        for name, (mod, attrs) in FUNCTION_GROUPS.items():
            for attr in attrs:
                original = getattr(modules[mod], attr)
                if name == "cache.series_at":
                    wrapper = self._wrap_series_at(original)
                elif name == "census.class_number_table":
                    wrapper = self._wrap_table(original)
                else:
                    wrapper = self.wrap(name, original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# -- analysis ---------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span (spans of one thread nest, but the union keeps the
    arithmetic right even if they do not)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def aggregate(spans, totals: dict | None = None) -> dict:
    """Fold spans into {name: {"calls", "self_s", attribute sums}}; the
    "max_bits" attribute is kept as a maximum, "hit" as a count."""
    totals = {} if totals is None else totals
    for s, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (s[ATTRS] or {}).items():
            if key == "max_bits":
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + int(value)
    return totals
