"""Span tracing of the package's layers, installed from outside.

Each public layer function (plus the two private verdict helpers that
discrepancy_report calls) is replaced by a wrapper at every place a package
module binds it, e.g. criteria.oracle_sum and disk.evaluate as well as
summation.oracle_sum and series.evaluate.  A wrapper records one span per
call: name, start, end, parent span and op index, plus the work the call
did.  Spans stay in memory; per_layer_metrics folds them into the per-layer
numbers.  Self time is a span's duration minus the durations of its
children, which are nested because the benchmark is single-threaded.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _eval_terms(args, kwargs, result):
    f, z = args[0], args[1]
    return {"terms": int(np.size(z)) * f.order}


def _oracle_info(args, kwargs, result):
    return {"terms": result[1]}


def _critical_q_info(args, kwargs, result):
    return {"iterations": result.iterations, "boundary": bool(result.boundary)}


def _scan_info(args, kwargs, result):
    return {"error_rows": sum(1 for row in result if row.error)}


def _disk_info(args, kwargs, result):
    return {
        "points": result.points_checked,
        "passed": int(result.passed),
        "denominator_exit": int(result.note == "denominator vanished at witness"),
    }


# (module, function, info) for every wrapped function; the span name is
# "<module>.<function>" and its layer is the module.  Public functions that
# no workload op calls (corollary, the scalar disk functionals) are left out.
TARGETS = (
    ("series", "adaptive_truncation_order", lambda a, k, r: {"order": r}),
    ("series", "theta_series", None),
    ("series", "integral_transform", None),
    ("series", "hadamard_convolve", None),
    ("series", "extremal_rtau_series", None),
    ("series", "evaluate", _eval_terms),
    ("series", "evaluate_d1", _eval_terms),
    ("series", "evaluate_d2", _eval_terms),
    ("summation", "oracle_sum", _oracle_info),
    ("summation", "sum_S0", None),
    ("summation", "sum_S1", None),
    ("summation", "sum_S2", None),
    ("summation", "sum_Sinv", None),
    ("criteria", "evaluate_criterion", None),
    ("criteria", "evaluate_all", None),
    ("criteria", "discrepancy_report", lambda a, k, r: {"points": r["points_checked"]}),
    ("criteria", "_lhs_direct", None),
    ("criteria", "_lhs_closed", None),
    ("scan", "critical_q", _critical_q_info),
    ("scan", "scan", _scan_info),
    ("disk", "verify_on_disk", _disk_info),
    ("cli", "main", None),
)
# lookup sites that callers use instead of the defining module; the
# self-test asserts each of them is wrapped
REQUIRED_SITES = (
    "pascal_spiral.criteria.oracle_sum",
    "pascal_spiral.criteria.sum_Sinv",
    "pascal_spiral.disk.evaluate",
    "pascal_spiral.disk.evaluate_d1",
    "pascal_spiral.disk.evaluate_d2",
    "pascal_spiral.scan.evaluate_criterion",
)
CLOSED_FORMS = ("summation.sum_S0", "summation.sum_S1", "summation.sum_S2", "summation.sum_Sinv")
CONSTRUCTORS = (
    "series.theta_series", "series.integral_transform",
    "series.hadamard_convolve", "series.extremal_rtau_series",
)
EVALUATORS = ("series.evaluate", "series.evaluate_d1", "series.evaluate_d2")
DIVERGENCE = "SummationDivergenceError"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.info = None

    def as_dict(self, index):
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, **(self.info or {}),
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1

    @property
    def sites(self) -> list[str]:
        return [label for *_, label in self._patched]

    def reset(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span opened by the benchmark itself."""
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span.info = {"raised": type(exc).__name__}
                raise
            self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self, ctx):
        """Wrap every target at every package module attribute, and every
        entry of a module-level dict, that is bound to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "pascal_spiral" or n.startswith("pascal_spiral."))
        ]
        for mod_name, fn_name, info in TARGETS:
            original = getattr(ctx.mod[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original, f"{module.__name__}.{attr}"))
                    elif isinstance(value, dict):  # dispatch tables
                        for key, entry in list(value.items()):
                            if entry is original:
                                value[key] = wrapper
                                self._patched.append(
                                    (value, key, original, f"{module.__name__}.{attr}[{key!r}]")
                                )

    def uninstall(self):
        for where, key, original, _ in reversed(self._patched):
            if isinstance(where, dict):
                where[key] = original
            else:
                setattr(where, key, original)
        self._patched = []


def per_layer_metrics(spans: list[Span], extra: dict) -> dict:
    """Counts and seconds per layer for one traced block.  extra carries the
    numbers the benchmark measures itself (cli process time and bytes)."""
    n = len(spans)
    child = [0.0] * n
    in_criteria = [False] * n  # span has a criteria ancestor
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
            p = spans[s.parent]
            in_criteria[i] = in_criteria[s.parent] or p.name.startswith("criteria.")
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    info_sum: dict[tuple, float] = {}
    m = dict.fromkeys((
        "summation.oracle_divergences", "summation.sinv_oracle_fallbacks",
        "scan.margin_evals",
    ), 0)
    criteria_outer_s = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        count[s.name] = count.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + dur
        self_time[s.name] = self_time.get(s.name, 0.0) + dur - child[i]
        for key, value in (s.info or {}).items():
            if key != "raised":
                info_sum[(s.name, key)] = info_sum.get((s.name, key), 0) + value
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if s.name == "summation.oracle_sum":
            if (s.info or {}).get("raised") == DIVERGENCE:
                m["summation.oracle_divergences"] += 1
            if parent == "summation.sum_Sinv":
                m["summation.sinv_oracle_fallbacks"] += 1
        if s.name == "criteria.evaluate_criterion" and parent == "scan.critical_q":
            m["scan.margin_evals"] += 1
        if s.name.startswith("criteria.") and not in_criteria[i]:
            criteria_outer_s += dur

    def c(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def info(name, key):
        return info_sum.get((name, key), 0)

    def layer_self(layer):
        return sum(v for k, v in self_time.items() if k.startswith(layer + "."))

    verdicts = c("criteria._lhs_direct") + c("criteria._lhs_closed")
    roots = c("scan.critical_q")
    m.update({
        "series.truncation_calls": c("series.adaptive_truncation_order"),
        "series.truncation_order_sum": info("series.adaptive_truncation_order", "order"),
        "series.truncation_s": t("series.adaptive_truncation_order"),
        "series.build_s": sum(self_time.get(b, 0.0) for b in CONSTRUCTORS),
        "series.eval_calls": sum(c(e) for e in EVALUATORS),
        "series.eval_terms": sum(info(e, "terms") for e in EVALUATORS),
        "series.eval_s": sum(t(e) for e in EVALUATORS),
        "summation.oracle_calls": c("summation.oracle_sum"),
        "summation.oracle_terms": info("summation.oracle_sum", "terms"),
        "summation.oracle_s": t("summation.oracle_sum"),
        "summation.closed_calls": sum(c(name) for name in CLOSED_FORMS),
        "criteria.verdicts_direct": c("criteria._lhs_direct"),
        "criteria.verdicts_closed": c("criteria._lhs_closed"),
        "criteria.report_points": info("criteria.discrepancy_report", "points"),
        "criteria.self_s": layer_self("criteria"),
        "criteria.us_per_point": 1e6 * criteria_outer_s / verdicts if verdicts else 0.0,
        "scan.roots": roots,
        "scan.margin_evals_per_root": m["scan.margin_evals"] / roots if roots else 0.0,
        "scan.bisection_iterations": info("scan.critical_q", "iterations"),
        "scan.boundary_roots": info("scan.critical_q", "boundary"),
        "scan.error_rows": info("scan.scan", "error_rows"),
        "scan.self_s": layer_self("scan"),
        "disk.verifications": c("disk.verify_on_disk"),
        "disk.points_checked": info("disk.verify_on_disk", "points"),
        "disk.denominator_exits": info("disk.verify_on_disk", "denominator_exit"),
        "disk.passes": info("disk.verify_on_disk", "passed"),
        "disk.self_s": layer_self("disk"),
        "cli.process_s": extra.get("cli.process_s", 0.0),
        "cli.main_s": t("cli.main"),
        "cli.stdout_bytes": extra.get("cli.stdout_bytes", 0),
    })
    m["cli.startup_s"] = m["cli.process_s"] - m["cli.main_s"] if m["cli.main_s"] else 0.0
    m["hits"] = count
    return m
