"""Outside-in tracing of firasym: spans around calls between its modules.

The tracer rebinds the names that the calling modules look up (for example
``firasym.montecarlo.eb_estimate`` or ``firasym.estimators.minimize``), so
no source file changes.  Each wrapped call records a span with name, start,
end and parent.  Hot inner calls (``kernel_matrix``) only add a count and
summed time to the enclosing span.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, span name).  Every attribute must exist: the Tracer
# refuses to start otherwise, so a renamed or dropped import shows as an
# error rather than as metrics that read 0.
SPANS = [
    ("cli", "run_experiment", "montecarlo.run_experiment"),
    ("cli", "asymptotic_report", "asymptotics.asymptotic_report"),
    ("cli", "ridge_report", "asymptotics.ridge_report"),
    ("cli", "sigma_matrix", "asymptotics.sigma_matrix"),
    ("cli", "generate_t1", "signals.generate_t1"),
    ("cli", "generate_t2", "signals.generate_t2"),
    ("montecarlo", "experiment_theory", "montecarlo.experiment_theory"),
    ("montecarlo", "aggregate_records", "montecarlo.aggregate_records"),
    ("montecarlo", "eta_star", "asymptotics.eta_star"),
    ("montecarlo", "second_order_stats", "asymptotics.second_order_stats"),
    ("montecarlo", "hyper_parameter_law", "asymptotics.hyper_parameter_law"),
    ("montecarlo", "regularized_error_moments", "asymptotics.regularized_error_moments"),
    ("montecarlo", "generate_input", "signals.generate_input"),
    ("montecarlo", "build_dataset", "signals.build_dataset"),
    ("montecarlo", "generate_t1", "signals.generate_t1"),
    ("montecarlo", "generate_t2", "signals.generate_t2"),
    ("montecarlo", "eb_estimate", "estimators.eb_estimate"),
    ("estimators", "ls_estimate", "estimators.ls_estimate"),
    ("estimators", "rls_estimate", "estimators.rls_estimate"),
    ("estimators", "minimize_box", "estimators.minimize_box"),
    ("estimators", "minimize", "scipy.optimize.minimize"),
    ("asymptotics", "sigma_matrix", "asymptotics.sigma_matrix"),
    ("asymptotics", "c_gamma", "asymptotics.c_gamma"),
    ("asymptotics", "second_order_stats", "asymptotics.second_order_stats"),
    ("asymptotics", "eta_star", "asymptotics.eta_star"),
    ("asymptotics", "hyper_parameter_law", "asymptotics.hyper_parameter_law"),
    ("asymptotics", "ls_error_covariances", "asymptotics.ls_error_covariances"),
    ("asymptotics", "regularized_error_moments", "asymptotics.regularized_error_moments"),
    ("asymptotics", "minimize_box", "estimators.minimize_box"),
]
HOT = [
    ("estimators", "kernel_matrix", "estimators.kernel_matrix"),
    ("asymptotics", "kernel_matrix", "estimators.kernel_matrix"),
]


class TraceError(RuntimeError):
    """The program lacks a traced name, or the trace lacks the spans that a
    per-layer metric is computed from."""


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers, exit restores."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported firasym module
        missing = [
            f"{modules[m].__name__}.{attr}"
            for m, attr, _ in SPANS + HOT
            if not hasattr(modules[m], attr)
        ]
        if missing:
            raise TraceError(f"cannot trace, names not found: {', '.join(missing)}")
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Run ``fn`` inside a span; ``attrs`` are stored on the span."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "attrs": dict(attrs or {}),
            "hot": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        span["t0"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            span["t1"] = time.perf_counter_ns()
            self._stack.pop()
        _annotate(span, kwargs, result)
        return result

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _hot_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._stack:
                    slot = self._stack[-1]["hot"].setdefault(name, [0, 0])
                    slot[0] += 1
                    slot[1] += time.perf_counter_ns() - t0

        return wrapper

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for table, make in ((SPANS, self._span_wrapper), (HOT, self._hot_wrapper)):
            for module_name, attr, span_name in table:
                module = self.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(span_name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _annotate(span: dict, kwargs: dict, result) -> None:
    """Keep the few result fields the per-layer metrics need."""
    name = span["name"]
    if name == "scipy.optimize.minimize":
        span["attrs"].update(
            method=kwargs.get("method"), nfev=int(result.nfev), fun=float(result.fun)
        )
    elif name == "estimators.minimize_box":
        span["attrs"]["value"] = float(result[1])
    elif name == "estimators.eb_estimate":
        span["attrs"].update(
            converged=bool(result.stats.converged),
            at_boundary=bool(result.stats.at_boundary),
        )


# ------------------------------------------------------------ span algebra


class SpanIndex:
    """Parent/child lookups and self times over a list of spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span: dict) -> int:
        return span["t1"] - span["t0"]

    def self_ns(self, span: dict) -> int:
        return self.duration(span) - sum(
            self.duration(c) for c in self.children[span["id"]]
        )

    def root(self, span: dict) -> dict:
        while span["parent"] is not None:
            span = self.by_id[span["parent"]]
        return span

    def parent_name(self, span: dict) -> str | None:
        if span["parent"] is None:
            return None
        return self.by_id[span["parent"]]["name"]

    def subtree(self, span: dict):
        todo = [span]
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children[s["id"]])

    def under_case(self, case: str):
        """Spans (roots included) below top-level calls of one case."""
        for s in self.spans:
            if self.root(s)["attrs"].get("case") == case:
                yield s


MS = 1e-6  # nanoseconds to milliseconds


def _named(spans, names, case: str) -> list[dict]:
    """The spans with one of ``names``.  A case whose calls should have made
    them and did not is an error: a metric read as 0 would pass for a gain."""
    names = {names} if isinstance(names, str) else set(names)
    found = [s for s in spans if s["name"] in names and "error" not in s["attrs"]]
    if not found:
        raise TraceError(f"{case}: no {' or '.join(sorted(names))} span in the trace")
    return found


def _case_spans(idx: SpanIndex, case: str) -> tuple[list[dict], list[dict]]:
    """(all spans, top-level cli.main spans) of one case."""
    spans = list(idx.under_case(case))
    calls = [s for s in spans if s["parent"] is None]
    if not calls:
        raise TraceError(f"{case}: no top-level call in the trace")
    return spans, calls


def _fits_under(idx: SpanIndex, spans, parent: str, case: str) -> list[dict]:
    fits = [
        s for s in _named(spans, "estimators.minimize_box", case)
        if idx.parent_name(s) == parent
    ]
    if not fits:
        raise TraceError(f"{case}: no minimize_box span under {parent}")
    return fits


def _sum_ms(idx: SpanIndex, spans, self_time: bool = False) -> float:
    return sum(idx.self_ns(s) if self_time else idx.duration(s) for s in spans) * MS


def _search_metrics(idx: SpanIndex, fits: list[dict], case: str) -> dict:
    """Search-stage metrics per fit, over ``minimize_box`` spans.  Today
    every start of the search runs Nelder-Mead and then L-BFGS-B.  A stage
    that a new search drops reads 0, but a fit with no traced ``minimize``
    call at all means the local searches escaped the trace."""
    nm_ns = nm_evals = lb_ns = lb_evals = polish_ns = grads = 0
    useful = starts = 0
    for fit in fits:
        value = fit["attrs"]["value"]
        polish_ns += idx.self_ns(fit)
        grads += sum(s["hot"].get("estimators.kernel_matrix", [0])[0] for s in idx.subtree(fit))
        local = [c for c in idx.children[fit["id"]] if c["name"] == "scipy.optimize.minimize"]
        if not local:
            raise TraceError(f"{case}: a search with no traced scipy.optimize.minimize call")
        for child in local:
            method = child["attrs"]["method"]
            if method == "Nelder-Mead":
                nm_ns += idx.duration(child)
                nm_evals += child["attrs"]["nfev"]
            elif method == "L-BFGS-B":
                lb_ns += idx.duration(child)
                lb_evals += child["attrs"]["nfev"]
                starts += 1
                if abs(child["attrs"]["fun"] - value) <= 1e-9 * (1.0 + abs(value)):
                    useful += 1
    if not starts:
        raise TraceError(f"{case}: useful_start_ratio is defined over L-BFGS-B starts; none ran")
    k = len(fits)
    return {
        "nm_ms": nm_ns * MS / k,
        "nm_evals": nm_evals / k,
        "lbfgsb_ms": lb_ns * MS / k,
        "lbfgsb_evals": lb_evals / k,
        "polish_ms": polish_ns * MS / k,
        "grad_evals": grads / k,
        "useful_start_ratio": useful / starts,
    }


def mc_layer_metrics(idx: SpanIndex, case: str) -> dict:
    """Per-record and per-call metrics of one kernel family of mc_fit."""
    spans, calls = _case_spans(idx, case)
    records = sum(c["attrs"]["items"] for c in calls)
    fitted = _named(spans, "estimators.eb_estimate", case)
    fits = _fits_under(idx, spans, "estimators.eb_estimate", case)
    out = {
        "signals.input_ms": _sum_ms(
            idx, _named(spans, {"signals.generate_input", "signals.build_dataset"}, case)
        ) / records,
        "estimators.ls_ms": _sum_ms(idx, _named(spans, "estimators.ls_estimate", case))
        / records,
        "estimators.rls_ms": _sum_ms(idx, _named(spans, "estimators.rls_estimate", case))
        / records,
        "estimators.fit.not_converged": sum(
            not s["attrs"]["converged"] for s in fitted
        ) / len(calls),
        "estimators.fit.at_boundary": sum(
            s["attrs"]["at_boundary"] for s in fitted
        ) / len(calls),
        "montecarlo.theory_ms": _sum_ms(
            idx, _named(spans, "montecarlo.experiment_theory", case)
        ) / len(calls),
        "montecarlo.aggregate_ms": _sum_ms(
            idx, _named(spans, "montecarlo.aggregate_records", case)
        ) / len(calls),
        "cli.self_ms": _sum_ms(idx, calls, self_time=True) / len(calls),
    }
    for key, value in _search_metrics(idx, fits, case).items():
        out[f"estimators.search.{key}"] = value
    return out


ASYM_SELF_STAGES = [
    "second_order_stats",
    "eta_star",
    "hyper_parameter_law",
    "ls_error_covariances",
    "regularized_error_moments",
]


def asym_layer_metrics(idx: SpanIndex, case: str, search: bool, peak_mb: float) -> dict:
    """Per-report metrics of one asym_order case."""
    spans, calls = _case_spans(idx, case)
    n = calls[0]["attrs"]["n"]
    out = {
        "asymptotics.c_gamma_ms": _sum_ms(idx, _named(spans, "asymptotics.c_gamma", case))
        / len(calls),
        # dense n^2 x n^2 float64 matrix: computed from its shape, not measured
        "asymptotics.c_gamma_mb": n**4 * 8 / 2**20,
        "asymptotics.peak_alloc_mb": peak_mb,
        "cli.self_ms": _sum_ms(idx, calls, self_time=True) / len(calls),
    }
    for stage in ASYM_SELF_STAGES:
        out[f"asymptotics.{stage}_ms"] = _sum_ms(
            idx, _named(spans, f"asymptotics.{stage}", case), self_time=True
        ) / len(calls)
    if search:
        fits = _fits_under(idx, spans, "asymptotics.eta_star", case)
        metrics = _search_metrics(idx, fits, case)
        for key in ("nm_ms", "nm_evals", "lbfgsb_ms", "lbfgsb_evals", "polish_ms", "grad_evals"):
            out[f"estimators.search.{key}"] = metrics[key]
    return out


def sweep_layer_metrics(idx: SpanIndex) -> dict:
    """Per-grid-point metrics and per-pole call counts of sweep_grid."""
    spans, calls = _case_spans(idx, "sweep")
    points = sum(c["attrs"]["items"] for c in calls)
    poles = sum(c["attrs"]["poles"] for c in calls)
    reports = _named(spans, "asymptotics.ridge_report", "sweep")
    stats = _named(spans, "asymptotics.second_order_stats", "sweep")
    return {
        "asymptotics.ridge_report_ms": _sum_ms(idx, reports, self_time=True) / points,
        "asymptotics.second_order_stats_ms": _sum_ms(idx, stats, self_time=True) / points,
        "asymptotics.c_gamma_ms": _sum_ms(idx, _named(spans, "asymptotics.c_gamma", "sweep"))
        / points,
        "asymptotics.sigma_matrix_calls": len(
            _named(spans, "asymptotics.sigma_matrix", "sweep")
        ) / poles,
        "asymptotics.second_order_stats_calls": len(stats) / poles,
        "cli.self_ms": _sum_ms(idx, calls, self_time=True) / len(calls),
    }


def layer_metrics(workload: str, spans: list[dict], peaks: dict) -> dict:
    """Per-layer metrics of a workload, keyed by their declared names;
    ``peaks`` maps asym_order cases to their tracemalloc peak in MB.
    Raises TraceError when a metric's spans are missing."""
    idx = SpanIndex(spans)
    out = {}
    if workload == "mc_fit":
        for family in ("ridge", "tc", "dc"):
            for key, value in mc_layer_metrics(idx, family).items():
                out[f"{key}.{family}"] = value
    elif workload == "asym_order":
        for case in ("n20", "n40", "n80", "tc_n20"):
            metrics = asym_layer_metrics(idx, case, case == "tc_n20", peaks[case])
            for key, value in metrics.items():
                out[f"{key}.{case}"] = value
    else:
        out.update(sweep_layer_metrics(idx))
    return out
