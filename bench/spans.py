"""Spans around calls into fillgap's public functions, for the traced run.

Each call of a wrapped function records one span: name, start, end, parent
span, the ordinal of the call among calls of the same name, and the
tracemalloc peak reached inside the call above the traced memory at its
start. Spans stay in memory and are written out once the run has ended.

Wrapping replaces the function object in every loaded ``fillgap`` module that
holds it, so calls made through ``from .selection import select`` style
imports are traced as well as calls made through the defining module.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

MIB = 1024.0 * 1024.0

# (module, function) pairs whose calls become spans, named "<layer>.<function>".
TRACED = (
    ("fillgap.dataset", "read_xyz"),
    ("fillgap.dataset", "coulomb_matrix"),
    ("fillgap.dataset", "save_dataset"),
    ("fillgap.dataset", "load_dataset"),
    ("fillgap.dataset", "remove_zero_variance"),
    ("fillgap.dataset", "minmax_normalize"),
    ("fillgap.dataset", "synth_lipschitz"),
    ("fillgap.dataset", "synth_with_info"),
    ("fillgap.selection", "nn_distances"),
    ("fillgap.selection", "select"),
    ("fillgap.selection", "fps"),
    ("fillgap.selection", "random_select"),
    ("fillgap.selection", "facility_location"),
    ("fillgap.selection", "kmedoidspp"),
    ("fillgap.selection", "fps_then_random"),
    ("fillgap.selection", "selection_traces"),
    ("fillgap.selection", "fill_distance"),
    ("fillgap.selection", "separation_distance"),
    ("fillgap.regression", "gamma_for_half_kernel"),
    ("fillgap.regression", "gaussian_kernel_matrix"),
    ("fillgap.regression", "condition_number"),
    ("fillgap.regression", "krr_fit"),
    ("fillgap.regression", "krr_predict"),
    ("fillgap.regression", "conditioning_report"),
    ("fillgap.analysis", "bound_check"),
    ("fillgap.experiment", "load_experiment_config"),
    ("fillgap.experiment", "pool_from_config"),
    ("fillgap.experiment", "run_experiment"),
    ("fillgap.experiment", "write_report"),
)

# Work counted per span: the number of query rows a prediction covers.
ITEMS = {"regression.krr_predict": lambda args, kwargs: len(args[1])}


class Span:
    __slots__ = ("id", "name", "parent", "call", "start", "end", "base", "peak", "items")

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "call": self.call,
            "start": self.start,
            "end": self.end,
            "peak_mib": (self.peak - self.base) / MIB,
            "items": self.items,
        }


class Tracer:
    """Collects spans for the calls of the functions in TRACED."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self._stack: list[Span] = []

    def start(self) -> None:
        tracemalloc.start()

    def stop(self) -> None:
        tracemalloc.stop()

    def install(self) -> None:
        """Replace every function in TRACED by a span-recording wrapper."""
        for module_name, func_name in TRACED:
            module = sys.modules[module_name]
            original = getattr(module, func_name)
            layer = module_name.rsplit(".", 1)[1]
            wrapped = self._wrap(f"{layer}.{func_name}", original)
            for name, mod in list(sys.modules.items()):
                if name == "fillgap" or name.startswith("fillgap."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn):
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
                if items is not None:
                    span.items = items(args, kwargs)

        return traced

    def _enter(self, name: str) -> Span:
        current, peak = tracemalloc.get_traced_memory()
        for open_span in self._stack:
            open_span.peak = max(open_span.peak, peak)
        tracemalloc.reset_peak()
        span = Span()
        span.id = len(self.spans)
        span.name = name
        span.parent = self._stack[-1].id if self._stack else None
        span.call = self.calls[name] = self.calls.get(name, 0) + 1
        span.base = span.peak = current
        span.items = None
        span.end = None
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        self._stack.pop()
        span.peak = max(span.peak, peak)
        if self._stack:
            parent = self._stack[-1]
            parent.peak = max(parent.peak, span.peak)


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans
# ---------------------------------------------------------------------------

# metric -> (kind, span names). "time" sums the durations of the outermost
# spans among the names, "self" subtracts child spans, "peak" is the largest
# tracemalloc peak, "calls" counts spans and "rate" divides items by time.
LAYER_METRICS = {
    "dataset.synth_s": ("time", ("dataset.synth_lipschitz", "dataset.synth_with_info")),
    "dataset.synth_peak_mib": ("peak", ("dataset.synth_lipschitz", "dataset.synth_with_info")),
    "dataset.featurize_s": ("time", ("dataset.read_xyz", "dataset.coulomb_matrix")),
    "dataset.save_s": ("time", ("dataset.save_dataset",)),
    "dataset.ingest_s": (
        "time",
        ("dataset.load_dataset", "dataset.remove_zero_variance", "dataset.minmax_normalize"),
    ),
    "selection.nn_s": ("time", ("selection.nn_distances",)),
    "selection.fps_s": ("time", ("selection.fps",)),
    "selection.random_s": ("time", ("selection.random_select",)),
    "selection.facility_location_s": ("time", ("selection.facility_location",)),
    "selection.facility_location_peak_mib": ("peak", ("selection.facility_location",)),
    "selection.kmedoidspp_s": ("time", ("selection.kmedoidspp",)),
    "selection.kmedoidspp_peak_mib": ("peak", ("selection.kmedoidspp",)),
    "selection.fps_then_random_s": ("time", ("selection.fps_then_random",)),
    "selection.select_calls": ("calls", ("selection.select",)),
    "selection.traces_s": ("time", ("selection.selection_traces",)),
    "selection.fill_s": ("time", ("selection.fill_distance",)),
    "regression.gram_s": ("time", ("regression.gaussian_kernel_matrix",)),
    "regression.cond_s": ("time", ("regression.condition_number",)),
    "regression.cond_calls": ("calls", ("regression.condition_number",)),
    "regression.fit_s": ("time", ("regression.krr_fit",)),
    "regression.predict_s": ("time", ("regression.krr_predict",)),
    "regression.predict_rows_per_s": ("rate", ("regression.krr_predict",)),
    "regression.predict_peak_mib": ("peak", ("regression.krr_predict",)),
    "regression.conditioning_report_s": ("time", ("regression.conditioning_report",)),
    "analysis.bound_s": ("time", ("analysis.bound_check",)),
    "experiment.self_s": ("self", ("experiment.run_experiment",)),
    "experiment.write_s": ("time", ("experiment.write_report",)),
}

UNITS = {"time": "s", "self": "s", "peak": "MiB", "calls": "count", "rate": "rows/s"}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration less the durations of its direct children."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def _outermost(spans: list[dict], names: tuple[str, ...]) -> list[dict]:
    by_id = {s["id"]: s for s in spans}
    chosen = []
    for s in spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] not in names:
            parent = by_id[parent]["parent"]
        if parent is None:
            chosen.append(s)
    return chosen


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """Every metric of LAYER_METRICS; a layer that did not run reads 0."""
    own = self_times(spans)
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        matching = [s for s in spans if s["name"] in names]
        if kind == "time":
            value = sum(_duration(s) for s in _outermost(spans, names))
        elif kind == "self":
            value = sum(own[s["id"]] for s in matching)
        elif kind == "peak":
            value = max((s["peak_mib"] for s in matching), default=0.0)
        elif kind == "calls":
            value = len(matching)
        else:
            seconds = sum(_duration(s) for s in _outermost(spans, names))
            value = sum(s["items"] for s in matching) / seconds if seconds > 0 else 0.0
        out[metric] = {"value": value, "unit": UNITS[kind]}
    return out


def unattributed(spans: list[dict], window: tuple[float, float]) -> float:
    """Time inside ``window`` not covered by a root span. The run is one
    thread, so the root spans' self times and their descendants' add up to
    the root durations, and what is left is benchmark glue."""
    lo, hi = window
    covered = sum(
        _duration(s) for s in spans if s["parent"] is None and lo <= s["start"] and s["end"] <= hi
    )
    return (hi - lo) - covered


def self_time_table(spans: list[dict], window: tuple[float, float]) -> list[tuple[str, int, float]]:
    """(span name, calls, summed self time) inside ``window``, largest first."""
    own = self_times(spans)
    lo, hi = window
    table: dict[str, list] = {}
    for s in spans:
        if lo <= s["start"] and s["end"] <= hi:
            row = table.setdefault(s["name"], [0, 0.0])
            row[0] += 1
            row[1] += own[s["id"]]
    return sorted(((n, c, t) for n, (c, t) in table.items()), key=lambda r: -r[2])
