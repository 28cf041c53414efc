"""Span tracing of trigrid's public functions, applied from outside the package.

A `Tracer` replaces each function named in `LAYERS` with a wrapper that
records one span per call: (layer, start, end, parent span index, run id).
The wrapper is installed in every `trigrid.*` module namespace that holds
the original object, so calls made through `from .x import f` aliases are
traced too.  Spans stay in memory until the benchmark writes them out.

Per-layer numbers are derived from spans: a layer's self time is each
span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time

# Layer name -> (module, attribute path) pairs whose calls it covers.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.spread_bits": (("core", "TriGrid.spread_bits"),),
    "core.set_from_coords": (("core", "VertexSet.__init__"),),
    "core.set_to_coords": (("core", "VertexSet.__iter__"), ("core", "VertexSet.to_pairs")),
    "ordering.packing_minimum": (("ordering", "packing_minimum"),),
    "ordering.segment": (("ordering", "initial_segment"), ("ordering", "final_segment")),
    "compress.scalar": (("compress", "compress_left"), ("compress", "compress_right")),
    "bulk.subsets_from_ids": (("bulk", "subsets_from_ids"),),
    "bulk.boundary_sizes": (("bulk", "boundary_sizes"),),
    "bulk.neighborhood_sizes": (("bulk", "neighborhood_sizes"),),
    "bulk.compress": (("bulk", "compress"),),
    "isoperimetry.exhaustive": (("isoperimetry", "exhaustive_min_boundary"),),
    "isoperimetry.sampled": (("isoperimetry", "sampled_check"),),
    "isoperimetry.certificate": (("isoperimetry", "lower_bound_certificate"),),
    "search.strategy": (("search", "three_stage_strategy"),),
    "search.verify": (("search", "verify_trace"),),
    "search.step": (("search", "step"),),
    "search.trace_io": (
        ("search", "SearchTrace.to_json"),
        ("search", "SearchTrace.to_json_obj"),
        ("search", "SearchTrace.from_json_obj"),
    ),
    "search.exact": (("search", "exact_inspection_number"),),
    "search.bounds_report": (("search", "inspection_bounds_report"),),
    "lions.strategy": (("lions", "column_sweep_strategy"),),
    "lions.lion_step": (("lions", "lion_step"),),
    "lions.couple": (("lions", "couple_to_search"), ("lions", "coupled_searches")),
    "lions.claim_check": (("lions", "claim_check"),),
    "lions.trace_io": (
        ("lions", "LionTrace.to_json"),
        ("lions", "LionTrace.to_json_obj"),
        ("lions", "LionTrace.from_json_obj"),
    ),
    "lions.exact": (("lions", "exact_lion_number"),),
    "cli.main": (("cli", "main"),),
}


def _bulk_rows(args) -> int:
    return len(args[1])


def _exhaustive_subsets(args) -> int:
    return 1 << args[0].vertex_count


# Work counted per call, for the rate metrics: layer -> (rate name, counter).
WORK = {
    "bulk.subsets_from_ids": ("bulk.rows_per_s", _bulk_rows),
    "bulk.boundary_sizes": ("bulk.rows_per_s", _bulk_rows),
    "bulk.neighborhood_sizes": ("bulk.rows_per_s", _bulk_rows),
    "bulk.compress": ("bulk.rows_per_s", _bulk_rows),
    "isoperimetry.exhaustive": ("isoperimetry.exhaustive.subsets_per_s", _exhaustive_subsets),
}


def _materialize_coords(args: tuple) -> tuple:
    """Consume a lazy `coords` argument of VertexSet(grid, coords) up front.

    Callers such as initial_segment pass generators that compute each
    coordinate as VertexSet.__init__ pulls it; consuming them before the
    span opens leaves that work in the caller's layer.
    """
    if len(args) > 2 and iter(args[2]) is args[2]:
        return (*args[:2], list(args[2]), *args[3:])
    return args


OVERHEAD = "trace_overhead_ratio"


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run reports, in BENCHMARK.json form."""
    spec = []
    for layer in LAYERS:
        spec.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for rate in dict.fromkeys(name for name, _ in WORK.values()):
        spec.append({"name": rate, "unit": "1/s", "better": "higher"})
    spec.append({"name": OVERHEAD, "unit": "ratio", "better": "lower"})
    return spec


class Tracer:
    """Installs span-recording wrappers on a trigrid package while entered.

    `spans` holds (layer, start, end, parent, run_id) tuples; parent is the
    index of the enclosing traced span, or -1.  `work[layer]` sums the work
    counter of each call of a layer listed in WORK.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.work: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, layer: str, fn):
        """fn with each call recorded as a span of `layer`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = WORK.get(layer, (None, None))[1]
        materialize = layer == "core.set_from_coords"
        # A generator's body runs after the call returns; consuming it
        # inside the span keeps its time in this layer.
        eager = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize:
                args = _materialize_coords(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.run_id)
                if count is not None:
                    self.work[layer] = self.work.get(layer, 0) + count(args)

        return traced

    def __enter__(self) -> "Tracer":
        prefix = self.package.__name__
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        try:
            for layer, targets in LAYERS.items():
                for module_name, path in targets:
                    self._patch(layer, sys.modules[f"{prefix}.{module_name}"], path, modules)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch(self, layer: str, module, path: str, modules: list) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(layer, raw.__func__))
            else:
                wrapped = self.wrap(layer, raw)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(module, path)
        wrapped = self.wrap(layer, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for layer, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([layer, start, end, parent, run_id]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, so overlapping or overhanging
    child spans are never subtracted twice or beyond the parent.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for layer, start, end, parent, run_id in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (layer, start, end, parent, run_id), kids in zip(spans, children):
        covered = 0.0
        cursor = start
        for a, b in sorted(kids):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics: median calls and self time per traced pass, rates
    over all traced passes, and the median ratio of a traced pass's time to
    the untraced pass run next to it."""
    passes = sorted({s[4] for s in tracer.spans})
    calls = {(layer, r): 0 for layer in LAYERS for r in passes}
    self_s = {(layer, r): 0.0 for layer in LAYERS for r in passes}
    inclusive: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer, start, end, _, run_id = span
        if layer not in LAYERS:
            continue
        calls[layer, run_id] += 1
        self_s[layer, run_id] += own
        inclusive[layer] = inclusive.get(layer, 0.0) + (end - start)

    def median_over_passes(table, layer):
        return statistics.median(table[layer, r] for r in passes) if passes else 0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": median_over_passes(calls, layer), "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": median_over_passes(self_s, layer), "unit": "s"}
    rates: dict[str, list[float]] = {}
    for layer, (rate, _) in WORK.items():
        done, busy = rates.setdefault(rate, [0, 0.0])
        rates[rate] = [done + tracer.work.get(layer, 0), busy + inclusive.get(layer, 0.0)]
    for rate, (done, busy) in rates.items():
        metrics[rate] = {"value": done / busy if busy > 0 else 0.0, "unit": "1/s"}
    overhead = statistics.median(t / u for t, u in zip(traced_walls, untraced_walls))
    metrics[OVERHEAD] = {"value": overhead, "unit": "ratio"}
    return metrics
