"""In-memory spans and counters for the benchmark's traced run.

The tracer replaces a callable attribute of a module, class or dict with a
wrapper that records one span per call: its name, an optional tag, start,
end and parent span (per thread).  Counts are taken by the same wrapper
from the call's arguments and result, so each ratio is measured where the
work happens.  Nothing is written until the run ends.

:func:`install` wraps the public entry points the workloads call, and
:func:`layer_metrics` turns the recorded spans into the per-layer metrics
named in ``BENCHMARK.json``.  A layer's time is the self time of its spans:
each span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: The 17 registered experiments, each with an ``experiments.<name>.s`` metric.
EXPERIMENTS = (
    "bandwidth_sweep", "fig03", "fig04", "fig05", "fig06", "fig07", "fig09", "fig10",
    "fig15", "fig16", "fig17", "fig18", "fig19", "recovery", "table2", "table3", "table4",
)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        # (name, tag, start, end, parent index or -1)
        self.spans: list[tuple[str, object, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = True
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list[int]:
        """Indices of the spans open on the calling thread, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    @contextmanager
    def span(self, name: str, tag=None):
        if not self.active:
            yield
            return
        stack = self.stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, tag, 0.0, 0.0, parent))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, tag, start, end, parent)

    def wrap(self, owner, attr: str, name: str, on_result=None, tag=None) -> None:
        """Record a span around every call of ``owner.attr`` (or ``owner[attr]``).

        ``on_result(args, result)`` adds counts after the call; ``tag(args)``
        labels the span.  Static methods keep their calling convention.
        """
        if isinstance(owner, dict):
            raw = owner[attr]
        elif isinstance(owner, type):
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            with tracer.span(name, tag(args) if tag is not None else None):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper = staticmethod(traced) if is_static else traced
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """JSON-safe aggregate: self seconds per span name, and the counters."""
        self_s: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            self_s[name] += own
        return {"self_s": dict(self_s), "counts": dict(self.counts)}


def merge_summaries(a: dict, b: dict) -> dict:
    """Sum two :meth:`Tracer.summary` results (benchmark and server process)."""
    out = {}
    for part in ("self_s", "counts"):
        merged: dict[str, float] = defaultdict(float)
        for source in (a, b):
            for key, value in source.get(part, {}).items():
                merged[key] += value
        out[part] = dict(merged)
    return out


# ----------------------------------------------------------------------
# Wrapping the layers' public entry points
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the entry points any workload calls (the server's included)."""
    import repro.core.strategies as strategies_mod
    import repro.experiments.engine as engine_mod
    import repro.experiments.fig19 as fig19_mod
    import repro.experiments.recovery as recovery_mod
    import repro.experiments.registry as registry_mod
    import repro.experiments.table2 as table2_mod
    import repro.hw.workload as workload_mod
    import repro.metrics.image as image_mod
    import repro.pipeline.renderer as renderer_mod
    from repro.core.reuse_update import ReuseUpdateSorter
    from repro.hw.system import SystemModel
    from repro.runtime.cache import ResultCache

    count = tracer.count

    def raster_counts(args, raster):
        count("raster.blend_ops", raster.stats.blend_ops)
        count("raster.subtile_tests", raster.stats.subtile_tests)
        count("raster.subtile_hits", raster.stats.subtile_hits)

    def neo_sort_counts(args, sorted_tiles):
        stats = args[0].frame_stats[-1]
        count("neo.entries_reordered", stats.entries_reordered)
        count("neo.incoming_entries", stats.incoming_entries)
        count("neo.deleted_entries", stats.deleted_entries)
        count("neo.table_entries", stats.table_entries_after)
        count("neo.table_bytes", stats.traffic.total_bytes)

    def cell_batch_counts(args, batch):
        # Only the engine's own pass counts: a sweep inside a
        # whole-experiment task runs an execute_cells of its own.
        if not any(tracer.spans[i][0] == "experiments.execute_cells" for i in tracer.stack()):
            count("engine.requested", batch.requested)
            count("engine.unique", batch.unique)

    def traced_plan(factory, name):
        def make(*args, **kwargs):
            plan = factory(*args, **kwargs)
            aggregate = plan.aggregate

            def traced_aggregate(cells):
                with tracer.span("experiments.aggregate", name):
                    return aggregate(cells)

            return dataclasses.replace(plan, aggregate=traced_aggregate)

        return make

    tracer.wrap(renderer_mod.Renderer, "render", "frame")
    for mod in (renderer_mod, workload_mod):
        tracer.wrap(mod, "frustum_cull", "pipeline.culling")
        tracer.wrap(mod, "project_gaussians", "pipeline.projection",
                    on_result=lambda a, p: count("projection.visible", len(p)))
    tracer.wrap(renderer_mod, "assign_to_tiles", "pipeline.tiling",
                on_result=lambda a, t: count("tiling.pairs", t.num_pairs))
    for mod in (renderer_mod, strategies_mod):
        tracer.wrap(mod, "sort_tiles", "pipeline.sorting",
                    on_result=lambda a, s: count("sorting.pairs", s.num_pairs))
    tracer.wrap(renderer_mod, "rasterize", "pipeline.rasterizer", on_result=raster_counts)
    tracer.wrap(ReuseUpdateSorter, "sort_frame", "strategy.sort_frame", on_result=neo_sort_counts)
    tracer.wrap(ReuseUpdateSorter, "observe_raster", "strategy.observe_raster")

    tracer.wrap(workload_mod.WorkloadModel, "from_render", "hw.workload.capture")
    for query in ("scaled_geometry", "frame_stream", "frame_workload", "sequence_workloads",
                  "shared_fraction_per_tile", "order_differences"):
        tracer.wrap(workload_mod.WorkloadModel, query, "hw.workload.query")
    tracer.wrap(SystemModel, "simulate", "hw.system.simulate",
                on_result=lambda a, report: count("system.frames", len(report.frames)))

    tracer.wrap(engine_mod, "execute_cells", "experiments.execute_cells",
                on_result=cell_batch_counts)
    tracer.wrap(engine_mod.SimJob, "simulate", "experiments.cell", tag=lambda a: a[0])
    for name in list(registry_mod.EXPERIMENTS):
        tracer.wrap(registry_mod.EXPERIMENTS, name, "experiments.task", tag=lambda a, n=name: n)
    for name in list(registry_mod.PLANS):
        registry_mod.PLANS[name] = traced_plan(registry_mod.PLANS[name], name)

    tracer.wrap(ResultCache, "get", "runtime.cache.get",
                on_result=lambda a, v: count("cache.hits" if v is not None else "cache.misses"))
    tracer.wrap(ResultCache, "put", "runtime.cache.put",
                on_result=lambda a, path: count("cache.bytes_written", os.path.getsize(path)))

    for mod in (image_mod, table2_mod, recovery_mod, fig19_mod):
        for fn in ("mse", "psnr", "ssim", "lpips_proxy", "quality_report"):
            if hasattr(mod, fn):
                tracer.wrap(mod, fn, "metrics.image")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def experiment_charges(tracer: Tracer, declared: dict[str, set]) -> tuple[dict[str, float], dict]:
    """Seconds charged to each experiment, plus the engine's cell-pass figures.

    Each experiment gets its whole-experiment task and aggregate spans, and
    the duration of every cell it declared; a cell declared by several
    experiments is split evenly among them.  Only the cells of the engine's
    own ``execute_cells`` pass are charged: a sweep nested inside a task is
    already inside that task's span.
    """
    declarers: dict[object, list[str]] = defaultdict(list)
    for name, jobs in declared.items():
        for job in jobs:
            declarers[job].append(name)
    passes = {
        i for i, (name, _, _, _, parent) in enumerate(tracer.spans)
        if name == "experiments.execute_cells" and parent == -1
    }
    charges = {name: 0.0 for name in EXPERIMENTS}
    cell_s = 0.0
    cells = 0
    for name, tag, start, end, parent in tracer.spans:
        if name == "experiments.cell" and parent in passes:
            cell_s += end - start
            cells += 1
            owners = declarers.get(tag) or []
            for owner in owners:
                charges[owner] += (end - start) / len(owners)
        elif name in ("experiments.task", "experiments.aggregate"):
            charges[tag] = charges.get(tag, 0.0) + end - start
    return charges, {"cell_pass_s": cell_s, "cells_simulated": cells}


def layer_metrics(summary: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric from a trace summary plus workload-level figures.

    ``extra`` carries what the spans alone cannot give: the experiment
    charges, the service's reply and ``stats`` figures, and the traced and
    untraced CPU times.  A layer a workload never calls reads 0.
    """
    s = defaultdict(float, summary.get("self_s", {}))
    c = defaultdict(float, summary.get("counts", {}))
    x = defaultdict(float, extra)
    sort_s = s["strategy.sort_frame"]
    observe_s = s["strategy.observe_raster"]
    metrics = {
        "pipeline.rasterizer.s": s["pipeline.rasterizer"],
        "pipeline.rasterizer.blend_ops": c["raster.blend_ops"],
        "pipeline.rasterizer.ns_per_blend_op": _ratio(s["pipeline.rasterizer"], c["raster.blend_ops"], 1e9),
        "pipeline.rasterizer.subtile_hit_ratio": _ratio(c["raster.subtile_hits"], c["raster.subtile_tests"]),
        "core.reuse_update.sort_frame_s": sort_s,
        "core.reuse_update.observe_raster_s": observe_s,
        "core.reuse_update.entries_reordered": c["neo.entries_reordered"],
        "core.reuse_update.incoming_entries": c["neo.incoming_entries"],
        "core.reuse_update.deleted_entries": c["neo.deleted_entries"],
        "core.reuse_update.reuse_fraction": (
            1.0 - _ratio(c["neo.incoming_entries"], c["neo.table_entries"])
            if c["neo.table_entries"] else 0.0
        ),
        "core.reuse_update.ns_per_entry": _ratio(sort_s + observe_s, c["neo.table_entries"], 1e9),
        "core.reuse_update.table_bytes": c["neo.table_bytes"],
        "pipeline.culling.s": s["pipeline.culling"],
        "pipeline.projection.s": s["pipeline.projection"],
        "pipeline.projection.visible": c["projection.visible"],
        "pipeline.tiling.s": s["pipeline.tiling"],
        "pipeline.tiling.pairs": c["tiling.pairs"],
        "pipeline.sorting.s": s["pipeline.sorting"],
        "pipeline.sorting.ns_per_pair": _ratio(s["pipeline.sorting"], c["sorting.pairs"], 1e9),
        "hw.workload.capture_s": s["hw.workload.capture"],
        "hw.workload.query_s": s["hw.workload.query"],
        "hw.system.simulate_s": s["hw.system.simulate"],
        "hw.system.frames_simulated": c["system.frames"],
        "hw.system.ns_per_frame": _ratio(s["hw.system.simulate"], c["system.frames"], 1e9),
        "experiments.engine.cell_pass_s": x["cell_pass_s"],
        "experiments.engine.cells_simulated": x["cells_simulated"],
        "experiments.engine.cells_deduplicated": c["engine.requested"] - c["engine.unique"],
        "experiments.engine.own_s": x["engine_own_s"],
    }
    for name in EXPERIMENTS:
        metrics[f"experiments.{name}.s"] = x[f"experiments.{name}.s"]
    cache_gets = c["cache.hits"] + c["cache.misses"]
    metrics.update({
        "runtime.cache.get_s": s["runtime.cache.get"],
        "runtime.cache.put_s": s["runtime.cache.put"],
        "runtime.cache.hit_ratio": _ratio(c["cache.hits"], cache_gets),
        "runtime.cache.bytes_written": c["cache.bytes_written"],
        "metrics.image.s": s["metrics.image"],
        "service.server.handle_ms_p50": x["handle_ms_p50"],
        "service.server.outside_ms_p50": x["outside_ms_p50"],
        "service.server.executions": x["executions"],
        "service.server.cache_hits": x["cache_hits"],
        "trace.overhead_s": x["traced_cpu_s"] - x["untraced_cpu_s"],
        "trace.frame_coverage": x["frame_coverage"],
    })
    return metrics
