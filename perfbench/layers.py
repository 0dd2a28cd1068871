"""Which entry points the traced run wraps, and the per-layer metrics from its spans.

Spans are named ``<layer>.<entry point>``; the layers are the program's
packages (``sql``, ``optimizer``, ``executor``, ``encoding``, ``ml``,
``lqo``, ``runtime``, ``storage``).  ``TreeConvolutionEncoder`` lives in
``repro.ml`` but encodes plans, so its span counts as ``encoding``.
"""

from __future__ import annotations

from perfbench.stats import ratio
from perfbench.trace import END, ERROR, NAME, PARENT, START, TAG, Tracer, aggregate

#: Methods of the LQO sweep, in the order their per-method metrics appear.
METHODS = ("postgres", "neo", "balsa")

#: Layers whose self time the traced run reports.
LAYERS = ("sql", "optimizer", "executor", "encoding", "ml", "lqo", "runtime", "storage")

#: Every per-layer metric with its unit; every workload reports all of them
#: (0 where the workload does not reach the layer).
PER_LAYER = {
    "sql.bind_ms": "ms",
    "optimizer.plan_ms": "ms",
    "optimizer.plan_calls": "count",
    "optimizer.plan_dp_ms": "ms",
    "optimizer.plan_geqo_ms": "ms",
    "optimizer.best_join_calls": "count",
    "optimizer.best_join_ms": "ms",
    "runtime.plan_cache.hit_ratio": "ratio",
    "runtime.plan_cache.requests": "count",
    "runtime.plan_cache.evictions": "count",
    "runtime.plan_cache.invalidations": "count",
    "runtime.planserver.server_p50_ms": "ms",
    "runtime.planserver.server_p99_ms": "ms",
    "runtime.planserver.planned": "count",
    "runtime.planserver.rejected": "count",
    "runtime.planclient.wait_ms": "ms",
    "runtime.netqueue.response_bytes": "bytes",
    "executor.execute_ms": "ms",
    "executor.execute_calls": "count",
    "executor.rows_out": "count",
    "executor.memory_errors": "count",
    "storage.buffer_pool.hit_ratio": "ratio",
    "storage.buffer_pool.accesses": "count",
    "storage.buffer_pool.misses": "count",
    "encoding.encode_plan_ms": "ms",
    "ml.fit_ms": "ms",
    "ml.predict_ms": "ms",
    **{f"lqo.{m}.{k}": u for m in METHODS for k, u in
       (("fit_ms", "ms"), ("plan_query_ms", "ms"), ("training_plans", "count"))},
    "runtime.parallel.task_s": "s",
    "runtime.parallel.idle_s": "s",
    "runtime.result_store.save_ms": "ms",
    "storage.registry.build_s": "s",
    "loadgen.late_ms": "ms",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _pool_counts(args: tuple) -> tuple[int, int, str]:
    stats = args[0].database.buffer_pool.stats
    return stats.hits, stats.misses, args[1].name or ""


def _execute_tag(args: tuple, result, before: tuple[int, int, str]) -> list:
    hits, misses, query = _pool_counts(args)
    return [result.row_count, hits - before[0], misses - before[1], query, result.timed_out]


def _cache_counts(args: tuple) -> tuple[int, int, int, int]:
    stats = args[0].plan_cache.stats
    return stats.hits, stats.misses, stats.evictions, stats.invalidations


def _plan_tag(args: tuple, result, before: tuple) -> list:
    after = _cache_counts(args)
    return [result.strategy, *(a - b for a, b in zip(after, before))]


def install_in_process(tracer: Tracer) -> None:
    """Wrap the entry points the LQO sweep and JOB execution go through."""
    from repro.executor.engine import ExecutionEngine
    from repro.lqo.neo import NeoOptimizer
    from repro.lqo.postgres_baseline import PostgresBaseline
    from repro.ml.nn import MLPRegressor
    from repro.ml.tree_models import TreeConvolutionEncoder
    from repro.runtime.result_store import ResultStore

    install_planning(tracer)
    tracer.install(ExecutionEngine, "execute", "executor.execute", before=_pool_counts, tag=_execute_tag)
    tracer.install(TreeConvolutionEncoder, "encode_plan", "encoding.encode_plan")
    tracer.install(MLPRegressor, "fit", "ml.fit")
    tracer.install(MLPRegressor, "predict", "ml.predict")
    for cls in (PostgresBaseline, NeoOptimizer):
        tracer.install(cls, "fit", lambda a: f"lqo.{a[0].name}.fit",
                       tag=lambda a, report, _: report.executed_plans)
        tracer.install(cls, "plan_query", lambda a: f"lqo.{a[0].name}.plan_query")
    tracer.install(ResultStore, "save", "runtime.result_store.save")


def install_planning(tracer: Tracer) -> None:
    """Wrap binding, planning and database materialization (also in the plan server)."""
    from repro.optimizer.cost_model import CostModel
    from repro.optimizer.planner import Planner
    from repro.runtime import planserver
    from repro.sql import binder
    from repro.storage.registry import DatabaseRegistry

    tracer.install(binder, "bind_sql", "sql.bind_sql")
    tracer.install(planserver, "bind_sql", "sql.bind_sql")
    tracer.install(Planner, "plan_with_info", "optimizer.plan_with_info", before=_cache_counts, tag=_plan_tag)
    tracer.install(CostModel, "best_join", "optimizer.best_join")
    tracer.install(DatabaseRegistry, "get", "storage.registry.get")


def span_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics derivable from spans alone (the rest stay 0)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    agg = aggregate(spans)
    for layer, self_s in agg["layers"].items():
        if f"layer.{layer}.self_s" in out:
            out[f"layer.{layer}.self_s"] = self_s
    cache = [0, 0, 0, 0]
    pool = [0, 0]
    for span in spans:
        name, ms = span[NAME], (span[END] - span[START]) * 1000.0
        tag = span[TAG]
        if name == "sql.bind_sql":
            out["sql.bind_ms"] += ms
        elif name == "optimizer.plan_with_info":
            out["optimizer.plan_ms"] += ms
            out["optimizer.plan_calls"] += 1
            if span[ERROR] is None and tag is not None:
                strategy = tag[0]
                if strategy == "geqo":
                    out["optimizer.plan_geqo_ms"] += ms
                elif strategy == "dynamic-programming":
                    out["optimizer.plan_dp_ms"] += ms
                cache = [c + d for c, d in zip(cache, tag[1:])]
        elif name == "optimizer.best_join":
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] != "optimizer.plan_with_info":
                out["optimizer.best_join_calls"] += 1
                out["optimizer.best_join_ms"] += ms
        elif name == "executor.execute":
            out["executor.execute_ms"] += ms
            out["executor.execute_calls"] += 1
            if span[ERROR] == "MemoryError":
                out["executor.memory_errors"] += 1
            if span[ERROR] is None and tag is not None:
                out["executor.rows_out"] += tag[0]
                pool[0] += tag[1]
                pool[1] += tag[2]
        elif name == "encoding.encode_plan":
            out["encoding.encode_plan_ms"] += ms
        elif name == "ml.fit":
            out["ml.fit_ms"] += ms
        elif name == "ml.predict":
            out["ml.predict_ms"] += ms
        elif name.startswith("lqo.") and name.count(".") == 2:
            _, method, entry = name.split(".")
            key = f"lqo.{method}.{entry}_ms"
            if key in out:
                out[key] += ms
                if entry == "fit" and span[ERROR] is None and tag is not None:
                    out[f"lqo.{method}.training_plans"] += tag
        elif name == "runtime.result_store.save":
            out["runtime.result_store.save_ms"] += ms
        elif name == "storage.registry.get":
            out["storage.registry.build_s"] += ms / 1000.0
    hits, misses, evictions, invalidations = cache
    out["runtime.plan_cache.hit_ratio"] = ratio(hits, hits + misses)
    out["runtime.plan_cache.requests"] = hits + misses
    out["runtime.plan_cache.evictions"] = evictions
    out["runtime.plan_cache.invalidations"] = invalidations
    accesses = pool[0] + pool[1]
    out["storage.buffer_pool.hit_ratio"] = ratio(pool[0], accesses)
    out["storage.buffer_pool.accesses"] = accesses
    out["storage.buffer_pool.misses"] = pool[1]
    return out


def layer_shares(metrics: dict[str, float]) -> str:
    """``optimizer 81% (12.3 s), ...`` of the traced wall time, largest first."""
    wall = metrics["trace.wall_s"]
    parts = sorted(((metrics[f"layer.{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
    return ", ".join(
        f"{layer} {ratio(value, wall):.1%} ({value:.3g} s)" for value, layer in parts if value > 0
    ) + f" of {wall:.3g} s traced"

