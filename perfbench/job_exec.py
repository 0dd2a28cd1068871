"""Workload ``job-exec``: the 113 JOB queries under the paper's execution protocol.

IMDB at scale 1.0, single-threaded execution: every query is measured with
``ExecutionProtocol.measure_plan`` (drop the caches, run three times) using
the PostgreSQL baseline's plans, which set-up builds once.  Scale 1.0 is the
largest scale at which all baseline plans finish; at 1.5 and 2.0 the plans of
24a and 31a-c ask for 4-295 GiB.

Set-up plans the workload on two forked processes (planning is twenty
seconds of single-core work otherwise; forked rather than spawned, because
a spawned pool starts multiprocessing's resource tracker, which outlives the
benchmark) and runs one untimed pass (the first
pass in a process is a quarter slower than the rest); the timed region repeats whole
passes over the queries for about the run's seconds, timing each query's
protocol call (the number of passes follows from the seconds, not from the clock,
so every run measures the same queries).  Afterwards, outside the timed region, every plan runs again on the
columnar engine and on the row engine (the oracle) under the same protocol:
rows, operator metrics, per-node row counts and simulated times must match
byte for byte, and the simulated times must equal those of the timed region.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

from perfbench.common import Outcome, SpeedProbe, cpu_s, peak_rss_mb
from perfbench.layers import PER_LAYER, install_in_process, install_planning, layer_shares, span_metrics
from perfbench.stats import describe, summarize
from perfbench.trace import Tracer, concat

#: Database scale factor.
SCALE = 1.0

#: Processes that plan the workload during set-up.
PLANNERS = 2

#: Nominal seconds of one pass: a run makes ``seconds / PASS_S`` passes, so
#: that the number of measured queries does not depend on the machine's speed.
PASS_S = 0.8

#: Seed of the timing model's measurement noise at the start of every pass
#: (and of the oracle's engines), so that simulated times are comparable.
NOISE_SEED = 2024


def _spec(scale: float):
    from repro.config import SIMULATION_CONFIG
    from repro.storage.spec import DatabaseSpec

    return DatabaseSpec.create("imdb", scale=scale, seed=42, config=SIMULATION_CONFIG)


def plan_queries(scale: float, part: int, traced: bool) -> tuple[dict, list[list]]:
    """Plan every ``PLANNERS``-th query from the ``part``-th on with the baseline planner.

    Runs in a set-up process.  Returns the planner results by query id and,
    when ``traced``, the spans of the planning calls.
    """
    from repro.optimizer.planner import Planner
    from repro.storage.registry import get_process_registry
    from repro.workloads import build_job_workload

    tracer = Tracer()
    if traced:
        install_planning(tracer)
    try:
        database = get_process_registry().get(_spec(scale))
        workload = build_job_workload(database.schema)
        planner = Planner(database)
        query_ids = workload.query_ids()[part::PLANNERS]
        plans = {qid: planner.plan_with_info(workload.by_id(qid).bound) for qid in query_ids}
    finally:
        tracer.uninstall()
    return plans, tracer.snapshot()


def set_up(scale: float, traced: bool) -> tuple[object, object, dict, list[list]]:
    """Build the database and plan every query (the planning processes have ended on return).

    The planning processes fork before this process builds its database, so
    that they do not inherit its pages.
    """
    from repro.storage.registry import DatabaseRegistry
    from repro.workloads import build_job_workload

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=PLANNERS, mp_context=context) as pool:
        futures = [pool.submit(plan_queries, scale, part, traced) for part in range(PLANNERS)]
        database = DatabaseRegistry().get(_spec(scale))
        workload = build_job_workload(database.schema)
        parts = [future.result() for future in futures]
    plans = {qid: result for part_plans, _ in parts for qid, result in part_plans.items()}
    return database, workload, plans, concat(*(part_spans for _, part_spans in parts))


def warm_up(protocol, workload, plans: dict) -> None:
    """One untimed pass, so that lazy initialization is done before timing starts."""
    for query in workload.queries:
        protocol.measure_plan(query.bound, plans[query.query_id].plan)


def timed_passes(protocol, workload, plans: dict, seconds: float, outcome: Outcome, probe: SpeedProbe) -> dict:
    """``seconds / PASS_S`` whole passes over the workload (at least one).

    Each query's protocol call is timed in wall and in thread CPU time.  The
    speed is probed in this thread before and after every pass;
    :func:`normalize` then adds the speed-normalized figures.
    """
    last_times: dict[str, list[float]] = {}
    windows = []
    passes = max(1, round(seconds / PASS_S))
    probe.sample()
    for _ in range(passes):
        protocol.engine.timing.reseed(NOISE_SEED)
        wall_ms: list[float] = []
        cpu_ms: list[float] = []
        started, cpu_started = time.perf_counter(), time.thread_time()
        for query in workload.queries:
            outcome.attempted += 1
            begin, cpu_begin = time.perf_counter(), time.thread_time()
            try:
                measured = protocol.measure_plan(query.bound, plans[query.query_id].plan)
            except MemoryError:
                outcome.failed += 1
                continue
            cpu_ms.append((time.thread_time() - cpu_begin) * 1000.0)
            wall_ms.append((time.perf_counter() - begin) * 1000.0)
            last_times[query.query_id] = measured.execution_times_ms
        windows.append({"started": started, "ended": time.perf_counter(), "cpu_s": time.thread_time() - cpu_started,
                        "wall_ms": wall_ms, "cpu_ms": cpu_ms})
        probe.sample()
    return {"windows": windows, "passes": passes, "times": last_times}


def normalize(region: dict, probe: SpeedProbe) -> None:
    """Add a region's totals and latencies: measured wall time, and CPU time divided by each pass's speed factor.

    The normalized figures (``norm_*``) count CPU time, because when the
    host gives the benchmark only part of a core for a while, wall times
    stretch and the speed probe, which counts CPU time, does not see it.
    """
    region.update(wall_s=0.0, norm_cpu_s=0.0, latencies_ms=[], cpu_latencies_ms=[], norm_latencies_ms=[], factors=[])
    for window in region["windows"]:
        factor = probe.factor(window["started"], window["ended"])
        region["factors"].append(factor)
        region["cpu_latencies_ms"] += window["cpu_ms"]
        region["wall_s"] += window["ended"] - window["started"]
        region["norm_cpu_s"] += window["cpu_s"] / factor
        region["latencies_ms"] += window["wall_ms"]
        region["norm_latencies_ms"] += [ms / factor for ms in window["cpu_ms"]]


def check_oracle(outcome: Outcome, database, workload, plans: dict, times: dict) -> None:
    """Columnar results equal the row engine's, and the last pass's simulated times.

    The engines replay the last pass in its order from the same noise seed,
    so their simulated times must equal that pass's exactly.
    """
    from repro.executor.engine import create_engine

    engines = {kind: create_engine(database, database.config, kind=kind) for kind in ("row", "columnar")}
    for engine in engines.values():
        engine.timing.reseed(NOISE_SEED)
    mismatched = []
    for query in workload.queries:
        plan = plans[query.query_id].plan
        outputs = {}
        for kind, engine in engines.items():
            database.drop_caches()
            runs = [engine.execute(query.bound, plan) for _ in range(3)]
            outputs[kind] = pickle.dumps([(r.rows, r.row_count, r.execution_time_ms, r.metrics,
                                           r.node_actual_rows, r.timed_out, r.error) for r in runs])
            if kind == "columnar" and query.query_id in times:
                outcome.check([r.execution_time_ms for r in runs] == times[query.query_id],
                              f"{query.query_id}: simulated times differ from the timed region")
        if outputs["row"] != outputs["columnar"]:
            mismatched.append(query.query_id)
    outcome.check(not mismatched, f"columnar differs from the row oracle on {mismatched}")
    outcome.note(f"oracle: {len(workload.queries) - len(mismatched)}/{len(workload.queries)} queries "
                 "byte-identical to the row engine")


def run(seed: int, seconds: float, outcome: Outcome, scale: float = SCALE) -> None:
    """Untraced run.  The workload is fixed; ``seed`` does not change it.

    ``setup_s`` is the CPU time of set-up and warm-up pass in this process
    and the planning processes, speed-normalized.
    """
    from repro.core.execution_protocol import ExecutionProtocol

    probe = SpeedProbe()
    with probe.background():
        cpu_before, started = cpu_s(), time.perf_counter()
        database, workload, plans, _ = set_up(scale, traced=False)
        protocol = ExecutionProtocol(database)
        warm_up(protocol, workload, plans)
        setup_cpu, ended = cpu_s() - cpu_before, time.perf_counter()
    setup_speed = probe.factor(started, ended)
    region = timed_passes(protocol, workload, plans, seconds, outcome, probe)
    normalize(region, probe)
    check_oracle(outcome, database, workload, plans, region["times"])
    raw = summarize(region["latencies_ms"])
    summary = summarize(region["norm_latencies_ms"])
    count = len(region["latencies_ms"])
    outcome.put("setup_s", setup_cpu / setup_speed, "s")
    outcome.put("ops_per_s", count / region["norm_cpu_s"], "1/s")
    outcome.put("latency_p50_ms", summary["p50"], "ms")
    outcome.put("latency_tail_ms", summary["tail"], "ms")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.note(f"job-exec: {region['passes']} passes of {len(workload.queries)} queries in "
                 f"{region['wall_s']:.3f} s ({count / region['wall_s']:.2f} queries/s measured); "
                 f"per query {describe(raw)} measured, {describe(summary)} normalized CPU time")
    outcome.note(f"CPU time per query p50 {summarize(region['cpu_latencies_ms'])['p50']:.4g} ms unnormalized; "
                 f"pass speed factors {', '.join(f'{f:.3f}' for f in region['factors'])}")
    outcome.note(f"set-up: {ended - started:.3f} s measured, {setup_cpu:.3f} CPU s at speed factor {setup_speed:.3f}")
    outcome.details["latencies_ms"] = region["latencies_ms"]


def run_traced(seed: int, seconds: float, outcome: Outcome, scale: float = SCALE) -> None:
    """Traced run: half the seconds untraced, half traced; the gap is the overhead."""
    from repro.core.execution_protocol import ExecutionProtocol

    database, workload, plans, setup_spans = set_up(scale, traced=True)
    protocol = ExecutionProtocol(database)
    warm_up(protocol, workload, plans)
    tracer = Tracer()
    probe = SpeedProbe()
    plain = timed_passes(protocol, workload, plans, seconds / 2, outcome, probe)
    install_in_process(tracer)
    try:
        traced = timed_passes(protocol, workload, plans, seconds / 2, outcome, probe)
    finally:
        tracer.uninstall()
    normalize(plain, probe)
    normalize(traced, probe)
    check_oracle(outcome, database, workload, plans, traced["times"])
    region_spans = tracer.snapshot()
    metrics = span_metrics(concat(setup_spans, region_spans))
    region = span_metrics(region_spans)
    metrics.update({key: value for key, value in region.items() if key.startswith("layer.")})
    per_query = [r["norm_cpu_s"] / len(r["latencies_ms"]) for r in (plain, traced)]
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_ratio"] = per_query[1] / per_query[0] - 1.0
    for name, value in metrics.items():
        outcome.put(name, value, PER_LAYER[name])
    outcome.note("timed-region self time: " + layer_shares(metrics))
    outcome.note(f"tracing overhead {metrics['trace.overhead_ratio']:+.1%} per query, speed-normalized "
                 f"({per_query[0] * 1000:.3f} ms untraced)")
    outcome.note(f"buffer pool hit ratio {metrics['storage.buffer_pool.hit_ratio']:.4f} "
                 f"of {metrics['storage.buffer_pool.accesses']:.0f} page accesses")
