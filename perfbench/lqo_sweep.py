"""Workload ``lqo-sweep``: the Figure-4 method x split grid as researchers run it.

Methods ``postgres``, ``neo`` and ``balsa`` each train and evaluate on one
split of every sampling (leave-one-out, random, base-query; split seed
``SPLIT_SEED``) through ``ParallelExperimentRunner`` on a two-worker process
pool writing a ``ResultStore``, with the reduced optimizer settings of
``benchmarks/bench_figure4_job_end_to_end.py``.

The grid runs on IMDB at scale 0.35 over a fixed JOB subset, every second
query family with its first two variants (17 families, 34 queries, up to 17
relations), so that one grid takes about twenty seconds on two cores; the
full 113-query grid takes a minute and its traced serial run would not fit
one benchmark run.  The subset is registered as its own workload so pool
workers rebuild it by name.  Cells are submitted longest first (the learned
methods before the baseline, larger training sets first), which keeps the
pool's makespan insensitive to which worker happens to pick which cell.

A cell fails when its run raises, for example ``MemoryError`` from a join
that the process's address-space cap refuses; the pool keeps going and the
cell is missing from the store.  Failed cells count in ``failed``.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench.common import OUT, Outcome, SpeedProbe, cpu_s, peak_rss_mb, stopwatch
from perfbench.layers import METHODS, PER_LAYER, install_in_process, layer_shares, span_metrics
from perfbench.stats import describe, summarize
from perfbench.trace import END, ERROR, NAME, PARENT, START, TAG, TRACE, Tracer

#: Database scale factor of the sweep.
SCALE = 0.35

#: Every how many JOB families the subset keeps.
FAMILY_STEP = 2

#: Pool workers (the benchmark targets two-core machines).
WORKERS = 2

#: Split samplings, in grid order.
SAMPLINGS = ("leave_one_out", "random", "base_query")

#: Seed of the splits.  Fixed, like the paper's splits: with the split seed
#: following the workload seed, the work of one grid moved by a quarter from
#: seed to seed (which families a split holds out, which cells hit the memory
#: cap), more than any bound on the sweep's metrics could tolerate.
SPLIT_SEED = 0

#: The reduced optimizer settings of the Figure-4 pytest benchmark.
OPTIMIZER_KWARGS = {
    "bao": {"training_passes": 1},
    "neo": {"training_iterations": 1},
    "balsa": {"training_iterations": 1},
    "hybridqo": {"mcts_iterations": 15},
}

#: Nominal seconds of one grid: a run makes ``seconds / GRID_S`` grids, at
#: least one, so the cells a run attempts do not depend on the machine's speed.
GRID_S = 25.0

#: Seconds between polls of the result store for finished cells.
POLL_S = 0.02

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPEATS = 30

#: Cells that fail at the default scale and subset, with their cause.
KNOWN_FAILURES = json.loads((Path(__file__).resolve().parent / "known_failures.json").read_text())["failed"]


def build_sweep_workload(schema, family_step: int = FAMILY_STEP):
    """Every ``family_step``-th JOB family, first two variants each, as ``job-sweep-<step>``."""
    from repro.workloads import build_job_workload

    job = build_job_workload(schema)
    ids = [q.query_id for queries in list(job.families().values())[::family_step] for q in queries[:2]]
    return job.subset(ids, name=f"job-sweep-{family_step}")


def register_workload(family_step: int) -> None:
    """Make the subset rebuildable by name (forked pool workers inherit this)."""
    from repro.workloads import is_registered_workload, register_workload_factory

    name = f"job-sweep-{family_step}"
    if not is_registered_workload(name):
        register_workload_factory(name, functools.partial(build_sweep_workload, family_step=family_step))


@dataclass
class Sweep:
    """Everything a grid needs: database recipe, workload, splits, cells."""

    spec: object
    workload: object
    splits: list
    config: object

    def runner(self, executor_kind: str, store_dir: Path | None):
        """A ``ParallelExperimentRunner`` over this sweep writing ``store_dir``."""
        from repro.config import RuntimeConfig
        from repro.runtime.parallel import ParallelExperimentRunner
        from repro.runtime.result_store import ResultStore

        store = ResultStore(store_dir) if store_dir is not None else None
        return ParallelExperimentRunner(
            self.spec,
            self.workload,
            runtime_config=RuntimeConfig(workers=WORKERS, executor_kind=executor_kind),
            experiment_config=self.config,
            result_store=store,
        )

    def tasks(self, runner) -> list:
        """The grid's cells, longest first: learned methods by training-set size, then the baseline."""
        cells = runner.tasks_for(METHODS, self.splits)
        return sorted(cells, key=lambda task: (task.method == "postgres", -len(task.split.train_ids)))


def cell_name(task) -> str:
    """``method/split`` label of one grid cell."""
    return f"{task.method}/{task.split.name}"


def set_up(scale: float = SCALE, family_step: int = FAMILY_STEP) -> tuple[Sweep, list[float]]:
    """Build the database, the subset and the splits; repeated, timed.

    Every repetition builds the database in a fresh registry; the last one
    also materializes it in the process registry, which forked pool workers
    inherit.  Returns the sweep and each repetition's CPU seconds, divided
    by the speed probed in this thread before and after it.
    """
    from repro.config import SIMULATION_CONFIG
    from repro.core.experiment import ExperimentConfig
    from repro.core.splits import generate_splits
    from repro.storage.registry import DatabaseRegistry, get_process_registry
    from repro.storage.spec import DatabaseSpec

    register_workload(family_step)
    times = []
    probe = SpeedProbe()
    probe.sample()
    for repeat in range(SETUP_REPEATS):
        cpu_before, started = cpu_s(), time.perf_counter()
        spec = DatabaseSpec.create("imdb", scale=scale, seed=42, config=SIMULATION_CONFIG)
        registry = get_process_registry() if repeat == SETUP_REPEATS - 1 else DatabaseRegistry()
        database = registry.get(spec)
        workload = build_sweep_workload(database.schema, family_step)
        splits = [generate_splits(workload, s, n_splits=1, base_seed=SPLIT_SEED)[0] for s in SAMPLINGS]
        cpu, ended = cpu_s() - cpu_before, time.perf_counter()
        probe.sample()
        times.append(cpu / probe.factor(started, ended))
    return Sweep(spec, workload, splits, ExperimentConfig(optimizer_kwargs=OPTIMIZER_KWARGS)), times


def run_pool_grid(sweep: Sweep, store_dir: Path) -> dict:
    """One grid through the process pool; cells are timed from the grid's start.

    A thread polls the result store for each cell's file (stores write
    atomically), which dates each completion without touching the workers.
    """
    runner = sweep.runner("process", store_dir)
    tasks = sweep.tasks(runner)
    paths = {cell_name(t): runner.result_store.path_for(runner.task_key(t), runner.task_fingerprint(t))
             for t in tasks}
    done: dict[str, float] = {}
    stop = threading.Event()
    started = time.perf_counter()

    def poll() -> None:
        while not stop.is_set():
            for name, path in paths.items():
                if name not in done and path.is_file():
                    done[name] = time.perf_counter() - started
            stop.wait(POLL_S)

    poller = threading.Thread(target=poll, name="perfbench-store-poll", daemon=True)
    poller.start()
    error = None
    try:
        runner.run_tasks(tasks)
    except Exception as exc:  # a failed cell; the pool still finishes the others
        error = exc
    makespan = time.perf_counter() - started
    stop.set()
    poller.join(timeout=5)
    for name, path in paths.items():
        if name not in done and path.is_file():
            done[name] = makespan
    return {"started": started, "makespan_s": makespan, "done": done, "paths": paths, "error": error,
            "runner": runner, "tasks": tasks}


def expected_failures(scale: float, family_step: int) -> set[str]:
    """Cells known to fail: :data:`KNOWN_FAILURES` at the default grid, none at others."""
    return set(KNOWN_FAILURES) if (scale, family_step) == (SCALE, FAMILY_STEP) else set()


def check_grid(outcome: Outcome, grid: dict, expected: set[str]) -> None:
    """Each stored cell covers its split's test queries with finite timings; only expected cells fail.

    The pool reports only the first failing cell's exception, so a cell
    failing for another reason beside a known failure shows as a failed
    cell that is not ``expected``.
    """
    runner = grid["runner"]
    store = runner.result_store
    for task in grid["tasks"]:
        name = cell_name(task)
        if name not in grid["done"]:
            continue
        result = store.load(runner.task_key(task), runner.task_fingerprint(task))
        ids = [timing.query_id for timing in result.timings]
        outcome.check(result.method == task.method and result.split_name == task.split.name,
                      f"{name}: stored result names {result.method}/{result.split_name}")
        outcome.check(ids == list(task.split.test_ids), f"{name}: test queries differ from the split")
        outcome.check(all(math.isfinite(t.end_to_end_ms) for t in result.timings),
                      f"{name}: non-finite timing")
    failed = {cell_name(t) for t in grid["tasks"]} - set(grid["done"])
    outcome.check(failed == expected, f"cells {sorted(failed)} failed, expected {sorted(expected)}")
    if failed:
        outcome.check(isinstance(grid["error"], MemoryError),
                      f"cells {sorted(failed)} failed with {grid['error']!r}, not MemoryError")


def fresh_dir(name: str) -> Path:
    """An empty directory under the run output directory."""
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(seed: int, seconds: float, outcome: Outcome, scale: float = SCALE, family_step: int = FAMILY_STEP) -> None:
    """Untraced run: ``seconds / GRID_S`` whole grids (at least one).

    The grid is fixed (see ``SPLIT_SEED``); ``seed`` does not change it.
    """
    sweep, setup_times = set_up(scale, family_step)
    outcome.details["setup_s"] = setup_times
    grids = []
    for number in range(max(1, round(seconds / GRID_S))):
        probe = SpeedProbe()
        with probe.background():
            grid = run_pool_grid(sweep, fresh_dir(f"lqo-sweep-{seed}-grid{number}"))
        grid["speed"] = probe.factor(grid["started"], grid["started"] + grid["makespan_s"])
        check_grid(outcome, grid, expected_failures(scale, family_step))
        grids.append(grid)
        outcome.attempted += len(grid["tasks"])
        outcome.failed += len(grid["tasks"]) - len(grid["done"])
    spot_check(outcome, sweep, grids[0])

    completions = [t / grid["speed"] for grid in grids for t in grid["done"].values()]
    makespans = [grid["makespan_s"] / grid["speed"] for grid in grids]
    cells = summarize(completions or makespans)
    outcome.put("setup_s", sorted(setup_times)[len(setup_times) // 2], "s")
    outcome.put("ops_per_s", sum(len(g["tasks"]) for g in grids) / sum(makespans), "1/s")
    outcome.put("latency_p50_ms", cells["p50"] * 1000.0, "ms")
    outcome.put("latency_tail_ms", cells["tail"] * 1000.0, "ms")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.note(f"lqo-sweep: {len(grids)} grid(s) of {len(grids[0]['tasks'])} cells, sweep_s "
                 + ", ".join(f"{g['makespan_s']:.3f} measured at speed factor {g['speed']:.3f}" for g in grids))
    outcome.note("cell time-to-result from grid start, normalized: " + describe(cells, "s"))
    failed = sorted(n for g in grids for n in g["paths"] if n not in g["done"])
    outcome.note(f"failed cells: {failed or 'none'}"
                 + (f" (first error: {type(grids[0]['error']).__name__})" if grids[0]["error"] else ""))
    outcome.details["grids"] = [{"makespan_s": g["makespan_s"], "done": g["done"]} for g in grids]


def spot_check(outcome: Outcome, sweep: Sweep, grid: dict) -> None:
    """The first baseline cell, rerun serially, matches the pool's file byte for byte."""
    runner = sweep.runner("serial", fresh_dir("lqo-sweep-spot"))
    task = next(t for t in sweep.tasks(runner) if t.method == "postgres")
    runner.run_tasks([task])
    serial = runner.result_store.path_for(runner.task_key(task), runner.task_fingerprint(task))
    pooled = grid["paths"][cell_name(task)]
    outcome.check(pooled.is_file() and serial.read_bytes() == pooled.read_bytes(),
                  f"{cell_name(task)}: pool result differs from the serial rerun")


def run_traced(
    seed: int, seconds: float, outcome: Outcome, scale: float = SCALE, family_step: int = FAMILY_STEP
) -> None:
    """Traced run: the grid serially under tracing, then through the pool untraced.

    Checks that both produce byte-identical stored results and the same
    failed cells, and that every method's plans return the baseline's row
    counts on every test query.  Tracing overhead is measured on the first
    baseline cell, run once more untraced after the grid.
    """
    from repro.runtime.parallel import ParallelExperimentRunner

    sweep, _ = set_up(scale, family_step)
    tracer = Tracer()
    install_in_process(tracer)
    tracer.install(ParallelExperimentRunner, "run_tasks", "runtime.parallel.run_tasks")
    serial = sweep.runner("serial", fresh_dir(f"lqo-sweep-{seed}-serial"))
    failures: dict[str, str] = {}
    try:
        with stopwatch() as traced_s:
            for task in sweep.tasks(serial):
                with tracer.trace(cell_name(task)):
                    try:
                        serial.run_tasks([task])
                    except Exception as exc:  # a failed cell; checked below, the grid goes on
                        failures[cell_name(task)] = f"{type(exc).__name__}: {exc}"

    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"lqo-sweep-{seed}-spans.json")
    spans = tracer.snapshot()
    expected = expected_failures(scale, family_step)
    outcome.check(set(failures) == expected, f"serial cells {sorted(failures)} failed, expected {sorted(expected)}")
    outcome.check(all(cause.startswith("MemoryError") for cause in failures.values()),
                  f"serial cells failed with other errors than MemoryError: {failures}")
    for span in spans:
        if span[NAME] == "executor.execute" and span[ERROR]:
            failures[span[TRACE]] = f"executor.execute of query {span[TAG][2]}: {failures.get(span[TRACE])}"
    probe_runner = sweep.runner("serial", None)
    probe_task = next(t for t in sweep.tasks(probe_runner) if t.method == "postgres")
    with stopwatch() as probe_s:
        probe_runner.run_tasks([probe_task])

    grid = run_pool_grid(sweep, fresh_dir(f"lqo-sweep-{seed}-traced-pool"))
    outcome.attempted += len(grid["tasks"])
    outcome.failed += len(grid["tasks"]) - len(grid["done"])
    check_grid(outcome, grid, expected)
    for task in grid["tasks"]:
        name = cell_name(task)
        path = serial.result_store.path_for(serial.task_key(task), serial.task_fingerprint(task))
        pooled = grid["paths"][name]
        outcome.check(path.is_file() == pooled.is_file(), f"{name}: fails in one executor only")
        if path.is_file() and pooled.is_file():
            outcome.check(path.read_bytes() == pooled.read_bytes(), f"{name}: pool and serial results differ")
    check_row_counts(outcome, spans)

    metrics = span_metrics(spans)
    cells = {span[TRACE]: span[END] - span[START] for span in spans
             if span[NAME] == "runtime.parallel.run_tasks" and span[PARENT] < 0}
    overhead = cells.get(cell_name(probe_task), probe_s[0]) / probe_s[0] - 1.0
    task_s = sum(cells.values()) / (1.0 + overhead)
    metrics.update({
        "runtime.parallel.task_s": task_s,
        "runtime.parallel.idle_s": max(0.0, WORKERS * grid["makespan_s"] - task_s),
        "trace.wall_s": traced_s[0],
        "trace.overhead_ratio": overhead,
    })
    for name, value in metrics.items():
        outcome.put(name, value, PER_LAYER[name])
    outcome.note(f"traced serial grid {traced_s[0]:.2f} s; pool grid {grid['makespan_s']:.2f} s")
    for name, cause in sorted(failures.items()):
        outcome.note(f"failed cell {name}: {cause}")
    outcome.note("self time: " + layer_shares(metrics))
    outcome.note(f"tracing overhead {overhead:+.1%} on {cell_name(probe_task)} "
                 f"({probe_s[0]:.3f} s untraced)")
    outcome.note("plan cache hit ratio "
                 f"{metrics['runtime.plan_cache.hit_ratio']:.3f} of {metrics['runtime.plan_cache.requests']:.0f}")
    outcome.details["failures"] = failures


def check_row_counts(outcome: Outcome, spans: list[list]) -> None:
    """Every method's evaluated plan returns the baseline's row count per test query.

    Evaluation executions are the ones a cell makes outside training: their
    parent is the cell's own span.  Timed-out executions return no rows and
    are skipped.
    """
    rows: dict[tuple[str, str], dict[str, int]] = {}
    for span in spans:
        if span[NAME] != "executor.execute" or span[ERROR] or span[PARENT] < 0:
            continue
        if spans[span[PARENT]][NAME] != "runtime.parallel.run_tasks":
            continue
        method, split = str(span[TRACE]).split("/", 1)
        row_count, query, timed_out = span[TAG][0], span[TAG][3], span[TAG][4]
        if not timed_out:
            rows.setdefault((split, query), {})[method] = row_count
    compared = 0
    for (split, query), by_method in sorted(rows.items()):
        base = by_method.get("postgres")
        for method, count in by_method.items():
            if base is not None and method != "postgres":
                compared += 1
                outcome.check(count == base, f"{split}/{query}: {method} returns {count} rows, postgres {base}")
    outcome.note(f"row counts: {compared} (method, query) plans agree with postgres")
    outcome.check(compared > 0, "no learned plan was compared with the baseline")

