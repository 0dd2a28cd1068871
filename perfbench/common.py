"""Shared plumbing: checkout paths, the memory cap, peak RSS and the result line."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where the program's sources live inside the checkout.
SRC = ROOT / "src"

#: Run outputs (reports, span dumps, result stores); ignored by git.
OUT = ROOT / ".perfbench-out"

#: Per-process address-space cap (RLIMIT_AS), MiB.  The largest workload runs
#: three capped processes at once (the sweep's parent and its two pool
#: workers), 4.5 GiB together, which fits the 8 GiB machines the benchmark
#: targets.  Under it a runaway join raises ``MemoryError`` in the failing
#: operation instead of getting the machine's OOM killer involved.
MEMORY_CAP_MB = 1536

#: The end-to-end metrics every workload reports, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def require_program() -> None:
    """Exit with an error, printing no result, when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def cap_address_space(megabytes: int = MEMORY_CAP_MB) -> None:
    """Cap this process's address space; forked and spawned children inherit it."""
    limit = int(megabytes) << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_s(pid: int | None = None) -> float:
    """CPU seconds (user + system) spent so far.

    Without ``pid``: this process and every child it has waited for.  With
    ``pid``: that running process, read from ``/proc`` (Linux, 10 ms ticks).
    CPU time leaves out the time a process waits for a core, which on
    machines shared with other tenants moves wall-clock times by half.
    """
    if pid is None:
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


#: Iterations of the speed probe's loop.
PROBE_ITERATIONS = 100_000

#: CPU seconds the probe's loop takes on the reference machine (one 2.1 GHz
#: Xeon core with the other core idle); the unit of the normalized times.
PROBE_REFERENCE_S = 0.008

#: Seconds between samples of the background probe process.
PROBE_INTERVAL_S = 0.25

#: Seconds a sample may lie outside a window and still count for it: an
#: in-thread sample taken right before or after the measured work.
PROBE_SLACK_S = 0.1


def probe_speed(repeats: int = 1) -> float:
    """How much slower than the reference machine this CPU runs right now.

    Times a fixed pure-Python loop in this thread's CPU time (so waiting for
    the CPU does not count) and divides the median of ``repeats`` by
    ``PROBE_REFERENCE_S``: 1.2 means the CPU currently runs the loop 20%
    slower than the reference.
    """
    samples = []
    for _ in range(repeats):
        started = time.thread_time()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        samples.append(time.thread_time() - started)
    return sorted(samples)[len(samples) // 2] / PROBE_REFERENCE_S


class SpeedProbe:
    """Timestamped :func:`probe_speed` samples and the factor over a time window.

    The machines the benchmark runs on share their cores with other tenants,
    and a core's speed drifts by a fifth within a minute; a time divided by
    ``factor(start, end)``, the speed sampled while it was measured, loses
    most of that drift.  Samples come from one of two sources:

    - ``sample()`` probes in the calling thread.  Single-threaded work calls
      it between its measured pieces, on the core the work runs on: with the
      probe in another process, the spread of ``job-exec``'s per-query p50
      over seven runs was 17%, with it in the thread 7%.
    - ``with probe.background():`` samples every ``PROBE_INTERVAL_S`` in a
      separate process while work runs on several processes, so that the
      probe never holds the interpreter lock of the measured process.
    """

    def __init__(self) -> None:
        #: ``(time.perf_counter(), factor)`` pairs; the clock is shared by
        #: the processes of one machine.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Probe in this thread (the median of three loops)."""
        started = time.perf_counter()
        factor = probe_speed(3)
        self.samples.append(((started + time.perf_counter()) / 2.0, factor))

    @contextmanager
    def background(self) -> Iterator["SpeedProbe"]:
        """Sample in a separate process for the duration of the block."""
        proc = subprocess.Popen(
            [sys.executable, "-c", "from perfbench.common import probe_loop; probe_loop()"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            yield self
        finally:
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            proc.wait()
            self.samples += [(float(t), float(f)) for t, f in (line.split() for line in out.splitlines())]

    def factor(self, start: float, end: float) -> float:
        """Median factor sampled between two ``time.perf_counter`` readings.

        Samples up to ``PROBE_SLACK_S`` outside the window count; without
        any, the sample nearest to the window's middle; without samples, 1.0.
        """
        inside = [f for t, f in self.samples if start - PROBE_SLACK_S <= t <= end + PROBE_SLACK_S]
        if inside:
            return statistics.median(inside)
        middle = (start + end) / 2.0
        return min(self.samples, key=lambda s: abs(s[0] - middle))[1] if self.samples else 1.0


def probe_loop() -> None:
    """Body of :meth:`SpeedProbe.background`: print ``time factor`` lines until stdin closes."""
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    while not stop.wait(PROBE_INTERVAL_S):
        print(time.perf_counter(), probe_speed(), flush=True)


@contextmanager
def stopwatch() -> Iterator[list[float]]:
    """``with stopwatch() as elapsed:`` leaves the wall seconds in ``elapsed[0]``."""
    elapsed = [0.0]
    started = time.perf_counter()
    try:
        yield elapsed
    finally:
        elapsed[0] = time.perf_counter() - started


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Output checks that failed, as messages (empty: every check passed).
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable report lines printed before the result line.
    notes: list[str] = field(default_factory=list)
    #: Everything else worth keeping, written to the run's report file.
    details: dict = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        """Record ``message`` as a failed output check unless ``condition``."""
        if not condition:
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        """Record one metric value with its unit."""
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        """Add one line to the printed report."""
        self.notes.append(line)


def result_line(outcome: Outcome, names: list[str]) -> str:
    """The final JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``."""
    metrics = {}
    for name in names:
        value, unit = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": not outcome.errors,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )
