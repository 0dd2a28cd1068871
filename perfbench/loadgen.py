"""Open-loop request generation for the plan server.

Independent users make an open loop: requests are due on a fixed schedule
(``rate`` per second) whether or not earlier ones have finished.  At most
``SENDERS`` threads send, one request each at a time, so at most that many
are in flight; when both are busy the next request goes out late.  Each
request's latency is timed from its *due* time, so a stall is charged to
every request it delays, and the generator's lateness (send time minus due
time) is reported per step.

Queries come from a pool of distinct ``RandomSqlGenerator`` queries with
Zipf popularity: the head of the pool fits the server's plan cache, the tail
does not.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

#: Concurrent sender threads (and so requests in flight), at most.
SENDERS = 2

#: Zipf exponent of query popularity.
ZIPF_EXPONENT = 1.0

#: Seed of the query pool and of its popularity order, which are fixed: with
#: them following the run's seed, the slowest queries to plan changed from
#: run to run and moved the server's p99 by a third.
POPULARITY_SEED = 0


def sql_pool(schema, seed: int, size: int) -> list[str]:
    """``size`` distinct random queries, in generation order."""
    from repro.workloads.random_gen import JoinSamplerConfig, RandomSqlGenerator

    generator = RandomSqlGenerator(
        schema, seed=seed, joins=JoinSamplerConfig(max_joins=4, outer_fraction=0.25, full_fraction=0.2)
    )
    seen: dict[str, None] = {}
    index = 0
    while len(seen) < size:
        seen.setdefault(generator.sql(index))
        index += 1
    return list(seen)


class ZipfPopularity:
    """Zipf-distributed draws over a pool in a fixed popularity order.

    The order (which query is how popular) is the same for every seed; the
    seed draws the request streams.  Which queries the cache holds, and so
    which ones the server plans, then differs between runs only by chance.
    """

    def __init__(self, size: int, seed: int, exponent: float = ZIPF_EXPONENT) -> None:
        weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
        self.probabilities = weights / weights.sum()
        #: Pool index of the query at each popularity rank (rank 0 = most popular).
        self.by_rank = np.random.default_rng(POPULARITY_SEED).permutation(size)
        self.seed = seed

    def head(self, count: int) -> list[int]:
        """Pool indices of the ``count`` most popular queries."""
        return [int(i) for i in self.by_rank[:count]]

    def draw(self, count: int, stream: int) -> list[int]:
        """``count`` pool indices of request stream number ``stream``."""
        rng = np.random.default_rng([self.seed, 1, stream])
        ranks = rng.choice(len(self.probabilities), size=count, p=self.probabilities)
        return [int(i) for i in self.by_rank[ranks]]

    def head_share(self, count: int) -> float:
        """Probability mass of the ``count`` most popular queries."""
        return float(self.probabilities[:count].sum())


@dataclass
class Record:
    """One request as the generator saw it (times in seconds, ``perf_counter``)."""

    index: int
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    rejected: bool = False
    error: str = ""
    served: object = None

    @property
    def latency_ms(self) -> float:
        """Completion minus due time."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        """Send minus due time: how late the generator was."""
        return (self.sent - self.due) * 1000.0


def run_open_loop(make_client, items: list[tuple[str, str]], rate: float | None) -> list[Record]:
    """Send ``items`` (``("plan", sql)`` or ``("invalidate", "")``) on schedule.

    Item ``i`` is due ``i / rate`` seconds after the start; ``rate=None``
    sends back to back (a closed loop over the senders, for warm-up).
    ``make_client(sender)`` builds each sender's ``PlanClient``.
    """
    from repro.errors import PlanRejected

    records = [Record(i, kind, 0.0) for i, (kind, _) in enumerate(items)]
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender(number: int) -> None:
        client = make_client(number)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            record = records[i]
            now = time.perf_counter()
            record.due = start + i / rate if rate else max(start, now)
            if record.due > now:
                time.sleep(record.due - now)
            record.sent = time.perf_counter()
            kind, sql = items[i]
            try:
                record.served = client.plan(sql) if kind == "plan" else client.invalidate()
                record.ok = True
            except PlanRejected as exc:
                record.rejected, record.error = True, str(exc)
            except Exception as exc:  # counted as a failed request; the load goes on
                record.error = f"{type(exc).__name__}: {exc}"
            record.done = time.perf_counter()

    threads = [threading.Thread(target=sender, args=(n,), name=f"perfbench-sender-{n}") for n in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
