"""In-memory span tracing through wrappers around public entry points.

The benchmark measures every layer from outside: :meth:`Tracer.install`
replaces a public function or method with a wrapper that records one span
per call — name, start, end, parent span and trace id — and then calls the
original.  Spans stay in memory and are written out once, when the run
ends (:meth:`Tracer.dump`).  Spans of one request or task share a trace id:
set it with :meth:`Tracer.trace`, or let a wrapper installed with
``new_trace=True`` start a fresh one in its thread (the plan server handles
each request on its own thread, starting with one frame read).

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`); a layer's self time is the sum over
its spans, the layer being the span name up to the first dot.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: Index of each field in a span record.
NAME, START, END, PARENT, TRACE, TAG, ERROR = range(7)


class Tracer:
    """Collects spans from installed wrappers; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ trace ids
    @contextmanager
    def trace(self, trace_id: object) -> Iterator[None]:
        """Give every span started in this thread inside the block ``trace_id``."""
        previous = getattr(self._local, "trace", None)
        self._local.trace = trace_id
        try:
            yield
        finally:
            self._local.trace = previous

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ wrapping
    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        tag: Callable | None = None,
        before: Callable[[tuple], object] | None = None,
        new_trace: bool = False,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``name`` may be a function of the call's positional arguments (to
        name a method span after its instance).  ``before(args)`` runs ahead
        of the call and its result is the span's tag until ``tag(args,
        result, state)`` replaces it after a successful call.  A raised
        exception is recorded as the span's error and re-raised.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._local
            stack = self._stack()
            if new_trace:
                local.trace = next(self._trace_ids)
            trace_id = getattr(local, "trace", None)
            if trace_id is None:
                trace_id = next(self._trace_ids)
            label = name(args) if callable(name) else name
            state = before(args) if before is not None else None
            span = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1, trace_id, state, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result, state)
            return result

        return wrapper

    def install(self, owner: object, attr: str, name, **options) -> None:
        """Replace ``owner.attr`` by a recording wrapper (see :meth:`wrap`)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **options))
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ output
    def snapshot(self) -> list[list]:
        """A copy of the spans recorded so far (finished or not)."""
        with self._lock:
            return [list(span) for span in self.spans]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (written once, at the end)."""
        spans = self.snapshot()
        names = sorted({span[NAME] for span in spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[TRACE], s[TAG], s[ERROR]] for s in spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "trace", "tag", "error"],
                                    "names": names, "spans": rows}))


def load_spans(path: Path) -> list[list]:
    """Read spans written by :meth:`Tracer.dump` back into span records."""
    document = json.loads(Path(path).read_text())
    names = document["names"]
    return [[names[row[0]], *row[1:]] for row in document["spans"]]


def select(spans: list[list], keep) -> list[list]:
    """The spans for which ``keep(span)`` holds, parents re-indexed (-1 if dropped)."""
    index: dict[int, int] = {}
    out = []
    for i, span in enumerate(spans):
        if keep(span):
            index[i] = len(out)
            out.append(span)
    return [[*s[:PARENT], index.get(s[PARENT], -1), *s[PARENT + 1:]] for s in out]


def concat(*parts: list[list]) -> list[list]:
    """Span lists of several processes as one list, parents re-indexed."""
    out: list[list] = []
    for part in parts:
        offset = len(out)
        out.extend([*s[:PARENT], s[PARENT] + offset if s[PARENT] >= 0 else -1, *s[PARENT + 1:]] for s in part)
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(i, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append(max(0.0, end - start - covered))
    return out


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def aggregate(spans: list[list]) -> dict:
    """Per-name and per-layer totals: calls, seconds, self seconds, errors."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        entry = by_name.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
        entry["errors"] += 1 if span[ERROR] else 0
        layer = layer_of(span[NAME])
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    return {"names": by_name, "layers": by_layer}
