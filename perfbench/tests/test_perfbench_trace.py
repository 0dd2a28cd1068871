"""Span recording and self time."""

import pytest

from perfbench.trace import END, ERROR, NAME, PARENT, START, TRACE, Tracer, aggregate, concat, select, self_times


def span(name, start, end, parent=-1):
    """A span record with the given interval and parent."""
    return [name, start, end, parent, 1, None, None]


def test_self_time_of_nested_children():
    """A grandchild's time is subtracted from its parent, not from the root."""
    spans = [span("a.root", 0.0, 10.0), span("b.child", 2.0, 6.0, 0), span("c.grandchild", 3.0, 4.0, 1)]
    assert self_times(spans) == pytest.approx([6.0, 3.0, 1.0])


def test_self_time_of_back_to_back_and_overlapping_children():
    """Children that touch or overlap are counted once, clipped to the parent."""
    spans = [
        span("a.root", 0.0, 10.0),
        span("b.one", 1.0, 3.0, 0),
        span("b.two", 3.0, 5.0, 0),
        span("b.three", 4.0, 6.0, 0),
        span("b.late", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert aggregate(spans)["layers"]["a"] == pytest.approx(4.0)


def test_tracer_records_parents_trace_ids_and_errors():
    """Nested wrapped calls get parents; a trace block shares its id; errors are kept."""

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def fail(self):
            raise MemoryError("too big")

    tracer = Tracer()
    tracer.install(Box, "outer", "x.outer")
    tracer.install(Box, "inner", "y.inner", tag=lambda args, result, state: result)
    tracer.install(Box, "fail", "y.fail")
    with tracer.trace("task-1"):
        assert Box().outer() == 2
        with pytest.raises(MemoryError):
            Box().fail()
    tracer.uninstall()
    assert Box.outer.__name__ == "outer" and not hasattr(Box.outer, "__wrapped__")
    spans = tracer.snapshot()
    assert [s[NAME] for s in spans] == ["x.outer", "y.inner", "y.fail"]
    assert [s[PARENT] for s in spans] == [-1, 0, -1]
    assert {s[TRACE] for s in spans} == {"task-1"}
    assert spans[1][5] == 1 and spans[2][ERROR] == "MemoryError"
    assert all(s[END] >= s[START] for s in spans)


def test_select_and_concat_reindex_parents():
    """Dropping a parent orphans its children; concatenation offsets parents."""
    spans = [span("a.root", 0, 4), span("b.child", 1, 2, 0), span("b.other", 5, 6)]
    kept = select(spans, lambda s: s[NAME] != "a.root")
    assert [s[PARENT] for s in kept] == [-1, -1]
    joined = concat(spans[:2], spans[:2])
    assert [s[PARENT] for s in joined] == [-1, 0, -1, 2]
