"""Run ``python -m repro.runtime.planserver`` with the benchmark's tracing installed.

Usage: ``python perfbench/serve_traced.py <spans.json> <planserver args...>``.
Binding, planning and registry spans are recorded in the server process;
each request starts a new trace at its frame read (the server handles every
connection on its own thread).  The spans are written when the server
exits, after SIGINT.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent.parent)]

from perfbench.layers import install_planning  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    """Serve with spans recorded; write them to ``argv[0]`` on exit."""
    from repro.runtime import planserver

    tracer = Tracer()
    install_planning(tracer)
    tracer.install(planserver, "recv_frame", "runtime.netqueue.recv_frame", new_trace=True)
    try:
        return planserver.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
