"""Check that the sweep's failing cells do not depend on the memory cap.

    python3 perfbench/check_cap.py

Runs the ``lqo-sweep`` grid in two child processes, one under the
benchmark's address-space cap and one under 1.5 times it, and compares the
cells that fail in each with ``perfbench/known_failures.json``.  A cell
that fails only under the smaller cap would make the failure count a
property of the cap rather than of the plans.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

KNOWN = Path(__file__).resolve().parent / "known_failures.json"

#: Multiples of the benchmark's cap the grid runs under.
FACTORS = (1.0, 1.5)


def child(cap_mb: int) -> int:
    """Run one grid under ``cap_mb`` and print its failed cells as JSON."""
    common.require_program()
    common.cap_address_space(cap_mb)
    common.OUT.mkdir(exist_ok=True)
    from perfbench import lqo_sweep

    sweep, _ = lqo_sweep.set_up()
    grid = lqo_sweep.run_pool_grid(sweep, lqo_sweep.fresh_dir(f"check-cap-{cap_mb}"))
    print(json.dumps(sorted(set(grid["paths"]) - set(grid["done"]))))
    return 0


def main() -> int:
    """Compare the failed cells under each cap with the recorded ones."""
    known = sorted(json.loads(KNOWN.read_text())["failed"])
    status = 0
    for factor in FACTORS:
        cap = int(common.MEMORY_CAP_MB * factor)
        out = subprocess.run([sys.executable, __file__, "--child", str(cap)], capture_output=True, text=True,
                             check=True)
        failed = json.loads(out.stdout.splitlines()[-1])
        same = failed == known
        status |= not same
        print(f"cap {cap} MiB: failed {failed} ({'as recorded' if same else f'recorded {known}'})")
    return status


if __name__ == "__main__":
    sys.exit(child(int(sys.argv[2])) if sys.argv[1:2] == ["--child"] else main())
