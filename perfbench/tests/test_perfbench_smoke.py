"""A tiny run of every workload, untraced and traced, passes its own checks."""

import pytest

from perfbench import job_exec, lqo_sweep, plan_serve
from perfbench.common import E2E_UNITS, Outcome
from perfbench.layers import PER_LAYER


def assert_complete(outcome: Outcome, names) -> None:
    """Checks passed and every named metric was measured."""
    assert outcome.errors == []
    assert outcome.attempted >= 1
    assert set(names) <= set(outcome.metrics)


@pytest.mark.parametrize("traced", [False, True])
def test_lqo_sweep_smoke(bench_out, traced):
    """Three families at scale 0.02: the grid runs, checks pass, cells are counted."""
    outcome = Outcome()
    runner = lqo_sweep.run_traced if traced else lqo_sweep.run
    runner(0, 0.0, outcome, scale=0.02, family_step=11)
    assert_complete(outcome, PER_LAYER if traced else E2E_UNITS)
    assert outcome.attempted == 9
    if traced:
        assert outcome.metrics["optimizer.plan_calls"][0] > 0


def test_job_exec_smoke():
    """One pass at scale 0.05 matches the row-engine oracle."""
    outcome = Outcome()
    job_exec.run(0, 0.0, outcome, scale=0.05)
    assert_complete(outcome, E2E_UNITS)
    assert outcome.attempted == 113 and outcome.failed == 0


def test_plan_serve_smoke(bench_out):
    """A short ladder against a real server: plans identical, auth enforced, counters balance."""
    outcome = Outcome()
    plan_serve.run(0, 0.5, outcome)
    assert_complete(outcome, E2E_UNITS)
    assert outcome.failed == 0
