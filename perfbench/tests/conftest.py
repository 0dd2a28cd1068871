"""Fixtures of the benchmark's tests."""

import pytest


@pytest.fixture(scope="session")
def imdb_schema():
    """Schema of a tiny synthetic IMDB."""
    from repro.catalog.imdb import imdb_schema

    return imdb_schema()


@pytest.fixture
def bench_out(tmp_path, monkeypatch):
    """Point every workload's output directory at a temporary one."""
    from perfbench import lqo_sweep, plan_serve

    monkeypatch.setattr(lqo_sweep, "OUT", tmp_path)
    monkeypatch.setattr(plan_serve, "OUT", tmp_path)
    return tmp_path
