"""Tests of the benchmark's own helpers and a tiny smoke run of each workload."""
