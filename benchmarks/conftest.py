"""Shared helpers for the per-figure benchmark harnesses.

Every benchmark regenerates one paper table/figure at a reduced scale
(override with the ``REPRO_BENCH_SCALE`` environment variable, up to
1.0 for the paper's full workload sizes) and prints the rows the paper
reports. Run with ``pytest benchmarks/ --benchmark-only -s`` to see the
tables inline; the same data lands in each benchmark's ``extra_info``.
"""

from __future__ import annotations

import os

import pytest

DEFAULT_SCALE = 0.08


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def run_sweep(benchmark, sweep, scale: float) -> dict:
    """Measure ``sweep``'s whole grid once and emit each of its tables."""
    cells = benchmark.pedantic(sweep.run, args=(scale,), rounds=1, iterations=1)
    for title, headers, rows in sweep.tables:
        emit(benchmark, title, headers, rows(cells))
    return cells


def emit(benchmark, title: str, headers: list[str], rows: list[list]) -> None:
    """Print a result table and attach it to the benchmark record."""
    from repro.experiments.harness import format_table

    table = format_table(title, headers, rows)
    print()
    print(table)
    benchmark.extra_info["table"] = table
