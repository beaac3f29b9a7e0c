"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark regenerates one paper table/figure: it runs the experiment
driver once (timed via ``benchmark.pedantic``), prints the reproduced
rows/series, and persists them under ``benchmarks/results/`` so the
paper-vs-measured comparison in EXPERIMENTS.md can be refreshed.

Scale: set ``REPRO_BENCH_SCALE=paper`` for the paper's episode sizes
(100 runs per network per variance state; slower), anything else (or
unset) uses a moderate scale that preserves every directional claim.
"""

import gc
import os
import pathlib

import pytest

from repro.analysis.contracts import (
    contracts_enabled,
    resolve_contracts,
    set_contracts,
)

# The contract switch is resolved once, at import, before any benchmark
# runs: resolve it again as a test run, as tests/conftest.py does.
set_contracts(resolve_contracts(under_pytest=True))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

PAPER_SCALE = os.environ.get("REPRO_BENCH_SCALE", "") == "paper"


def run_config():
    """Episode sizes for the evaluation benchmarks."""
    from repro.evalharness.runner import RunConfig

    if PAPER_SCALE:
        return RunConfig(train_runs=100, adapt_runs=150, eval_runs=40)
    return RunConfig(train_runs=40, adapt_runs=120, eval_runs=12)


@pytest.fixture()
def contracts_switch():
    """``contracts_switch(enabled)`` sets the contract switch for one
    benchmark; the pytest session's value is restored afterwards."""
    previous = contracts_enabled()
    yield set_contracts
    set_contracts(previous)


@pytest.fixture()
def settle_heap():
    """``settle_heap()`` collects garbage and freezes the surviving heap.

    Ratio benchmarks call it before each timed arm, so neither arm pays
    for collecting what earlier benchmarks in the session left behind;
    the heap is unfrozen when the benchmark ends.
    """

    def _settle():
        gc.collect()
        gc.freeze()

    yield _settle
    gc.unfreeze()


@pytest.fixture()
def record_table():
    """Print a reproduced table and persist it to benchmarks/results/."""

    def _record(name, text):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)

    return _record


@pytest.fixture()
def once(benchmark):
    """Run a driver exactly once under the benchmark timer."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once
