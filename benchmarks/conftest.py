"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper (its
module name says which) and prints the same rows the paper reports.  By default
the sweeps run on the light workloads so ``pytest benchmarks/
--benchmark-only`` finishes in minutes; set ``REPRO_FULL=1`` to run the
paper's full ten-workload sweep (adds NELL/Reddit-scale graphs) and the
full training budgets.
"""

import os

import pytest


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(autouse=True, scope="session")
def _hermetic_sweep_cache(tmp_path_factory):
    """Keep figure-regeneration sweeps out of the user's real disk cache
    (one shared session store preserves the cross-benchmark reuse)."""
    from repro.eval.engine import temporary_cache_dir

    with temporary_cache_dir(tmp_path_factory.mktemp("sweep-cache")):
        yield


@pytest.fixture(scope="session")
def workloads():
    from repro.eval import PAPER_WORKLOADS, QUICK_WORKLOADS

    return PAPER_WORKLOADS if full_mode() else QUICK_WORKLOADS


@pytest.fixture(scope="session")
def quick() -> bool:
    return not full_mode()


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
