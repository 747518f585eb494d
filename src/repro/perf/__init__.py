"""Performance subsystem: content-keyed caches, timers and the kernel
benchmark runner.

- :mod:`repro.perf.cache` memoizes loaded datasets, partitions and
  aggregation-locality structures keyed by the *content* of the
  inputs, so repeated experiment sweeps stop recomputing them per call
  site, and provides the graph fingerprint
  and the code-version digest every persisted artifact id carries;
- :mod:`repro.perf.timers` provides the lightweight wall-clock timers
  and counters the benchmark runner is built on;
- :mod:`repro.perf.reference` preserves the original (seed) pure-Python
  implementations of the vectorized hot kernels, used as equivalence
  and speedup baselines;
- ``python -m repro.perf.bench`` times the hot kernels on synthetic
  graphs against those references, plus the training epoch, the
  artifact store and a fleet replay, and writes ``BENCH_repro.json``;
  end-to-end workloads are measured by ``bench/run.py`` against the
  workloads ``BENCHMARK.json`` declares.
"""

from .cache import (
    ContentCache,
    cache_stats,
    cached_load_dataset,
    cached_partition,
    clear_all_caches,
    code_version,
    default_cache_dir,
    graph_fingerprint,
)
from .timers import Timer, TimingStats, time_callable

__all__ = [
    "ContentCache",
    "Timer",
    "TimingStats",
    "cache_stats",
    "cached_load_dataset",
    "cached_partition",
    "clear_all_caches",
    "code_version",
    "default_cache_dir",
    "graph_fingerprint",
    "time_callable",
]
