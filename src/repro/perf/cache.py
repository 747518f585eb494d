"""Content-keyed memoization of expensive graph-derived artifacts.

Three values are cached here, each keyed on the *content* of its
inputs rather than on fragile ``id()`` keys that can collide after
garbage collection:

- :func:`cached_load_dataset` memoizes
  :func:`~repro.graphs.datasets.load_dataset` per (dataset recipe,
  scale, seed) (synthetic generation is deterministic in those);
- :func:`cached_partition` memoizes
  :func:`~repro.graphs.partition.partition_graph` per adjacency
  fingerprint and part count, at the one setting every caller uses
  (seed 0, balance 1.1, one refinement pass);
- ``LOCALITY_CACHE`` holds the aggregation-locality statistics of each
  (adjacency fingerprint, tiling); its only reader and writer is
  :func:`~repro.sim.locality.locality_structure`.

:func:`graph_fingerprint` hashes a sparse matrix's CSR arrays into a
short hex digest (memoized per live object, so the O(E) hash is paid
once per matrix).  Aggregation operators are not cached here: a
:class:`~repro.graphs.Graph` memoizes its own in ``Graph._cache``, and
the dataset cache hands every caller the same ``Graph``.

Every cache exposes hit/miss counters (:func:`cache_stats`) so the bench
runner can report cold-vs-warm timings, and :func:`clear_all_caches`
resets them for benchmarking.  These caches live in memory; what
persists across processes goes through the content-addressed
:class:`~repro.artifacts.ArtifactStore`, whose ids carry
:func:`code_version`.

numpy loads inside the functions that hash or sample arrays, so the job
engine, which imports this module, declares jobs without numpy.
"""

from __future__ import annotations

import hashlib
import os
import sys
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, TypeVar

from ..registry import get_dataset

if TYPE_CHECKING:
    import scipy.sparse as sp

    from ..graphs.graph import Graph
    from ..graphs.partition import PartitionResult

__all__ = [
    "ContentCache",
    "graph_fingerprint",
    "cached_partition",
    "cached_load_dataset",
    "cache_stats",
    "clear_all_caches",
    "code_version",
    "default_cache_dir",
]

T = TypeVar("T")


class ContentCache:
    """A dict-backed memo cache with hit/miss accounting."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._store: Dict = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key, compute: Callable[[], T]) -> T:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = self._store[key] = compute()
            return value
        self.hits += 1
        return value

    def get(self, key, default: Optional[T] = None) -> Optional[T]:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def peek(self, key, default: Optional[T] = None) -> Optional[T]:
        """The entry, counting neither a hit nor a miss."""
        return self._store.get(key, default)

    def put(self, key, value: T) -> T:
        self._store[key] = value
        return value

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses}


PARTITION_CACHE = ContentCache("partition")
DATASET_CACHE = ContentCache("dataset")
LOCALITY_CACHE = ContentCache("locality")

_ALL_CACHES = (PARTITION_CACHE, DATASET_CACHE, LOCALITY_CACHE)

# id(matrix) -> (weakref, digest): fingerprints are content hashes, but
# memoized per live object so repeated lookups are O(1).
_FINGERPRINTS: Dict[int, Tuple[weakref.ref, str]] = {}


def graph_fingerprint(adjacency: sp.spmatrix) -> str:
    """Short content digest of a sparse matrix's structure and weights."""
    key = id(adjacency)
    entry = _FINGERPRINTS.get(key)
    if entry is not None and entry[0]() is adjacency:
        return entry[1]
    import numpy as np

    csr = adjacency.tocsr()
    h = hashlib.sha1()
    h.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.indptr).tobytes())
    h.update(np.ascontiguousarray(csr.indices).tobytes())
    h.update(np.ascontiguousarray(csr.data).tobytes())
    digest = h.hexdigest()[:16]
    try:
        ref = weakref.ref(adjacency, lambda _r, _k=key: _FINGERPRINTS.pop(_k, None))
        _FINGERPRINTS[key] = (ref, digest)
    except TypeError:
        pass
    return digest


# Partitions of graphs at least this many edges also persist to the
# code-versioned on-disk store: at scale-scenario sizes a partition is
# seconds of work shared by every layer, variant and pool worker, while
# small graphs stay memory-only (disk churn would outweigh the compute).
PARTITION_DISK_MIN_EDGES = 200_000


def cached_partition(adjacency: sp.spmatrix, num_parts: int) -> PartitionResult:
    """Memoized :func:`~repro.graphs.partition.partition_graph` at seed
    0, balance 1.1 and one refinement pass.

    Content-keyed on the adjacency's CSR fingerprint and the part count;
    large graphs additionally resolve through the content-addressed
    :class:`~repro.artifacts.ArtifactStore` (kind ``"partition"``), so
    concurrent sweep workers, later processes and imported corpora
    partition each scale scenario exactly once — with manifest-backed
    integrity and quarantine-on-corruption instead of a bare pickle
    blob.
    """
    key = (graph_fingerprint(adjacency), num_parts)

    def compute() -> PartitionResult:
        from ..graphs.partition import partition_graph

        run = lambda: partition_graph(adjacency, num_parts, seed=0,
                                      balance_factor=1.1, refine_passes=1)
        if adjacency.nnz >= PARTITION_DISK_MIN_EDGES:
            from ..artifacts import artifact_store

            value, _art_id = artifact_store().get_or_build(
                "partition", {"graph": key[0], "num_parts": num_parts}, run)
            return value
        return run()

    return PARTITION_CACHE.get_or_compute(key, compute)


def cached_load_dataset(name: str, scale: str = "train", seed: int = 0) -> Graph:
    """Memoized dataset construction, resolved through the dataset
    registry.  Synthetic generation is deterministic in the recipe,
    scale and seed, so the key is the registered entry's cache token
    (the whole recipe) with those: a dataset re-registered with an
    edited recipe never gets the old graph back."""
    entry = get_dataset(name)
    return DATASET_CACHE.get_or_compute(
        (entry.cache_token, scale, seed),
        lambda: entry.load(scale=scale, seed=seed))


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/entry counters of every perf cache."""
    return {cache.name: cache.stats() for cache in _ALL_CACHES}


def clear_all_caches() -> None:
    for cache in _ALL_CACHES:
        cache.clear()


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Short digest of every ``repro`` source file plus the numeric
    dependency versions.

    Every artifact id embeds this digest as its producer, so any code
    change — or a numpy/scipy upgrade, whose RNG streams the synthetic
    datasets depend on — invalidates every persisted result and memo at
    once.  Conservative, but a stale cache can never survive a change
    that could alter results.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import numpy as np
        import scipy

        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha1()
        h.update(f"python{sys.version_info[0]}.{sys.version_info[1]};"
                 f"numpy{np.__version__};scipy{scipy.__version__}".encode())
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()
