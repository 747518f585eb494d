"""Hot-kernel benchmark runner: ``python -m repro bench``.

(The module remains directly runnable as ``python -m repro.perf.bench``;
the unified CLI forwards its ``bench`` subcommand here.)

Times the vectorized hot kernels against the seed reference
implementations on synthetic graphs of increasing size and writes the
results to ``BENCH_repro.json``, seeding the repo's performance
trajectory.  Kernels covered:

- ``adaptive_package_encode`` — vectorized vs seed greedy encoder;
- ``condense_run`` — O(N+E) vs seed O(N*P) ``CondenseUnit.run`` (both
  units are constructed outside the timed region, so the numbers
  isolate the streaming loop itself);
- ``sample_neighbors`` — vectorized vs per-node sampling;
- ``csr_decode`` — vectorized vs per-row CSR decode;
- ``partition_graph`` — the vectorized multilevel partitioner vs the
  seed loop implementation preserved in :mod:`repro.perf.reference`,
  timed at the scale-scenario operating points (10k/100k/500k nodes at
  the subgraph counts ``choose_num_parts`` yields there), with balance
  and edge-cut parity asserted.

A ``train_epoch`` entry times the training hot loop (in-place
optimizers, shared eval forward) against the seed loop preserved in
:mod:`repro.perf.reference` for each training flow (FP32, DQ and
Degree-Aware), asserting bit-identical accuracies.

An ``artifact_store`` entry measures the content-addressed artifact
store (:mod:`repro.artifacts`): put/get/verify/export/import throughput
over a synthetic corpus — the durable-write fsync barriers and the
sha256 verify-on-read are part of what is timed — plus a warm-import
replay (cold sweep on cache A, export → import into fresh cache B,
replay with zero jobs executed and bit-identical reports).

A ``fleet_replay`` entry replays a served corpus into a fresh cache
over injected wire faults (see :func:`_bench_fleet_replay`).

End-to-end workloads — a cold and warm ``repro run`` of the paper
figures, the DSE grid, Table VI training and a mixed ``repro serve``
load — are measured by ``bench/run.py`` (declared in
``BENCHMARK.json``), with repeats, spread and a regression gate; this
runner does not time them again.

``--quick`` restricts the run to the small size (used by CI smoke
runs); the default sizes end at the ~50k-node / ~500k-edge graph the
acceptance criteria are stated against.  Reference implementations are
timed with a single repeat (they are the slow side by construction);
vectorized kernels report best-of-3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Optional

import numpy as np
import scipy

from ..formats import AdaptivePackageFormat, CsrFormat
from ..graphs import sample_adjacency, synthetic_graph
from ..graphs.partition import partition_graph
from ..mega import CondenseUnit
from .cache import cached_load_dataset, cached_partition, clear_all_caches
from .reference import (
    CondenseUnitReference,
    csr_decode_reference,
    encode_adaptive_package_reference,
    partition_graph_reference,
    sample_neighbors_reference,
)
from .timers import Timer, time_callable

__all__ = ["BENCH_SIZES", "PARTITION_SIZES", "run_benchmarks", "main"]

# name -> (num_nodes, num_edges, feature_dim, num_parts)
BENCH_SIZES: Dict[str, tuple] = {
    "tiny": (500, 2_500, 32, 8),
    "small": (2_000, 10_000, 64, 8),
    "medium": (10_000, 100_000, 64, 24),
    "large": (50_000, 500_000, 64, 64),
}

# The partitioner is benchmarked at the scale-scenario operating points:
# registered scenario datasets at simulation scale, partitioned into the
# subgraph counts ``choose_num_parts`` yields there (128 KiB aggregation
# buffer; 256-d hidden layers for small/medium, 64-d at 500k so the
# seed reference's dense n x k link matrix stays materializable).
# name -> (scenario dataset, num_parts)
PARTITION_SIZES: Dict[str, tuple] = {
    "tiny": ("powerlaw-10k", 10),
    "small": ("powerlaw-10k", 40),
    "medium": ("community-100k", 391),
    "large": ("powerlaw-500k", 489),
}

_FEATURE_DENSITY = 0.3
_BIT_CHOICES = (2, 3, 4, 8)


def _bench_inputs(size: str, seed: int = 0):
    """Graph + quantized feature matrix + per-node bitwidths for one size."""
    nodes, edges, fdim, num_parts = BENCH_SIZES[size]
    graph = synthetic_graph(nodes, edges, 16, 8, seed=seed,
                            name=f"bench-{size}")
    rng = np.random.default_rng(seed)
    bits = rng.choice(_BIT_CHOICES, size=nodes).astype(np.int64)
    values = (rng.integers(1, 200, size=(nodes, fdim))
              * (rng.random((nodes, fdim)) < _FEATURE_DENSITY)).astype(np.int64)
    values = np.minimum(values, (2 ** bits - 1)[:, None])
    return graph, values, bits, num_parts


def _speedup(reference_s: float, fast_s: float) -> float:
    return reference_s / fast_s if fast_s > 0 else float("inf")


def _bench_encode(values, bits, repeats: int) -> dict:
    fmt = AdaptivePackageFormat()
    fast = time_callable(lambda: fmt.encode(values, bits), repeats=repeats)
    with Timer() as ref:
        reference = encode_adaptive_package_reference(values, bits)
    encoded = fmt.encode(values, bits)
    assert encoded.num_packages == reference.num_packages
    assert encoded.report().breakdown == reference.report().breakdown
    assert np.array_equal(fmt.decode(encoded), values)
    return {"fast": fast.as_dict(), "reference_s": ref.elapsed,
            "speedup": _speedup(ref.elapsed, fast.best_s)}


def _bench_condense(graph, parts, repeats: int) -> dict:
    # Constructions (FIFO seeding) happen outside the timed region for
    # both implementations: the kernel under test is the node stream.
    runs = []
    for _ in range(repeats):
        unit = CondenseUnit(graph.adjacency, parts)
        with Timer() as t:
            unit.run()
        runs.append(t.elapsed)
    reference_unit = CondenseUnitReference(graph.adjacency, parts)
    with Timer() as ref:
        reference_unit.run()
    fast_unit = CondenseUnit(graph.adjacency, parts)
    assert fast_unit.run() == reference_unit.sparse_buffer
    assert fast_unit.comparisons == reference_unit.comparisons
    assert fast_unit.matches == reference_unit.matches
    best = min(runs)
    return {"fast": {"best_s": best, "mean_s": sum(runs) / len(runs),
                     "repeats": repeats},
            "reference_s": ref.elapsed,
            "speedup": _speedup(ref.elapsed, best)}


def _bench_sample(graph, repeats: int, max_neighbors: int = 25) -> dict:
    # Compare adjacency-to-adjacency (the reference never builds a Graph).
    fast = time_callable(
        lambda: sample_adjacency(graph.adjacency, max_neighbors,
                                 rng=np.random.default_rng(0)),
        repeats=repeats)
    with Timer() as ref:
        sample_neighbors_reference(graph.adjacency, max_neighbors,
                                   rng=np.random.default_rng(0))
    sampled = sample_adjacency(graph.adjacency, max_neighbors)
    row_nnz = np.diff(sampled.indptr)
    assert row_nnz.max() <= max_neighbors
    assert np.array_equal(
        row_nnz, np.minimum(np.diff(graph.adjacency.tocsr().indptr),
                            max_neighbors))
    return {"fast": fast.as_dict(), "reference_s": ref.elapsed,
            "speedup": _speedup(ref.elapsed, fast.best_s)}


def _bench_csr_decode(values, bits, repeats: int) -> dict:
    fmt = CsrFormat()
    encoded = fmt.encode(values, bits)
    fast = time_callable(lambda: fmt.decode(encoded), repeats=repeats)
    with Timer() as ref:
        reference = csr_decode_reference(encoded)
    assert np.array_equal(fmt.decode(encoded), reference)
    return {"fast": fast.as_dict(), "reference_s": ref.elapsed,
            "speedup": _speedup(ref.elapsed, fast.best_s)}


def _bench_partition(size: str, repeats: int) -> dict:
    """Vectorized partitioner vs the preserved seed loops at one
    scale-scenario operating point.

    The vectorized side is timed best-of-``repeats`` (single repeat at
    the 500k size — one run is seconds); the reference runs once (it is
    the slow side by construction).  It asserts seed determinism, the
    balance guarantee, and edge-cut parity within 15% of the seed
    implementation (the property-test tolerance).
    """
    dataset, num_parts = PARTITION_SIZES[size]
    adjacency = cached_load_dataset(dataset, scale="sim").adjacency
    runs = max(1 if adjacency.shape[0] >= 400_000 else repeats, 1)
    results, times = [], []
    for _ in range(runs):
        with Timer() as t:
            results.append(partition_graph(adjacency, num_parts))
        times.append(t.elapsed)
    new = results[0]
    with Timer() as ref_t:
        ref = partition_graph_reference(adjacency, num_parts)
    assert all(np.array_equal(r.parts, new.parts) for r in results), \
        "partition_graph must be deterministic per seed"
    assert new.balance <= 1.1 + 1e-9 or \
        new.balance <= np.ceil(adjacency.shape[0] / num_parts) / \
        (adjacency.shape[0] / num_parts) + 1e-9, new.balance
    assert new.edge_cut <= ref.edge_cut * 1.15, \
        f"edge cut {new.edge_cut} vs reference {ref.edge_cut}"
    return {
        "dataset": dataset,
        "nodes": int(adjacency.shape[0]),
        "edges": int(adjacency.nnz),
        "num_parts": num_parts,
        "fast": {"best_s": min(times),
                 "mean_s": sum(times) / len(times), "repeats": runs},
        "reference_s": ref_t.elapsed,
        "edge_cut": new.edge_cut,
        "reference_edge_cut": ref.edge_cut,
        "balance": new.balance,
        "reference_balance": ref.balance,
        "speedup": _speedup(ref_t.elapsed, min(times)),
    }


def _train_setup(flow: str, graph):
    """A fresh model and the ``train`` keywords for one training flow,
    built as :mod:`repro.quant.flows` builds them (cora GCN, seed 0,
    default quantizer configs)."""
    from ..nn import build_model
    from ..quant import (DegreeAwareQuantizer, DegreeQuantConfig,
                         DegreeQuantizer, layer_dims_for)
    from ..tensor import Tensor

    if flow == "fp32":
        return build_model("gcn", graph.feature_dim, graph.num_classes,
                           seed=0), {}
    if flow == "dq":
        hooks = DegreeQuantizer(graph, DegreeQuantConfig(bits=4, seed=0))
        return build_model("gcn", graph.feature_dim, graph.num_classes,
                           hooks=hooks, seed=0), {}
    hooks = DegreeAwareQuantizer(graph, layer_dims_for("gcn", graph))
    model = build_model("gcn", graph.feature_dim, graph.num_classes,
                        hooks=hooks, seed=0)
    model.train()
    model(Tensor(graph.features), graph)
    return model, {
        "extra_loss": hooks.extra_loss,
        "extra_optimizers": hooks.optimizers(),
        "select_when": lambda: (hooks.feature_memory_kb()
                                <= hooks.memory_target_kb * 1.2),
    }


def _bench_train_epoch(quick: bool) -> dict:
    """Per-epoch timing of the training hot loop vs the seed loop, one
    row per training flow (``fp32``, ``dq``, ``degree-aware``).

    Both loops train the same cora GCN from the same seed, with fresh
    hooks per run set up as the flow sets them up; the accuracies and
    loss histories must be bit-identical (the in-place optimizer steps
    and the shared eval forward are exact reformulations).  Runs are
    interleaved best-of-2 so allocator and page-cache warmth bias both
    sides equally.
    """
    from ..nn import TrainConfig, train
    from .cache import cached_load_dataset
    from .reference import train_reference

    graph = cached_load_dataset("cora", scale="train")
    epochs = 10 if quick else 30
    config = TrainConfig(epochs=epochs, patience=10_000)

    flows = {}
    for flow in ("fp32", "dq", "degree-aware"):
        times = {"new": [], "ref": []}
        results = {}
        for attempt in range(2):
            for kind in (("new", "ref") if attempt % 2 == 0
                         else ("ref", "new")):
                model, kwargs = _train_setup(flow, graph)
                loop = train if kind == "new" else train_reference
                with Timer() as t:
                    results[kind] = loop(model, graph, config=config,
                                         **kwargs)
                times[kind].append(t.elapsed)

        new, ref = results["new"], results["ref"]
        assert new.test_accuracy == ref.test_accuracy, \
            f"{flow} hot-loop training must stay bit-identical to the seed loop"
        assert ([h["loss"] for h in new.history]
                == [h["loss"] for h in ref.history]), flow
        best_new, best_ref = min(times["new"]), min(times["ref"])
        flows[flow] = {
            "new_per_epoch_ms": best_new / epochs * 1e3,
            "reference_per_epoch_ms": best_ref / epochs * 1e3,
            "test_accuracy": new.test_accuracy,
            "best_epoch": new.best_epoch,
            "bit_identical": True,
            "speedup": _speedup(best_ref, best_new),
        }
    return {"dataset": "cora", "model": "gcn", "epochs": epochs,
            "flows": flows}


class _ServeDaemon:
    """A ``repro serve`` subprocess pinned to its own cache directory."""

    def __init__(self, cache_dir,
                 extra_env: Optional[Dict[str, str]] = None) -> None:
        import subprocess
        import time as time_module
        from pathlib import Path

        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        port_file = cache_dir / "port"
        port_file.unlink(missing_ok=True)  # left by an earlier daemon
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env.update(extra_env or {})
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        deadline = time_module.monotonic() + 120
        while not port_file.exists():
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon exited during startup:\n"
                                   + (self.proc.stderr.read() or ""))
            if time_module.monotonic() > deadline:
                self.proc.kill()
                raise TimeoutError("serve daemon never wrote its port file")
            time_module.sleep(0.05)
        self.url = f"http://127.0.0.1:{port_file.read_text().strip()}"

    def stop(self) -> int:
        """SIGTERM (graceful drain) and return the exit code."""
        import signal
        import subprocess

        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(timeout=10)


def _bench_artifact_store(quick: bool) -> dict:
    """Throughput of the content-addressed artifact store plus the
    warm-import replay.

    Two parts: raw put/get/verify/export/import rates over a synthetic
    corpus (the durable-write path pays its fsync barriers here, so the
    numbers track the real cost of crash safety), and an end-to-end
    replay — an engine runs a small simulation batch on cache A, A's
    artifact corpus is exported and imported into a fresh cache B, and
    an engine on B must replay the same batch executing zero jobs with
    bit-identical reports.
    """
    import tempfile
    from pathlib import Path

    from ..artifacts import ArtifactStore
    from ..eval.engine import SimJob, SweepEngine, temporary_cache_dir

    entries = 64 if quick else 256
    rng = np.random.default_rng(0)
    payloads = [rng.random(1024) for _ in range(entries)]  # ~8 KiB each

    with tempfile.TemporaryDirectory(prefix="repro-artifact-bench-") as tmp:
        store = ArtifactStore(directory=Path(tmp) / "store")
        with Timer() as put_t:
            ids = [store.put("bench", {"index": i}, payloads[i])
                   for i in range(entries)]
        assert all(ids), "every bench artifact write must land"
        with Timer() as get_t:
            for art_id in ids:
                store.get(art_id)
        with Timer() as verify_t:
            outcome = store.verify()
        assert outcome["ok"] == entries and not outcome["quarantined"], \
            f"pristine corpus must verify clean: {outcome}"
        corpus = Path(tmp) / "corpus.tar.gz"
        with Timer() as export_t:
            store.export(corpus)
        other = ArtifactStore(directory=Path(tmp) / "other")
        with Timer() as import_t:
            imported = other.import_(corpus)
        assert imported["imported"] == entries, imported

        # Warm-import replay: cold sweep on cache A, ship A's corpus to
        # a fresh cache B, replay there with zero executions.
        jobs = [SimJob.from_call(name, dataset, model)
                for dataset, model in (("cora", "gcn"), ("citeseer", "gcn"))
                for name in ("hygcn", "mega")]
        with temporary_cache_dir(Path(tmp) / "env-a"):
            clear_all_caches()
            engine_a = SweepEngine(workers=0, cache_dir=Path(tmp) / "cache-a")
            engine_a.clear_memory()  # the workload memo is module-level
            with Timer() as cold:
                cold_reports = engine_a.run(jobs)
            executed_cold = engine_a.executed_jobs
            replay_corpus = Path(tmp) / "replay.tar.gz"
            engine_a.artifacts.export(replay_corpus)
        with temporary_cache_dir(Path(tmp) / "env-b"):
            clear_all_caches()
            engine_b = SweepEngine(workers=0, cache_dir=Path(tmp) / "cache-b")
            engine_b.artifacts.import_(replay_corpus)
            engine_b.clear_memory()
            with Timer() as warm:
                warm_reports = engine_b.run(jobs)
            executed_warm = engine_b.executed_jobs
        assert executed_warm == 0, \
            f"imported corpus must replay with 0 executions " \
            f"({executed_warm})"
        assert all(warm_reports[j] == cold_reports[j] for j in jobs), \
            "replay from an imported corpus must be bit-identical"
    clear_all_caches()

    def rate(count: int, elapsed: float) -> float:
        return count / elapsed if elapsed > 0 else float("inf")

    return {
        "entries": entries,
        "put_s": put_t.elapsed,
        "get_s": get_t.elapsed,
        "verify_s": verify_t.elapsed,
        "export_s": export_t.elapsed,
        "import_s": import_t.elapsed,
        "puts_per_s": rate(entries, put_t.elapsed),
        "gets_per_s": rate(entries, get_t.elapsed),
        "verifies_per_s": rate(entries, verify_t.elapsed),
        "replay": {
            "jobs": len(jobs),
            "cold_s": cold.elapsed,
            "warm_import_s": warm.elapsed,
            "executed_cold_jobs": executed_cold,
            "executed_warm_jobs": executed_warm,
            "warm_speedup": _speedup(cold.elapsed, warm.elapsed),
        },
    }


def _bench_fleet_replay(quick: bool) -> dict:
    """Fleet distribution end to end: a fresh-cache worker replays a
    served corpus over a hostile network.

    Three phases: a local engine warms a corpus (cold timing baseline);
    a ``repro serve`` daemon on that warm cache — with wire faults
    injected daemon-side (``net_corrupt=1.0:2,net_503=1.0:1``) — serves
    it to a fresh-cache in-process worker whose engine resolves through
    the remote tier (must execute zero jobs and stay bit-identical);
    then a forced-chaos pass — a second daemon damaging every first
    payload transfer (``net_corrupt=1.0``) — pulls the corpus into a
    third fresh cache, proving every damaged transfer is rejected
    before publish and the bounded retry converges.

    The daemon's plan fires at rate 1.0 under caps, so it hits the
    first transfers whatever the artifact ids are: the first manifest
    request uses up one ``net_corrupt`` firing undamaged (only payloads
    are flipped), the first payload arrives corrupt and must be
    rejected, and the next first-attempt transfer is answered 503.  A
    rate below 1.0 would decide per artifact id, and ids change with
    every code version.
    """
    import tempfile
    from pathlib import Path

    from ..client import ServeClient
    from ..artifacts import ArtifactStore
    from ..eval.engine import SimJob, SweepEngine, temporary_cache_dir
    from ..remote import RemoteStore

    pairs = (("cora", "gcn"),) if quick else (("cora", "gcn"),
                                              ("citeseer", "gcn"))
    names = ("hygcn", "mega") if quick else ("hygcn", "mega", "gcnax")
    jobs = [SimJob.from_call(name, dataset, model)
            for dataset, model in pairs for name in names]
    fault_env = {"REPRO_FAULTS": "net_corrupt=1.0:2,net_503=1.0:1",
                 "REPRO_FAULTS_SEED": "0"}
    chaos_env = {"REPRO_FAULTS": "net_corrupt=1.0", "REPRO_FAULTS_SEED": "0"}

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        server_cache = Path(tmp) / "server-cache"
        with temporary_cache_dir(Path(tmp) / "env-a"):
            clear_all_caches()
            warm_engine = SweepEngine(workers=0, cache_dir=server_cache)
            warm_engine.clear_memory()
            with Timer() as cold:
                cold_reports = warm_engine.run(jobs)
            executed_cold = warm_engine.executed_jobs
            corpus_ids = [warm_engine.job_fingerprint(j) for j in jobs]

        daemon = _ServeDaemon(server_cache, extra_env=fault_env)
        try:
            # Fleet replay: a fresh-cache worker resolves every job
            # through memory -> disk -> remote, executing nothing.
            with temporary_cache_dir(Path(tmp) / "env-b"):
                clear_all_caches()
                worker = SweepEngine(workers=0,
                                     cache_dir=Path(tmp) / "cache-b")
                worker.remote = RemoteStore(url=daemon.url,
                                            store=worker.artifacts,
                                            backoff=0.05)
                worker.clear_memory()
                with Timer() as fleet:
                    fleet_reports = worker.run(jobs)
                executed_fleet = worker.executed_jobs
                remote_stats = worker.remote.stats()
                worker_verify = worker.artifacts.verify()
            server_stats = ServeClient(daemon.url).stats()["counters"]
        finally:
            drain_exit = daemon.stop()

        # Forced chaos: the daemon flips a byte of every first payload
        # transfer (a manifest passes undamaged); every fetch must
        # reject the bytes and converge on retry.
        corrupting = _ServeDaemon(server_cache, extra_env=chaos_env)
        try:
            chaos_local = ArtifactStore(directory=Path(tmp) / "cache-c")
            chaos = RemoteStore(url=corrupting.url, store=chaos_local,
                                backoff=0.05)
            with Timer() as chaos_t:
                chaos_values = [chaos.fetch(i) for i in corpus_ids]
            chaos_verify = chaos_local.verify()
        finally:
            chaos_exit = corrupting.stop()
        drain_exit = drain_exit or chaos_exit

        identical = all(fleet_reports[j] == cold_reports[j] for j in jobs)
        assert executed_fleet == 0, \
            f"fleet replay must execute 0 jobs ({executed_fleet})"
        assert identical, \
            "fleet replay must be bit-identical to local execution"
        assert worker_verify["quarantined"] == [], worker_verify
        assert server_stats["net_faults"] >= 1, \
            f"the daemon injected no wire fault ({server_stats})"
        assert remote_stats["rejected"] >= 1, \
            f"the worker rejected no damaged transfer ({remote_stats})"
        assert all(v is not None for v in chaos_values), \
            "forced chaos must converge on every fetch"
        assert chaos.rejected >= len(corpus_ids), \
            f"every first transfer was damaged; all must be rejected " \
            f"before publish ({chaos.rejected})"
        assert chaos_verify["quarantined"] == [], \
            "no damaged payload may ever publish"
        assert drain_exit == 0, f"drain exit code {drain_exit}"
    clear_all_caches()

    return {
        "jobs": len(jobs),
        "faults": fault_env["REPRO_FAULTS"],
        "cold_s": cold.elapsed,
        "fleet_s": fleet.elapsed,
        "fleet_speedup": _speedup(cold.elapsed, fleet.elapsed),
        "executed_cold_jobs": executed_cold,
        "executed_warm_jobs": executed_fleet,
        "identical": identical,
        "remote": remote_stats,
        "rejected_transfers": remote_stats["rejected"] + chaos.rejected,
        "resumed_transfers": remote_stats["resumed"] + chaos.resumed,
        "net_faults": server_stats["net_faults"],
        "served_artifact_hits": server_stats["artifact_hits"],
        "served_artifact_bytes": server_stats["artifact_bytes"],
        "chaos": {
            "faults": chaos_env["REPRO_FAULTS"],
            "fetches": len(corpus_ids),
            "rejected": chaos.rejected,
            "retries_used": chaos.retries_used,
            "fetch_s": chaos_t.elapsed,
            "quarantined": len(chaos_verify["quarantined"]),
        },
        "drain_exit_code": drain_exit,
    }


def run_benchmarks(sizes: Optional[List[str]] = None, repeats: int = 3,
                   seed: int = 0,
                   quick: Optional[bool] = None) -> dict:
    """Time every hot kernel on each requested size, then the
    ``train_epoch``, ``artifact_store`` and ``fleet_replay`` entries;
    returns the report dict that ``main`` serializes to
    ``BENCH_repro.json``."""
    if quick is None:  # small-size-only runs get the small entry budgets
        quick = bool(sizes) and set(sizes) <= {"tiny", "small"}
    sizes = list(sizes or ("small", "medium", "large"))
    unknown = set(sizes) - set(BENCH_SIZES)
    if unknown:
        raise ValueError(f"unknown bench sizes: {sorted(unknown)}")
    report = {
        "schema": "repro.perf.bench/v10",
        # Top-level mirror of ``schema`` for consumers that key on a
        # conventional field name; always equal to ``schema``.
        "schema_version": "repro.perf.bench/v10",
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "sizes": {s: dict(zip(("nodes", "edges", "feature_dim", "num_parts"),
                              BENCH_SIZES[s])) for s in sizes},
        "partition_sizes": {s: dict(zip(("dataset", "num_parts"),
                                        PARTITION_SIZES[s])) for s in sizes},
        "kernels": {},
    }
    kernels: Dict[str, Dict[str, dict]] = {
        "adaptive_package_encode": {}, "condense_run": {},
        "sample_neighbors": {}, "csr_decode": {}, "partition_graph": {},
    }
    for size in sizes:
        graph, values, bits, num_parts = _bench_inputs(size, seed=seed)
        parts = cached_partition(graph.adjacency, num_parts).parts
        kernels["adaptive_package_encode"][size] = _bench_encode(
            values, bits, repeats)
        kernels["condense_run"][size] = _bench_condense(
            graph, parts, repeats)
        kernels["sample_neighbors"][size] = _bench_sample(
            graph, repeats)
        kernels["csr_decode"][size] = _bench_csr_decode(
            values, bits, repeats)
        kernels["partition_graph"][size] = _bench_partition(
            size, repeats)
    report["kernels"] = kernels
    report["train_epoch"] = _bench_train_epoch(quick)
    report["artifact_store"] = _bench_artifact_store(quick)
    report["fleet_replay"] = _bench_fleet_replay(quick)
    return report


def _print_summary(report: dict) -> None:
    print(f"{'kernel':<26} {'size':<8} {'fast':>10} {'reference':>10} {'speedup':>8}")
    for kernel, per_size in report["kernels"].items():
        for size, row in per_size.items():
            fast, ref = row["fast"]["best_s"], row["reference_s"]
            print(f"{kernel:<26} {size:<8} {fast * 1e3:>8.2f}ms "
                  f"{ref * 1e3:>8.2f}ms {row['speedup']:>7.1f}x")
    epoch = report.get("train_epoch")
    if epoch:
        print(f"\ntrain_epoch: {epoch['dataset']}-{epoch['model']}, "
              f"{epoch['epochs']} epochs")
        for flow, row in epoch["flows"].items():
            print(f"  {flow:<13} hot loop {row['new_per_epoch_ms']:>7.1f}ms/epoch "
                  f"vs seed {row['reference_per_epoch_ms']:>7.1f}ms/epoch "
                  f"({row['speedup']:.2f}x, bit-identical)")
    art = report.get("artifact_store")
    if art:
        print(f"\nartifact_store: {art['entries']} entries "
              f"(durable writes, sha256-verified reads)")
        print(f"  put {art['puts_per_s']:>7.0f}/s  "
              f"get {art['gets_per_s']:>7.0f}/s  "
              f"verify {art['verifies_per_s']:>7.0f}/s")
        print(f"  export {art['export_s'] * 1e3:>7.1f}ms  "
              f"import {art['import_s'] * 1e3:>7.1f}ms (re-checksummed)")
        replay = art["replay"]
        print(f"  replay        {replay['warm_import_s'] * 1e3:>9.1f}ms from "
              f"an imported corpus ({replay['executed_warm_jobs']} of "
              f"{replay['jobs']} jobs executed, "
              f"{replay['warm_speedup']:.1f}x vs cold)")
    fleet = report.get("fleet_replay")
    if fleet:
        print(f"\nfleet_replay: {fleet['jobs']} jobs pulled from a served "
              f"store under {fleet['faults']}")
        print(f"  cold local    {fleet['cold_s'] * 1e3:>9.1f}ms "
              f"({fleet['executed_cold_jobs']} jobs executed)")
        print(f"  fleet replay  {fleet['fleet_s'] * 1e3:>9.1f}ms "
              f"({fleet['executed_warm_jobs']} jobs executed, "
              f"{fleet['fleet_speedup']:.1f}x, bit-identical: "
              f"{fleet['identical']})")
        print(f"  wire faults   {fleet['net_faults']} injected by the daemon, "
              f"{fleet['remote']['rejected']} damaged transfers rejected "
              f"by the worker")
        print(f"  chaos         {fleet['rejected_transfers']} transfers "
              f"rejected / {fleet['resumed_transfers']} resumed in all, "
              f"{fleet['chaos']['quarantined']} corrupt payloads published")
        print(f"  drain         exit {fleet['drain_exit_code']} "
              f"(SIGTERM, graceful)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark the vectorized hot kernels vs their seed "
                    "reference implementations.")
    parser.add_argument("--quick", action="store_true",
                        help="small size only (CI smoke run)")
    parser.add_argument("--sizes", nargs="+", choices=sorted(BENCH_SIZES),
                        help="explicit size list (overrides --quick)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats for the vectorized kernels")
    parser.add_argument("--output", default="BENCH_repro.json",
                        help="output JSON path (default: %(default)s)")
    args = parser.parse_args(argv)

    sizes = args.sizes or (["small"] if args.quick else None)
    try:  # fail on an unwritable output path before the run, not after
        with open(args.output, "a"):
            pass
    except OSError as exc:
        parser.error(f"cannot write --output {args.output!r}: {exc}")
    clear_all_caches()
    report = run_benchmarks(sizes=sizes, repeats=args.repeats,
                            quick=True if args.quick else None)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    _print_summary(report)
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
