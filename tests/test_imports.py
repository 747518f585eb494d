"""Import boundaries: each entry point imports only what it runs.

Every check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.engine import _EXECUTION_MODULES

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

# The experiment registry's built-in names; adding or dropping one is a
# deliberate change to this list.
BUILTIN_EXPERIMENTS = (
    "ablation_fig19", "accuracy_comparison", "accuracy_grid",
    "cr_sensitivity", "degree_feature_magnitudes", "dq_bitwidth_sweep",
    "dram_table", "energy_breakdown_fig18", "energy_table",
    "full_comparison", "locality_study", "original_config_comparison",
    "package_length_study", "speedup_table", "stall_table",
)


def _env(cache_dir=None):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC_ROOT
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _python(script, *args, cache_dir=None):
    """Run ``script`` in a fresh interpreter; return its last stdout
    line parsed as JSON."""
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=_env(cache_dir), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Appended to a probe script: prints the numpy and scipy modules it loaded.
_ARRAY_MODULES = (
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m.split('.')[0] in ('numpy', 'scipy'))))")


def test_cli_import_loads_no_numpy_or_scipy():
    loaded = _python(
        "import json, sys\n"
        "import repro.cli\n" + _ARRAY_MODULES)
    assert loaded == []


def test_training_config_and_runner_load_no_numpy_or_scipy():
    loaded = _python(
        "import json, sys\n"
        "from repro.nn import TrainConfig\n"
        "from repro.report import run_experiment\n"
        "TrainConfig(epochs=40, patience=10_000)\n" + _ARRAY_MODULES)
    assert loaded == []


def test_declaring_jobs_loads_no_numpy_or_scipy():
    loaded = _python(
        "import json, sys\n"
        "from repro.eval.engine import SimJob, TrainJob\n"
        "from repro.quant import DegreeAwareConfig\n"
        "sims = {SimJob.from_call(name, 'nell', 'gcn',\n"
        "                         target_average_bits=2.5 + i / 16)\n"
        "        for name in ('mega', 'mega-no-condense', 'mega-bitmap')\n"
        "        for i in range(67)}\n"
        "assert len(sims) == 201\n"
        "job = TrainJob.from_call(\n"
        "    'cora', 'gcn', 'degree-aware',\n"
        "    {'quant_config': DegreeAwareConfig(target_average_bits=3.0)})\n"
        "hash(job)\n" + _ARRAY_MODULES)
    assert loaded == []


def test_workload_module_loads_no_training_stack():
    """The simulator's workload builder reads Table III from
    ``repro.paper_data``, not from the models."""
    loaded = _python(
        "import json, sys\n"
        "import repro.sim.workload\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[:2] in (['repro', 'nn'],\n"
        "                                                ['repro', 'tensor']))))")
    assert loaded == []


def test_flow_names_match_the_executable_flows():
    from repro.quant.config import TRAIN_FLOW_NAMES
    from repro.quant.flows import TRAIN_FLOWS

    assert list(TRAIN_FLOW_NAMES) == list(TRAIN_FLOWS)


def test_package_version_is_read_statically():
    """``pyproject.toml`` takes its version from ``repro.__version__``
    without importing the package."""
    pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(SRC_ROOT).parent / "pyproject.toml"
    out = _python(
        "import json, sys, warnings\n"
        "from setuptools.config.pyprojecttoml import read_configuration\n"
        "warnings.simplefilter('ignore')\n"
        "version = read_configuration(sys.argv[1])['project']['version']\n"
        "print(json.dumps([version, 'repro' in sys.modules]))", pyproject)
    assert out == [repro.__version__, False]


# The lazily loaded packages: ``dir()`` lists every exported name before
# it loads, and each resolves.
LAZY_PACKAGES = ("repro", "repro.graphs", "repro.mega", "repro.eval",
                 "repro.nn", "repro.quant")


def test_lazy_packages_list_and_resolve_every_export():
    out = _python(
        "import importlib, json, sys\n"
        "out = {}\n"
        "for name in sys.argv[1:]:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = set(dir(package))\n"
        "    out[name] = {\n"
        "        'unlisted': [n for n in package.__all__ if n not in listed],\n"
        "        'unresolved': [n for n in package.__all__\n"
        "                       if getattr(package, n, None) is None]}\n"
        "from repro.tensor import tensor\n"
        "out['tensor'] = type(tensor(1.0)).__name__\n"
        "print(json.dumps(out))", *LAZY_PACKAGES)
    assert out.pop("tensor") == "Tensor"  # the factory, not the submodule
    assert out == {name: {"unlisted": [], "unresolved": []}
                   for name in LAZY_PACKAGES}


class TestRegistryBuiltins:
    def test_first_lookup_loads_every_builtin(self):
        out = _python(
            "import json\n"
            "from repro.registry import (ACCELERATORS, EXPERIMENTS,\n"
            "                            get_accelerator)\n"
            "print(json.dumps({'mega': get_accelerator('mega').precision,\n"
            "                  'accelerators': len(ACCELERATORS),\n"
            "                  'experiments': EXPERIMENTS.names()}))")
        assert out["mega"] == "degree-aware"
        assert out["accelerators"] == 12
        assert tuple(out["experiments"]) == BUILTIN_EXPERIMENTS

    def test_early_registration_coexists_with_builtins(self):
        out = _python(
            "import json\n"
            "from repro.registry import (ACCELERATORS, AcceleratorEntry,\n"
            "                            RegistryError, get_accelerator)\n"
            "ACCELERATORS.add('custom-early', AcceleratorEntry(\n"
            "    name='custom-early', factory=dict))\n"
            "get_accelerator('mega')\n"
            "try:\n"
            "    ACCELERATORS.add('mega', AcceleratorEntry(name='mega',\n"
            "                                              factory=dict))\n"
            "    duplicate = 'accepted'\n"
            "except RegistryError as exc:\n"
            "    duplicate = str(exc)\n"
            "print(json.dumps({'names': ACCELERATORS.names(),\n"
            "                  'duplicate': duplicate}))")
        assert "custom-early" in out["names"] and "mega" in out["names"]
        assert len(out["names"]) == 13
        assert "already registered" in out["duplicate"]

    def test_early_registration_of_a_builtin_name_fails_the_lookup(self):
        out = _python(
            "import json\n"
            "from repro.registry import (ACCELERATORS, AcceleratorEntry,\n"
            "                            RegistryError, get_accelerator)\n"
            "ACCELERATORS.add('mega', AcceleratorEntry(name='mega',\n"
            "                                          factory=dict))\n"
            "try:\n"
            "    get_accelerator('hygcn')\n"
            "    outcome = 'resolved'\n"
            "except RegistryError as exc:\n"
            "    outcome = str(exc)\n"
            "print(json.dumps(outcome))")
        assert "'mega' is already registered" in out


def _run_cli(out_dir, cache_dir):
    """``repro run`` on the smoke suite under ``-X importtime``; returns
    the set of modules it imported and the written artifacts."""
    argv = [sys.executable, "-X", "importtime", "-m", "repro", "run",
            "speedup_table", "stall_table", "--suite", "smoke",
            "--no-journal", "--quiet", "--out", str(out_dir)]
    proc = subprocess.run(argv, env=_env(cache_dir), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    artifacts = {path.name: json.loads(path.read_text())
                 for path in sorted(Path(out_dir).glob("*.json"))}
    return imported, artifacts


def test_warm_rerun_executes_nothing_and_never_loads_scipy_sparse(tmp_path):
    cache = tmp_path / "cache"
    _imported, cold = _run_cli(tmp_path / "cold", cache)
    imported, warm = _run_cli(tmp_path / "warm", cache)
    assert sorted(warm) == sorted(cold) == ["speedup_table.json",
                                            "stall_table.json"]
    # stall_table's jobs are a subset of speedup_table's, so only the
    # first experiment of the cold process executes anything.
    assert cold["speedup_table.json"]["metadata"]["jobs"]["executed"] > 0
    for name, artifact in warm.items():
        assert artifact["metadata"]["jobs"]["executed"] == 0
        assert artifact["rows"] == cold[name]["rows"]
    assert "repro.eval.engine" in imported  # the probe sees the run
    assert not {m for m in imported if m.startswith("scipy.sparse")}


# One Table VI run in a fresh process: the rows, how many models it
# trained, and which of the training stack's modules it loaded.
_TABLE6_PROBE = """
import json, sys
from repro.nn import TrainConfig
from repro.report import run_experiment

artifact = run_experiment("accuracy_comparison", cases=(("cora", "gcn"),),
                          config=TrainConfig(epochs=2))
print(json.dumps({
    "rows": artifact.rows,
    "trained": artifact.metadata["jobs"]["trained"],
    "loaded": sorted(m for m in sys.modules
                     if m in ("scipy.sparse", "repro.quant.flows",
                              "repro.nn.layers", "repro.tensor"))}))
"""


def test_warm_table6_replay_loads_no_training_stack(tmp_path):
    cold = _python(_TABLE6_PROBE, cache_dir=tmp_path / "cache")
    warm = _python(_TABLE6_PROBE, cache_dir=tmp_path / "cache")
    assert cold["trained"] == 3 and len(cold["rows"]) == 3
    assert "repro.quant.flows" in cold["loaded"]  # the probe sees training
    assert warm["trained"] == 0
    assert warm["rows"] == cold["rows"]
    assert warm["loaded"] == []


def test_engine_without_remote_url_loads_no_remote_tier(tmp_path):
    """Without ``REPRO_REMOTE_URL`` an engine never imports the HTTP
    fetcher, and the store loads ``tarfile`` only to export or import."""
    loaded = _python(
        "import json, sys\n"
        "from repro.eval.engine import SweepEngine\n"
        "assert SweepEngine(cache_dir=sys.argv[1]).remote is None\n"
        "print(json.dumps([m for m in ('repro.remote', 'http.client',\n"
        "                              'tarfile') if m in sys.modules]))",
        tmp_path / "store")
    assert loaded == []


def test_serve_reports_ready_with_builtins_and_engine_loaded(tmp_path):
    seen = _python(
        "import json, sys\n"
        "from repro.eval import engine as engine_mod\n"
        "from repro.serve import ServeConfig, ServerThread\n"
        "with ServerThread(ServeConfig(port=0, quiet=True)):\n"
        "    seen = {'engine': engine_mod._ENGINE is not None,\n"
        "            'builtins': 'repro.mega.performance' in sys.modules,\n"
        "            'sparse': 'scipy.sparse' in sys.modules}\n"
        "print(json.dumps(seen))", cache_dir=tmp_path / "cache")
    assert seen == {"engine": True, "builtins": True, "sparse": False}


# Records, at each job's start, which execution modules are still
# missing; a cold two-dataset sweep through the serial path (argv[2] ==
# "0") or two forked workers (argv[2] == "2", recorded at each fork).
_ENGINE_PROBE = """
import json, os, sys
from repro.eval import engine as engine_mod
from repro.eval.engine import SimJob, SweepEngine

def missing():
    return [m for m in engine_mod._EXECUTION_MODULES if m not in sys.modules]

seen = {"before": missing(), "jobs": [], "forks": []}
execute, fork = engine_mod._execute_job, os.fork

def spy_execute(job, attempt=0):
    seen["jobs"].append(missing())
    return execute(job, attempt)

def spy_fork():
    seen["forks"].append(missing())
    return fork()

engine_mod._execute_job, os.fork = spy_execute, spy_fork
engine = SweepEngine(workers=int(sys.argv[2]), cache_dir=sys.argv[1])
reports = engine.run([SimJob.from_call("mega", "cora", "gcn"),
                      SimJob.from_call("mega", "citeseer", "gcn")])
seen["reports"] = len(reports)
seen["pool_used"] = engine.pool_used
print(json.dumps(seen))
"""


class TestEngineLoadsExecutionStackFirst:
    def test_serial_path(self, tmp_path):
        seen = _python(_ENGINE_PROBE, tmp_path / "store", 0)
        assert seen["before"] == list(_EXECUTION_MODULES)
        assert seen["reports"] == 2 and not seen["pool_used"]
        assert seen["jobs"] == [[], []]

    def test_forked_workers(self, tmp_path):
        seen = _python(_ENGINE_PROBE, tmp_path / "store", 2)
        assert seen["before"] == list(_EXECUTION_MODULES)
        assert seen["reports"] == 2 and seen["pool_used"]
        assert seen["forks"] and all(m == [] for m in seen["forks"])
