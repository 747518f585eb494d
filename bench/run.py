"""Run the benchmark and print every metric.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each workload runs in its own child process (``bench/worker.py``), so
peak memory is per workload.  ``--trace 0`` measures the end-to-end
metrics declared in ``BENCHMARK.json`` with tracing off; ``--trace 1``
runs one traced iteration and reports the per-layer metrics; without
``--trace`` both run.  Every run checks the program's outputs.

Standard output lists each metric (and, marked ungated, the cold and
warm times and peak memory, which carry no bound) with its unit,
median, sample count, quartiles and tail percentile; its last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (names prefixed ``<workload>/`` when more than one workload
ran).  ``--out`` writes the
full result — samples, checks, fidelity figures, per-layer metrics,
commit, seed, versions and total time — and the merged spans of traced
runs beside it as ``<stem>.trace.jsonl``.  A worker that fails or times
out makes its workload incorrect (one failed operation) and the run
goes on.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
# Import bench.* as a package and keep bench/ itself off the path, so
# bench/trace.py never shadows the standard library's trace module.
sys.path[0] = str(ROOT)

from bench.stats import summarize  # noqa: E402
from bench.worker import (  # noqa: E402
    WORKLOADS, child_env, no_address_randomization)

# A run of one workload must end within 180 s, so its worker gets this
# long; a run of several workloads takes up to this long per workload.
WORKER_TIMEOUT_S = 170.0


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit() -> str:
    """HEAD of the checkout's git metadata, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload: str, seed: int, seconds: float,
               trace: int) -> Dict:
    """One workload run in its own process group, under a temporary
    directory inside the checkout that is removed afterwards."""
    tmp = ROOT / ".bench_tmp" / f"{workload}-{trace}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    result_path = tmp / "result.json"
    argv = [sys.executable, "-m", "bench.worker", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--tmp", str(tmp),
            "--result", str(result_path)]
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=sys.stderr, start_new_session=True,
                                preexec_fn=no_address_randomization)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{workload} worker timed out after "
                               f"{WORKER_TIMEOUT_S:g}s") from None
        finally:
            # Whatever the worker left behind (or the worker itself, on a
            # timeout or interrupt) is stopped before this run returns.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not result_path.is_file():
            raise RuntimeError(f"{workload} worker exited {proc.returncode} "
                               f"without a result")
        result = json.loads(result_path.read_text())
        trace_file = result.pop("trace_file")
        result["spans"] = (Path(trace_file).read_text().splitlines()
                           if trace_file else [])
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def workload_report(result: Dict, spec: Dict) -> Dict:
    """A worker's samples turned into the declared metrics."""
    report = {key: result[key] for key in ("correct", "attempted", "failed",
                                           "problems", "extras",
                                           "missing_targets")}
    report["metrics"] = {}
    report["ungated"] = {}
    if not result["trace"]:
        for metric in spec["end_to_end"]:
            values = result["samples"].get(metric["name"])
            if not values:
                report["correct"] = False
                report["problems"].append(f"no samples of {metric['name']}")
                continue
            report["metrics"][metric["name"]] = dict(
                summarize(values), unit=metric["unit"])
        # The cold and warm times and peak memory are summarized the same
        # way but carry no bound; a traced run reports them per layer.
        units = {metric["name"]: metric["unit"]
                 for metric in spec["per_layer"]}
        for name, values in result["samples"].items():
            if name not in report["metrics"] and values:
                report["ungated"][name] = dict(summarize(values),
                                               unit=units[name])
    else:
        for metric in spec["per_layer"]:
            report["metrics"][metric["name"]] = {
                "value": result["layers"].get(metric["name"], 0),
                "unit": metric["unit"]}
    return report


def merge(reports: List[Dict]) -> Dict:
    """Untraced and traced reports of one workload as one."""
    merged = {"correct": all(r["correct"] for r in reports),
              "attempted": sum(r["attempted"] for r in reports),
              "failed": sum(r["failed"] for r in reports),
              "problems": [p for r in reports for p in r["problems"]],
              "extras": {}, "missing_targets": [], "metrics": {},
              "ungated": {}}
    for report in reports:
        merged["extras"].update(report["extras"])
        merged["metrics"].update(report["metrics"])
        merged["ungated"].update(report.get("ungated", {}))
        merged["missing_targets"].extend(report["missing_targets"])
    return merged


def describe(name: str, metric: Dict) -> str:
    line = f"  {name:<46} {metric['value']:.6g} {metric['unit']}"
    if "n" in metric:
        line += (f"  (median of n={metric['n']}, q1 {metric['q1']:.6g}, "
                 f"q3 {metric['q3']:.6g}, spread {metric['spread']:.3f}")
        if metric["tail"]:
            line += (f", p{metric['tail']['p']:g} "
                     f"{metric['tail']['value']:.6g}")
        line += ")"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/run.py")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    modes = (0, 1) if args.trace is None else (args.trace,)

    started = time.perf_counter()
    reports: Dict[str, Dict] = {}
    spans: List[str] = []
    versions = {}
    for workload in workloads:
        parts = []
        for mode in modes:
            print(f"running {workload} (trace {mode}, seed {args.seed}, "
                  f"{seconds:g}s)", file=sys.stderr, flush=True)
            try:
                result = run_worker(workload, args.seed, seconds, mode)
            except RuntimeError as exc:
                # One failed worker does not cost the other workloads
                # their results.
                print(f"error: {exc}", file=sys.stderr)
                parts.append({"correct": False, "attempted": 1, "failed": 1,
                              "problems": [str(exc)], "extras": {},
                              "missing_targets": [], "metrics": {}})
                continue
            versions = result["versions"]
            spans.extend(result["spans"])
            parts.append(workload_report(result, spec))
        reports[workload] = merge(parts)
    total_s = time.perf_counter() - started

    for workload, report in reports.items():
        print(f"{workload}: {'correct' if report['correct'] else 'INCORRECT'}"
              f", {report['failed']} of {report['attempted']} operations "
              f"failed")
        for problem in report["problems"]:
            print(f"  problem: {problem}")
        for name, metric in report["metrics"].items():
            print(describe(name, metric))
        for name, metric in report["ungated"].items():
            print(describe(name, metric) + " ungated")
        for name, value in report["extras"].items():
            print(f"  {name:<46} {value}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "commit": commit(), "seed": args.seed, "seconds": seconds,
            "nproc": os.cpu_count(), "versions": versions,
            "total_s": total_s, "workloads": reports}, indent=1) + "\n")
        if spans:
            trace_out = args.out.with_suffix(".trace.jsonl")
            trace_out.write_text("\n".join(spans) + "\n")

    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {(f"{w}/{name}" if prefix else name):
                    {"value": m["value"], "unit": m["unit"]}
                    for w, r in reports.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
