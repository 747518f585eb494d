"""The regression gate: compare benchmark results of two commits.

    python3 bench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

``A`` files hold runs of the parent commit, ``B`` files runs of the
change, each written by ``bench/run.py --out``.  For every end-to-end
metric and workload the gate prints one verdict:

- **improved** — the claim rule holds on at least ten pairs: B beats A
  in at least 9 of 10 pairs (runs paired in order when both sides have
  as many, otherwise every A run against every B run; ties count for
  neither) and the medians differ by more than A's interquartile range;
- **regressed** — B's median is worse than A's by more than the
  metric's bound from ``BENCHMARK.json``, and either the run-to-run
  spread is within the bound or every B run is worse than every A run;
- **unresolved** — the spread is wider than the bound, unless every B
  run beats every A run;
- **unchanged** — otherwise.

The spread of a side is the interquartile range of its runs' medians as
a share of their median; one run has no measurable spread, which
counts as 0, so give each side several runs.  A file holds one result
or a JSON list of results (a set of runs).

The fidelity figures in :data:`FIDELITY` are deterministic for a seed,
so they get fixed tolerances instead of bounds: B's median may be worse
than A's by at most the tolerance (absolute, or relative to A).  The
gate also compares, per workload, the share of failed operations, and
checks that every B run passed its output checks.  It exits 1 on any
regression, a fidelity figure worse beyond its tolerance, a higher
failure share or a failed check.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)

from bench.stats import quartiles, spread  # noqa: E402

USAGE = "usage: python3 bench/compare.py A.json [A.json ...] -- B.json [B.json ...]"
# A gain is claimed only from at least this many pairs of runs.
MIN_PAIRS = 10

# Fidelity figure -> (workload, better, "abs" or "rel", tolerance).
FIDELITY: Dict[str, Tuple[str, str, str, float]] = {
    "fig14_log_err": ("paper_figs", "lower", "abs", 1e-9),
    "table6_da_acc": ("table6_train", "higher", "abs", 0.005),
    "table6_da_cr": ("table6_train", "higher", "rel", 0.02),
}


@dataclass
class Side:
    """One commit's runs of one (metric, workload)."""

    values: List[float]      # per-run medians
    spread: float            # interquartile range / median
    iqr: float               # interquartile range, in the metric's unit

    @classmethod
    def of(cls, values: Sequence[float]) -> "Side":
        q1, _, q3 = quartiles(values)
        return cls(values=list(values), spread=spread(values), iqr=q3 - q1)


def judge(a: Side, b: Side, bound: float, better: str) -> Tuple[str, float]:
    """Verdict and B's relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a.values)
    med_b = statistics.median(b.values)
    worse = sign * (med_b - med_a) / abs(med_a)
    if len(a.values) == len(b.values):
        pairs = list(zip(a.values, b.values))
    else:
        pairs = [(x, y) for x in a.values for y in b.values]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = all(sign * (y - x) < 0 for x in a.values for y in b.values)
    all_worse = all(sign * (y - x) > 0 for x in a.values for y in b.values)
    noise = max(a.spread, b.spread)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > a.iqr):
        return "improved", worse
    if worse > bound and (noise <= bound or all_worse):
        return "regressed", worse
    if noise > bound and not all_better:
        return "unresolved", worse
    return "unchanged", worse


def metric_values(results: Sequence[Dict], workload: str,
                  name: str) -> List[float]:
    """The per-run medians of one metric on one workload."""
    return [r["workloads"][workload]["metrics"][name]["value"]
            for r in results
            if name in r["workloads"].get(workload, {}).get("metrics", {})]


def load(paths: Sequence[str]) -> List[Dict]:
    """Result files; a file holding a JSON list contributes each entry."""
    results: List[Dict] = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        results.extend(data if isinstance(data, list) else [data])
    return results


def failure_share(results: Sequence[Dict], workload: str) -> float:
    runs = [r["workloads"][workload] for r in results
            if workload in r["workloads"]]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(a_results: Sequence[Dict], b_results: Sequence[Dict],
            spec: Dict) -> Tuple[List[Dict], List[str]]:
    """Rows of verdicts, and the reasons (if any) the gate fails."""
    rows: List[Dict] = []
    failures: List[str] = []
    workloads = sorted({w for r in a_results for w in r["workloads"]}
                       & {w for r in b_results for w in r["workloads"]})
    for workload in workloads:
        for run in b_results:
            if not run["workloads"].get(workload, {"correct": True})["correct"]:
                failures.append(f"{workload}: a B run failed its checks")
        share_a = failure_share(a_results, workload)
        share_b = failure_share(b_results, workload)
        if share_b > share_a:
            failures.append(f"{workload}: failure share {share_b:.4g} > "
                            f"{share_a:.4g}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (metric_values(results, workload, name)
                    for results in (a_results, b_results))
            if not a or not b:
                continue
            side_a, side_b = Side.of(a), Side.of(b)
            verdict, worse = judge(side_a, side_b, metric["bound"],
                                   metric["better"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "a": statistics.median(side_a.values),
                         "b": statistics.median(side_b.values),
                         "spread": max(side_a.spread, side_b.spread),
                         "worse": worse, "verdict": verdict})
            if verdict == "regressed":
                failures.append(f"{workload}: {name} regressed by "
                                f"{worse:+.1%} (bound {metric['bound']:.0%})")
    return rows, failures


def compare_fidelity(a_results: Sequence[Dict], b_results: Sequence[Dict]
                     ) -> Tuple[List[Dict], List[str]]:
    """Rows of fidelity verdicts, and the reasons (if any) the gate fails.
    A figure missing from either side is skipped."""
    rows: List[Dict] = []
    failures: List[str] = []
    for name, (workload, better, kind, tolerance) in FIDELITY.items():
        a, b = ([r["workloads"][workload]["extras"][name] for r in results
                 if name in r["workloads"].get(workload, {}).get("extras", {})]
                for results in (a_results, b_results))
        if not a or not b:
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (1.0 if better == "lower" else -1.0) * (med_b - med_a)
        if kind == "rel":
            worse /= abs(med_a)
        if worse > tolerance:
            verdict = "regressed"
            failures.append(f"{workload}: {name} moved from {med_a:.6g} to "
                            f"{med_b:.6g} (tolerance {kind} {tolerance:g})")
        elif worse < -tolerance:
            verdict = "improved"
        else:
            verdict = "unchanged"
        rows.append({"workload": workload, "figure": name, "a": med_a,
                     "b": med_b, "tolerance": f"{kind} {tolerance:g}",
                     "verdict": verdict})
    return rows, failures


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else 0
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print(USAGE, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_results, b_results = load(a_paths), load(b_paths)
    rows, failures = compare(a_results, b_results, spec)
    fidelity_rows, fidelity_failures = compare_fidelity(a_results, b_results)
    failures += fidelity_failures
    print(f"{'workload':<14} {'metric':<12} {'A median':>12} {'B median':>12}"
          f" {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<12} {row['a']:>12.6g} "
              f"{row['b']:>12.6g} {row['worse']:>+8.1%} {row['spread']:>7.3f} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    if fidelity_rows:
        print(f"\n{'workload':<14} {'figure':<14} {'A median':>12} "
              f"{'B median':>12} {'tolerance':>10}  verdict")
    for row in fidelity_rows:
        print(f"{row['workload']:<14} {row['figure']:<14} {row['a']:>12.6g} "
              f"{row['b']:>12.6g} {row['tolerance']:>10}  {row['verdict']}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
