"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds the records ``run.py --out`` writes (untraced runs;
traced records are skipped).  For every workload and every
``end_to_end`` metric of ``BENCHMARK.json`` it prints each side's median
and quartiles and a verdict:

* ``better`` / ``worse``: the change wins (loses) at least 9 of every 10
  pairs of runs, ties counting for neither, and the medians differ by
  more than the parent's interquartile range;
* ``unresolved``: either side's spread (IQR / median) exceeds the
  metric's bound, unless every change run reads better (or worse) than
  every parent run;
* ``unchanged``: otherwise.

Runs pair up by seed where both sides ran it, else in order.
Exits 1 when a metric's change median is worse than the parent's by more
than its bound, when a metric is unresolved, or when the share of failed
walker-steps rose.

``--write-baseline PATH`` also writes both sets, summarized, as a
committed measurement (see ``BASELINE.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced run records by workload, ordered by seed."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else float("inf"))


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_p, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - med_p)
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "better"
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "worse"
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "better"
    if losses >= WIN_SHARE * len(pairs) and -gain > q3 - q1:
        return "worse"
    return "unchanged"


def beyond_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """True when the change median is worse than the parent's by more than ``bound``."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if better == "higher":
        return med_c < med_p * (1.0 - bound)
    return med_c > med_p * (1.0 + bound)


def _pairs(a: list[dict], b: list[dict], name: str) -> list[tuple[float, float]]:
    """(parent, change) values, paired by seed where both sides ran it."""
    by_seed = {r["seed"]: r for r in b}
    matched = [(x, by_seed[x["seed"]]) for x in a if x["seed"] in by_seed] or list(zip(a, b))
    return [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in matched]


def failed_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Print the comparison table; returns the exit code."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    failing = []
    for workload in sorted(set(parent) & set(change)):
        a, b = parent[workload], change[workload]
        print(f"\n{workload}: {len(a)} parent runs, {len(b)} change runs")
        print(
            f"  {'metric':22s} {'parent median [q1, q3]':>32s}   "
            f"{'change median [q1, q3]':>32s}  verdict"
        )
        for spec in metrics:
            name = spec["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            result = verdict(va, vb, _pairs(a, b, name), spec["better"], spec["bound"])
            flag = ""
            if result == "unresolved" or beyond_bound(va, vb, spec["better"], spec["bound"]):
                flag = f"  FAIL (bound {spec['bound']:.0%})"
                failing.append(f"{workload} {name}")
            qa, qb = quartiles(va), quartiles(vb)
            print(
                f"  {name:22s} {qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(58)
                + f" {qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(36)
                + f" {result}{flag}"
            )
        fa, fb = failed_share(a), failed_share(b)
        print(f"  {'ops_failed_frac':22s} {fa:12.5g}{'':21s} {fb:12.5g}")
        if fb > fa:
            failing.append(f"{workload} ops_failed_frac")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"\nworkloads on one side only: {', '.join(missing)}")
    if failing:
        print(f"\nFAIL: {'; '.join(failing)}")
        return 1
    print("\nOK: no end-to-end metric worse beyond its bound or unresolved")
    return 0


def summarize(directory: Path) -> dict[str, Any]:
    """One set of runs: its stamp, and per workload each metric's quartiles.

    The per-run values are kept for the ``end_to_end`` metrics.
    """
    gated = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = load_runs(directory)
    first = next(iter(runs.values()))[0]
    stamp = {k: v for k, v in first["stamp"].items() if k != "cal_ref_ms"}
    workloads = {}
    for workload, records in sorted(runs.items()):
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            q1, q2, q3 = quartiles(values)
            metrics[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread(values)}
            if name in gated:
                metrics[name]["values"] = values
        workloads[workload] = {
            "seeds": [r["seed"] for r in records],
            "cal_ref_ms": records[0]["stamp"]["cal_ref_ms"],
            "wall_s": sum(r["wall_s"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
        }
    wall_s = sum(w["wall_s"] for w in workloads.values())
    return {"stamp": stamp, "wall_s": wall_s, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--write-baseline", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    if args.write_baseline is not None:
        payload = {
            "about": "two sets of untraced run.py records, measured back to back "
            "on one host, summarized by compare.py",
            "sets": [summarize(args.parent), summarize(args.change)],
        }
        args.write_baseline.write_text(json.dumps(payload, indent=1) + "\n")
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
