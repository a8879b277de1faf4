#!/usr/bin/env python3
"""Compare two results files written by ``run.py --out``.

    python bench/compare.py OLD NEW [--force]

For each workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs, and a verdict:

* ``worse``: the new median is worse than the old by more than the
  metric's bound;
* ``better``: the new median is better by more than the old runs' own
  spread (their interquartile range), and the new run wins at least nine
  in ten of at least :data:`MIN_PAIRS` run pairs (runs paired in file
  order);
* ``unresolved``: either side spreads wider than the bound, and not every
  new run beats every old one;
* ``unchanged``: none of the above.

Per-layer metrics of the traced runs that moved by more than the old
runs' interquartile range are flagged.  Runs from different machines are
refused unless ``--force`` is given.  Exit status: 0, or 1 when any
metric is worse or any workload failed a larger share of its operations,
or 2 when the files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from machine import IDENTITY
from stats import load_spec, quartiles

#: Run pairs a ``better`` verdict needs.  Three runs of one commit
#: compared with three more runs of it gave one ``better`` in twenty
#: metrics.
MIN_PAIRS = 10


def verdict(old: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    q1_old, m_old, q3_old = quartiles(old)
    q1_new, m_new, q3_new = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (m_new - m_old) / m_old
    spread = max((q3_old - q1_old) / m_old, (q3_new - q1_new) / m_new)
    every_run_better = all(sign * (n - o) < 0 for n in new for o in old)
    if spread > bound and not every_run_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if -worsening > (q3_old - q1_old) / m_old and len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def load_runs(path: Path) -> List[dict]:
    return json.loads(path.read_text())["runs"]


def values(runs: Sequence[dict], workload: str, metric: str, traced: bool) -> List[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload)
        if run["trace"] != traced or entry is None or not entry.get("valid", True):
            continue
        if metric in entry["metrics"]:
            out.append(entry["metrics"][metric])
    return out


def failed_share(runs: Sequence[dict], workload: str) -> float:
    attempted = sum(r["workloads"][workload]["attempted"] for r in runs if workload in r["workloads"])
    failed = sum(r["workloads"][workload]["failed"] for r in runs if workload in r["workloads"])
    return failed / attempted if attempted else 0.0


def machines(runs: Sequence[dict]) -> set:
    return {tuple(run["machine"].get(key) for key in IDENTITY) for run in runs}


def _fmt(triple: Tuple[float, float, float]) -> str:
    q1, m, q3 = triple
    return f"{m:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--force", action="store_true", help="compare runs from different machines")
    args = parser.parse_args(argv)

    spec = load_spec()
    old, new = load_runs(args.old), load_runs(args.new)
    seen = machines(old) | machines(new)
    if len(seen) > 1 and not args.force:
        print("compare: the runs come from different machines (use --force):", file=sys.stderr)
        for identity in sorted(seen, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(IDENTITY, identity)), file=sys.stderr)
        return 2

    workloads = [w["name"] for w in spec["workloads"]]
    bad = False
    print(f"{'workload':<14} {'metric':<18} {'old median [q1, q3]':<36} {'new median [q1, q3]':<36} {'change':>8}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = values(old, workload, name, False), values(new, workload, name, False)
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            change = (quartiles(b)[1] - quartiles(a)[1]) / quartiles(a)[1]
            print(f"{workload:<14} {name:<18} {_fmt(quartiles(a)):<36} {_fmt(quartiles(b)):<36} {change:>+8.1%}  {result}")
            bad = bad or result == "worse"
        share_old, share_new = failed_share(old, workload), failed_share(new, workload)
        if share_new > share_old:
            print(f"{workload}: failed share rose from {share_old:.4%} to {share_new:.4%}")
            bad = True

    moved: List[str] = []
    for workload in workloads:
        for metric in spec["per_layer"]:
            a = values(old, workload, metric["name"], True)
            b = values(new, workload, metric["name"], True)
            if not a or not b:
                continue
            q1, m_old, q3 = quartiles(a)
            m_new = quartiles(b)[1]
            if abs(m_new - m_old) > q3 - q1:
                moved.append(
                    f"  {workload}.{metric['name']}: {m_old:.6g} -> {m_new:.6g} {metric['unit']} "
                    f"(old IQR {q3 - q1:.3g})"
                )
    if moved:
        print("per-layer metrics that moved by more than the old IQR:")
        print("\n".join(moved))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
