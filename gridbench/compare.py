"""``python -m gridbench compare A.json B.json``.

Applies each end-to-end metric's bound from ``BENCHMARK.json`` to two
result files written by ``gridbench run --out``: one row per (workload,
metric) with both sides' median, quartiles and n, and a
verdict —

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is (exit code 1);
* ``unresolved``  either side's own spread (q3 - q1 over its median) is
  wider than the bound, so the comparison cannot tell — unless every
  sample of B reads better than every sample of A.

Exact metrics (``sim_makespan_s``, ``ops_failed_share``), checksums and
work counters must agree bit-for-bit; any difference is ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from . import ROOT

__all__ = ["compare", "compare_files", "verdict"]


def _spread(metric: dict[str, Any]) -> float:
    return (metric["q3"] - metric["q1"]) / metric["median"] if metric["median"] else 0.0


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """Compare one metric of B against A (A is the parent)."""
    base, new = a["median"], b["median"]
    loss = (new - base) / base if better == "lower" else (base - new) / base
    if max(_spread(a), _spread(b)) > bound:
        if better == "lower":
            clear_win = max(b["samples"]) < min(a["samples"])
        else:
            clear_win = min(b["samples"]) > max(a["samples"])
        return "ok" if clear_win else "unresolved"
    return "worse" if loss > bound else "ok"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[tuple]:
    """Rows of (workload, metric, a, b, verdict) for two result records."""
    rows = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            rows.append((name, "-", None, None, "worse"))
            continue
        for metric in spec["end_to_end"]:
            ma, mb = wa["metrics"].get(metric["name"]), wb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                rows.append((name, metric["name"], ma, mb, "worse"))
                continue
            rows.append((name, metric["name"], ma, mb,
                         verdict(ma, mb, metric["better"], metric["bound"])))
        exact_a = {**wa["exact"], "checksum": wa["checksum"], **wa["counters"]}
        exact_b = {**wb["exact"], "checksum": wb["checksum"], **wb["counters"]}
        if a.get("seed") != b.get("seed"):
            # another seed is another input: only the failure share must agree
            exact_a = {"ops_failed_share": exact_a["ops_failed_share"]}
        for key, value in exact_a.items():
            same = exact_b.get(key) == value
            rows.append((name, key, value, exact_b.get(key), "ok" if same else "worse"))
    return rows


def _cell(m) -> str:
    if isinstance(m, dict):
        return f"{m['median']:.5g} (q1 {m['q1']:.5g} q3 {m['q3']:.5g} n={m['n']})"
    if isinstance(m, str) and len(m) > 12:
        return m[:12]
    return repr(m)


def compare_files(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    for env in ("nproc", "python", "numpy", "git_head"):
        ea, eb = a["environment"].get(env), b["environment"].get(env)
        if ea != eb:
            print(f"note: {env} differs: {ea} vs {eb}")
    print(f"{'workload':<17} {'metric':<30} {'A':<44} {'B':<44} verdict")
    for workload, metric, ma, mb, result in rows:
        print(f"{workload:<17} {metric:<30} {_cell(ma):<44} {_cell(mb):<44} {result}")
    worse = sum(1 for row in rows if row[4] == "worse")
    unresolved = sum(1 for row in rows if row[4] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0
