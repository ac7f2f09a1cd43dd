"""Compare two sets of benchmark run records (``run.py --compare A B``).

A and B are each a run-record file or a directory of them, as written to
``wormbench/.out/runs/``; A is the base (the parent commit), B the change.
For every workload and metric found in both, the table gives each side's
median, quartiles and run count, B's change against A's median, and a
verdict.  End-to-end metrics get a verdict under their bound in
``BENCHMARK.json``:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B beats A in at least nine tenths of all (A run, B run) pairs,
  ties counting for neither, and the medians differ by more than A's own
  spread (interquartile distance over median);
- ``unresolved``: either side's spread is wider than the bound, unless every
  run of B reads better than every run of A;
- ``same``: otherwise, no worse than the bound.

Untimed-run records also carry per-kind samples (``cell_s.<kind>``,
``rollout16_s``, ``sweep_cells_per_s``); each run contributes its median.
These, like per-layer metrics, have no bound: they are ``better`` or
``worse`` only by the pair rule above, else ``-``.  Counts are reported
``equal`` or ``differs``.  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9


def load_records(path: str) -> dict[tuple[str, int], list[dict]]:
    """Run records under ``path``, grouped by (workload, trace)."""
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    groups: dict[tuple[str, int], list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text())
        if "result" not in record or "workload" not in record:
            raise ValueError(f"{file}: not a benchmark run record")
        groups.setdefault((record["workload"], int(record["trace"])), []).append(record)
    return groups


def _summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _spread(values: list[float]) -> float:
    med, q1, q3 = _summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _wins(a: list[float], b: list[float], sign: float) -> bool:
    """B beats A in nine tenths of the pairs, by more than A's own spread."""
    pairs = [sign * (y - x) < 0 for x in a for y in b if y != x]
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_a - med_b) / abs(med_a)
    return bool(pairs) and sum(pairs) / len(pairs) >= WIN_SHARE and gain > _spread(a)


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if bound is None:
        return "better" if _wins(a, b, sign) else "worse" if _wins(b, a, sign) else "-"
    med_a, med_b = statistics.median(a), statistics.median(b)
    if sign * (med_b - med_a) / abs(med_a) > bound:
        return "worse"
    if _wins(a, b, sign):
        return "better"
    b_wins_all = max(b) < min(a) if sign > 0 else min(b) > max(a)
    if max(_spread(a), _spread(b)) > bound and not b_wins_all:
        return "unresolved"
    return "same"


def compare(groups_a: dict, groups_b: dict, spec: dict) -> list[tuple]:
    """Rows of (workload, metric, unit, summary A, summary B, change, verdict)."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    rows = []
    for key in sorted(set(groups_a) & set(groups_b)):
        workload, trace = key
        a_runs, b_runs = _per_run_values(groups_a[key]), _per_run_values(groups_b[key])
        for name in a_runs:
            a, b = a_runs[name], b_runs.get(name)
            if not b:
                continue
            known = e2e.get(name) or per_layer.get(name) or {}
            unit = known.get("unit", "s")
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / abs(med_a) if med_a else None
            if unit == "count":
                result = "equal" if set(a) == set(b) and len(set(a)) == 1 else "differs"
            elif not med_a:
                result = "-"
            else:
                better = known.get("better", "higher" if name.endswith("per_s") else "lower")
                bound = e2e[name]["bound"] if name in e2e and not trace else None
                result = verdict(a, b, better, bound)
            rows.append((workload, name, unit, (_summary(a), len(a)), (_summary(b), len(b)),
                         change, result))
    return rows


def _per_run_values(records: list[dict]) -> dict[str, list[float]]:
    """Metric -> one value per run: printed metrics, then per-kind sample medians."""
    values: dict[str, list[float]] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if not record["trace"]:
            for name, samples in record["samples"].items():
                if name not in record["result"]["metrics"] and samples:
                    values.setdefault(name, []).append(statistics.median(samples))
    return values


def _fmt(summary) -> str:
    (med, q1, q3), n = summary
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={n}"


def main(path_a: str, path_b: str, spec: dict) -> int:
    rows = compare(load_records(path_a), load_records(path_b), spec)
    if not rows:
        print("compare: no workload appears in both result sets")
        return 1
    print(f"{'workload':16s} {'metric':40s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'change':>8s} verdict")
    for workload, name, unit, a, b, change, result in rows:
        shown = f"{100 * change:+.1f}%" if change is not None else "n/a"
        print(f"{workload:16s} {name + ' (' + unit + ')':40s} {_fmt(a):34s} {_fmt(b):34s} "
              f"{shown:>8s} {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0
