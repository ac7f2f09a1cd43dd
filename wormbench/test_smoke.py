"""Smoke test of the benchmark: every workload at a tiny size.

It checks the result schema against ``BENCHMARK.json`` and the workloads'
own output checks, never timings.  Run from the repository root with
``python -m pytest wormbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

assert run.use_sources()
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload, trace, out_dir, seed=3):
    return run.run_benchmark(workload, seed=seed, seconds=0.01, trace=trace, size="tiny",
                             out_dir=out_dir)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema_and_checks(workload, trace, tmp_path):
    record = tiny_run(workload, trace, tmp_path)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    json.dumps(result, allow_nan=False)
    assert not any((tmp_path / "work").iterdir())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_digest_and_counts(workload, tmp_path):
    first = tiny_run(workload, True, tmp_path)
    second = tiny_run(workload, True, tmp_path)
    assert first["digest"] == second["digest"]
    assert first["exact_counts"] == second["exact_counts"]


def test_compare_gives_a_verdict_per_metric(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for seed in (1, 2):
            record = tiny_run("cv-sweep", False, tmp_path, seed=seed)
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
    rows = compare.compare(compare.load_records(str(tmp_path / "a")),
                           compare.load_records(str(tmp_path / "b")), SPEC)
    verdicts = {row[1]: row[-1] for row in rows}
    for metric in SPEC["end_to_end"]:
        assert verdicts[metric["name"]] in {"better", "worse", "same", "unresolved"}
    assert verdicts["sweep_cells_per_s"] in {"better", "worse", "-"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "wormbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "wormbench/run.py", "--workload", "cv-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
