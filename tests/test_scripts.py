"""Smoke tests for the experiment scripts: tiny sizes, exit code and output shape only."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,table,header", [
    ("run_generalization.py", ["--seeds", "1", "--epochs", "1", "--timesteps", "160"],
     "heldout_accuracy.tsv", "model\tmean\tstd"),
    ("run_trajectory.py", ["--epochs", "1", "--timesteps", "160", "--hidden", "4"],
     "mse_per_step.tsv", "step\tgnn\tmlp\tnode_mlp"),
], ids=["generalization", "trajectory"])
def test_script_runs_and_writes_table(tmp_path, script, args, table, header):
    run_script(script, args, tmp_path)
    assert (tmp_path / table).read_text().splitlines()[0] == header


def test_crossval_sweep_script_prints_summaries(tmp_path):
    # permutation size 5 of 5 worms: one permutation x 10 folds per model, no held-out worm
    stdout = run_script("run_crossval_sweep.py",
                        ["--epochs", "1", "--timesteps", "160", "--permutation-size", "5"],
                        tmp_path)
    lines = stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["mlp", "gnn"]
    for line in lines:
        assert re.fullmatch(r"\w+: 10 runs, test [01]\.\d{3} \+- \d\.\d{3}, "
                            r"held-out nan \+- 0\.000", line), line
    assert len((tmp_path / "gnn_records.jsonl").read_text().splitlines()) == 10


def run_script(script: str, args: list[str], out) -> str:
    """Run scripts/<script> with --out ``out``; returns its stdout after checking the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
