"""Smoke tests for the experiment scripts: tiny sizes, exit code and output header only."""

import os
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args,
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / table).read_text().splitlines()[0] == header
