"""Smoke tests for the experiment scripts and the sweep configs: tiny sizes,
exit code and output shape only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wormgnn.cli import main

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


def test_sweep_configs_run_through_the_cli(tmp_path):
    # the README's sweep configs at tiny size: 160 frames, one epoch, and all
    # five worms in one permutation, so 10 cells per model and no held-out worm
    sweep = REPO / "scripts" / "sweep"
    data = tmp_path / "data"
    synth = write_config(tmp_path / "synth.json", {**read_config(sweep / "synth.json"), "n_timesteps": 160})
    assert main(["gen-synth", "--config", str(synth), "--out", str(data)]) == 0
    for kind in ("mlp", "gnn"):
        config = read_config(sweep / f"cv_{kind}.json")
        assert config["model"]["module_kind"] == kind
        config.update(data_dir=str(data), permutation_size=5, train={**config["train"], "max_epochs": 1})
        out = tmp_path / kind
        assert main(["cross-validate", "--config", str(write_config(tmp_path / f"cv_{kind}.json", config)),
                     "--out", str(out)]) == 0
        summary = read_config(out / "summary.json")
        assert summary["runs"] == 10 and 0.0 <= summary["accuracy_test"]["mean"] <= 1.0
        assert "accuracy_generalization" not in summary
        assert len((out / "records.jsonl").read_text().splitlines()) == 10


def read_config(path: Path) -> dict:
    return json.loads(path.read_text())


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def run_script(script: str, args: list[str], out) -> str:
    """Run scripts/<script> with --out ``out``; returns its stdout after checking the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
