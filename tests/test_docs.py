"""Docs drift: the README's CLI walkthrough configs and the example recording
still load, so a removed or renamed option fails here, not in a reader's run."""

import json
import re
from pathlib import Path

import pytest

from wormgnn import cli
from wormgnn import models as m
from wormgnn.data import load_recording

ROOT = Path(__file__).resolve().parents[1]
HEREDOC = re.compile(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", re.S)


def walkthrough_configs() -> dict:
    configs = dict(HEREDOC.findall((ROOT / "README.md").read_text()))
    return {name: json.loads(text) for name, text in configs.items()}


def test_walkthrough_defines_every_config_it_runs():
    readme = (ROOT / "README.md").read_text()
    used = set(re.findall(r"--config (\S+\.json)", readme))
    assert used and used <= set(walkthrough_configs())


@pytest.mark.parametrize("name,config", sorted(walkthrough_configs().items()))
def test_walkthrough_model_and_train_sections_build(name, config):
    if "model" in config:
        spec = {"module_kind": "mlp", **config["model"], "n_neurons": 15, "n_states": 2,
                "task": "predict" if config["task"] == "predict" else "classify"}
        cli._build_section(m.ModelConfig, spec, "model", name)
    if "train" in config:
        cli._train_config(config, seed=0, context=name)


def test_example_recording_loads():
    rec = load_recording(ROOT / "docs" / "example_recording.json")
    assert rec.n_neurons == 3 and rec.n_timesteps == 12
