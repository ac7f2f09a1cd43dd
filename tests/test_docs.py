"""Docs drift: the README's CLI walkthrough configs and the example recording
still load, its config-key table has one row per command, and its `model`
and `train` key lists and `gen-synth` row name exactly the keys the code
reads, so a removed, renamed or added command or option fails here, not in
a reader's run."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from wormgnn import cli
from wormgnn import models as m
from wormgnn import training as tr
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


# each config section's dataclass, and the fields the CLI fills in itself
SECTION_FIELDS = {"model": (m.ModelConfig, {"task", "n_neurons", "n_states"}),
                  "train": (tr.TrainConfig, {"seed"})}


@pytest.mark.parametrize("section", sorted(SECTION_FIELDS))
def test_readme_lists_every_config_field(section):
    cls, filled_in = SECTION_FIELDS[section]
    bullet = re.search(rf"^- `{section}` holds `{cls.__name__}` fields: (.*?)^(?:- |$)",
                       (ROOT / "README.md").read_text(), re.M | re.S).group(1)
    # the list ends at its first full stop; parentheses hold values and defaults
    names = re.findall(r"`(\w+)`", re.split(r"\.\s", re.sub(r"\([^)]*\)", "", bullet))[0])
    assert names == [f.name for f in dataclasses.fields(cls) if f.name not in filled_in]


def test_readme_command_table_has_one_row_per_command():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| command | keys |"):].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|", table, re.M)
    assert rows == list(cli.COMMANDS)


def test_readme_gen_synth_row_lists_the_keys_it_accepts():
    readme = (ROOT / "README.md").read_text()
    row = re.search(r"^\| `gen-synth` \| (.*) \|$", readme, re.M).group(1)
    # parentheses hold values and defaults
    assert re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", row)) == list(cli.GEN_SYNTH_KEYS)


def test_example_recording_loads():
    rec = load_recording(ROOT / "docs" / "example_recording.json")
    assert rec.n_neurons == 3 and rec.n_timesteps == 12
