"""Docs drift: the README's CLI walkthrough configs (and the checked-in configs
it runs) and the example recording still load, and each config holds only
keys its command reads, with the key table's types; its config-key table has
one row per command naming only keys that command reads, with the table's
defaults; and its `model` and `train` key lists and `gen-synth` row name
exactly the keys the code reads, and its `wormgnn.autodiff` bullet names
only what the module has, so a removed, renamed or added command, option or
op fails here, not in a reader's run."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from wormgnn import autodiff as ad
from wormgnn import cli
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.data import load_recording

ROOT = Path(__file__).resolve().parents[1]
HEREDOC = re.compile(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", re.S)


def walkthrough_configs() -> dict:
    """Every config the README runs: its heredocs and the checked-in files it names."""
    readme = (ROOT / "README.md").read_text()
    configs = {name: json.loads(text) for name, text in HEREDOC.findall(readme)}
    for name in re.findall(r"--config (\S+\.json)", readme):
        if name not in configs and (ROOT / name).is_file():
            configs[name] = json.loads((ROOT / name).read_text())
    return configs


def walkthrough_runs() -> list:
    """(command, config) of every command line in the README."""
    return re.findall(r"wormgnn ([\w-]+) --config (\S+\.json)", (ROOT / "README.md").read_text())


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


def readme_row(command: str) -> str:
    """The README's key table row for ``command``."""
    return re.search(rf"^\| `{command}` \| (.*) \|$", (ROOT / "README.md").read_text(), re.M).group(1)


def readme_row_keys(command: str) -> list:
    """The keys the README's key table names for ``command``; parentheses hold
    values and defaults."""
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", readme_row(command)))


def test_readme_gen_synth_row_lists_the_keys_it_accepts():
    assert readme_row_keys("gen-synth") == list(cli.COMMANDS["gen-synth"][2])


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_readme_key_rows_name_only_keys_their_command_reads(command):
    assert set(readme_row_keys(command)) <= set(cli.COMMANDS[command][2])


@pytest.mark.parametrize("command,name", walkthrough_runs())
def test_walkthrough_configs_hold_only_keys_their_command_reads(command, name):
    assert set(walkthrough_configs()[name]) <= set(cli.COMMANDS[command][2])
    cli._checked(command, walkthrough_configs()[name], cli.COMMANDS[command][2])  # and of their types


def test_readme_key_row_defaults_are_the_key_table_defaults():
    # a default is the number that opens a key's parentheses: `steps` (16)
    stated = {(command, key): float(number) for command in cli.COMMANDS
              for key, number in re.findall(r"`(\w+)` \((-?\d+(?:\.\d+)?)[;)]", readme_row(command))}
    del stated["gen-synth", "seed"]  # main's fallback after --seed; the table's default is None
    assert {("gen-synth", "latent_dim"), ("rollout", "steps"), ("pca", "components")} <= set(stated)
    assert stated == {(command, key): cli.COMMANDS[command][2][key][1] for command, key in stated}


def test_example_recording_loads():
    rec = load_recording(ROOT / "docs" / "example_recording.json")
    assert rec.n_neurons == 3 and rec.n_timesteps == 12


# backticked names in the autodiff bullet that are not attributes of the module
NOT_AUTODIFF = {"h_next", "c_next", "train()", "models.Linear", "wormgnn.autodiff"}


def test_readme_autodiff_bullet_names_only_what_the_module_has():
    # every bare identifier backticked in the bullet, `name` or `name()`: a
    # deleted op still named there fails here
    bullet = re.search(r"^- `wormgnn\.autodiff` - (.*?)^- ", (ROOT / "README.md").read_text(), re.M | re.S).group(1)
    names = set(re.findall(r"`([A-Za-z_][\w.]*(?:\(\))?)`", bullet)) - NOT_AUTODIFF
    assert {"edge_matrix", "edge_message", "no_grad()"} <= names
    assert sorted(name for name in names if not hasattr(ad, name.removesuffix("()"))) == []


def whats_inside() -> str:
    """The README's "What's inside" section, up to the next heading."""
    readme = (ROOT / "README.md").read_text()
    return readme[readme.index("## What's inside\n"):].split("\n## ", 1)[0]


def test_readme_index_has_one_bullet_per_module():
    modules = sorted(path.stem for path in (ROOT / "src" / "wormgnn").glob("*.py") if path.stem != "__init__")
    bullets = re.findall(r"^- `wormgnn\.(\w+)` - ", whats_inside(), re.M)
    assert sorted(bullets) == modules  # each module once, and no bullet for a module that is gone


def test_readme_index_stays_an_index():
    # mechanisms live in docstrings and measurements in CHANGES.md, so the
    # section stays a short index instead of a second copy of them
    assert len(whats_inside().splitlines()) <= 60
