"""Config dataclasses check each field's type against its annotation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.synth import SynthConfig

# class -> (the arguments of a valid instance, the kind of every field)
CONFIGS = {
    m.ModelConfig: (dict(module_kind="mlp", task="classify", n_neurons=3), {
        "module_kind": m.ModuleKind, "task": m.Task, "n_neurons": "int", "n_states": "int",
        "hidden_dim": "int or None", "edge_mode": m.EdgeMode, "softmax_temperature": "float",
        "aggregation": m.Aggregation, "recurrent": "bool", "include_self_edges": "bool"}),
    tr.TrainConfig: ({}, {
        "learning_rate": "float", "max_epochs": "int", "plateau_patience": "int",
        "lr_decay_factor": "float", "sampling_decay_epochs": "int", "seed": "int",
        "fold_count": "int", "window_len": "int", "eval_rollout": "int", "burn_in": "int"}),
    SynthConfig: (dict(n_neurons=5, n_timesteps=10, n_states=2), {
        "n_neurons": "int", "n_timesteps": "int", "n_states": "int", "latent_dim": "int",
        "noise_std": "float", "mixing_seed": "int", "latent_seed": "int",
        "angular_velocity_jitter": "float"}),
}

WRONG = {
    # field kind -> the kinds of value it rejects
    "int": ("bool", "float", "str", "list", "None"),
    "int or None": ("bool", "float", "str", "list"),
    "float": ("bool", "str", "list", "None", "non-finite"),
    "bool": ("int", "float", "str", "list", "None"),
    "enum": ("bool", "float", "str", "list", "None"),
}

VALUES = {
    "bool": st.booleans(), "int": st.integers(), "float": st.floats(allow_nan=False),
    "str": st.text(max_size=8), "list": st.lists(st.integers(), max_size=3), "None": st.none(),
    "non-finite": st.sampled_from([np.nan, np.inf, -np.inf, np.float64(np.nan)]),
}

CASES = [(cls, name, value_kind) for cls, (_, kinds) in CONFIGS.items() for name, kind in kinds.items()
         for value_kind in WRONG[kind if isinstance(kind, str) else "enum"]]


def test_field_table_names_every_field():
    for cls, (_, kinds) in CONFIGS.items():
        assert list(kinds) == [f.name for f in dataclasses.fields(cls)], cls.__name__


@pytest.mark.parametrize("cls,name,value_kind", CASES,
                         ids=[f"{cls.__name__}-{name}-{value_kind}" for cls, name, value_kind in CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wrong_typed_field_is_a_value_error_naming_class_and_field(cls, name, value_kind, data):
    kind = CONFIGS[cls][1][name]
    strategy = VALUES[value_kind]
    if not isinstance(kind, str) and value_kind == "str":  # a string that is no member's value
        strategy = strategy.filter(lambda text: text not in [member.value for member in kind])
    value = data.draw(strategy)
    with pytest.raises(ValueError, match=f"^{cls.__name__}: {name} must be "):
        cls(**{**CONFIGS[cls][0], name: value})


def test_right_typed_values_are_kept_or_normalized():
    config = m.ModelConfig(module_kind=m.ModuleKind.GNN, task="classify", n_neurons=np.int64(4),
                           hidden_dim=None, softmax_temperature=1, edge_mode="dynamic")
    assert type(config.n_neurons) is int and config.n_neurons == 4
    assert config.module_kind is m.ModuleKind.GNN and config.edge_mode is m.EdgeMode.DYNAMIC
    assert config.hidden_dim == 16  # None picks the task's default
    assert config.softmax_temperature == 1 and type(config.softmax_temperature) is int  # kept as given
    train = tr.TrainConfig(learning_rate=np.float64(0.01), max_epochs=np.int32(5))
    assert type(train.max_epochs) is int and train.learning_rate == 0.01
