"""Command-line entry point: data generation, training, cross-validation,
evaluation, rollouts, PCA export, and edge inspection.

Once a command succeeds, ``main`` writes a manifest (command, seed, config) into
its output directory; rerunning from it reproduces all outputs bit-identically
apart from wall-time fields.  Commands never mutate their input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import models as m
from . import training as tr
from .data import (
    RecordingFormatError,
    load_recording,
    normalize_recording,
    save_recording,
    select_neurons,
)
from .rng import derive_entropy
from .synth import SynthConfig, generate_worm


class ConfigError(ValueError):
    """Bad or missing configuration; message names the file and field."""


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigError(f"{context}: missing config field {key!r}")
    return config[key]


def _integer(config: dict, key: str, context: str, default: int | None = None) -> int:
    """``config[key]`` (``default`` when it is absent and a default is given;
    required otherwise), checked to be an integer: a bool, float or string is
    a ConfigError naming the key."""
    value = _require(config, key, context) if default is None else config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: {key} must be an integer, got {value!r}")
    return value


def _load_config(path) -> tuple[dict, int | None, str | None]:
    """Read a config or manifest file; returns (config, seed, command)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path}: config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    seed = None if raw.get("seed") is None else _integer(raw, "seed", str(path))
    if "config" in raw and "command" in raw:  # manifest
        return raw["config"], seed, raw.get("command")
    return raw, seed, None


def _write_json(path, payload) -> None:
    """Write via a temp file and a rename, so a killed run never leaves half a file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def _load_recordings(config: dict, context: str) -> dict:
    """Recordings from data_dir or an explicit path list, with neuron selection."""
    if "data_dir" in config and config["data_dir"]:
        data_dir = Path(config["data_dir"])
        if not data_dir.is_dir():
            raise ConfigError(f"{context}: data_dir {data_dir} is not a directory")
        paths = sorted(data_dir.glob("*.json"))
        paths = [p for p in paths if p.name != "manifest.json"]
    elif "recordings" in config and config["recordings"]:
        paths = [Path(p) for p in config["recordings"]]
    else:
        raise ConfigError(f"{context}: need 'data_dir' or 'recordings'")
    recs = {}
    for path in paths:
        rec = load_recording(path)
        if rec.worm_id in recs:
            raise ConfigError(f"{context}: duplicate worm_id {rec.worm_id!r} ({path})")
        recs[rec.worm_id] = rec
    names = config.get("neurons")
    exclude = config.get("exclude_neurons")
    if names:
        recs = {wid: select_neurons(rec, names) for wid, rec in recs.items()}
    if exclude:
        recs = {wid: select_neurons(rec, exclude, exclude=True) for wid, rec in recs.items()}
    first_id = next(iter(recs), None)
    for wid, rec in recs.items():  # one neuron axis: neuron i is the same cell in every worm
        _check_neurons(rec, recs[first_id].neuron_names, f"worm {first_id!r}",
                       f"{context}: worm {wid!r}", "; choose shared neurons with 'neurons'")
    return recs


def _check_neurons(rec, names: list, owner: str, where: str, hint: str = "") -> None:
    """Raise a ConfigError at the first position where ``rec`` lists another neuron than ``names``."""
    for i, (want, got) in enumerate(zip_longest(names, rec.neuron_names)):
        if want != got:
            raise ConfigError(f"{where} has neuron {got!r} at position {i} where {owner} has {want!r}{hint}")


def _build_section(cls, spec: dict, section: str, context: str):
    """``cls(**spec)``, with a ConfigError naming any field ``cls`` does not have."""
    unknown = sorted(set(spec) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {unknown} in the {section!r} section")
    return cls(**spec)


def _train_config(config: dict, seed: int, context: str) -> tr.TrainConfig:
    if "max_epochs_override" in config:
        raise ConfigError(f"{context}: max_epochs_override is not supported; set train.max_epochs")
    spec = dict(config.get("train", {}))
    spec["seed"] = seed
    if "burn_in" not in spec and config.get("model", {}).get("recurrent"):
        spec["burn_in"] = tr.RECURRENT_BURN_IN
    return _build_section(tr.TrainConfig, spec, "train", context)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# every key gen-synth reads, in the README's order; any other key is an error
GEN_SYNTH_KEYS = ("n_worms", "n_neurons", "n_timesteps", "n_states", "latent_dim", "noise_std",
                  "angular_velocity_jitter", "seed")


def cmd_gen_synth(config: dict, out_dir: Path, seed: int, force: bool) -> None:
    unknown = sorted(set(config) - set(GEN_SYNTH_KEYS))
    if unknown:
        raise ConfigError(f"gen-synth: unknown config field {unknown[0]!r}")
    n_worms = _integer(config, "n_worms", "gen-synth")
    if n_worms < 1:
        raise ConfigError(f"gen-synth: n_worms must be >= 1, got {n_worms}")
    # validate every worm's config before writing anything
    synth_cfgs = []
    for i in range(n_worms):
        synth_cfgs.append(SynthConfig(
            n_neurons=_integer(config, "n_neurons", "gen-synth"),
            n_timesteps=_integer(config, "n_timesteps", "gen-synth"),
            n_states=_integer(config, "n_states", "gen-synth"),
            latent_dim=_integer(config, "latent_dim", "gen-synth", 3),
            noise_std=config.get("noise_std", 0.0),  # SynthConfig checks the floats
            mixing_seed=derive_entropy(seed, "worm", i)[0],
            latent_seed=seed,
            angular_velocity_jitter=config.get("angular_velocity_jitter", 0.0),
        ))
    targets = [out_dir / f"worm_{i:03d}.json" for i in range(n_worms)]
    if not force:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            raise ConfigError(f"gen-synth: refusing to overwrite {existing} (use --force)")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (cfg, path) in enumerate(zip(synth_cfgs, targets)):
        save_recording(generate_worm(cfg, worm_id=f"worm_{i:03d}"), path)
    print(f"wrote {n_worms} recordings to {out_dir}")


def _resolve_plan(config: dict, recs: dict, context: str) -> tr.ExperimentPlan:
    task = _require(config, "task", context)
    ids = {}
    for key in ("train_worms", "heldout_worms", "extended_worms"):
        ids[key] = config.get(key) or []
        if not isinstance(ids[key], list):
            raise ConfigError(f"{context}: {key} must be a list of worm ids, got {ids[key]!r}")
        missing = [w for w in ids[key] if w not in recs]
        if missing:
            raise ConfigError(f"{context}: {key} not found in data: {missing}")
    held_out, extended = ids["heldout_worms"], ids["extended_worms"]
    # by default every recording not held out or extended is trained on
    train_worms = ids["train_worms"] or [w for w in sorted(recs) if w not in held_out + extended]
    return tr.ExperimentPlan(task=task, train_worm_ids=list(train_worms),
                             held_out_worm_ids=list(held_out), extended_eval_ids=list(extended))


def _resolve_run(config: dict, seed: int, context: str):
    """Recordings, plan, train config, model config and connectome of a training run."""
    recs = _load_recordings(config, context)
    plan = _resolve_plan(config, recs, context)
    first = next(iter(recs.values()))
    model_spec = dict(config.get("model", {}))
    model_spec.setdefault("module_kind", "mlp")
    model_spec["task"] = "predict" if plan.task == "predict" else "classify"
    model_spec["n_neurons"] = first.n_neurons
    model_spec["n_states"] = tr.TASKS[plan.task][1] or 2  # a predictor has no classes
    model_cfg = _build_section(m.ModelConfig, model_spec, "model", context)
    connectome = None
    if config.get("connectome"):
        connectome = m.load_connectome_edges(config["connectome"], first.neuron_names,
                                             include_self_edges=model_cfg.include_self_edges)
    return recs, plan, _train_config(config, seed, context), model_cfg, connectome


def cmd_train(config: dict, out_dir: Path, seed: int) -> None:
    recs, plan, train_cfg, model_cfg, connectome = _resolve_run(config, seed, "train")
    model = m.NeuralModel(model_cfg, master_seed=seed)
    model.neuron_names = next(iter(recs.values())).neuron_names
    if connectome is not None:
        model.set_connectome(connectome)
    prepared = tr.prepare_worms(recs, plan.task, train_cfg, train_cfg.seed)
    state, metrics = tr.train(
        model, plan, train_cfg, prepared,
        test_fold=_integer(config, "test_fold", "train", 0),
        val_fold=_integer(config, "val_fold", "train", 1),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    m.save_checkpoint(model, out_dir / "model.ckpt")
    record = metrics.to_dict()
    record["best_val_loss"] = state.best_val_loss
    _write_json(out_dir / "metrics.json", record)
    print(f"train: task={plan.task} best_val_loss={state.best_val_loss:.6g}")


RECORD_FIELDS = {f.name for f in dataclasses.fields(ev.RunMetrics)}


def _saved_cell(path: Path, perm: tuple, fold: int) -> ev.RunMetrics | None:
    """The record ``path`` holds when it is a complete record of this
    (permutation, fold) cell: exactly the RunMetrics fields, this fold and
    this permutation.  None otherwise."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (not isinstance(record, dict) or set(record) != RECORD_FIELDS or record["fold"] != fold
            or record["permutation"] != list(perm)):
        return None
    return ev.RunMetrics(**record)


def cmd_cross_validate(config: dict, out_dir: Path, seed: int, workers: int, resume: bool) -> None:
    """Run a sweep through ``training.cross_validate`` and save it cell by cell.

    ``training.cross_validate`` enumerates the cells, owns the worker pool and
    returns every cell's record.  This command supplies, on ``--resume``, the
    records of cells with a complete file, writes each cell file as its cell
    finishes, reports progress on stderr, and writes the returned records and
    their summary.
    """
    recs, plan, train_cfg, model_cfg, connectome = _resolve_run(config, seed, "cross-validate")
    permutation_size = _integer(config, "permutation_size", "cross-validate")
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    def cell_path(pi, fold) -> Path:
        return cells_dir / f"perm{pi:03d}_fold{fold:02d}.json"

    started, cell_times = time.perf_counter(), []

    def save(pi, fold, metrics, todo) -> None:
        _write_json(cell_path(pi, fold), metrics.to_dict())
        cell_times.append(metrics.wall_time_s)
        done, elapsed = len(cell_times), time.perf_counter() - started
        print(f"cross-validate: {done}/{todo} cells done, "
              f"mean cell {sum(cell_times) / done:.3g} s, "
              f"ETA {elapsed / done * (todo - done):.3g} s", file=sys.stderr)

    def saved(pi, perm, fold) -> ev.RunMetrics | None:
        return _saved_cell(cell_path(pi, fold), perm, fold)

    records, summary = tr.cross_validate(recs, plan, train_cfg, model_cfg, permutation_size,
                                         saved=saved if resume else None, progress=save,
                                         connectome=connectome, workers=workers)
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    (out_dir / "records.jsonl").write_text("\n".join(lines) + "\n")
    _write_json(out_dir / "summary.json", summary)
    rows = []
    for fieldname in ("accuracy_test", "accuracy_generalization"):
        if fieldname in summary:
            rows.append((fieldname, summary[fieldname]["mean"], summary[fieldname]["std"]))
    if rows:
        ev.export_accuracy_table(out_dir / "accuracy.tsv", rows)
    print(f"cross-validate: {len(records)} runs "
          f"({len(records) // train_cfg.fold_count} permutations x {train_cfg.fold_count} folds)")


def _load_model_for_data(config: dict, recs: dict, context: str) -> m.NeuralModel:
    model = m.load_checkpoint(_require(config, "checkpoint", context))
    for wid, rec in recs.items():
        if rec.n_neurons != model.config.n_neurons:
            raise ConfigError(
                f"{context}: checkpoint expects {model.config.n_neurons} neurons, "
                f"recording {wid!r} has {rec.n_neurons}"
            )
        if model.neuron_names is not None:  # checkpoints written before names were kept skip this
            _check_neurons(rec, model.neuron_names, "the checkpoint", f"{context}: worm {wid!r}")
    return model


def cmd_eval(config: dict, out_dir: Path, seed: int) -> None:
    recs = _load_recordings(config, "eval")
    task = _require(config, "task", "eval")
    if task == "predict":
        raise ConfigError("eval: use the rollout command for prediction checkpoints")
    model = _load_model_for_data(config, recs, "eval")
    if model.config.task is not m.Task.CLASSIFY:
        raise ConfigError("eval: checkpoint was trained for prediction; use rollout")
    k = model.config.n_states
    if task not in tr.TASKS or tr.TASKS[task][1] != k:
        raise ConfigError(f"eval: task {task!r} does not match the checkpoint's {k} classes")
    train_cfg = _train_config(config, seed, "eval")
    prepared = tr.prepare_worms(recs, task, train_cfg, train_cfg.seed)

    preds, targets = [], []
    per_worm = {}
    for wid in sorted(prepared):
        worm = prepared[wid]
        p = tr.predict_classes(model, worm)
        t = worm.targets.reshape(-1)
        preds.append(p)
        targets.append(t)
        per_worm[wid] = ev.accuracy(p, t)
    preds = np.concatenate(preds)
    targets = np.concatenate(targets)
    confusion, support = ev.confusion_matrix(preds, targets, k)
    accuracy = ev.accuracy(preds, targets)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "metrics.json", {
        "task": task,
        "accuracy": accuracy,
        "per_worm_accuracy": per_worm,
        "confusion_support": support.tolist(),
    })
    ev.export_confusion(out_dir / "confusion.tsv", confusion, [str(i) for i in range(k)])
    print(f"eval: accuracy={accuracy}")


def cmd_rollout(config: dict, out_dir: Path, seed: int) -> None:
    recs = _load_recordings(config, "rollout")
    model = _load_model_for_data(config, recs, "rollout")
    if model.config.task is not m.Task.PREDICT:
        raise ConfigError("rollout: checkpoint was trained for classification; use eval")
    steps = _integer(config, "steps", "rollout", 16)
    window_len = _integer(config, "window_len", "rollout", 8)
    burn_in = _integer(config, "burn_in", "rollout", tr.RECURRENT_BURN_IN if model.config.recurrent else 0)
    normalized = [normalize_recording(rec) for _, rec in sorted(recs.items())]
    result = ev.per_step_mse(model, normalized, steps=steps, window_len=window_len,
                             burn_in=burn_in)
    out_dir.mkdir(parents=True, exist_ok=True)
    ev.export_mse_curves(out_dir / "rollout_mse.tsv", {"mse": result.per_step})
    _write_json(out_dir / "metrics.json", {
        "per_step_mse": result.per_step.tolist(),
        "summary": {str(k): v for k, v in result.summary.items()},
        "windows_used": result.windows_used,
        "windows_skipped": result.windows_skipped,
    })
    print(f"rollout: {steps}-step MSE summary {result.summary}")


def cmd_pca(config: dict, out_dir: Path, seed: int) -> None:
    rec = normalize_recording(load_recording(_require(config, "recording", "pca")))
    components = _integer(config, "components", "pca", 3)
    result = ev.pca_project(rec.derivatives, components=components)
    out_dir.mkdir(parents=True, exist_ok=True)
    ev.export_pca_trajectory(out_dir / "pca.tsv", result.projection, rec.labels)
    _write_json(out_dir / "fractions.json", {
        "explained_variance_fractions": result.fractions.tolist(),
        "zero_variance_components": result.zero_variance_components,
    })
    top = result.fractions[:components].sum()
    print(f"pca: top-{components} explained variance {top:.4f}")


def cmd_edges(config: dict, out_dir: Path, seed: int) -> None:
    rec = load_recording(_require(config, "recording", "edges"))
    names = config.get("neurons")
    if names:
        rec = select_neurons(rec, names)
    model = _load_model_for_data(config, {rec.worm_id: rec}, "edges")
    if model.config.module_kind is not m.ModuleKind.GNN:
        raise ConfigError("edges: checkpoint is not a graph model; no edges to dump")
    rec = normalize_recording(rec)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_matrix(path, matrix):
        ev.export_confusion(path, matrix, rec.neuron_names, corner="source\\target")

    edges = m.encode_edges(rec.features, model)  # one matrix per frame, or one fixed matrix
    inferred_mean = edges.mean(axis=0) if edges.ndim == 3 else edges
    if edges.ndim == 3:
        write_matrix(out_dir / "edges_mean.tsv", inferred_mean)
        write_matrix(out_dir / "edges_std.tsv", edges.std(axis=0))
    else:  # inferred, or the connectome as the model uses it
        write_matrix(out_dir / "edges.tsv", edges)

    report = {"edge_mode": model.config.edge_mode.value}
    connectome_path = config.get("connectome")
    if connectome_path:
        structural = m.load_connectome_edges(
            connectome_path, rec.neuron_names,
            include_self_edges=model.config.include_self_edges)
        off = ~np.eye(rec.n_neurons, dtype=bool)
        a, b = inferred_mean[off], structural[off]
        if a.size < 2 or a.std() == 0 or b.std() == 0:
            report["pearson_correlation"] = None
            report["note"] = "undefined (degenerate weight variance)"
        else:
            report["pearson_correlation"] = float(np.corrcoef(a, b)[0, 1])
    _write_json(out_dir / "edge_comparison.json", report)
    print(f"edges: mode={model.config.edge_mode.value}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# name -> (command, its own flags); every command also takes --config, --out and --seed
COMMANDS = {
    "gen-synth": (cmd_gen_synth, {"--force": dict(action="store_true", help="allow overwriting outputs")}),
    "train": (cmd_train, {}),
    "cross-validate": (cmd_cross_validate, {"--workers": dict(type=int, default=1, help="parallel cells"),
                                            "--resume": dict(action="store_true", help="skip completed cells")}),
    "eval": (cmd_eval, {}),
    "rollout": (cmd_rollout, {}),
    "pca": (cmd_pca, {}),
    "edges": (cmd_edges, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormgnn",
        description="Graph networks and baselines for multi-neuron calcium-imaging time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config or manifest file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, flags = COMMANDS[args.command]
    try:
        config, config_seed, manifest_command = _load_config(args.config)
        if manifest_command is not None and manifest_command != args.command:
            raise ConfigError(
                f"{args.config}: manifest was written by {manifest_command!r}, "
                f"not {args.command!r}"
            )
        seed = args.seed if args.seed is not None else (config_seed if config_seed is not None else 0)
        out_dir = Path(args.out)
        command(config, out_dir, seed, **{flag[2:]: getattr(args, flag[2:]) for flag in flags})
        _write_json(out_dir / "manifest.json", {"command": args.command, "seed": seed, "config": config})
        return 0
    except (ConfigError, RecordingFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
