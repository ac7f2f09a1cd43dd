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
from .schema import check_value
from .synth import SynthConfig, generate_worm


class ConfigError(ValueError):
    """Bad or missing configuration; message names the file and field."""


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
    seed = None if raw.get("seed") is None else check_value(str(path), "seed", int, raw["seed"])
    if "config" in raw and "command" in raw:  # manifest
        return check_value(str(path), "config", dict, raw["config"]), seed, raw.get("command")
    return raw, seed, None


def _write_json(path, payload) -> None:
    """Write via a temp file and a rename, so a killed run never leaves half a file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def _load_recordings(config: dict, context: str) -> dict:
    """Recordings from data_dir or an explicit path list (exactly one of the
    two, naming at least one recording), with neuron selection."""
    data_dir, listed = config.get("data_dir"), config.get("recordings")
    if data_dir is not None and listed is not None:
        raise ConfigError(f"{context}: give 'data_dir' or 'recordings', not both")
    if data_dir == "":  # Path("") is the working directory
        raise ConfigError(f"{context}: data_dir must not be empty")
    if data_dir is not None:
        data_dir = Path(data_dir)
        if not data_dir.is_dir():
            raise ConfigError(f"{context}: data_dir {data_dir} is not a directory")
        paths = [p for p in sorted(data_dir.glob("*.json")) if p.name != "manifest.json"]
        if not paths:
            raise ConfigError(f"{context}: data_dir {data_dir} holds no recording (*.json)")
    elif listed is not None:
        paths = [Path(p) for p in listed]
        if not paths:
            raise ConfigError(f"{context}: recordings lists no recording")
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
    spec = dict(config.get("train") or {})
    spec["seed"] = seed
    if "burn_in" not in spec and (config.get("model") or {}).get("recurrent"):
        spec["burn_in"] = tr.RECURRENT_BURN_IN
    return _build_section(tr.TrainConfig, spec, "train", context)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_synth(config: dict, out_dir: Path, seed: int, force: bool) -> None:
    n_worms = config["n_worms"]
    if n_worms < 1:
        raise ConfigError(f"gen-synth: n_worms must be >= 1, got {n_worms}")
    # validate every worm's config before writing anything
    shared = {key: config[key] for key in ("n_neurons", "n_timesteps", "n_states", "latent_dim",
                                           "noise_std", "angular_velocity_jitter")}
    synth_cfgs = [SynthConfig(**shared, mixing_seed=derive_entropy(seed, "worm", i)[0], latent_seed=seed)
                  for i in range(n_worms)]
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
    for key in ("train_worms", "heldout_worms", "extended_worms"):
        missing = [w for w in config[key] or [] if w not in recs]
        if missing:
            raise ConfigError(f"{context}: {key} not found in data: {missing}")
    held_out, extended = config["heldout_worms"] or [], config["extended_worms"] or []
    # by default every recording not held out or extended is trained on
    train_worms = config["train_worms"] or [w for w in sorted(recs) if w not in held_out + extended]
    return tr.ExperimentPlan(task=config["task"], train_worm_ids=list(train_worms),
                             held_out_worm_ids=list(held_out), extended_eval_ids=list(extended))


def _resolve_run(config: dict, seed: int, context: str):
    """Recordings, plan, train config, model config and connectome of a training run."""
    recs = _load_recordings(config, context)
    plan = _resolve_plan(config, recs, context)
    first = next(iter(recs.values()))
    model_spec = dict(config["model"] or {})
    model_spec.setdefault("module_kind", "mlp")
    model_spec["task"] = "predict" if plan.task == "predict" else "classify"
    model_spec["n_neurons"] = first.n_neurons
    model_spec["n_states"] = tr.TASKS[plan.task][1] or 2  # a predictor has no classes
    model_cfg = _build_section(m.ModelConfig, model_spec, "model", context)
    connectome = None
    if config["connectome"]:
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
        test_fold=config["test_fold"], val_fold=config["val_fold"],
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

    records, summary = tr.cross_validate(recs, plan, train_cfg, model_cfg, config["permutation_size"],
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
    model = m.load_checkpoint(config["checkpoint"])
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
    task = config["task"]
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
    steps, burn_in = config["steps"], config["burn_in"]
    if burn_in is None:  # the default depends on the model
        burn_in = tr.RECURRENT_BURN_IN if model.config.recurrent else 0
    normalized = [normalize_recording(rec) for _, rec in sorted(recs.items())]
    result = ev.per_step_mse(model, normalized, steps=steps, window_len=config["window_len"],
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
    rec = normalize_recording(load_recording(config["recording"]))
    components = config["components"]
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
    rec = load_recording(config["recording"])
    names = config["neurons"]
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
    connectome_path = config["connectome"]
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

# a command's top-level config keys: key -> (type, default).  REQUIRED marks a
# key a config must give; an optional key typed `X | None` is absent by
# default, and null means absent.  _load_config checks a config's seed
REQUIRED = object()
PATH, NAMES, SECTION = (str | None, None), (list[str] | None, None), (dict | None, None)
SEED = {"seed": (int | None, None)}  # --seed, else this, else 0
# the recordings: a data directory or a list of files, narrowed by neuron names
RECORDING_KEYS = {"data_dir": PATH, "recordings": NAMES, "neurons": NAMES, "exclude_neurons": NAMES}
RUN_KEYS = {"task": (str, REQUIRED), **RECORDING_KEYS, "train_worms": NAMES, "heldout_worms": NAMES,
            "extended_worms": NAMES, "model": SECTION, "train": SECTION, "connectome": PATH, **SEED}

# name -> (command, its own flags, every top-level config key it reads); every
# command also takes --config, --out and --seed
COMMANDS = {
    "gen-synth": (cmd_gen_synth, {"--force": dict(action="store_true", help="allow overwriting outputs")},
                  {"n_worms": (int, REQUIRED), "n_neurons": (int, REQUIRED), "n_timesteps": (int, REQUIRED),
                   "n_states": (int, REQUIRED), "latent_dim": (int, 3), "noise_std": (float, 0.0),
                   "angular_velocity_jitter": (float, 0.0), **SEED}),
    "train": (cmd_train, {}, {**RUN_KEYS, "test_fold": (int, 0), "val_fold": (int, 1)}),
    "cross-validate": (cmd_cross_validate, {"--workers": dict(type=int, default=1, help="parallel cells"),
                                            "--resume": dict(action="store_true", help="skip completed cells")},
                       {**RUN_KEYS, "permutation_size": (int, REQUIRED)}),
    "eval": (cmd_eval, {}, {"task": (str, REQUIRED), "checkpoint": (str, REQUIRED), **RECORDING_KEYS,
                            "train": SECTION, **SEED}),
    "rollout": (cmd_rollout, {}, {"checkpoint": (str, REQUIRED), **RECORDING_KEYS, "steps": (int, 16),
                                  "window_len": (int, 8), "burn_in": (int, None), **SEED}),
    "pca": (cmd_pca, {}, {"recording": (str, REQUIRED), "components": (int, 3), **SEED}),
    "edges": (cmd_edges, {}, {"recording": (str, REQUIRED), "checkpoint": (str, REQUIRED), "neurons": NAMES,
                              "connectome": PATH, **SEED}),
}
# keys that older configs may hold, with what replaced them
RETIRED_KEYS = {"max_epochs_override": "set train.max_epochs"}


def _checked(command: str, config: dict, keys: dict) -> dict:
    """Every key of ``keys`` at its checked value in ``config``, else at its
    default; an unknown key, then a missing required one, then a wrong type
    is an error naming the first such key."""
    unknown = [key for key in config if key not in keys]
    if unknown:
        hint = f"; {RETIRED_KEYS[unknown[0]]}" if unknown[0] in RETIRED_KEYS else ""
        raise ConfigError(f"{command}: unknown config field {unknown[0]!r}{hint}")
    missing = [key for key, (_, default) in keys.items() if default is REQUIRED and key not in config]
    if missing:
        raise ConfigError(f"{command}: missing config field {missing[0]!r}")
    return {key: check_value(command, key, kind, config[key]) if key in config else default
            for key, (kind, default) in keys.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormgnn",
        description="Graph networks and baselines for multi-neuron calcium-imaging time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config or manifest file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, flags, keys = COMMANDS[args.command]
    try:
        config, config_seed, manifest_command = _load_config(args.config)
        if manifest_command is not None and manifest_command != args.command:
            raise ConfigError(
                f"{args.config}: manifest was written by {manifest_command!r}, "
                f"not {args.command!r}"
            )
        seed = args.seed if args.seed is not None else (config_seed if config_seed is not None else 0)
        out_dir = Path(args.out)
        command(_checked(args.command, config, keys), out_dir, seed,
                **{flag[2:]: getattr(args, flag[2:]) for flag in flags})
        _write_json(out_dir / "manifest.json", {"command": args.command, "seed": seed, "config": config})
        return 0
    except (ConfigError, RecordingFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
