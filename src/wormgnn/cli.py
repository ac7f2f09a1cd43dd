"""Command-line entry point: data generation, training, cross-validation,
evaluation, rollouts, PCA export, and edge inspection.

Every run writes a manifest (resolved config + seed) into the output
directory; rerunning from a manifest reproduces all outputs bit-identically
apart from wall-time fields.  Commands never mutate their input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
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
    worm_permutations,
)
from .rng import derive_entropy
from .synth import SynthConfig, generate_worm


class ConfigError(ValueError):
    """Bad or missing configuration; message names the file and field."""


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigError(f"{context}: missing config field {key!r}")
    return config[key]


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
    if "config" in raw and "command" in raw:  # manifest
        return raw["config"], raw.get("seed"), raw.get("command")
    return raw, raw.get("seed"), None


def _write_json(path, payload) -> None:
    """Write via a temp file and a rename, so a killed run never leaves half a file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def _write_manifest(out_dir: Path, command: str, seed: int, config: dict) -> None:
    _write_json(out_dir / "manifest.json", {"command": command, "seed": seed, "config": config})


def _load_recordings(config: dict, context: str) -> dict:
    """Recordings from data_dir or an explicit path list, with neuron selection."""
    paths: list[Path] = []
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
    return recs


def _train_config(config: dict, seed: int) -> tr.TrainConfig:
    spec = dict(config.get("train", {}))
    spec["seed"] = seed
    if "burn_in" not in spec and config.get("model", {}).get("recurrent"):
        spec["burn_in"] = 4  # recurrent variants warm up on four teacher frames
    return tr.TrainConfig(**spec)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_synth(config: dict, out_dir: Path, seed: int, force: bool) -> int:
    n_worms = int(_require(config, "n_worms", "gen-synth"))
    # validate every worm's config before writing anything
    synth_cfgs = []
    for i in range(n_worms):
        synth_cfgs.append(SynthConfig(
            n_neurons=int(_require(config, "n_neurons", "gen-synth")),
            n_timesteps=int(_require(config, "n_timesteps", "gen-synth")),
            n_states=int(_require(config, "n_states", "gen-synth")),
            latent_dim=int(config.get("latent_dim", 3)),
            noise_std=float(config.get("noise_std", 0.0)),
            mixing_seed=derive_entropy(seed, "worm", i)[0],
            latent_seed=seed,
            angular_velocity_jitter=float(config.get("angular_velocity_jitter", 0.0)),
        ))
    targets = [out_dir / f"worm_{i:03d}.json" for i in range(n_worms)]
    if not force:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            raise ConfigError(f"gen-synth: refusing to overwrite {existing} (use --force)")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (cfg, path) in enumerate(zip(synth_cfgs, targets)):
        save_recording(generate_worm(cfg, worm_id=f"worm_{i:03d}"), path)
    _write_manifest(out_dir, "gen-synth", seed, config)
    print(f"wrote {n_worms} recordings to {out_dir}")
    return 0


def _resolve_plan(config: dict, recs: dict, context: str) -> tr.ExperimentPlan:
    task = _require(config, "task", context)
    train_worms = config.get("train_worms") or sorted(recs)
    missing = [w for w in train_worms if w not in recs]
    if missing:
        raise ConfigError(f"{context}: train_worms not found in data: {missing}")
    return tr.ExperimentPlan(
        task=task,
        train_worm_ids=list(train_worms),
        held_out_worm_ids=list(config.get("heldout_worms", [])),
        extended_eval_ids=list(config.get("extended_worms", [])),
    )


def _resolve_run(config: dict, seed: int, context: str):
    """Recordings, plan, train config, model config and connectome of a training run."""
    recs = _load_recordings(config, context)
    plan = _resolve_plan(config, recs, context)
    first = next(iter(recs.values()))
    model_spec = dict(config.get("model", {}))
    model_spec.setdefault("module_kind", "mlp")
    model_spec["task"] = "predict" if plan.task == "predict" else "classify"
    model_spec["n_neurons"] = first.n_neurons
    model_spec["n_states"] = tr.TASK_CLASS_COUNTS.get(plan.task, 2)
    model_cfg = m.ModelConfig(**model_spec)
    connectome = None
    if config.get("connectome"):
        connectome = m.load_connectome_edges(config["connectome"], first.neuron_names,
                                             include_self_edges=model_cfg.include_self_edges)
    return recs, plan, _train_config(config, seed), model_cfg, connectome


def cmd_train(config: dict, out_dir: Path, seed: int) -> int:
    recs, plan, train_cfg, model_cfg, connectome = _resolve_run(config, seed, "train")
    model = m.NeuralModel(model_cfg, master_seed=seed)
    if connectome is not None:
        model.set_connectome(connectome)
    prepared = tr.prepare_worms(recs, plan.task, train_cfg, train_cfg.seed)
    state, metrics = tr.train(
        model, plan, train_cfg, prepared,
        test_fold=int(config.get("test_fold", 0)),
        val_fold=int(config.get("val_fold", 1)),
        max_epochs=config.get("max_epochs_override"),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    m.save_checkpoint(model, out_dir / "model.ckpt")
    record = metrics.to_dict()
    record["best_val_loss"] = state.best_val_loss
    _write_json(out_dir / "metrics.json", record)
    _write_manifest(out_dir, "train", seed, config)
    print(f"train: task={plan.task} best_val_loss={state.best_val_loss:.6g}")
    return 0


def _is_cell_file(path: Path, perm: tuple, fold: int) -> bool:
    """True when ``path`` holds a complete record of this (permutation, fold) cell."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return (isinstance(record, dict) and record.get("fold") == fold
            and record.get("permutation") == list(perm))


def cmd_cross_validate(config: dict, out_dir: Path, seed: int, workers: int, resume: bool) -> int:
    """Run a sweep through ``training.cross_validate`` and save it cell by cell.

    ``training.cross_validate`` enumerates the cells and owns the worker pool.
    This command skips cells with a complete file on ``--resume``, writes each
    cell file as its cell finishes, reports progress on stderr, and merges the
    cell files by cell index.
    """
    recs, plan, train_cfg, model_cfg, connectome = _resolve_run(config, seed, "cross-validate")
    permutation_size = int(_require(config, "permutation_size", "cross-validate"))
    perms = worm_permutations(plan.train_worm_ids, permutation_size)
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    def cell_path(pi, fold) -> Path:
        return cells_dir / f"perm{pi:03d}_fold{fold:02d}.json"

    cells, pending = [], []  # filled by cross_validate's calls, before any cell runs

    def is_pending(pi, fold) -> bool:
        cells.append((pi, fold))
        todo = not (resume and _is_cell_file(cell_path(pi, fold), perms[pi], fold))
        if todo:
            pending.append((pi, fold))
        return todo

    started, cell_times = time.perf_counter(), []

    def save(pi, fold, metrics) -> None:
        _write_json(cell_path(pi, fold), metrics.to_dict())
        cell_times.append(metrics.runtime_s)
        done, elapsed = len(cell_times), time.perf_counter() - started
        print(f"cross-validate: {done}/{len(pending)} cells done, "
              f"mean cell {sum(cell_times) / done:.3g} s, "
              f"ETA {elapsed / done * (len(pending) - done):.3g} s", file=sys.stderr)

    tr.cross_validate(recs, plan, train_cfg, model_cfg, permutation_size,
                      max_epochs=config.get("max_epochs_override"), cell_filter=is_pending,
                      progress=save, connectome=connectome, workers=workers)

    # deterministic merge by sorted cell index
    records = []
    for pi, fold in cells:
        records.append(json.loads(cell_path(pi, fold).read_text()))
    lines = [json.dumps(r, sort_keys=True) for r in records]
    (out_dir / "records.jsonl").write_text("\n".join(lines) + "\n")

    summary = tr.summarize_runs(records)
    _write_json(out_dir / "summary.json", summary)
    rows = []
    for fieldname in ("accuracy_test", "accuracy_generalization"):
        if fieldname in summary:
            rows.append((fieldname, summary[fieldname]["mean"], summary[fieldname]["std"]))
    if rows:
        ev.export_accuracy_table(out_dir / "accuracy.tsv", rows)
    _write_manifest(out_dir, "cross-validate", seed, config)
    print(f"cross-validate: {len(records)} runs "
          f"({len(perms)} permutations x {train_cfg.fold_count} folds)")
    return 0


def _load_model_for_data(config: dict, recs: dict, context: str) -> m.NeuralModel:
    model = m.load_checkpoint(_require(config, "checkpoint", context))
    for wid, rec in recs.items():
        if rec.n_neurons != model.config.n_neurons:
            raise ConfigError(
                f"{context}: checkpoint expects {model.config.n_neurons} neurons, "
                f"recording {wid!r} has {rec.n_neurons}"
            )
    return model


def cmd_eval(config: dict, out_dir: Path, seed: int) -> int:
    recs = _load_recordings(config, "eval")
    task = _require(config, "task", "eval")
    if task == "predict":
        raise ConfigError("eval: use the rollout command for prediction checkpoints")
    model = _load_model_for_data(config, recs, "eval")
    if model.config.task is not m.Task.CLASSIFY:
        raise ConfigError("eval: checkpoint was trained for prediction; use rollout")
    train_cfg = _train_config(config, seed)
    prepared = tr.prepare_worms(recs, task, train_cfg, train_cfg.seed)

    from .autodiff import Tensor

    preds, targets = [], []
    per_worm = {}
    for wid in sorted(prepared):
        worm = prepared[wid]
        logits = model.classify_logits(Tensor(worm.features), training=False,
                                       edge_feats=Tensor(worm.features))
        p = np.argmax(logits.data, axis=-1).reshape(-1)
        t = worm.targets.reshape(-1)
        preds.append(p)
        targets.append(t)
        per_worm[wid] = ev.accuracy(p, t)
    preds = np.concatenate(preds)
    targets = np.concatenate(targets)
    k = model.config.n_states
    confusion, support = ev.confusion_matrix(preds, targets, k)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "metrics.json", {
        "task": task,
        "accuracy": ev.accuracy(preds, targets),
        "per_worm_accuracy": per_worm,
        "confusion_support": support.tolist(),
    })
    ev.export_confusion(out_dir / "confusion.tsv", confusion, [str(i) for i in range(k)])
    _write_manifest(out_dir, "eval", seed, config)
    print(f"eval: accuracy={ev.accuracy(preds, targets)}")
    return 0


def cmd_rollout(config: dict, out_dir: Path, seed: int) -> int:
    recs = _load_recordings(config, "rollout")
    model = _load_model_for_data(config, recs, "rollout")
    if model.config.task is not m.Task.PREDICT:
        raise ConfigError("rollout: checkpoint was trained for classification; use eval")
    steps = int(config.get("steps", 16))
    window_len = int(config.get("window_len", 8))
    burn_in = int(config.get("burn_in", 4 if model.config.recurrent else 0))
    normalized = [normalize_recording(rec) for _, rec in sorted(recs.items())]
    result = ev.per_step_mse(model, normalized, steps=steps, window_len=window_len,
                             burn_in=burn_in)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["step\tmse"]
    for s in range(steps):
        lines.append(f"{s + 1}\t{float(result.per_step[s])!r}")
    (out_dir / "rollout_mse.tsv").write_text("\n".join(lines) + "\n")
    _write_json(out_dir / "metrics.json", {
        "per_step_mse": result.per_step.tolist(),
        "summary": {str(k): v for k, v in result.summary.items()},
        "windows_used": result.windows_used,
        "windows_skipped": result.windows_skipped,
    })
    _write_manifest(out_dir, "rollout", seed, config)
    print(f"rollout: {steps}-step MSE summary {result.summary}")
    return 0


def cmd_pca(config: dict, out_dir: Path, seed: int) -> int:
    rec = normalize_recording(load_recording(_require(config, "recording", "pca")))
    components = int(config.get("components", 3))
    result = ev.pca_project(rec.derivatives, components=components)
    out_dir.mkdir(parents=True, exist_ok=True)
    ev.export_pca_trajectory(out_dir / "pca.tsv", result.projection, rec.labels)
    _write_json(out_dir / "fractions.json", {
        "explained_variance_fractions": result.fractions.tolist(),
        "zero_variance_components": result.zero_variance_components,
    })
    _write_manifest(out_dir, "pca", seed, config)
    top = result.fractions[:components].sum()
    print(f"pca: top-{components} explained variance {top:.4f}")
    return 0


def cmd_edges(config: dict, out_dir: Path, seed: int) -> int:
    rec = load_recording(_require(config, "recording", "edges"))
    names = config.get("neurons")
    if names:
        rec = select_neurons(rec, names)
    model = m.load_checkpoint(_require(config, "checkpoint", "edges"))
    if model.config.module_kind is not m.ModuleKind.GNN:
        raise ConfigError("edges: checkpoint is not a graph model; no edges to dump")
    if rec.n_neurons != model.config.n_neurons:
        raise ConfigError(
            f"edges: checkpoint expects {model.config.n_neurons} neurons, "
            f"recording has {rec.n_neurons}"
        )
    rec = normalize_recording(rec)
    window = np.stack([rec.traces, rec.derivatives], axis=-1)  # (N, T, 2)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_matrix(path, matrix):
        lines = ["\t".join(["source\\target"] + rec.neuron_names)]
        for name, row in zip(rec.neuron_names, matrix):
            lines.append(name + "\t" + "\t".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    if model.config.edge_mode is m.EdgeMode.CONNECTOME:
        if model.connectome is None:
            raise ConfigError("edges: connectome checkpoint carries no matrix")
        inferred_mean = model.connectome
        write_matrix(out_dir / "edges.tsv", inferred_mean)
    elif model.config.edge_mode is m.EdgeMode.DYNAMIC:
        adjs = m.encode_edges(window, model)
        stack = np.stack([a.values for a in adjs])
        inferred_mean = stack.mean(axis=0)
        write_matrix(out_dir / "edges_mean.tsv", inferred_mean)
        write_matrix(out_dir / "edges_std.tsv", stack.std(axis=0))
    else:
        adj = m.encode_edges(window, model)
        inferred_mean = adj.values
        write_matrix(out_dir / "edges.tsv", inferred_mean)

    report = {"edge_mode": model.config.edge_mode.value}
    connectome_path = config.get("connectome")
    if connectome_path:
        structural = m.load_connectome_edges(
            connectome_path, rec.neuron_names,
            include_self_edges=model.config.include_self_edges).values
        off = ~np.eye(rec.n_neurons, dtype=bool)
        a, b = inferred_mean[off], structural[off]
        if a.size < 2 or a.std() == 0 or b.std() == 0:
            report["pearson_correlation"] = None
            report["note"] = "undefined (degenerate weight variance)"
        else:
            report["pearson_correlation"] = float(np.corrcoef(a, b)[0, 1])
    _write_json(out_dir / "edge_comparison.json", report)
    _write_manifest(out_dir, "edges", seed, config)
    print(f"edges: mode={model.config.edge_mode.value}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormgnn",
        description="Graph networks and baselines for multi-neuron calcium-imaging time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-synth", "train", "cross-validate", "eval", "rollout", "pca", "edges"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config or manifest file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--workers", type=int, default=1, help="parallel cells (cross-validate)")
        p.add_argument("--resume", action="store_true", help="skip completed cells")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, config_seed, manifest_command = _load_config(args.config)
        if manifest_command is not None and manifest_command != args.command:
            raise ConfigError(
                f"{args.config}: manifest was written by {manifest_command!r}, "
                f"not {args.command!r}"
            )
        seed = args.seed if args.seed is not None else (config_seed if config_seed is not None else 0)
        seed = int(seed)
        out_dir = Path(args.out)
        if args.command == "gen-synth":
            return cmd_gen_synth(config, out_dir, seed, args.force)
        if args.command == "train":
            return cmd_train(config, out_dir, seed)
        if args.command == "cross-validate":
            return cmd_cross_validate(config, out_dir, seed, args.workers, args.resume)
        if args.command == "eval":
            return cmd_eval(config, out_dir, seed)
        if args.command == "rollout":
            return cmd_rollout(config, out_dir, seed)
        if args.command == "pca":
            return cmd_pca(config, out_dir, seed)
        if args.command == "edges":
            return cmd_edges(config, out_dir, seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, RecordingFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
