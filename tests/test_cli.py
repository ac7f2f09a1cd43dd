"""CLI contract tests: every command, manifests, determinism, diagnostics."""

import contextlib
import inspect
import io
import json
import shutil
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormgnn import cli
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.autodiff import Tensor
from wormgnn.cli import main


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def gen_synth(tmp_path: Path, n_worms=3, seed=7, t=160, n_neurons=5, n_states=2) -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "data"
    cfg = write_config(tmp_path / "synth.json", {
        "n_worms": n_worms, "n_neurons": n_neurons, "n_timesteps": t,
        "n_states": n_states, "noise_std": 0.05, "angular_velocity_jitter": 0.05,
    })
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
    return out


def strip_wall_time(payload):
    if isinstance(payload, dict):
        return {k: strip_wall_time(v) for k, v in payload.items()
                if k != "wall_time_s"}
    if isinstance(payload, list):
        return [strip_wall_time(v) for v in payload]
    return payload


# -- gen-synth --------------------------------------------------------------------

def test_gen_synth_writes_valid_files(tmp_path):
    out = gen_synth(tmp_path, n_worms=5)
    files = sorted(out.glob("worm_*.json"))
    assert len(files) == 5
    from wormgnn.data import load_recording

    rec = load_recording(files[0])
    assert rec.n_neurons == 5 and rec.n_timesteps == 160
    assert (out / "manifest.json").exists()


def test_gen_synth_rerun_byte_identical(tmp_path):
    out_a = gen_synth(tmp_path / "a", seed=3)
    out_b = gen_synth(tmp_path / "b", seed=3)
    for fa, fb in zip(sorted(out_a.glob("worm_*.json")), sorted(out_b.glob("worm_*.json"))):
        assert fa.read_bytes() == fb.read_bytes()


def test_gen_synth_invalid_states_no_write(tmp_path, capsys):
    out = tmp_path / "data"
    cfg = write_config(tmp_path / "bad.json", {
        "n_worms": 2, "n_neurons": 5, "n_timesteps": 100, "n_states": 3,
    })
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out)]) == 1
    assert "n_states" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("worm_*.json"))


def test_gen_synth_refuses_overwrite(tmp_path, capsys):
    out = gen_synth(tmp_path)
    cfg = tmp_path / "synth.json"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 1
    assert "--force" in capsys.readouterr().err
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out), "--seed", "7",
                 "--force"]) == 0


@pytest.mark.parametrize("change,message", [
    ({"n_worms": -1}, "gen-synth: n_worms must be >= 1, got -1"),
    ({"n_worms": 0}, "gen-synth: n_worms must be >= 1, got 0"),
    ({"latent_dimm": 5}, "gen-synth: unknown config field 'latent_dimm'"),
    ({"seed": 4}, None),
], ids=["negative_worms", "no_worms", "misspelt_key", "seed_allowed"])
def test_gen_synth_checks_its_keys(tmp_path, capsys, change, message):
    out = tmp_path / "data"
    cfg = write_config(tmp_path / "synth.json", {
        "n_worms": 2, "n_neurons": 5, "n_timesteps": 100, "n_states": 2, **change})
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out)]) == (0 if message is None else 1)
    if message is None:
        assert len(list(out.glob("worm_*.json"))) == 2
    else:
        assert message in capsys.readouterr().err
        assert not out.exists()


# -- train ------------------------------------------------------------------------

def train_config(data_dir: Path, **overrides) -> dict:
    cfg = {
        "task": "classify2",
        "data_dir": str(data_dir),
        "model": {"module_kind": "mlp", "hidden_dim": 4},
        "train": {"max_epochs": 3, "fold_count": 5, "window_len": 8},
    }
    cfg.update(overrides)
    return cfg


def test_train_outputs_and_manifest_rerun(tmp_path):
    data = gen_synth(tmp_path)
    inputs_before = {p: p.read_bytes() for p in data.glob("worm_*.json")}
    out_a = tmp_path / "run_a"
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(out_a), "--seed", "5"]) == 0
    assert (out_a / "model.ckpt").exists()
    # input files are never mutated
    assert all(p.read_bytes() == blob for p, blob in inputs_before.items())

    # rerun from the manifest reproduces metrics bit-identically (minus wall time)
    out_b = tmp_path / "run_b"
    assert main(["train", "--config", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
    metrics_a = strip_wall_time(json.loads((out_a / "metrics.json").read_text()))
    metrics_b = strip_wall_time(json.loads((out_b / "metrics.json").read_text()))
    assert metrics_a == metrics_b
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


@pytest.mark.parametrize("folds", [{"test_fold": 0, "val_fold": 0}, {"test_fold": 7},
                                   {"val_fold": -1}], ids=["same", "test_7_of_5", "val_-1"])
def test_train_rejects_unusable_folds(tmp_path, capsys, folds):
    data = gen_synth(tmp_path)
    cfg = write_config(tmp_path / "train.json", train_config(data, **folds))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    test_fold, val_fold = folds.get("test_fold", 0), folds.get("val_fold", 1)
    assert (f"test_fold {test_fold} and val_fold {val_fold} must be distinct folds in [0, 5)"
            in capsys.readouterr().err)
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("section,spec,field", [
    ("train", {"max_epoch": 1}, "max_epoch"),
    ("model", {"module_kind": "mlp", "hidden": 4}, "hidden"),
], ids=["train", "model"])
def test_unknown_config_field_named(tmp_path, capsys, section, spec, field):
    data = gen_synth(tmp_path)
    cfg = write_config(tmp_path / "train.json", train_config(data, **{section: spec}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"unknown field(s) ['{field}'] in the '{section}' section" in err


def test_max_epochs_override_rejected(tmp_path, capsys):
    # train.max_epochs is the one epoch count; an old manifest's override fails loudly
    data = gen_synth(tmp_path)
    cfg = write_config(tmp_path / "train.json", train_config(data, max_epochs_override=1))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "set train.max_epochs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--resume"],
    ["train", "--workers", "2"],
    ["eval", "--force"],
], ids=["train-resume", "train-workers", "eval-force"])
def test_options_exist_only_on_their_command(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "c.json", {})
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(cfg), "--out", str(tmp_path / "out")] + argv[1:])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["heldout_worms", "extended_worms"])
def test_unknown_heldout_worms_rejected(tmp_path, capsys, key):
    data = gen_synth(tmp_path)
    cfg = write_config(tmp_path / "train.json", train_config(
        data, train_worms=["worm_000", "worm_001"], **{key: ["worm_002", "worm_0002"]}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert f"{key} not found in data: ['worm_0002']" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("key", ["heldout_worms", "extended_worms"])
def test_default_train_worms_leave_out_held_out_and_extended_worms(tmp_path, key):
    # without train_worms, every recording not named held out or extended is trained on
    data = gen_synth(tmp_path)
    cfg = write_config(tmp_path / "cv.json", train_config(data, permutation_size=2,
                                                          **{key: ["worm_001"]}))
    assert main(["cross-validate", "--config", str(cfg), "--out", str(tmp_path / "cv")]) == 0
    records = [json.loads(line) for line in (tmp_path / "cv" / "records.jsonl").read_text().splitlines()]
    assert records and all(sorted(r["permutation"]) == ["worm_000", "worm_002"] for r in records)
    assert all(r["accuracy_generalization"] is not None for r in records)
    cfg = write_config(tmp_path / "train.json", train_config(data, **{key: ["worm_001"]}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "metrics.json").read_text())["accuracy_generalization"]


def test_worm_list_that_is_not_a_list_rejected(tmp_path, capsys):
    data = gen_synth(tmp_path)
    cfg = write_config(tmp_path / "train.json", train_config(data, heldout_worms="worm_002"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "train: heldout_worms must be a list of strings or null, got 'worm_002'" in capsys.readouterr().err


def test_manifest_command_mismatch(tmp_path, capsys):
    data = gen_synth(tmp_path)
    assert main(["train", "--config", str(data / "manifest.json"), "--out",
                 str(tmp_path / "x")]) == 1
    assert "gen-synth" in capsys.readouterr().err


def test_manifest_whose_config_is_not_an_object_rejected(tmp_path, capsys):
    # at the parent, listing the keys of a config 5 raised a TypeError
    path = write_config(tmp_path / "manifest.json", {"command": "train", "seed": 0, "config": 5})
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {path}: config must be an object, got 5\n"


def test_load_recordings_from_paths_with_neuron_selection(tmp_path):
    data = gen_synth(tmp_path)
    paths = [str(p) for p in sorted(data.glob("worm_*.json"))[:2]]
    recs = cli._load_recordings({"recordings": paths, "neurons": ["SN03", "SN01"]}, "test")
    assert sorted(recs) == ["worm_000", "worm_001"]
    assert all(rec.neuron_names == ["SN03", "SN01"] for rec in recs.values())
    assert np.array_equal(recs["worm_000"].traces,
                          cli.load_recording(paths[0]).traces[[3, 1]])
    recs = cli._load_recordings({"recordings": paths, "exclude_neurons": ["SN00", "SN02"]}, "test")
    assert all(rec.neuron_names == ["SN01", "SN03", "SN04"] for rec in recs.values())
    with pytest.raises(cli.ConfigError, match="duplicate worm_id 'worm_000'"):
        cli._load_recordings({"recordings": [paths[0], paths[0]]}, "test")


def test_recordings_with_other_neuron_order_rejected_unless_selected(tmp_path, capsys):
    # one worm's neurons reversed: neuron i would be a different cell in that
    # worm, so training refuses it; naming the neurons aligns every worm
    data = gen_synth(tmp_path)
    path = data / "worm_001.json"
    rec = cli.load_recording(path)
    cli.save_recording(cli.select_neurons(rec, rec.neuron_names[::-1]), path)
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert ("train: worm 'worm_001' has neuron 'SN04' at position 0 where worm 'worm_000' has "
            "'SN00'; choose shared neurons with 'neurons'") in err
    assert not (tmp_path / "run").exists()

    names = [f"SN0{i}" for i in range(5)]
    cfg = write_config(tmp_path / "train.json", train_config(data, neurons=names))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    recs = cli._load_recordings({"data_dir": str(data), "neurons": names}, "test")
    assert np.array_equal(recs["worm_001"].traces, rec.traces)


@pytest.mark.parametrize("config,burn_in", [
    ({"model": {"recurrent": True}}, tr.RECURRENT_BURN_IN),
    ({"model": {"recurrent": True}, "train": {"burn_in": 2}}, 2),
    ({"model": {"recurrent": False}}, 0),
    ({}, 0),
], ids=["recurrent", "recurrent_explicit", "not_recurrent", "no_model"])
def test_train_config_burn_in_defaults_for_recurrent_models(config, burn_in):
    assert cli._train_config(config, seed=0, context="test").burn_in == burn_in


# -- cross-validate -----------------------------------------------------------------

def test_cross_validate_counts_resume_and_workers(tmp_path):
    data = gen_synth(tmp_path, n_worms=3)
    cfg = write_config(tmp_path / "cv.json", train_config(
        data, permutation_size=2,
        train={"max_epochs": 2, "fold_count": 4, "window_len": 8},
    ))
    out = tmp_path / "cv"
    assert main(["cross-validate", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 3 * 4  # C(3,2) permutations x 4 folds
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 12

    # resume: cells already done, merge only
    before = (out / "records.jsonl").read_bytes()
    assert main(["cross-validate", "--config", str(cfg), "--out", str(out), "--seed", "1",
                 "--resume"]) == 0
    assert (out / "records.jsonl").read_bytes() == before

    # worker pool produces the same records
    out_w = tmp_path / "cv_workers"
    assert main(["cross-validate", "--config", str(cfg), "--out", str(out_w), "--seed", "1",
                 "--workers", "2"]) == 0
    records_w = [json.loads(line) for line in (out_w / "records.jsonl").read_text().splitlines()]
    assert strip_wall_time(records_w) == strip_wall_time(records)


@pytest.mark.parametrize("workers", [0, -3])
def test_cross_validate_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    data = gen_synth(tmp_path, n_worms=3)
    cfg = write_config(tmp_path / "cv.json", train_config(
        data, permutation_size=2, train={"max_epochs": 1, "fold_count": 4, "window_len": 8}))
    out = tmp_path / "cv"
    assert main(["cross-validate", "--config", str(cfg), "--out", str(out),
                 "--workers", str(workers)]) == 1
    assert f"cross_validate: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()
    assert not list((out / "cells").glob("*.json"))


def test_cross_validate_with_connectome(tmp_path):
    # every cell's model gets the connectome, in this process and in pool workers
    data = gen_synth(tmp_path, n_worms=3)
    conn = tmp_path / "conn.txt"
    conn.write_text("SN00 SN01 2.0\nSN01 SN02 1.0\nSN03 SN00 0.5\n")
    cfg = write_config(tmp_path / "cv.json", train_config(
        data, permutation_size=2, connectome=str(conn),
        model={"module_kind": "gnn", "edge_mode": "connectome", "hidden_dim": 4},
        train={"max_epochs": 1, "fold_count": 4, "window_len": 8}))
    outs = [tmp_path / f"cv_{workers}" for workers in (1, 2)]
    for out, workers in zip(outs, (1, 2)):
        assert main(["cross-validate", "--config", str(cfg), "--out", str(out), "--seed", "1",
                     "--workers", str(workers)]) == 0
    records = [strip_wall_time(read_records(out)) for out in outs]
    assert len(records[0]) == 12 and records[0] == records[1]


TINY_CELLS = [(pi, fold) for pi in range(3) for fold in range(4)]


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    """An uninterrupted 3-worm x 4-fold sweep, 1 epoch, hidden 4: (config, output dir)."""
    root = tmp_path_factory.mktemp("tiny_sweep")
    cfg = write_config(root / "cv.json", train_config(
        gen_synth(root), permutation_size=2,
        train={"max_epochs": 1, "fold_count": 4, "window_len": 8},
    ))
    out = root / "full"
    assert main(["cross-validate", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    return cfg, out


def sweep(cfg: Path, out: Path, *extra: str) -> int:
    return main(["cross-validate", "--config", str(cfg), "--out", str(out), "--seed", "1", *extra])


def read_records(out: Path) -> list:
    return [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]


RUN_CELL = tr.run_cell


def record_cells(monkeypatch, fail_on_call=None) -> list:
    """Wrap ``training.run_cell``; returns the list of (perm_index, fold) it is asked for."""
    calls, signature = [], inspect.signature(RUN_CELL)

    def counted(*args, **kwargs):
        cell = signature.bind(*args, **kwargs).arguments
        calls.append((cell["perm_index"], cell["fold"]))
        if len(calls) == fail_on_call:
            raise RuntimeError("sweep interrupted")
        return RUN_CELL(*args, **kwargs)

    monkeypatch.setattr(tr, "run_cell", counted)
    return calls


def test_interrupted_sweep_keeps_finished_cells_and_resumes(tmp_path, monkeypatch, capsys,
                                                            tiny_sweep):
    cfg, full = tiny_sweep
    out = tmp_path / "cv"
    record_cells(monkeypatch, fail_on_call=5)
    with pytest.raises(RuntimeError, match="interrupted"):
        sweep(cfg, out)
    assert sorted(p.name for p in (out / "cells").iterdir()) == [
        f"perm000_fold{fold:02d}.json" for fold in range(4)]
    capsys.readouterr()

    calls = record_cells(monkeypatch)
    assert sweep(cfg, out, "--resume") == 0
    assert calls == TINY_CELLS[4:]
    assert strip_wall_time(read_records(out)) == strip_wall_time(read_records(full))
    captured = capsys.readouterr()
    assert captured.out == "cross-validate: 12 runs (3 permutations x 4 folds)\n"
    progress = captured.err.splitlines()
    assert len(progress) == 8 and progress[-1].startswith("cross-validate: 8/8 cells done, ")
    assert "mean cell" in progress[0] and "ETA" in progress[0]


def test_resume_recomputes_truncated_and_mismatched_cells(tmp_path, monkeypatch, tiny_sweep):
    cfg, full = tiny_sweep
    out = tmp_path / "cv"
    shutil.copytree(full / "cells", out / "cells")
    truncated = out / "cells" / "perm001_fold02.json"
    truncated.write_text(truncated.read_text()[:40])
    (out / "cells" / "perm002_fold01.json").write_bytes(
        (full / "cells" / "perm002_fold00.json").read_bytes())
    # a record with a key missing, and one with a key RunMetrics does not have
    for name, edit in (("perm000_fold01.json", lambda r: r.pop("wall_time_s")),
                       ("perm002_fold03.json", lambda r: r.update(note="extra"))):
        path = out / "cells" / name
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
    calls = record_cells(monkeypatch)
    assert sweep(cfg, out, "--resume") == 0
    assert calls == [(0, 1), (1, 2), (2, 1), (2, 3)]
    assert strip_wall_time(read_records(out)) == strip_wall_time(read_records(full))


@settings(max_examples=40, deadline=None)
@given(present=st.sets(st.sampled_from(TINY_CELLS)))
def test_resume_runs_exactly_the_missing_cells(tiny_sweep, present):
    cfg, full = tiny_sweep
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        out = Path(tmp)
        (out / "cells").mkdir()
        for pi, fold in present:
            name = f"perm{pi:03d}_fold{fold:02d}.json"
            shutil.copy(full / "cells" / name, out / "cells" / name)
        calls = record_cells(monkeypatch)
        with contextlib.redirect_stderr(io.StringIO()):
            assert sweep(cfg, out, "--resume") == 0
        assert calls == [cell for cell in TINY_CELLS if cell not in present]
        assert strip_wall_time(read_records(out)) == strip_wall_time(read_records(full))


# -- eval / rollout -------------------------------------------------------------------

def test_eval_and_shape_mismatch(tmp_path, capsys):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "2"]) == 0

    out = tmp_path / "eval"
    eval_cfg = write_config(tmp_path / "eval.json", {
        "task": "classify2", "data_dir": str(data), "checkpoint": str(run / "model.ckpt"),
        "train": {"max_epochs": 1, "fold_count": 5, "window_len": 8},
    })
    assert main(["eval", "--config", str(eval_cfg), "--out", str(out), "--seed", "2"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert (out / "confusion.tsv").exists()

    # different neuron count: error names both sizes
    other = gen_synth(tmp_path / "other", n_neurons=7)
    bad_cfg = write_config(tmp_path / "bad_eval.json", {
        "task": "classify2", "data_dir": str(other), "checkpoint": str(run / "model.ckpt"),
    })
    assert main(["eval", "--config", str(bad_cfg), "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert "5" in err and "7" in err


def test_eval_scores_recordings_with_fewer_windows_than_folds(tmp_path, capsys):
    # eval reads no folds, so a 64-frame recording (8 windows) is scored at
    # the default 10 folds; train and cross-validate still need one window a fold
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(gen_synth(tmp_path)))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "2"]) == 0
    short = gen_synth(tmp_path / "short", t=64)
    out = tmp_path / "eval"
    eval_cfg = write_config(tmp_path / "eval.json", {
        "task": "classify2", "data_dir": str(short), "checkpoint": str(run / "model.ckpt"),
        "train": {"window_len": 8}})
    assert main(["eval", "--config", str(eval_cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert sum(metrics["confusion_support"]) > 0 and 0.0 <= metrics["accuracy"] <= 1.0
    capsys.readouterr()

    for command, extra in (("train", {}), ("cross-validate", {"permutation_size": 2})):
        bad = write_config(tmp_path / "bad.json", train_config(
            short, train={"max_epochs": 1, "fold_count": 10, "window_len": 8}, **extra))
        assert main([command, "--config", str(bad), "--out", str(tmp_path / command)]) == 1
        assert "has 8 windows for 10 folds" in capsys.readouterr().err
        assert not (tmp_path / command / "manifest.json").exists()


def test_checkpoint_neuron_names_checked_on_eval(tmp_path, capsys):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "2"]) == 0
    ckpt = run / "model.ckpt"
    names = [f"SN0{i}" for i in range(5)]
    assert m.load_checkpoint(ckpt).neuron_names == names
    eval_cfg = write_config(tmp_path / "eval.json", {
        "task": "classify2", "data_dir": str(data), "checkpoint": str(ckpt),
        "neurons": names[::-1], "train": {"window_len": 8}})
    assert main(["eval", "--config", str(eval_cfg), "--out", str(tmp_path / "eval")]) == 1
    assert ("eval: worm 'worm_000' has neuron 'SN04' at position 0 where the checkpoint has "
            "'SN00'") in capsys.readouterr().err

    # a checkpoint written before names were kept loads without the check
    raw = json.loads(ckpt.read_text())
    del raw["neuron_names"]
    ckpt.write_text(json.dumps(raw))
    assert main(["eval", "--config", str(eval_cfg), "--out", str(tmp_path / "eval")]) == 0


def drop(entry: dict, key: str) -> None:
    del entry[key]


@pytest.mark.parametrize("corrupt,name", [
    (lambda raw: raw.update(buffers=[b for b in raw["buffers"]
                                     if b["name"] != "trunk.bn.running_var"]), "trunk.bn.running_var"),
    (lambda raw: raw["config"].update(hidden=3), "hidden"),
    (lambda raw: drop(raw["parameters"][0], "name"),
     "parameters is not a list of name, shape and values entries (KeyError('name'))"),
    (lambda raw: drop(raw["buffers"][1], "values"),
     "buffers is not a list of name, shape and values entries (KeyError('values'))"),
    (lambda raw: raw["parameters"][2].update(values=["x"] * len(raw["parameters"][2]["values"])),
     "parameters is not a list"),
    (lambda raw: raw.update(parameters={"head.bias": [0.0, 0.0]}), "parameters is not a list"),
    (lambda raw: [raw], "top level is not a wormgnn-checkpoint object"),
    (lambda raw: raw.update(neuron_names=["SN00"]), "neuron_names is not a list of 5 names"),
], ids=["missing_buffer", "unknown_config_key", "entry_without_name", "entry_without_values",
        "non_numeric_values", "parameters_not_a_list", "top_level_list", "short_neuron_names"])
def test_eval_names_bad_checkpoint_entry(tmp_path, capsys, corrupt, name):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "2"]) == 0
    ckpt = run / "model.ckpt"
    raw = json.loads(ckpt.read_text())
    raw = corrupt(raw) or raw  # a corruption edits the checkpoint in place or replaces it
    ckpt.write_text(json.dumps(raw))
    eval_cfg = write_config(tmp_path / "eval.json", {
        "task": "classify2", "data_dir": str(data), "checkpoint": str(ckpt),
        "train": {"fold_count": 5, "window_len": 8},
    })
    assert main(["eval", "--config", str(eval_cfg), "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    assert f"load_checkpoint: {ckpt}: " in err and name in err


def test_eval_rejects_class_count_mismatch(tmp_path, capsys):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "2"]) == 0
    bad = write_config(tmp_path / "eval.json", {
        "task": "classify7", "data_dir": str(data), "checkpoint": str(run / "model.ckpt"),
        "train": {"fold_count": 5, "window_len": 8},
    })
    assert main(["eval", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "'classify7' does not match the checkpoint's 2 classes" in capsys.readouterr().err


def test_rollout_outputs_table(tmp_path):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict",
        model={"module_kind": "mlp", "hidden_dim": 8},
        train={"max_epochs": 3, "fold_count": 5, "window_len": 8},
    ))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "3"]) == 0

    out = tmp_path / "roll"
    roll_cfg = write_config(tmp_path / "roll.json", {
        "data_dir": str(data), "checkpoint": str(run / "model.ckpt"), "steps": 16,
    })
    assert main(["rollout", "--config", str(roll_cfg), "--out", str(out)]) == 0
    lines = (out / "rollout_mse.tsv").read_text().splitlines()
    assert lines[0] == "step\tmse"
    assert len(lines) == 17  # header + 16 steps
    for s, line in enumerate(lines[1:], start=1):
        step, mse = line.split("\t")
        assert int(step) == s
        assert float(mse) >= 0.0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["per_step_mse"]) == 16


@pytest.mark.parametrize("roll,message", [
    ({"window_len": 0}, "window_len must be >= 1, got 0"),
    ({"window_len": 400}, "no window has the 16 frames"),
    ({"burn_in": -2}, "burn_in must be >= 0, got -2"),
    ({"steps": 0}, "error: per_step_mse: steps must be >= 1, got 0"),
    ({"steps": -1}, "error: per_step_mse: steps must be >= 1, got -1"),
], ids=["zero_window", "window_too_long", "negative_burn_in", "zero_steps", "negative_steps"])
def test_rollout_rejects_unusable_windows(tmp_path, capsys, roll, message):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict", model={"module_kind": "mlp", "hidden_dim": 4}))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "3"]) == 0
    roll_cfg = write_config(tmp_path / "roll.json", {
        "data_dir": str(data), "checkpoint": str(run / "model.ckpt"), "steps": 16, **roll})
    assert main(["rollout", "--config", str(roll_cfg), "--out", str(tmp_path / "roll")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "roll" / "metrics.json").exists()


def test_eval_rejects_predict_checkpoint(tmp_path, capsys):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict",
        model={"module_kind": "mlp", "hidden_dim": 8},
        train={"max_epochs": 2, "fold_count": 5, "window_len": 8},
    ))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "3"]) == 0
    bad = write_config(tmp_path / "bad.json", {
        "task": "classify2", "data_dir": str(data), "checkpoint": str(run / "model.ckpt"),
    })
    assert main(["eval", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "rollout" in capsys.readouterr().err


# -- pca / edges -----------------------------------------------------------------------

def test_pca_command(tmp_path):
    data = gen_synth(tmp_path, n_worms=1, t=300)
    out = tmp_path / "pca"
    cfg = write_config(tmp_path / "pca.json", {
        "recording": str(sorted(data.glob('worm_*.json'))[0]), "components": 3,
    })
    assert main(["pca", "--config", str(cfg), "--out", str(out)]) == 0
    fractions = json.loads((out / "fractions.json").read_text())
    assert sum(fractions["explained_variance_fractions"][:3]) > 0.5
    lines = (out / "pca.tsv").read_text().splitlines()
    assert lines[0] == "t\tpc1\tpc2\tpc3\tstate"
    assert len(lines) == 301


def test_pca_command_rejects_zero_components(tmp_path, capsys):
    data = gen_synth(tmp_path, n_worms=1, t=60)
    out = tmp_path / "pca"
    cfg = write_config(tmp_path / "pca.json", {
        "recording": str(sorted(data.glob('worm_*.json'))[0]), "components": 0,
    })
    assert main(["pca", "--config", str(cfg), "--out", str(out)]) == 1
    assert "components must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("labels", 7, "labels must be a list, got int"),
    ("labels", [["forward"]] * 8, "labels[0]: unknown fine label ['forward']"),
    ("neuron_names", "AB", "neuron_names must be a list, got str"),
    ("traces", [[0.1] * 8, [0.2] * 7], "traces: setting an array element with a sequence"),
    ("traces", [[0.1] * 8, ["x"] * 8], "traces: could not convert string to float: 'x'"),
    ("derivatives", [[0.1] * 8, [{}] * 8], "derivatives: float() argument must be"),
    ("sample_period_s", "fast", "sample_period_s: could not convert string to float: 'fast'"),
    ("sample_period_s", [0.3, 0.3], "sample_period_s: float() argument must be"),
], ids=["labels_int", "label_list", "names_str", "traces_ragged", "traces_text",
        "derivatives_object", "period_text", "period_list"])
def test_malformed_recording_fails_with_one_named_error(tmp_path, capsys, field, value, message):
    payload = {
        "worm_id": "w", "dataset_tag": "t", "sample_period_s": 0.3, "neuron_names": ["A", "B"],
        "traces": [[0.1 * t for t in range(8)], [0.2] * 8], "labels": ["forward"] * 8,
    }
    payload[field] = value
    rec = write_config(tmp_path / "rec.json", payload)
    cfg = write_config(tmp_path / "pca.json", {"recording": str(rec), "components": 1})
    assert main(["pca", "--config", str(cfg), "--out", str(tmp_path / "pca")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rec}: ") and err.count("\n") == 1  # one line, no traceback
    assert message in err


def test_edges_static_and_comparison(tmp_path):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, model={"module_kind": "gnn", "edge_mode": "static", "hidden_dim": 4},
    ))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "1"]) == 0

    rec_path = sorted(data.glob("worm_*.json"))[0]
    conn = tmp_path / "conn.txt"
    conn.write_text("")  # empty connectome: correlation undefined
    out = tmp_path / "edges"
    edges_cfg = write_config(tmp_path / "edges.json", {
        "checkpoint": str(run / "model.ckpt"), "recording": str(rec_path),
        "connectome": str(conn),
    })
    assert main(["edges", "--config", str(edges_cfg), "--out", str(out)]) == 0
    table = (out / "edges.tsv").read_text().splitlines()
    assert len(table) == 6  # header + 5 neurons
    report = json.loads((out / "edge_comparison.json").read_text())
    assert report["pearson_correlation"] is None


def test_connectome_training_and_edges_dump(tmp_path):
    data = gen_synth(tmp_path)
    conn = tmp_path / "conn.txt"
    conn.write_text("SN00 SN01 2.0\nSN01 SN02 1.0\nSN03 SN00 0.5\n")
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data,
        model={"module_kind": "gnn", "edge_mode": "connectome", "hidden_dim": 4},
        connectome=str(conn),
    ))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "4"]) == 0

    out = tmp_path / "edges"
    edges_cfg = write_config(tmp_path / "edges.json", {
        "checkpoint": str(run / "model.ckpt"),
        "recording": str(sorted(data.glob("worm_*.json"))[0]),
        "connectome": str(conn),
    })
    assert main(["edges", "--config", str(edges_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "edge_comparison.json").read_text())
    # the checkpoint carries the same structural matrix: perfect correlation
    assert report["pearson_correlation"] == pytest.approx(1.0)


def test_edges_dumps_the_adjacency_messages_pass_over(tmp_path):
    # with self edges off, a self pair in the connectome file passes no message
    data = gen_synth(tmp_path)
    conn = tmp_path / "conn.txt"
    conn.write_text("SN00 SN00 3.0\nSN00 SN01 2.0\nSN01 SN02 1.0\nSN03 SN00 0.5\n")
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, connectome=str(conn),
        model={"module_kind": "gnn", "edge_mode": "connectome", "hidden_dim": 4,
               "include_self_edges": False}))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "4"]) == 0
    out = tmp_path / "edges"
    edges_cfg = write_config(tmp_path / "edges.json", {
        "checkpoint": str(run / "model.ckpt"),
        "recording": str(sorted(data.glob("worm_*.json"))[0]),
    })
    assert main(["edges", "--config", str(edges_cfg), "--out", str(out)]) == 0
    rows = [line.split("\t") for line in (out / "edges.tsv").read_text().splitlines()]
    dumped = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    model = m.load_checkpoint(run / "model.ckpt")
    assert model.connectome[0, 0] == 1.0  # stored, but unused
    assert np.array_equal(dumped, model.adjacency(Tensor(np.zeros((5, 2)))).data)
    assert not np.diag(dumped).any() and dumped[0, 1] == model.connectome[0, 1] == 2.0 / 3.0


def test_edges_dynamic_tables(tmp_path):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict",
        model={"module_kind": "gnn", "edge_mode": "dynamic", "hidden_dim": 4},
        train={"max_epochs": 2, "fold_count": 5, "window_len": 8},
    ))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "1"]) == 0
    out = tmp_path / "edges"
    edges_cfg = write_config(tmp_path / "edges.json", {
        "checkpoint": str(run / "model.ckpt"),
        "recording": str(sorted(data.glob("worm_*.json"))[0]),
    })
    assert main(["edges", "--config", str(edges_cfg), "--out", str(out)]) == 0
    assert (out / "edges_mean.tsv").exists()
    assert (out / "edges_std.tsv").exists()


def test_edges_rejects_mlp(tmp_path, capsys):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(data))
    assert main(["train", "--config", str(cfg), "--out", str(run), "--seed", "1"]) == 0
    edges_cfg = write_config(tmp_path / "edges.json", {
        "checkpoint": str(run / "model.ckpt"),
        "recording": str(sorted(data.glob("worm_*.json"))[0]),
    })
    assert main(["edges", "--config", str(edges_cfg), "--out", str(tmp_path / "x")]) == 1
    assert "no edges" in capsys.readouterr().err


@pytest.fixture(scope="module")
def predict_run(tmp_path_factory):
    """Synthetic data and a predict MLP trained on it for one epoch: (data dir, checkpoint)."""
    root = tmp_path_factory.mktemp("predict_run")
    data = gen_synth(root)
    cfg = write_config(root / "train.json", train_config(
        data, task="predict", model={"module_kind": "mlp", "hidden_dim": 4},
        train={"max_epochs": 1, "fold_count": 5, "window_len": 8}))
    assert main(["train", "--config", str(cfg), "--out", str(root / "run"), "--seed", "3"]) == 0
    return data, root / "run" / "model.ckpt"


INTEGER_KEYS = {
    # command -> (a config it accepts, built from a data dir and a checkpoint; its integer keys)
    "gen-synth": (lambda data, ckpt: {"n_worms": 2, "n_neurons": 5, "n_timesteps": 100, "n_states": 2},
                  ["n_worms", "n_neurons", "n_timesteps", "n_states", "latent_dim", "seed"]),
    "train": (lambda data, ckpt: train_config(data), ["test_fold", "val_fold"]),
    "cross-validate": (lambda data, ckpt: train_config(data, permutation_size=2), ["permutation_size"]),
    "rollout": (lambda data, ckpt: {"data_dir": str(data), "checkpoint": str(ckpt)},
                ["steps", "window_len", "burn_in"]),
    "pca": (lambda data, ckpt: {"recording": str(sorted(data.glob("worm_*.json"))[0])}, ["components"]),
}


@pytest.mark.parametrize("command,key,value", [
    (command, key, value) for command, (_, keys) in INTEGER_KEYS.items() for key in keys
    for value in (2.7, 3.0, "three", True, None) if (key, value) != ("seed", None)])  # null: the default
def test_integer_config_keys_reject_other_values(tmp_path, capsys, predict_run, command, key, value):
    # at the parent, "n_worms": 2.7 wrote 2 recordings and "three" named no key
    config = {**INTEGER_KEYS[command][0](*predict_run), key: value}
    path = write_config(tmp_path / "config.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    where = str(path) if key == "seed" else command
    assert err == f"error: {where}: {key} must be an integer, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("section,key,value,message", [
    ("model", "hidden_dim", 2.5, "ModelConfig: hidden_dim must be an integer or null, got 2.5"),
    ("model", "recurrent", "false", "ModelConfig: recurrent must be true or false, got 'false'"),
    ("train", "max_epochs", 2.5, "TrainConfig: max_epochs must be an integer, got 2.5"),
    ("train", "learning_rate", "0.1", "TrainConfig: learning_rate must be a finite number, got '0.1'"),
    ("train", "learning_rate", -0.1, "TrainConfig: learning_rate must be > 0, got -0.1"),
    # a NaN temperature would otherwise train until "validation loss is nan at epoch 0"
    ("model", "softmax_temperature", np.nan, "ModelConfig: softmax_temperature must be a finite number, got nan"),
    ("model", "softmax_temperature", np.inf, "ModelConfig: softmax_temperature must be a finite number, got inf"),
    ("train", "learning_rate", -np.inf, "TrainConfig: learning_rate must be a finite number, got -inf"),
], ids=["hidden_dim", "recurrent", "max_epochs", "learning_rate", "negative_learning_rate", "nan_temperature",
        "infinite_temperature", "minus_infinite_learning_rate"])
def test_wrong_typed_section_field_is_one_error_line(tmp_path, capsys, predict_run, section, key,
                                                     value, message):
    config = train_config(predict_run[0])
    config[section] = {**config[section], key: value}
    path = write_config(tmp_path / "train.json", config)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key,value", [("noise_std", np.nan), ("angular_velocity_jitter", -np.inf)])
def test_non_finite_gen_synth_number_is_one_error_line(tmp_path, capsys, key, value):
    # "noise_std": NaN would otherwise write noise-free recordings and exit 0,
    # and "angular_velocity_jitter": -Infinity fail converting NaN to an integer
    config = {"n_worms": 1, "n_neurons": 3, "n_timesteps": 20, "n_states": 2, key: value}
    out = tmp_path / "out"
    assert main(["gen-synth", "--config", str(write_config(tmp_path / "synth.json", config)),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: gen-synth: {key} must be a finite number, got {value!r}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def classify_gnn_checkpoint(predict_run, tmp_path_factory):
    """A static-edge GNN classifier trained for one epoch on the predict run's data."""
    root = tmp_path_factory.mktemp("classify_gnn_run")
    cfg = write_config(root / "train.json", train_config(
        predict_run[0], model={"module_kind": "gnn", "edge_mode": "static", "hidden_dim": 4},
        train={"max_epochs": 1, "fold_count": 5, "window_len": 8}))
    assert main(["train", "--config", str(cfg), "--out", str(root / "run"), "--seed", "3"]) == 0
    return root / "run" / "model.ckpt"


def accepted_configs(data: Path, classify_ckpt: Path, predict_ckpt: Path) -> dict:
    """A config each command runs, with an optional key of each where it has one."""
    recording = str(sorted(data.glob("worm_*.json"))[0])
    one_epoch = {"max_epochs": 1, "fold_count": 5, "window_len": 8}
    return {
        "gen-synth": {"n_worms": 2, "n_neurons": 5, "n_timesteps": 100, "n_states": 2, "seed": 1},
        "train": train_config(data, train=one_epoch, test_fold=2),
        "cross-validate": train_config(data, train=one_epoch, permutation_size=3),
        "eval": {"task": "classify2", "data_dir": str(data), "checkpoint": str(classify_ckpt),
                 "train": {"window_len": 8}},
        "rollout": {"data_dir": str(data), "checkpoint": str(predict_ckpt), "steps": 4},
        "pca": {"recording": recording, "components": 2},
        "edges": {"recording": recording, "checkpoint": str(classify_ckpt)},
    }


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_reruns_its_manifest_and_rejects_an_unknown_key(tmp_path, capsys, predict_run,
                                                                       classify_gnn_checkpoint, command):
    # a misspelt top-level key is an error, not ignored: "tset_fold": 3 would
    # otherwise train on test fold 0 and exit 0
    config = accepted_configs(predict_run[0], classify_gnn_checkpoint, predict_run[1])[command]
    first = tmp_path / "first"
    assert main([command, "--config", str(write_config(tmp_path / "config.json", config)),
                 "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    capsys.readouterr()
    misspelt = write_config(tmp_path / "misspelt.json", {**config, "tset_fold": 3})
    assert main([command, "--config", str(misspelt), "--out", str(tmp_path / "misspelt")]) == 1
    assert capsys.readouterr().err == f"error: {command}: unknown config field 'tset_fold'\n"
    assert not (tmp_path / "misspelt").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "rollout"])
def test_recordings_from_both_keys_or_an_empty_source_rejected(tmp_path, capsys, predict_run,
                                                               classify_gnn_checkpoint, command):
    # at the parent, data_dir won over recordings, and an empty data_dir
    # failed later with a message about arrays or rollout windows
    config = accepted_configs(predict_run[0], classify_gnn_checkpoint, predict_run[1])[command]
    empty = tmp_path / "empty"
    empty.mkdir()
    listed = {key: value for key, value in config.items() if key != "data_dir"}
    for source, message in [
        ({**config, "recordings": [str(sorted(predict_run[0].glob("worm_*.json"))[0])]},
         "give 'data_dir' or 'recordings', not both"),
        ({**config, "data_dir": str(empty)}, f"data_dir {empty} holds no recording (*.json)"),
        ({**listed, "recordings": []}, "recordings lists no recording"),
    ]:
        path = write_config(tmp_path / "config.json", source)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {command}: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "cross-validate"])
def test_empty_data_dir_rejected(tmp_path, capsys, monkeypatch, predict_run, classify_gnn_checkpoint,
                                 command):
    # Path("") is the working directory: at the parent, an empty data_dir
    # loaded every *.json there, this config among them
    config = accepted_configs(predict_run[0], classify_gnn_checkpoint, predict_run[1])[command]
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "config.json", {**config, "data_dir": ""})
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {command}: data_dir must not be empty\n"
    assert not (tmp_path / "out").exists()


# a strategy for each kind of JSON value
JSON_VALUES = {
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
    "list of strings": st.lists(st.text(max_size=4), max_size=3),
    "list of numbers": st.lists(st.integers() | st.floats(allow_nan=False, allow_infinity=False),
                                min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    "null": st.none(),
    "non-finite number": st.sampled_from([np.nan, np.inf, -np.inf]),  # JSON's NaN, Infinity, -Infinity
}
# the kinds of JSON value a key of each type takes (null: an `X | None` key)
TAKES = {int: {"int"}, float: {"int", "float"}, str: {"string"}, list[str]: {"list of strings"},
         dict: {"object"}, type(None): {"null"}}


def json_kinds(annotation) -> set:
    parts = typing.get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    return set().union(*(TAKES[part] for part in parts))


WRONG_TYPED = [(command, key, kind) for command, (_, _, keys) in cli.COMMANDS.items()
               for key, (annotation, _) in keys.items() for kind in JSON_VALUES
               if kind not in json_kinds(annotation)]


@pytest.mark.parametrize("command,key,kind", WRONG_TYPED,
                         ids=[f"{command}-{key}-{kind}" for command, key, kind in WRONG_TYPED])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_wrong_typed_key_is_one_error_line_and_writes_nothing(predict_run, classify_gnn_checkpoint,
                                                              command, key, kind, data):
    # at the parent, "train": 5, "checkpoint": 3 or "recording": null ended
    # in a traceback, and "neurons": "SN01" selected neurons 'S', 'N', '0', '1'
    config = accepted_configs(predict_run[0], classify_gnn_checkpoint, predict_run[1])[command]
    value = data.draw(JSON_VALUES[kind])
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / "config.json", {**config, key: value})
        out, err = Path(tmp) / "out", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
        owner = path if key == "seed" else command  # _load_config checks the seed
        assert err.getvalue().startswith(f"error: {owner}: {key} must be ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert not out.exists()
