"""CLI contract tests: every command, manifests, determinism, diagnostics."""

import contextlib
import inspect
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormgnn import training as tr
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
                if k not in ("wall_time_s", "runtime_s")}
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


def test_manifest_command_mismatch(tmp_path, capsys):
    data = gen_synth(tmp_path)
    assert main(["train", "--config", str(data / "manifest.json"), "--out",
                 str(tmp_path / "x")]) == 1
    assert "gen-synth" in capsys.readouterr().err


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
    calls = record_cells(monkeypatch)
    assert sweep(cfg, out, "--resume") == 0
    assert calls == [(1, 2), (2, 1)]
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


def test_rollout_outputs_table(tmp_path):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict",
        model={"module_kind": "mlp", "hidden_dim": 8},
        train={"max_epochs": 3, "fold_count": 5, "window_len": 8, "loss_kind": "mse"},
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


def test_eval_rejects_predict_checkpoint(tmp_path, capsys):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict",
        model={"module_kind": "mlp", "hidden_dim": 8},
        train={"max_epochs": 2, "fold_count": 5, "window_len": 8, "loss_kind": "mse"},
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


def test_edges_dynamic_tables(tmp_path):
    data = gen_synth(tmp_path)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "train.json", train_config(
        data, task="predict",
        model={"module_kind": "gnn", "edge_mode": "dynamic", "hidden_dim": 4},
        train={"max_epochs": 2, "fold_count": 5, "window_len": 8, "loss_kind": "mse"},
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


def test_missing_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "not found" in capsys.readouterr().err
