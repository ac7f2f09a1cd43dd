"""The benchmark's workloads: inputs made from a seed, one operation, output checks.

Every workload is a closed loop in one process: each call into the package
starts after the previous one returns.  ``cv-sweep`` alone runs worker
processes, through the program's own ``--workers 2``.

- ``classify-cells``: one classify2 ``training.train`` cell for each of the
  MLP, the per-node MLP, the static-edge GNN and the dynamic-edge GNN.  This
  is the paper's central experiment; autodiff, models and training do nearly
  all the work.  The kinds stress per-op dispatch (mlp), the Python loop over
  neurons (node_mlp), the encoder over every frame plus validation
  (gnn_static) and the pair gather (gnn_dynamic).  The MLP cells never infer
  edges, so they are the bypass case for edge-path changes.  Epochs per kind
  are chosen so that no kind dominates: the other three cost about the same,
  and the dynamic GNN at its minimum of one epoch about 2.5 times as much.
- ``predict-rollout``: predict cells for an MLP and a dynamic GNN with
  scheduled sampling mid-decay (teacher and self-fed inputs both run), then
  ``evaluation.per_step_mse`` for 16 steps on the held-out worms with the
  trained GNN, the core of the ``rollout`` command.  Training here is long
  chains of small per-step graphs, and the evaluation is forward-only.
- ``cv-sweep``: ``gen-synth`` data, then ``cli.main(["cross-validate", ...,
  "--workers", "2"])`` with an MLP, classify2 and permutation size 2, which is
  3 x 10 = 30 cells.  The work sits in the CLI (process pool, per-worker
  loading, per-cell JSON writes, merge) and in per-cell fixed costs.

Each operation returns its timing samples and one ``Check`` per unit of work
(a setup, a cell, a rollout evaluation, a sweep).  A check lists what was
wrong with the unit's output and a digest of its result fields, wall times
excluded, so repetitions of one input and runs of one seed can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wormgnn import cli, data, evaluation, models, synth, training

NOISE_STD = 0.1
PHASE_JITTER = 0.05
WINDOW_LEN = 8
SWEEP_WORKERS = 2
ROLLOUT_STEPS = 16

# Per-workload sizes.  "tiny" is for the smoke test only.
SIZES = {
    "classify-cells": {
        "full": {"n_worms": 5, "held_out": 2, "n_neurons": 15, "n_timesteps": 800, "hidden": 16,
                 "epochs": {"mlp": 100, "node_mlp": 8, "gnn_static": 16, "gnn_dynamic": 1}},
        "tiny": {"n_worms": 3, "held_out": 1, "n_neurons": 4, "n_timesteps": 160, "hidden": 4,
                 "epochs": {"mlp": 1, "node_mlp": 1, "gnn_static": 1, "gnn_dynamic": 1}},
    },
    "predict-rollout": {
        "full": {"n_worms": 4, "held_out": 2, "n_neurons": 10, "n_timesteps": 400, "hidden": 64,
                 "epochs": {"predict_mlp": 100, "predict_gnn_dynamic": 2}},
        "tiny": {"n_worms": 3, "held_out": 1, "n_neurons": 4, "n_timesteps": 160, "hidden": 4,
                 "epochs": {"predict_mlp": 2, "predict_gnn_dynamic": 2}},
    },
    "cv-sweep": {
        "full": {"n_worms": 3, "n_neurons": 15, "n_timesteps": 800, "hidden": 16, "epochs": 30},
        "tiny": {"n_worms": 3, "n_neurons": 4, "n_timesteps": 160, "hidden": 4, "epochs": 1},
    },
}

CLASSIFY_MODELS = {
    "mlp": {"module_kind": "mlp"},
    "node_mlp": {"module_kind": "node_mlp"},
    "gnn_static": {"module_kind": "gnn", "edge_mode": "static"},
    "gnn_dynamic": {"module_kind": "gnn", "edge_mode": "dynamic"},
}
PREDICT_MODELS = {
    "predict_mlp": {"module_kind": "mlp"},
    "predict_gnn_dynamic": {"module_kind": "gnn", "edge_mode": "dynamic"},
}


@dataclass
class Check:
    """Outcome of one unit of work: what was wrong with it, and its digest."""

    label: str
    problems: list[str]
    digest: str


@dataclass
class OpResult:
    samples: dict[str, list[float]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _result_fields(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_time_s"}


def _finite(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(arr).all())


def _accuracy_problems(record: dict, names) -> list[str]:
    problems = []
    for name in names:
        value = record.get(name)
        if value is None or not math.isfinite(value) or not 0.0 <= value <= 1.0:
            problems.append(f"{name}={value!r} is not an accuracy in [0, 1]")
    return problems


def classify_problems(record: dict) -> list[str]:
    problems = _accuracy_problems(record, ("accuracy_train", "accuracy_val", "accuracy_test",
                                           "accuracy_generalization"))
    if record.get("confusion") is None or not _finite(record["confusion"]):
        problems.append("confusion matrix missing or not finite")
    return problems


def predict_problems(record: dict) -> list[str]:
    problems = []
    mse = record.get("per_step_mse")
    if mse is None or len(mse) != ROLLOUT_STEPS or not _finite(mse) or min(mse) < 0:
        problems.append(f"per_step_mse is not {ROLLOUT_STEPS} finite non-negative values")
    val = record.get("val_mse")
    if val is None or not math.isfinite(val) or val < 0:
        problems.append(f"val_mse={val!r} is not finite and non-negative")
    return problems


def synth_recordings(seed: int, n_worms: int, n_neurons: int, n_timesteps: int) -> dict:
    """Synthetic worms sharing one latent cycle, each with its own mixing."""
    draws = np.random.default_rng(seed).integers(0, 2**31 - 1, size=n_worms + 1)
    recs = {}
    for i in range(n_worms):
        cfg = synth.SynthConfig(n_neurons=n_neurons, n_timesteps=n_timesteps, n_states=2,
                                noise_std=NOISE_STD, mixing_seed=int(draws[i + 1]),
                                latent_seed=int(draws[0]), angular_velocity_jitter=PHASE_JITTER)
        worm_id = f"worm_{i:03d}"
        recs[worm_id] = synth.generate_worm(cfg, worm_id=worm_id)
    return recs


class Workload:
    """Base: ``setup`` builds the inputs, ``operation`` runs one unit of load."""

    name = ""

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.work_dir = work_dir
        self.tracer = None  # set by the runner while tracing

    def scope(self, label: str):
        """Attribute what runs inside to a new trace run while tracing."""
        return self.tracer.run(label) if self.tracer is not None else contextlib.nullcontext()

    def _fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self) -> Check:
        raise NotImplementedError

    def operation(self) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class _TrainingWorkload(Workload):
    """Shared setup of the in-process workloads: synth -> write -> load -> prepare."""

    task = ""

    def setup(self) -> Check:
        size = self.size
        data_dir = self._fresh_dir("data")
        for worm_id, rec in synth_recordings(self.seed, size["n_worms"], size["n_neurons"],
                                             size["n_timesteps"]).items():
            data.save_recording(rec, data_dir / f"{worm_id}.json")
        loaded = {}
        for path in sorted(data_dir.glob("*.json")):
            rec = data.load_recording(path)
            loaded[rec.worm_id] = rec
        cfg = training.TrainConfig(seed=self.seed, window_len=WINDOW_LEN)
        self.prepared = training.prepare_worms(loaded, self.task, cfg, self.seed)
        ids = sorted(loaded)
        split = len(ids) - size["held_out"]
        self.plan = training.ExperimentPlan(self.task, ids[:split], ids[split:])
        self.held_out = [data.normalize_recording(loaded[w]) for w in ids[split:]]

        problems = []
        windows = size["n_timesteps"] // WINDOW_LEN
        for worm_id, worm in self.prepared.items():
            if worm.features.shape[0] != windows or not _finite(worm.features):
                problems.append(f"{worm_id}: expected {windows} finite windows")
        return Check("setup", problems, digest({
            w: [float(p.features.sum()), p.folds.tolist(), p.targets.tolist()]
            for w, p in sorted(self.prepared.items())}))

    def _model(self, spec: dict, task: str) -> models.NeuralModel:
        cfg = models.ModelConfig(task=task, n_neurons=self.size["n_neurons"], n_states=2,
                                 hidden_dim=self.size["hidden"], **spec)
        return models.NeuralModel(cfg, master_seed=self.seed)


class ClassifyCells(_TrainingWorkload):
    name = "classify-cells"
    task = "classify2"

    def operation(self) -> OpResult:
        result = OpResult()
        started = time.perf_counter()
        for kind, spec in CLASSIFY_MODELS.items():
            model = self._model(spec, "classify")
            cfg = training.TrainConfig(seed=self.seed, window_len=WINDOW_LEN,
                                       max_epochs=self.size["epochs"][kind])
            with self.scope(kind):
                t0 = time.perf_counter()
                _, metrics = training.train(model, self.plan, cfg, self.prepared,
                                            test_fold=0, val_fold=1)
                elapsed = time.perf_counter() - t0
            record = metrics.to_dict()
            result.add(f"cell_s.{kind}", elapsed)
            if kind == "mlp":
                result.add("mlp_cell_s", elapsed)
            result.checks.append(Check(f"cell {kind}", classify_problems(record),
                                       digest(_result_fields(record))))
        result.add("op_s", time.perf_counter() - started)
        return result


class PredictRollout(_TrainingWorkload):
    name = "predict-rollout"
    task = "predict"

    def operation(self) -> OpResult:
        result = OpResult()
        started = time.perf_counter()
        trained = {}
        for kind, spec in PREDICT_MODELS.items():
            model = trained[kind] = self._model(spec, "predict")
            epochs = self.size["epochs"][kind]
            # decay ends at twice the epoch count, so sampling stays mid-decay
            cfg = training.TrainConfig(seed=self.seed, window_len=WINDOW_LEN, max_epochs=epochs,
                                       sampling_decay_epochs=2 * epochs,
                                       eval_rollout=ROLLOUT_STEPS)
            with self.scope(kind):
                t0 = time.perf_counter()
                _, metrics = training.train(model, self.plan, cfg, self.prepared,
                                            test_fold=0, val_fold=1)
                elapsed = time.perf_counter() - t0
            record = metrics.to_dict()
            result.add(f"cell_s.{kind}", elapsed)
            if kind == "predict_mlp":
                result.add("mlp_cell_s", elapsed)
            result.checks.append(Check(f"cell {kind}", predict_problems(record),
                                       digest(_result_fields(record))))

        with self.scope("rollout16"):
            t0 = time.perf_counter()
            rollout = evaluation.per_step_mse(trained["predict_gnn_dynamic"], self.held_out,
                                              steps=ROLLOUT_STEPS, window_len=WINDOW_LEN)
            elapsed = time.perf_counter() - t0
        result.add("rollout16_s", elapsed)
        problems = []
        if rollout.windows_used <= 0:
            problems.append("rollout used no windows")
        if len(rollout.per_step) != ROLLOUT_STEPS or not _finite(rollout.per_step):
            problems.append(f"rollout per-step MSE is not {ROLLOUT_STEPS} finite values")
        result.checks.append(Check("rollout16", problems, digest(
            [rollout.per_step.tolist(), rollout.windows_used, rollout.windows_skipped])))
        result.add("op_s", time.perf_counter() - started)
        return result


class CvSweep(Workload):
    name = "cv-sweep"
    cells = 30  # 3 two-worm permutations x 10 folds

    def _cli(self, *argv: str) -> int:
        # the CLI reports to stdout, which carries the benchmark's own result
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def setup(self) -> Check:
        size = self.size
        root = self._fresh_dir("setup")
        synth_config = root / "synth.json"
        synth_config.write_text(json.dumps({
            "n_worms": size["n_worms"], "n_neurons": size["n_neurons"],
            "n_timesteps": size["n_timesteps"], "n_states": 2, "noise_std": NOISE_STD,
            "angular_velocity_jitter": PHASE_JITTER}))
        data_dir = root / "data"
        code = self._cli("gen-synth", "--config", str(synth_config), "--out", str(data_dir),
                         "--seed", str(self.seed))
        self.sweep_config = root / "cross_validate.json"
        self.sweep_config.write_text(json.dumps({
            "data_dir": str(data_dir), "task": "classify2", "permutation_size": 2,
            "model": {"module_kind": "mlp", "hidden_dim": size["hidden"]},
            "train": {"max_epochs": size["epochs"]}}))
        recordings = sorted(data_dir.glob("worm_*.json"))
        problems = [] if code == 0 else [f"gen-synth exited with {code}"]
        if len(recordings) != size["n_worms"]:
            problems.append(f"gen-synth wrote {len(recordings)} recordings, not {size['n_worms']}")
        return Check("setup", problems, digest([p.read_text() for p in recordings]))

    def operation(self) -> OpResult:
        result = OpResult()
        out_dir = self.work_dir / "sweep"
        shutil.rmtree(out_dir, ignore_errors=True)
        with self.scope("sweep"):
            t0 = time.perf_counter()
            code = self._cli("cross-validate", "--config", str(self.sweep_config),
                             "--out", str(out_dir), "--seed", str(self.seed),
                             "--workers", str(SWEEP_WORKERS))
            elapsed = time.perf_counter() - t0
        result.add("op_s", elapsed)
        problems = [] if code == 0 else [f"cross-validate exited with {code}"]
        records = []
        try:
            for line in (out_dir / "records.jsonl").read_text().splitlines():
                records.append(json.loads(line))
            runs = json.loads((out_dir / "summary.json").read_text())["runs"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"sweep output unreadable: {exc}")
            runs = None
        if len(records) != self.cells or runs != self.cells:
            problems.append(f"sweep gave {len(records)} records and runs={runs}, not {self.cells}")
        cell_times = []
        for i, record in enumerate(records):
            problems += [f"record {i}: {p}" for p in classify_problems(record)]
            wall = record.get("wall_time_s")
            if isinstance(wall, float) and wall > 0:
                cell_times.append(wall)
            else:
                problems.append(f"record {i}: wall_time_s={wall!r} is not a positive time")
        busy = sum(cell_times)
        for wall in cell_times:
            result.add("mlp_cell_s", wall)
        result.add("sweep_cells_per_s", len(records) / elapsed)
        result.add("cli.cell_busy_s", busy)
        result.add("cli.worker_busy_share", busy / (SWEEP_WORKERS * elapsed))
        result.checks.append(Check("sweep", problems,
                                   digest([_result_fields(r) for r in records])))
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


WORKLOADS = {cls.name: cls for cls in (ClassifyCells, PredictRollout, CvSweep)}
