"""Losses, optimizer, schedules, and the worm-permutation x k-fold protocol.

Classification optimizes masked negative log likelihood on per-timestep
state probabilities; trajectory prediction optimizes MSE over scheduled-
sampling rollouts.  One recording forms one optimizer batch per epoch.
Each (permutation, fold) cell owns its model, optimizer state, and RNG
stream, so cells can run concurrently and still merge deterministically.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from .autodiff import Parameter, Tensor
from .data import (
    WormRecording,
    assign_folds,
    label_to_class,
    map_labels,
    normalize_recording,
    windowize,
    worm_permutations,
)
from .models import ModelConfig, NeuralModel, rollout_batch
from .rng import derive_entropy, derive_rng

TASK_SCHEMES = {
    "classify2": "binary",
    "classify7": "fine7",
    "classify4": "coarse4",
}
TASK_CLASS_COUNTS = {"classify2": 2, "classify7": 7, "classify4": 4}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 800
    plateau_patience: int = 50
    lr_decay_factor: float = 0.25
    sampling_decay_epochs: int = 300
    loss_kind: str = "nll"  # "nll" or "mse"
    seed: int = 0
    fold_count: int = 10
    window_len: int = 8
    eval_rollout: int = 16
    burn_in: int = 0  # 4 for recurrent prediction variants

    def __post_init__(self):
        if not 0 < self.lr_decay_factor < 1:
            raise ValueError(f"TrainConfig: lr_decay_factor must be in (0,1), got {self.lr_decay_factor}")
        for name in ("max_epochs", "plateau_patience", "sampling_decay_epochs",
                     "fold_count", "window_len", "eval_rollout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"TrainConfig: {name} must be positive")
        if self.loss_kind not in ("nll", "mse"):
            raise ValueError(f"TrainConfig: loss_kind must be 'nll' or 'mse', got {self.loss_kind!r}")


@dataclass
class ExperimentPlan:
    task: str  # classify2 | classify7 | classify4 | predict
    train_worm_ids: list[str]
    held_out_worm_ids: list[str] = field(default_factory=list)
    extended_eval_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.task not in ("classify2", "classify7", "classify4", "predict"):
            raise ValueError(f"ExperimentPlan: unknown task {self.task!r}")
        overlap = set(self.train_worm_ids) & set(self.held_out_worm_ids)
        if overlap:
            raise ValueError(f"ExperimentPlan: worms in both train and held-out sets: {sorted(overlap)}")
        if not self.train_worm_ids:
            raise ValueError("ExperimentPlan: empty training set")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def class_targets(labels, scheme: str) -> np.ndarray:
    """StateLabel sequence -> class indices with -1 at masked timesteps."""
    if scheme == "coarse4" and any(lab.is_fine for lab in labels):
        labels = map_labels(labels)
    out = np.empty(len(labels), dtype=np.intp)
    for i, lab in enumerate(labels):
        idx = label_to_class(lab, scheme)
        out[i] = -1 if idx is None else idx
    return out


def nll_loss(probabilities: Tensor, targets: np.ndarray) -> Tensor:
    """Mean -log p[target] over timesteps whose target is not masked (-1).

    All-masked batches yield exactly zero loss and zero gradients.
    """
    targets = np.asarray(targets, dtype=np.intp)
    k = probabilities.shape[-1]
    if targets.shape != probabilities.shape[:-1]:
        raise ValueError(
            f"nll_loss: targets shape {targets.shape} does not match probabilities {probabilities.shape}"
        )
    if targets.max(initial=-1) >= k:
        raise ValueError(f"nll_loss: target {targets.max()} out of range for {k} states")
    onehot = np.zeros(probabilities.shape)
    valid = targets >= 0
    if valid.any():
        grid = np.nonzero(valid)
        onehot[grid + (targets[valid],)] = 1.0
    count = max(int(valid.sum()), 1)
    # pick p[target] before the log; masked rows read 1 so they add exactly 0
    picked = ad.mul(probabilities, Tensor(onehot)).sum(axis=-1)
    safe = ad.add(picked, Tensor((~valid).astype(np.float64)))
    return ad.scale(ad.log(safe).sum(), -1.0 / count)


def mse_loss(predicted: Tensor, target) -> Tensor:
    """Mean squared difference over all entries."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    if predicted.shape != target_t.shape:
        raise ValueError(f"mse_loss: shapes {predicted.shape} and {target_t.shape} differ")
    diff = ad.sub(predicted, target_t)
    return ad.mul(diff, diff).mean()


# ---------------------------------------------------------------------------
# optimizer and schedules
# ---------------------------------------------------------------------------

class AdamState:
    """First/second-moment optimizer with bias correction."""

    def __init__(self, params: list[Parameter], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                raise ValueError(f"AdamState.step: parameter {p.name} has no gradient")
            m = self.m[p.name] = self.beta1 * self.m[p.name] + (1 - self.beta1) * g
            v = self.v[p.name] = self.beta2 * self.v[p.name] + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainState:
    epoch: int = 0
    lr: float = 1e-3
    best_val_loss: float = np.inf
    epochs_since_improvement: int = 0
    best_parameters: dict = field(default_factory=dict)
    best_buffers: dict = field(default_factory=dict)
    val_history: list = field(default_factory=list)
    adam: AdamState | None = None


PLATEAU_EPS = 1e-12


def lr_on_plateau(state: TrainState, val_loss: float, patience: int, factor: float) -> float:
    """Decay lr by ``factor`` after ``patience`` epochs without improvement.

    Owns ``best_val_loss`` and the patience counter; call once per epoch.
    """
    if val_loss < state.best_val_loss - PLATEAU_EPS:
        state.best_val_loss = val_loss
        state.epochs_since_improvement = 0
    else:
        state.epochs_since_improvement += 1
        if state.epochs_since_improvement >= patience:
            state.lr *= factor
            if state.adam is not None:
                state.adam.lr = state.lr
            state.epochs_since_improvement = 0
    return state.lr


def sampling_prob(epoch: int, cfg: TrainConfig) -> float:
    """Teacher-forcing probability: linear decay hitting zero at the configured epoch."""
    if epoch < 0:
        raise ValueError(f"sampling_prob: epoch must be >= 0, got {epoch}")
    return max(0.0, 1.0 - epoch / cfg.sampling_decay_epochs)


# ---------------------------------------------------------------------------
# data preparation
# ---------------------------------------------------------------------------

@dataclass
class PreparedWorm:
    worm_id: str
    features: np.ndarray  # (n_windows, W, N, 2)
    targets: np.ndarray  # (n_windows, W) class indices, -1 masked; empty for predict
    folds: np.ndarray  # (n_windows,)
    window_starts: np.ndarray
    full_features: np.ndarray  # (T, N, 2) whole recording, for long rollouts


def prepare_worm(rec: WormRecording, task: str, cfg: TrainConfig, master_seed: int) -> PreparedWorm:
    rec = normalize_recording(rec)
    windows = windowize(rec, cfg.window_len, seed=master_seed)
    fold_assignment = assign_folds(windows, cfg.fold_count, seed=master_seed)
    feats = np.stack([np.transpose(w.features, (1, 0, 2)) for w in windows])  # (B, W, N, 2)
    if task == "predict":
        targets = np.empty((len(windows), 0), dtype=np.intp)
    else:
        scheme = TASK_SCHEMES[task]
        targets = np.stack([class_targets(w.labels, scheme) for w in windows])
    folds = np.array([fold_assignment.fold_of(w) for w in windows], dtype=np.intp)
    starts = np.array([w.start_index for w in windows], dtype=np.intp)
    full = np.stack([rec.traces.T, rec.derivatives.T], axis=-1)  # (T, N, 2)
    return PreparedWorm(rec.worm_id, feats, targets, folds, starts, full)


def prepare_worms(recordings: dict[str, WormRecording], task: str, cfg: TrainConfig,
                  master_seed: int) -> dict[str, PreparedWorm]:
    return {wid: prepare_worm(rec, task, cfg, master_seed) for wid, rec in recordings.items()}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _classification_pass(model: NeuralModel, feats: np.ndarray, targets: np.ndarray,
                         training: bool, edge_feats: np.ndarray):
    logits = model.classify_logits(Tensor(feats), training=training,
                                   edge_feats=Tensor(edge_feats))
    probs = ad.softmax(logits, axis=-1)
    return nll_loss(probs, targets), probs


def _snapshot(model: NeuralModel) -> tuple[dict, dict]:
    params = {name: p.data.copy() for name, p in model.named_parameters().items()}
    buffers = {name: np.asarray(v).copy() for name, v in model.buffers().items()}
    return params, buffers


def _restore(model: NeuralModel, params: dict, buffers: dict) -> None:
    for name, p in model.named_parameters().items():
        p.data = params[name].copy()
    for bn in model.batchnorms():
        bn.load_buffers(buffers)
    if "connectome" in buffers:
        model.connectome = buffers["connectome"].copy()


def train(model: NeuralModel, plan: ExperimentPlan, cfg: TrainConfig,
          prepared: dict[str, PreparedWorm], test_fold: int = 0, val_fold: int = 1,
          max_epochs: int | None = None) -> tuple[TrainState, ev.RunMetrics]:
    """Fit one (permutation, fold) cell and evaluate it.

    Classification holds out ``test_fold`` and stops on ``val_fold`` loss;
    prediction uses ``val_fold`` for stopping and measures generalization
    as per-step rollout MSE on the held-out and extended worms.  The
    best-validation checkpoint is restored before metrics are computed.
    """
    started = time.perf_counter()
    missing = [wid for wid in plan.train_worm_ids if wid not in prepared]
    if missing:
        raise ValueError(f"train: worms not prepared: {missing}")
    epochs = cfg.max_epochs if max_epochs is None else max_epochs

    state = TrainState(lr=cfg.learning_rate, adam=AdamState(model.parameters(), cfg.learning_rate))
    train_ids = sorted(plan.train_worm_ids)
    is_predict = plan.task == "predict"
    train_steps = cfg.window_len - 1 - cfg.burn_in
    if is_predict and train_steps < 1:
        raise ValueError(
            f"train: window_len {cfg.window_len} leaves no prediction steps after burn_in {cfg.burn_in}"
        )

    def fold_slice(worm: PreparedWorm, folds) -> np.ndarray:
        return np.isin(worm.folds, folds)

    train_folds = [f for f in range(cfg.fold_count) if f not in (test_fold, val_fold)]

    for epoch in range(epochs):
        state.epoch = epoch
        for wid in train_ids:
            worm = prepared[wid]
            mask = fold_slice(worm, train_folds)
            if not mask.any():
                continue
            model.zero_grad()
            if is_predict:
                teacher = worm.features[mask]
                rng = derive_rng(cfg.seed, "scheduled-sampling", wid, epoch)
                preds = rollout_batch(
                    model, teacher, train_steps,
                    sampling_prob=sampling_prob(epoch, cfg), rng=rng, training=True,
                    burn_in=cfg.burn_in, edge_feats=worm.features,
                )
                target = teacher[:, cfg.burn_in + 1 : cfg.burn_in + 1 + train_steps]
                loss = mse_loss(preds, target)
            else:
                loss, _ = _classification_pass(model, worm.features[mask], worm.targets[mask],
                                               True, worm.features)
            if not np.isfinite(loss.item()):  # an Adam step would spread it to every parameter
                raise ValueError(f"train: loss is {loss.item()} at epoch {epoch}, worm {wid!r}")
            loss.backward()
            state.adam.step()

        # validation at the epoch boundary; keep the best-validation checkpoint
        val_loss = _validation_loss(model, plan, cfg, prepared, val_fold)
        state.val_history.append(val_loss)
        if val_loss < state.best_val_loss - PLATEAU_EPS:
            state.best_parameters, state.best_buffers = _snapshot(model)
        lr_on_plateau(state, val_loss, cfg.plateau_patience, cfg.lr_decay_factor)

    if state.best_parameters:
        _restore(model, state.best_parameters, state.best_buffers)

    metrics = _evaluate_run(model, plan, cfg, prepared, test_fold, val_fold)
    metrics.runtime_s = time.perf_counter() - started
    return state, metrics


def _validation_loss(model, plan, cfg, prepared, val_fold) -> float:
    total, weight = 0.0, 0
    for wid in sorted(plan.train_worm_ids):
        worm = prepared[wid]
        mask = worm.folds == val_fold
        if not mask.any():
            continue
        if plan.task == "predict":
            teacher = worm.features[mask]
            steps = cfg.window_len - 1 - cfg.burn_in
            preds = rollout_batch(model, teacher, steps, sampling_prob=0.0, training=False,
                                  burn_in=cfg.burn_in, edge_feats=worm.features)
            target = teacher[:, cfg.burn_in + 1 : cfg.burn_in + 1 + steps]
            loss = mse_loss(preds, target)
            count = int(mask.sum())
        else:
            loss, _ = _classification_pass(model, worm.features[mask], worm.targets[mask],
                                           False, worm.features)
            count = int(mask.sum())
        total += loss.item() * count
        weight += count
    return total / weight if weight else np.inf


def _evaluate_run(model, plan, cfg, prepared, test_fold, val_fold) -> ev.RunMetrics:
    n_states = model.config.n_states
    metrics = ev.RunMetrics(task=plan.task, test_fold=test_fold, val_fold=val_fold)
    if plan.task == "predict":
        holdout = [prepared[wid] for wid in sorted(plan.held_out_worm_ids + plan.extended_eval_ids)
                   if wid in prepared]
        if holdout:
            metrics.per_step_mse = ev.per_step_mse_prepared(
                model, holdout, steps=cfg.eval_rollout, burn_in=cfg.burn_in)
        metrics.val_mse = _validation_loss(model, plan, cfg, prepared, val_fold)
        return metrics

    def pooled_predictions(ids, folds):
        """Per-worm forward passes (each worm keeps its own static edges)."""
        preds, targets = [], []
        for wid in sorted(ids):
            worm = prepared[wid]
            mask = np.isin(worm.folds, folds)
            if not mask.any():
                continue
            logits = model.classify_logits(Tensor(worm.features[mask]), training=False,
                                           edge_feats=Tensor(worm.features))
            preds.append(np.argmax(logits.data, axis=-1).reshape(-1))
            targets.append(worm.targets[mask].reshape(-1))
        if not preds:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(preds), np.concatenate(targets)

    train_folds = [f for f in range(cfg.fold_count) if f not in (test_fold, val_fold)]
    for split, folds in (("train", train_folds), ("val", [val_fold]), ("test", [test_fold])):
        preds, targets = pooled_predictions(plan.train_worm_ids, folds)
        setattr(metrics, f"accuracy_{split}", ev.accuracy(preds, targets) if preds.size else None)

    gen_ids = [wid for wid in plan.held_out_worm_ids + plan.extended_eval_ids if wid in prepared]
    if gen_ids:
        preds, targets = pooled_predictions(gen_ids, list(range(cfg.fold_count)))
        metrics.accuracy_generalization = ev.accuracy(preds, targets) if preds.size else None
        metrics.confusion, metrics.confusion_support = ev.confusion_matrix(preds, targets, n_states)
    else:
        preds, targets = pooled_predictions(plan.train_worm_ids, [test_fold])
        if preds.size:
            metrics.confusion, metrics.confusion_support = ev.confusion_matrix(preds, targets, n_states)
    return metrics


def run_cell(prepared: dict[str, PreparedWorm], plan_template: ExperimentPlan,
             cfg: TrainConfig, model_config: ModelConfig, perm: tuple, perm_index: int,
             fold: int, max_epochs: int | None = None, connectome=None) -> ev.RunMetrics:
    """Train and evaluate one (permutation, fold) cell of the sweep.

    Cells derive their own seeds from (master seed, cell index), so a cell
    computes the same result whether run serially or on a worker.
    """
    held_out = [wid for wid in plan_template.train_worm_ids if wid not in perm]
    plan = replace(plan_template, train_worm_ids=list(perm),
                   held_out_worm_ids=held_out + plan_template.held_out_worm_ids)
    cell_seed = derive_entropy(cfg.seed, "cell", perm_index, fold)[0]
    model = NeuralModel(model_config, master_seed=cell_seed)
    if connectome is not None:
        model.set_connectome(connectome)
    run_cfg = replace(cfg, seed=cell_seed)
    _, metrics = train(model, plan, run_cfg, prepared,
                       test_fold=fold, val_fold=(fold + 1) % cfg.fold_count,
                       max_epochs=max_epochs)
    metrics.permutation = list(perm)
    metrics.fold = fold
    metrics.seed = cell_seed
    return metrics


_worker_sweep = None  # (run, perms), set once in each pool worker by _init_worker


def _init_worker(run, perms) -> None:
    global _worker_sweep
    _worker_sweep = (run, perms)


def _worker_cell(cell: tuple[int, int]) -> ev.RunMetrics:
    run, perms = _worker_sweep
    return run(perms[cell[0]], *cell)


def _finished_cells(run, perms, cells, workers: int):
    """Yield (cell, metrics) as each cell finishes: in order, or from a pool."""
    if workers <= 1:
        for cell in cells:
            yield cell, run(perms[cell[0]], *cell)
        return
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(run, perms))
    try:
        futures = {pool.submit(_worker_cell, cell): cell for cell in cells}
        for future in as_completed(futures):
            yield futures[future], future.result()
    finally:
        # after an error, cells that have not started are dropped, not run
        pool.shutdown(cancel_futures=True)


def cross_validate(recordings: dict[str, WormRecording], plan_template: ExperimentPlan,
                   cfg: TrainConfig, model_config: ModelConfig, permutation_size: int,
                   max_epochs: int | None = None, cell_filter=None,
                   progress=None, connectome=None,
                   workers: int = 1) -> tuple[list[ev.RunMetrics], dict]:
    """Enumerate worm permutations x folds, train each cell, aggregate mean +- std.

    The only code that enumerates sweep cells and the only owner of a worker
    pool: worms are prepared once here, and each of ``workers`` > 1 processes
    receives them once, then only (perm_index, fold).  ``cell_filter``
    (perm_index, fold) -> bool, asked about every cell before any runs, can
    skip completed cells; ``progress`` (perm_index, fold, metrics) is called
    as each cell finishes, so the caller can save it.  Records come back in
    cell order; aggregation uses the population standard deviation.
    """
    perms = worm_permutations(plan_template.train_worm_ids, permutation_size)
    prepared = prepare_worms(recordings, plan_template.task, cfg, cfg.seed)
    cells = [(perm_index, fold) for perm_index in range(len(perms))
             for fold in range(cfg.fold_count)
             if cell_filter is None or cell_filter(perm_index, fold)]
    run = functools.partial(run_cell, prepared, plan_template, cfg, model_config,
                            max_epochs=max_epochs, connectome=connectome)
    finished = {}
    for cell, metrics in _finished_cells(run, perms, cells, workers):
        finished[cell] = metrics
        if progress is not None:
            progress(*cell, metrics)
    records = [finished[cell] for cell in cells]
    return records, summarize_runs(records)


def summarize_runs(records: list[ev.RunMetrics | dict]) -> dict:
    """Mean +- population standard deviation across runs (RunMetrics or their dicts)."""
    rows = [r if isinstance(r, dict) else r.to_dict() for r in records]
    summary: dict = {"runs": len(rows)}
    for fieldname in ("accuracy_train", "accuracy_val", "accuracy_test", "accuracy_generalization",
                      "per_step_mse"):
        values = [r[fieldname] for r in rows if r.get(fieldname) is not None]
        if values:
            arr = np.asarray(values, dtype=np.float64)
            summary[fieldname] = {"mean": arr.mean(axis=0).tolist(),
                                  "std": arr.std(axis=0).tolist()}
    return summary
