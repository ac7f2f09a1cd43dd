"""Losses, optimizer, schedules, and the worm-permutation x k-fold protocol.

Classification optimizes masked negative log likelihood of per-timestep
state logits (one log-sum-exp node, finite when logits saturate), except the
linear baseline, which optimizes a masked one-vs-rest hinge loss plus an L2
penalty on its weights; trajectory prediction optimizes MSE over
scheduled-sampling rollouts.  One recording forms one optimizer batch per
epoch.
Each (permutation, fold) cell owns its model, optimizer state, and RNG
stream, so cells can run concurrently and still merge deterministically.
"""

from __future__ import annotations

import functools
import os
import threading
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
from .models import ModelConfig, ModuleKind, NeuralModel, rollout_batch
from .rng import derive_entropy, derive_rng
from .schema import check_field_types

# task -> (label scheme, class count); predict has neither
TASKS = {"classify2": ("binary", 2), "classify7": ("fine7", 7), "classify4": ("coarse4", 4),
         "predict": (None, None)}
HINGE_L2 = 1e-3  # weight penalty of the linear baseline's hinge objective
RECURRENT_BURN_IN = 4  # teacher frames a recurrent model warms up on when burn_in is not given
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 800
    plateau_patience: int = 50
    lr_decay_factor: float = 0.25
    sampling_decay_epochs: int = 300
    seed: int = 0
    fold_count: int = 10
    window_len: int = 8
    eval_rollout: int = 16
    burn_in: int = 0  # the CLI defaults it to RECURRENT_BURN_IN for recurrent models

    def __post_init__(self):
        check_field_types(self)
        if not self.learning_rate > 0:
            raise ValueError(f"TrainConfig: learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay_factor < 1:
            raise ValueError(f"TrainConfig: lr_decay_factor must be in (0,1), got {self.lr_decay_factor}")
        for name in ("max_epochs", "plateau_patience", "sampling_decay_epochs",
                     "fold_count", "window_len", "eval_rollout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"TrainConfig: {name} must be positive")
        if self.burn_in < 0:
            raise ValueError(f"TrainConfig: burn_in must be >= 0, got {self.burn_in}")


@dataclass
class ExperimentPlan:
    task: str  # a TASKS key: classify2 | classify7 | classify4 | predict
    train_worm_ids: list[str]
    held_out_worm_ids: list[str] = field(default_factory=list)
    extended_eval_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"ExperimentPlan: unknown task {self.task!r}")
        seen = {}  # worm id -> the list that named it first
        for name, ids in (("train", self.train_worm_ids), ("held-out", self.held_out_worm_ids),
                          ("extended", self.extended_eval_ids)):
            for wid in ids:
                if wid in seen:
                    where = f"twice in the {name}" if seen[wid] == name else f"in both {seen[wid]} and {name}"
                    raise ValueError(f"ExperimentPlan: worm {wid!r} named {where} lists")
                seen[wid] = name
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


def _checked_targets(shape: tuple, targets, caller: str) -> np.ndarray:
    """Targets as class indices, checked against (…, k) scores."""
    targets = np.asarray(targets, dtype=np.intp)
    k = shape[-1]
    if targets.shape != shape[:-1]:
        raise ValueError(f"{caller}: targets shape {targets.shape} does not match scores {shape}")
    if targets.max(initial=-1) >= k:
        raise ValueError(f"{caller}: target {targets.max()} out of range for {k} states")
    return targets


def _onehot_targets(shape: tuple, targets, caller: str):
    """Check targets against (…, k) scores; returns (onehot, valid, count of valid rows >= 1)."""
    targets = _checked_targets(shape, targets, caller)
    onehot = np.zeros(shape)
    valid = targets >= 0
    if valid.any():
        grid = np.nonzero(valid)
        onehot[grid + (targets[valid],)] = 1.0
    return onehot, valid, max(int(valid.sum()), 1)


def nll_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean -log softmax(logits)[target] over timesteps whose target is not
    masked (-1), as one log-sum-exp node (``ad.softmax_nll``).

    Saturated logits give a finite loss and gradient.  All-masked batches
    yield exactly zero loss and zero gradients.
    """
    return ad.softmax_nll(logits, _checked_targets(logits.shape, targets, "nll_loss"))


def hinge_loss(scores: Tensor, targets: np.ndarray) -> Tensor:
    """One-vs-rest hinge relu(1 - s * score), s = +1 for the target class and
    -1 for the others, averaged over unmasked timesteps x classes.

    All-masked batches yield exactly zero loss and zero gradients.
    """
    onehot, valid, count = _onehot_targets(scores.shape, targets, "hinge_loss")
    # masked rows get sign 0 and margin 0: relu(0 - 0 * score) adds exactly 0
    keep = np.broadcast_to(valid[..., None], scores.shape).astype(np.float64)
    signs = keep * (2.0 * onehot - 1.0)
    margins = ad.relu(ad.sub(Tensor(keep), ad.mul(Tensor(signs), scores)))
    return ad.scale(margins.sum(), 1.0 / (count * scores.shape[-1]))


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
    """First/second-moment optimizer with bias correction.

    One step runs the update once over a flat vector of every gradient,
    against flat moment buffers of which ``m`` and ``v`` hold per-name views,
    then subtracts each parameter's piece of the flat update from its current
    value (so a ``load_state`` between steps holds) into a new array.  Each
    entry rounds as in a per-parameter update.
    """

    def __init__(self, params: list[Parameter], learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self._pieces = [(lo, hi, p.data.shape) for p, lo, hi in zip(params, bounds, bounds[1:])]
        self._m, self._v = np.zeros((2, bounds[-1]))
        self.m = {p.name: view for p, view in zip(params, self._views(self._m))}
        self.v = {p.name: view for p, view in zip(params, self._views(self._v))}

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of ``flat`` shaped as each parameter, in order."""
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in self._pieces]

    def step(self) -> None:
        """One update of every parameter; a missing or non-finite gradient
        raises, naming its parameter, before any parameter moves."""
        grads = [p.tensor.grad for p in self.params]
        g = None if any(grad is None for grad in grads) else np.concatenate([grad.ravel() for grad in grads])
        if g is None or not np.isfinite(g).all():
            for p, grad in zip(self.params, grads):  # name the first parameter at fault
                if grad is None:
                    raise ValueError(f"AdamState.step: parameter {p.name} has no gradient")
                if not np.isfinite(grad).all():
                    raise ValueError(f"AdamState.step: gradient of {p.name} is NaN or infinite")
        self.step_count += 1
        t = self.step_count
        m, v = self._m, self._v  # b1 * m + (1 - b1) * g rounds as m *= b1; m += (1 - b1) * g
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # a new array per parameter: views of one shared buffer made training measurably slower
        for p, piece in zip(self.params, self._views(update)):
            p.data = p.data - piece


@dataclass
class TrainState:
    adam: AdamState  # its lr is the one learning rate, which lr_on_plateau decays
    best_val_loss: float = np.inf
    epochs_since_improvement: int = 0
    best_state: tuple = ()  # NeuralModel.state() at the best validation loss
    val_history: list = field(default_factory=list)


PLATEAU_EPS = 1e-12


def lr_on_plateau(state: TrainState, val_loss: float, patience: int, factor: float) -> bool:
    """True when ``val_loss`` beats ``best_val_loss`` by more than PLATEAU_EPS;
    after ``patience`` epochs without that, lr decays by ``factor``.

    The one owner of ``best_val_loss`` and the patience counter; call once per epoch.
    """
    if val_loss < state.best_val_loss - PLATEAU_EPS:
        state.best_val_loss = val_loss
        state.epochs_since_improvement = 0
        return True
    state.epochs_since_improvement += 1
    if state.epochs_since_improvement >= patience:
        state.adam.lr *= factor
        state.epochs_since_improvement = 0
    return False


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
    recording: WormRecording  # the normalized recording the windows are cut from


def prepare_worm(rec: WormRecording, task: str, cfg: TrainConfig, master_seed: int) -> PreparedWorm:
    rec = normalize_recording(rec)
    full = rec.features
    starts = windowize(rec, cfg.window_len, seed=master_seed)
    steps = starts[:, None] + np.arange(cfg.window_len)  # (B, W) timesteps of each window
    # (B, W, N, 2) stored neuron-major within each window, as (B, N, W, 2): the
    # memory order fixes the summation order of reductions over the windows
    neurons = np.arange(rec.n_neurons)[:, None]
    feats = full.transpose(1, 0, 2)[neurons, steps[:, None]].transpose(0, 2, 1, 3)
    folds = assign_folds([rec.labels[s : s + cfg.window_len] for s in starts], cfg.fold_count,
                         seed=master_seed)
    if task == "predict":
        targets = np.empty((len(starts), 0), dtype=np.intp)
    else:
        targets = class_targets(rec.labels, TASKS[task][0])[steps]
    return PreparedWorm(rec.worm_id, feats, targets, folds, rec)


def prepare_worms(recordings: dict[str, WormRecording], task: str, cfg: TrainConfig,
                  master_seed: int) -> dict[str, PreparedWorm]:
    return {wid: prepare_worm(rec, task, cfg, master_seed) for wid, rec in recordings.items()}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _fold_windows(prepared: dict[str, PreparedWorm], worm_ids, folds) -> list[tuple]:
    """(worm id, worm, features, targets) of each listed worm's windows in
    ``folds``, cut out once; a worm with no such window is left out.

    The features are cut C-ordered, so a pooled model's (B, W, N, 2) -> (B,
    W, 2N) reshape is a view, not a copy through a 2-entry inner loop, on
    every forward.  ``prepare_worm``'s stacks keep their neuron-major
    layout, which fixes the order of sums over a whole stack, such as the
    benchmark's setup digest; every value computed from the cut is the same
    in either layout."""
    cut = []
    for wid in sorted(worm_ids):
        worm = prepared[wid]
        mask = np.isin(worm.folds, folds)
        if mask.any():
            cut.append((wid, worm, np.ascontiguousarray(worm.features[mask]), worm.targets[mask]))
    return cut


def _worm_loss(model: NeuralModel, worm: PreparedWorm, feats: np.ndarray, targets: np.ndarray,
               cfg: TrainConfig, predict: bool, training: bool, sampling: float = 0.0,
               rng=None) -> Tensor:
    """Loss of windows ``feats`` of ``worm`` with their ``targets``, static
    edges from its whole recording: rollout MSE to predict, hinge + L2 for
    the linear baseline, NLL otherwise."""
    edge_feats = worm.features
    if predict:
        steps = cfg.window_len - 1 - cfg.burn_in
        preds = rollout_batch(model, feats, steps, sampling_prob=sampling, rng=rng,
                              training=training, burn_in=cfg.burn_in, edge_feats=edge_feats)
        return mse_loss(preds, feats[:, cfg.burn_in + 1 : cfg.burn_in + 1 + steps])
    logits = model.classify_logits(Tensor(feats), training=training, edge_feats=Tensor(edge_feats))
    if model.config.module_kind is ModuleKind.LINEAR:
        weight = model.head.weight.tensor
        return ad.add(hinge_loss(logits, targets), ad.scale(ad.mul(weight, weight).sum(), HINGE_L2))
    return nll_loss(logits, targets)


def train(model: NeuralModel, plan: ExperimentPlan, cfg: TrainConfig,
          prepared: dict[str, PreparedWorm], test_fold: int = 0,
          val_fold: int = 1) -> tuple[TrainState, ev.RunMetrics]:
    """Fit one (permutation, fold) cell and evaluate it.

    Classification holds out ``test_fold`` and stops on ``val_fold`` loss;
    prediction uses ``val_fold`` for stopping and measures generalization
    as per-step rollout MSE on the held-out and extended worms.  The
    best-validation checkpoint is restored before metrics are computed.
    """
    started = time.perf_counter()
    missing = [wid for wid in plan.train_worm_ids + plan.held_out_worm_ids + plan.extended_eval_ids
               if wid not in prepared]
    if missing:
        raise ValueError(f"train: worms not prepared: {missing}")
    if test_fold == val_fold or not (0 <= test_fold < cfg.fold_count and 0 <= val_fold < cfg.fold_count):
        raise ValueError(f"train: test_fold {test_fold} and val_fold {val_fold} must be distinct "
                         f"folds in [0, {cfg.fold_count})")

    state = TrainState(AdamState(model.parameters(), cfg.learning_rate))
    train_ids = sorted(plan.train_worm_ids)
    is_predict = plan.task == "predict"
    train_steps = cfg.window_len - 1 - cfg.burn_in
    if is_predict and train_steps < 1:
        raise ValueError(
            f"train: window_len {cfg.window_len} leaves no prediction steps after burn_in {cfg.burn_in}"
        )

    for wid in train_ids:  # folds split a training worm's windows; each fold needs one
        windows = len(prepared[wid].folds)
        if windows < cfg.fold_count:
            raise ValueError(f"train: worm {wid!r} has {windows} windows for {cfg.fold_count} folds")
    train_folds = [f for f in range(cfg.fold_count) if f not in (test_fold, val_fold)]
    holdout = _holdout_recordings(plan, prepared) if is_predict else []
    if holdout:  # fail before training, not after it, when no window can be rolled out
        ev.check_rollout_windows(holdout, steps=cfg.eval_rollout, window_len=cfg.window_len,
                                 burn_in=cfg.burn_in)

    train_windows = _fold_windows(prepared, train_ids, train_folds)
    val_windows = _fold_windows(prepared, train_ids, [val_fold])
    for epoch in range(cfg.max_epochs):
        for wid, worm, feats, targets in train_windows:
            model.zero_grad()
            rng = derive_rng(cfg.seed, "scheduled-sampling", wid, epoch) if is_predict else None
            loss = _worm_loss(model, worm, feats, targets, cfg, is_predict, training=True,
                              sampling=sampling_prob(epoch, cfg), rng=rng)
            value = loss.item()
            if not np.isfinite(value):  # an Adam step would spread it to every parameter
                raise ValueError(f"train: loss is {value} at epoch {epoch}, worm {wid!r}")
            loss.backward()
            del loss  # frees the step's graph and its gradients before the next forward
            state.adam.step()

        # validation at the epoch boundary; keep the best-validation checkpoint
        val_loss = _validation_loss(model, cfg, is_predict, val_windows)
        if not np.isfinite(val_loss):
            raise ValueError(f"train: validation loss is {val_loss} at epoch {epoch}")
        state.val_history.append(val_loss)
        if lr_on_plateau(state, val_loss, cfg.plateau_patience, cfg.lr_decay_factor):
            state.best_state = model.state()

    model.load_state(*state.best_state)  # set at epoch 0: a finite loss improves on inf

    metrics = _evaluate_run(model, plan, cfg, prepared, test_fold, val_fold, state.best_val_loss)
    metrics.wall_time_s = time.perf_counter() - started
    return state, metrics


def _validation_loss(model, cfg, predict: bool, windows) -> float:
    """Window-weighted mean loss over ``_fold_windows``' validation windows."""
    total, weight = 0.0, 0
    for _, worm, feats, targets in windows:
        with ad.no_grad():
            loss = _worm_loss(model, worm, feats, targets, cfg, predict, training=False)
        total += loss.item() * len(feats)
        weight += len(feats)
    return total / weight if weight else np.inf


def _holdout_recordings(plan, prepared) -> list[WormRecording]:
    """The normalized recordings of the held-out and extended worms a predict
    run is rolled out on."""
    return [prepared[wid].recording for wid in sorted(plan.held_out_worm_ids + plan.extended_eval_ids)]


def _evaluate_run(model, plan, cfg, prepared, test_fold, val_fold, best_val_loss) -> ev.RunMetrics:
    n_states = model.config.n_states
    metrics = ev.RunMetrics(task=plan.task, test_fold=test_fold, val_fold=val_fold)
    if plan.task == "predict":
        holdout = _holdout_recordings(plan, prepared)
        if holdout:
            metrics.per_step_mse = ev.per_step_mse(model, holdout, steps=cfg.eval_rollout,
                                                   window_len=cfg.window_len, burn_in=cfg.burn_in).per_step
        metrics.val_mse = best_val_loss  # the restored state's, measured in its epoch
        return metrics

    # one forward pass per worm: its (n_windows, W) classes, sliced per split below
    window_preds = {}

    def pooled_predictions(ids, folds):
        preds, targets = [], []
        for wid in sorted(ids):
            worm = prepared[wid]
            mask = np.isin(worm.folds, folds)
            if not mask.any():
                continue
            if wid not in window_preds:
                window_preds[wid] = predict_classes(model, worm).reshape(worm.targets.shape)
            preds.append(window_preds[wid][mask].reshape(-1))
            targets.append(worm.targets[mask].reshape(-1))
        if not preds:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(preds), np.concatenate(targets)

    train_folds = [f for f in range(cfg.fold_count) if f not in (test_fold, val_fold)]
    for split, folds in (("train", train_folds), ("val", [val_fold]), ("test", [test_fold])):
        preds, targets = pooled_predictions(plan.train_worm_ids, folds)
        setattr(metrics, f"accuracy_{split}", ev.accuracy(preds, targets) if preds.size else None)

    # the confusion matrix counts held-out worms, or else the test split above
    gen_ids = plan.held_out_worm_ids + plan.extended_eval_ids
    if gen_ids:
        preds, targets = pooled_predictions(gen_ids, list(range(cfg.fold_count)))
        metrics.accuracy_generalization = ev.accuracy(preds, targets) if preds.size else None
    if gen_ids or preds.size:
        metrics.confusion, metrics.confusion_support = ev.confusion_matrix(preds, targets, n_states)
    return metrics


def predict_classes(model: NeuralModel, worm: PreparedWorm) -> np.ndarray:
    """Flat argmax classes for all of a worm's windows, window-major; static
    edges come from the worm's own recording.  A window's classes do not
    depend on which other windows share the batch."""
    with ad.no_grad():
        logits = model.classify_logits(Tensor(worm.features), training=False,
                                       edge_feats=Tensor(worm.features))
    return np.argmax(logits.data, axis=-1).reshape(-1)


def run_cell(prepared: dict[str, PreparedWorm], plan_template: ExperimentPlan,
             cfg: TrainConfig, model_config: ModelConfig, perm: tuple, perm_index: int,
             fold: int, connectome=None) -> ev.RunMetrics:
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
                       test_fold=fold, val_fold=(fold + 1) % cfg.fold_count)
    metrics.permutation = list(perm)
    metrics.fold = fold
    metrics.seed = cell_seed
    return metrics


_worker_sweep = None  # (run, perms), set once in each pool worker by _init_worker
PARENT_POLL_S = 0.5  # how often a pool worker checks that its parent is alive


def _init_worker(run, perms) -> None:
    """Keep the sweep in this pool worker, and exit the worker once its parent
    dies (a killed sweep would otherwise leave it running, reparented)."""
    global _worker_sweep
    _worker_sweep = (run, perms)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _worker_cell(cell: tuple[int, int]) -> ev.RunMetrics:
    run, perms = _worker_sweep
    return run(perms[cell[0]], *cell)


def _finished_cells(run, perms, cells, workers: int):
    """Yield (cell, metrics) as each cell finishes: in order, or from a pool
    of at most one worker per cell (a forked pool starts all its workers)."""
    workers = min(workers, len(cells))
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
                   saved=None, progress=None, connectome=None,
                   workers: int = 1) -> tuple[list[ev.RunMetrics], dict]:
    """Enumerate worm permutations x folds, train each cell, aggregate mean +- std.

    The only code that enumerates sweep cells and the only owner of a worker
    pool: worms are prepared once here, and each of ``workers`` > 1 processes
    receives them once, then only (perm_index, fold); a worker exits when this
    process dies.  ``workers`` < 1 is an error.  ``saved`` (perm_index,
    permutation, fold) -> RunMetrics or None, asked about every cell before
    any runs, supplies records of cells already done, which are not run
    again; ``progress`` (perm_index, fold, metrics, cells to run) is called
    as each run cell finishes, so the caller can save it.  Every cell's
    record comes back in cell order, with their summary; aggregation uses
    the population standard deviation.
    """
    if workers < 1:
        raise ValueError(f"cross_validate: workers must be >= 1, got {workers}")
    perms = worm_permutations(plan_template.train_worm_ids, permutation_size)
    prepared = prepare_worms(recordings, plan_template.task, cfg, cfg.seed)
    by_cell = {(pi, fold): saved(pi, perm, fold) if saved is not None else None
               for pi, perm in enumerate(perms) for fold in range(cfg.fold_count)}
    todo = [cell for cell, record in by_cell.items() if record is None]
    run = functools.partial(run_cell, prepared, plan_template, cfg, model_config,
                            connectome=connectome)
    for cell, metrics in _finished_cells(run, perms, todo, workers):
        by_cell[cell] = metrics
        if progress is not None:
            progress(*cell, metrics, len(todo))
    records = list(by_cell.values())  # in cell order: a dict keeps its insertion order
    return records, summarize_runs(records)


def summarize_runs(records: list[ev.RunMetrics]) -> dict:
    """Mean +- population standard deviation across runs."""
    summary: dict = {"runs": len(records)}
    for fieldname in ("accuracy_train", "accuracy_val", "accuracy_test", "accuracy_generalization",
                      "per_step_mse"):
        values = [getattr(r, fieldname) for r in records if getattr(r, fieldname) is not None]
        if values:
            arr = np.asarray(values, dtype=np.float64)
            summary[fieldname] = {"mean": arr.mean(axis=0).tolist(),
                                  "std": arr.std(axis=0).tolist()}
    return summary
