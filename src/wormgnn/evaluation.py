"""Metrics and analyses: accuracy, confusion matrices, per-step rollout MSE,
and principal-component projections of derivative traces.

All functions are pure over immutable run outputs.  Undefined accuracy
(no labeled timesteps) surfaces as None, never silently 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import rollout_batch


@dataclass
class RunMetrics:
    """Result record for one training run."""

    task: str = ""
    permutation: list = field(default_factory=list)
    fold: int = 0
    test_fold: int = 0
    val_fold: int = 0
    seed: int = 0
    accuracy_train: float | None = None
    accuracy_val: float | None = None
    accuracy_test: float | None = None
    accuracy_generalization: float | None = None
    confusion: np.ndarray | None = None  # k x k row-normalized percent
    confusion_support: np.ndarray | None = None
    per_step_mse: np.ndarray | None = None
    val_mse: float | None = None
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "permutation": list(self.permutation),
            "fold": self.fold,
            "test_fold": self.test_fold,
            "val_fold": self.val_fold,
            "seed": self.seed,
            "accuracy_train": self.accuracy_train,
            "accuracy_val": self.accuracy_val,
            "accuracy_test": self.accuracy_test,
            "accuracy_generalization": self.accuracy_generalization,
            "confusion": None if self.confusion is None else np.asarray(self.confusion).tolist(),
            "confusion_support": None if self.confusion_support is None
            else np.asarray(self.confusion_support).tolist(),
            "per_step_mse": None if self.per_step_mse is None
            else np.asarray(self.per_step_mse).tolist(),
            "val_mse": self.val_mse,
            "wall_time_s": self.runtime_s,
        }


def accuracy(predictions, targets) -> float | None:
    """Fraction correct over timesteps whose target is not masked (-1).

    Returns None (undefined) when every target is masked.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError(f"accuracy: shapes {predictions.shape} and {targets.shape} differ")
    valid = targets >= 0
    if not valid.any():
        return None
    return float((predictions[valid] == targets[valid]).mean())


def confusion_matrix(predictions, targets, k: int):
    """Row-normalized percent matrix (true state x predicted state) plus row support.

    Masked targets are excluded; rows with zero support stay all-zero.
    """
    predictions = np.asarray(predictions).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    counts = np.zeros((k, k))
    for true, pred in zip(targets, predictions):
        if true >= 0:
            counts[true, pred] += 1
    support = counts.sum(axis=1)
    percent = np.zeros((k, k))
    rows = support > 0
    percent[rows] = 100.0 * counts[rows] / support[rows, None]
    return percent, support


# ---------------------------------------------------------------------------
# trajectory rollout evaluation
# ---------------------------------------------------------------------------

@dataclass
class PerStepMse:
    per_step: np.ndarray  # (steps,)
    summary: dict  # MSE at prediction steps 1, 8, 16 (those <= steps)
    windows_used: int
    windows_skipped: int


def _accumulate_rollout_error(model, full: np.ndarray, starts, steps: int, burn_in: int,
                              totals: np.ndarray, counts: np.ndarray, edge_feats=None):
    """Free-running rollouts from each start; squared error summed per step."""
    horizon = burn_in + steps
    usable = [s for s in starts if s + horizon < full.shape[0]]
    skipped = len(list(starts)) - len(usable)
    if usable:
        teacher = np.stack([full[s : s + horizon + 1] for s in usable])
        preds = rollout_batch(model, teacher, steps, sampling_prob=0.0, training=False,
                              burn_in=burn_in, edge_feats=edge_feats)
        target = teacher[:, burn_in + 1 :]
        sq = (preds.data - target) ** 2
        totals += sq.sum(axis=(0, 2, 3))
        counts += sq.shape[0] * sq.shape[2] * sq.shape[3]
    return len(usable), skipped


def _rollout_error_per_step(model, sources, steps: int, burn_in: int) -> PerStepMse:
    """Accumulate rollout errors over (full, starts, edge_feats) sources."""
    totals = np.zeros(steps)
    counts = np.zeros(steps)
    used = skipped = 0
    for full, starts, edge_feats in sources:
        u, s = _accumulate_rollout_error(model, full, starts, steps, burn_in, totals, counts,
                                         edge_feats=edge_feats)
        used += u
        skipped += s
    per_step = np.divide(totals, counts, out=np.zeros(steps), where=counts > 0)
    summary = {s: float(per_step[s - 1]) for s in (1, 8, 16) if s <= steps}
    return PerStepMse(per_step=per_step, summary=summary,
                      windows_used=used, windows_skipped=skipped)


def per_step_mse(model, recordings, steps: int = 16, window_len: int = 8,
                 burn_in: int = 0) -> PerStepMse:
    """MSE per prediction step, averaged across window-start rollouts of all recordings.

    Recordings are expected normalized.  Windows without ``steps`` ground-
    truth frames of lookahead are skipped and counted.
    """
    sources = ((np.stack([rec.traces.T, rec.derivatives.T], axis=-1),  # (T, N, 2)
                range(0, (rec.n_timesteps // window_len) * window_len, window_len), None)
               for rec in recordings)
    return _rollout_error_per_step(model, sources, steps, burn_in)


def per_step_mse_prepared(model, prepared_worms, steps: int = 16, burn_in: int = 0) -> np.ndarray:
    """As per_step_mse but over PreparedWorm slabs from the training harness."""
    sources = ((worm.full_features, worm.window_starts, worm.features) for worm in prepared_worms)
    return _rollout_error_per_step(model, sources, steps, burn_in).per_step


# ---------------------------------------------------------------------------
# principal components
# ---------------------------------------------------------------------------

@dataclass
class PcaResult:
    projection: np.ndarray  # (T, components)
    fractions: np.ndarray  # explained-variance fractions, descending, all N
    zero_variance_components: list  # indices of returned components with ~0 variance


def pca_project(derivatives: np.ndarray, components: int = 3) -> PcaResult:
    """Mean-centered projection via eigendecomposition of the N x N covariance.

    Rank-deficient inputs are not an error; trailing zero-variance
    components are flagged instead.
    """
    x = np.asarray(derivatives, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"pca_project: expected N x T matrix, got shape {x.shape}")
    n, t = x.shape
    if t <= components:
        raise ValueError(f"pca_project: need more than {components} timesteps, got {t}")
    centered = x - x.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / t
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = eigvals.sum()
    fractions = eigvals / total if total > 0 else np.zeros(n)

    k = min(components, n)
    basis = eigvecs[:, :k]
    # deterministic sign: largest-magnitude loading is positive
    for j in range(k):
        pivot = np.argmax(np.abs(basis[:, j]))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    projection = centered.T @ basis
    if k < components:
        projection = np.hstack([projection, np.zeros((t, components - k))])
    zero_var = [j for j in range(components) if j >= n or fractions[j] <= 1e-12]
    return PcaResult(projection=projection, fractions=fractions, zero_variance_components=zero_var)


# ---------------------------------------------------------------------------
# plot-data export (delimited text; no rendering)
# ---------------------------------------------------------------------------

def export_accuracy_table(path, rows) -> None:
    """Rows of (label, mean, std) -> accuracy-bar table."""
    lines = ["model\tmean\tstd"]
    for label, mean, std in rows:
        lines.append(f"{label}\t{float(mean)!r}\t{float(std)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_confusion(path, matrix, state_names) -> None:
    matrix = np.asarray(matrix)
    lines = ["true\\predicted\t" + "\t".join(state_names)]
    for name, row in zip(state_names, matrix):
        lines.append(name + "\t" + "\t".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def export_mse_curves(path, curves: dict) -> None:
    """curves: model label -> per-step MSE vector."""
    labels = sorted(curves)
    steps = max(len(np.asarray(curves[lab])) for lab in labels)
    lines = ["step\t" + "\t".join(labels)]
    for s in range(steps):
        cells = []
        for lab in labels:
            vec = np.asarray(curves[lab])
            cells.append(repr(float(vec[s])) if s < len(vec) else "")
        lines.append(f"{s + 1}\t" + "\t".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def export_pca_trajectory(path, projection, labels=None) -> None:
    projection = np.asarray(projection)
    c = projection.shape[1]
    header = "t\t" + "\t".join(f"pc{j + 1}" for j in range(c)) + ("\tstate" if labels is not None else "")
    lines = [header]
    for t in range(projection.shape[0]):
        row = f"{t}\t" + "\t".join(repr(float(v)) for v in projection[t])
        if labels is not None:
            row += f"\t{labels[t].value if hasattr(labels[t], 'value') else labels[t]}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")
