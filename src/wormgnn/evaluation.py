"""Metrics and analyses: accuracy, confusion matrices, per-step rollout MSE,
and principal-component projections of derivative traces.

All functions are pure over immutable run outputs.  Undefined accuracy
(no labeled timesteps) surfaces as None, never silently 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
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
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        """Every field by name, arrays and sequences as lists."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v if v is None or np.isscalar(v) else np.asarray(v).tolist()
                for name, v in raw.items()}


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
    Raises ValueError for a target or prediction outside [0, k).
    """
    predictions = np.asarray(predictions).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    valid = targets >= 0
    true, pred = targets[valid], predictions[valid]
    if true.size and (max(true.max(), pred.max()) >= k or pred.min() < 0):
        raise ValueError(f"confusion_matrix: classes must lie in [0, {k}), got targets {true.min()}..{true.max()}"
                         f" and predictions {pred.min()}..{pred.max()}")
    # an empty list reads as float, which bincount refuses
    counts = np.bincount(true * k + pred if true.size else [], minlength=k * k).reshape(k, k).astype(float)
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


def _no_lookahead(steps: int, burn_in: int, skipped: int) -> ValueError:
    return ValueError(f"per-step MSE: no window has the {burn_in + steps} frames of lookahead "
                      f"that burn_in={burn_in} and steps={steps} need ({skipped} skipped)")


def _rollout_starts(n_timesteps: int, window_len: int, horizon: int):
    """A recording's rollout windows: (starts, usable starts).  Windows start
    every ``window_len`` frames over the frames windowing covers; a start is
    usable when ``horizon`` frames of lookahead follow it."""
    starts = np.arange(0, n_timesteps - n_timesteps % window_len, window_len)
    return starts, starts[starts + horizon < n_timesteps]


def _accumulate_rollout_error(model, full: np.ndarray, steps: int, window_len: int, burn_in: int,
                              totals: np.ndarray, counts: np.ndarray):
    """Free-running rollouts from each usable window start of the (T, N, 2)
    recording ``full``, squared error summed per step; static edges come
    from the frames windowing covers.  Returns (used, skipped) windows."""
    horizon = burn_in + steps
    starts, usable = _rollout_starts(len(full), window_len, horizon)
    if usable.size:
        teacher = np.stack([full[s : s + horizon + 1] for s in usable])
        with ad.no_grad():
            preds = rollout_batch(model, teacher, steps, sampling_prob=0.0, training=False,
                                  burn_in=burn_in, edge_feats=full[None, : len(starts) * window_len])
        target = teacher[:, burn_in + 1 :]
        sq = (preds.data - target) ** 2
        totals += sq.sum(axis=(0, 2, 3))
        counts += sq.shape[0] * sq.shape[2] * sq.shape[3]
    return len(usable), len(starts) - len(usable)


def per_step_mse(model, recordings, steps: int = 16, window_len: int = 8,
                 burn_in: int = 0) -> PerStepMse:
    """MSE per prediction step, averaged across window-start rollouts of all recordings.

    The one rollout evaluation: the ``rollout`` command and ``train``'s final
    evaluation both run it.  Rollouts start at every ``window_len``-th frame
    of each recording, in recording order.  Recordings are expected
    normalized.  Windows without ``burn_in + steps`` ground-truth frames of
    lookahead are skipped and counted; no usable window at all raises, and
    so does a ``steps`` or ``window_len`` below 1 or a negative ``burn_in``
    (``rollout_batch``).  Static edges come from the frames that windowing
    covers (the trailing remainder dropped), as in training.
    """
    for name, value in (("steps", steps), ("window_len", window_len)):
        if value < 1:
            raise ValueError(f"per_step_mse: {name} must be >= 1, got {value}")
    totals = np.zeros(steps)
    counts = np.zeros(steps)
    used = skipped = 0
    for rec in recordings:
        u, s = _accumulate_rollout_error(model, rec.features, steps, window_len, burn_in,
                                         totals, counts)
        used += u
        skipped += s
    if not used:  # an average over no rollout is undefined, not zero
        raise _no_lookahead(steps, burn_in, skipped)
    per_step = totals / counts
    summary = {s: float(per_step[s - 1]) for s in (1, 8, 16) if s <= steps}
    return PerStepMse(per_step=per_step, summary=summary,
                      windows_used=used, windows_skipped=skipped)


def check_rollout_windows(recordings, steps: int, window_len: int, burn_in: int = 0) -> None:
    """Raise per_step_mse's error, without running a model, when no window
    of ``recordings`` has the frames of lookahead it needs."""
    windows = [_rollout_starts(rec.n_timesteps, window_len, burn_in + steps) for rec in recordings]
    if not any(usable.size for _, usable in windows):
        raise _no_lookahead(steps, burn_in, sum(len(starts) for starts, _ in windows))


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
    components are flagged instead.  ``components`` below 1 raises.
    """
    x = np.asarray(derivatives, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"pca_project: expected N x T matrix, got shape {x.shape}")
    if components < 1:
        raise ValueError(f"pca_project: components must be >= 1, got {components}")
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

def _write_tsv(path, header, rows) -> None:
    """One tab-joined line per row of string cells, header first."""
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def export_accuracy_table(path, rows) -> None:
    """Rows of (label, mean, std) -> accuracy-bar table."""
    _write_tsv(path, ["model", "mean", "std"],
               ([str(label), repr(float(mean)), repr(float(std))] for label, mean, std in rows))


def export_confusion(path, matrix, state_names, corner: str = "true\\predicted") -> None:
    """Square matrix with named rows and columns; ``corner`` labels the two axes."""
    _write_tsv(path, [corner, *state_names],
               ([name, *(repr(float(v)) for v in row)]
                for name, row in zip(state_names, np.asarray(matrix))))


def export_mse_curves(path, curves: dict) -> None:
    """curves: model label -> per-step MSE vector."""
    labels = sorted(curves)
    vectors = [np.asarray(curves[lab]) for lab in labels]
    steps = max(len(vec) for vec in vectors)
    _write_tsv(path, ["step", *labels],
               ([str(s + 1), *(repr(float(vec[s])) if s < len(vec) else "" for vec in vectors)]
                for s in range(steps)))


def export_pca_trajectory(path, projection, labels=None) -> None:
    projection = np.asarray(projection)
    header = ["t"] + [f"pc{j + 1}" for j in range(projection.shape[1])]
    rows = [[str(t), *(repr(float(v)) for v in row)] for t, row in enumerate(projection)]
    if labels is not None:
        header.append("state")
        for t, row in enumerate(rows):
            row.append(str(labels[t].value if hasattr(labels[t], "value") else labels[t]))
    _write_tsv(path, header, rows)
