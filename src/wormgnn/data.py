"""Recording ingestion and the temporal-graph data model.

Covers normalization, the derivative feature channel, fixed-length windows,
fold assignment, neuron selection, and the fine-to-coarse label mapping.
WormRecording.features is the one (T, N, 2) layout of a recording's trace
and derivative channels; windows and folds are integer arrays over its
timesteps (start index and fold of each window), not copies of it.
All operations are pure given (input, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from pathlib import Path

import numpy as np

from .rng import derive_rng


class RecordingFormatError(ValueError):
    """Malformed recording or adjacency file; message names the offending field."""


class StateLabel(Enum):
    """Behavioral-state label: 7 fine states + Unknown, plus the 4 coarse states."""

    FORWARD = "forward"
    FORWARD_SLOWING = "forward_slowing"
    REVERSE1 = "reverse1"
    REVERSE2 = "reverse2"
    SUSTAINED_REVERSE = "sustained_reverse"
    DORSAL_TURN = "dorsal_turn"
    VENTRAL_TURN = "ventral_turn"
    UNKNOWN = "unknown"
    FORWARD4 = "forward4"
    REVERSE4 = "reverse4"
    DORSAL_TURN4 = "dorsal_turn4"
    VENTRAL_TURN4 = "ventral_turn4"

    @property
    def is_coarse(self) -> bool:
        return self in _COARSE_SET

    @property
    def is_fine(self) -> bool:
        return self in _FINE_SET


FINE_LABELS = [
    StateLabel.FORWARD,
    StateLabel.FORWARD_SLOWING,
    StateLabel.REVERSE1,
    StateLabel.REVERSE2,
    StateLabel.SUSTAINED_REVERSE,
    StateLabel.DORSAL_TURN,
    StateLabel.VENTRAL_TURN,
]
COARSE_LABELS = [
    StateLabel.FORWARD4,
    StateLabel.REVERSE4,
    StateLabel.DORSAL_TURN4,
    StateLabel.VENTRAL_TURN4,
]
_FINE_SET = frozenset(FINE_LABELS)
_COARSE_SET = frozenset(COARSE_LABELS)

_FINE_TO_COARSE = {
    StateLabel.FORWARD: StateLabel.FORWARD4,
    StateLabel.FORWARD_SLOWING: StateLabel.FORWARD4,
    StateLabel.REVERSE1: StateLabel.REVERSE4,
    StateLabel.REVERSE2: StateLabel.REVERSE4,
    StateLabel.SUSTAINED_REVERSE: StateLabel.REVERSE4,
    StateLabel.DORSAL_TURN: StateLabel.DORSAL_TURN4,
    StateLabel.VENTRAL_TURN: StateLabel.VENTRAL_TURN4,
    StateLabel.UNKNOWN: StateLabel.UNKNOWN,
}

# Class-index schemes used by the task heads.  None means the timestep is
# masked out of losses and metrics.
_BINARY_CLASSES = {
    StateLabel.FORWARD: 0,
    StateLabel.FORWARD_SLOWING: 0,
    StateLabel.FORWARD4: 0,
    StateLabel.REVERSE1: 1,
    StateLabel.REVERSE2: 1,
    StateLabel.SUSTAINED_REVERSE: 1,
    StateLabel.REVERSE4: 1,
}

def label_to_class(label: StateLabel, scheme: str):
    """Map a label to its class index under ``scheme`` (None = masked)."""
    if scheme == "binary":
        return _BINARY_CLASSES.get(label)
    if scheme == "fine7":
        if label.is_coarse:
            raise ValueError(f"label_to_class: coarse label {label.value} under fine7 scheme")
        return None if label is StateLabel.UNKNOWN else FINE_LABELS.index(label)
    if scheme == "coarse4":
        if label.is_fine:
            raise ValueError(f"label_to_class: fine label {label.value} under coarse4 scheme")
        return None if label is StateLabel.UNKNOWN else COARSE_LABELS.index(label)
    raise ValueError(f"label_to_class: unknown scheme {scheme!r}")


def map_labels(labels) -> list[StateLabel]:
    """Collapse the fine 7-state alphabet to the 4 coarse states; Unknown passes through."""
    mapped = []
    for i, lab in enumerate(labels):
        if lab.is_coarse:
            raise ValueError(f"map_labels: input already coarse at index {i} ({lab.value})")
        mapped.append(_FINE_TO_COARSE[lab])
    return mapped


# ---------------------------------------------------------------------------
# recordings
# ---------------------------------------------------------------------------

@dataclass
class WormRecording:
    """One individual's labeled multi-neuron recording."""

    worm_id: str
    dataset_tag: str
    sample_period_s: float
    neuron_names: list[str]
    traces: np.ndarray  # N x T
    derivatives: np.ndarray  # N x T
    labels: list[StateLabel]  # length T

    def __post_init__(self):
        self.traces = np.asarray(self.traces, dtype=np.float64)
        self.derivatives = np.asarray(self.derivatives, dtype=np.float64)
        if self.traces.ndim != 2:
            raise RecordingFormatError(f"traces: expected 2-D matrix, got shape {self.traces.shape}")
        if self.traces.shape != self.derivatives.shape:
            raise RecordingFormatError(
                f"derivatives: shape {self.derivatives.shape} != traces shape {self.traces.shape}"
            )
        if len(self.neuron_names) != self.traces.shape[0]:
            raise RecordingFormatError(
                f"neuron_names: {len(self.neuron_names)} names for {self.traces.shape[0]} trace rows"
            )
        if len(set(self.neuron_names)) != len(self.neuron_names):
            dupes = sorted({n for n in self.neuron_names if self.neuron_names.count(n) > 1})
            raise RecordingFormatError(f"neuron_names: duplicate entries {dupes}")
        if len(self.labels) != self.traces.shape[1]:
            raise RecordingFormatError(
                f"labels: length {len(self.labels)} != timestep count {self.traces.shape[1]}"
            )

    @property
    def n_neurons(self) -> int:
        return self.traces.shape[0]

    @property
    def n_timesteps(self) -> int:
        return self.traces.shape[1]

    @property
    def features(self) -> np.ndarray:
        """(T, N, 2): each timestep's trace and derivative channel per neuron."""
        return np.stack([self.traces.T, self.derivatives.T], axis=-1)


def compute_derivative(trace: np.ndarray) -> np.ndarray:
    """Forward difference; the final value repeats so length stays T."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.size < 2:
        raise ValueError(f"compute_derivative: need at least 2 timesteps, got {trace.size}")
    d = np.empty_like(trace)
    d[:-1] = trace[1:] - trace[:-1]
    d[-1] = d[-2]
    return d


def _minmax_rows(matrix: np.ndarray) -> np.ndarray:
    lo = matrix.min(axis=1, keepdims=True)
    hi = matrix.max(axis=1, keepdims=True)
    span = hi - lo
    out = np.zeros_like(matrix)
    # rows whose span is float noise are constant; scaling would amplify dust
    scale = np.maximum(np.abs(lo), np.abs(hi))
    active = span[:, 0] > 1e-12 * scale[:, 0]
    out[active] = (matrix[active] - lo[active]) / span[active]
    return out


def normalize_recording(rec: WormRecording) -> WormRecording:
    """Min-max scale each trace and derivative row to [0,1] over the full recording.

    Constant rows map to all-zeros; idempotent on already-normalized data.
    """
    return replace(rec, neuron_names=list(rec.neuron_names), traces=_minmax_rows(rec.traces),
                   derivatives=_minmax_rows(rec.derivatives), labels=list(rec.labels))


def select_neurons(rec: WormRecording, names, exclude: bool = False) -> WormRecording:
    """Restrict to the requested neurons, in the requested order.

    With ``exclude=True`` the named neurons are dropped instead (original
    order kept).  Missing names are rejected either way.
    """
    missing = [n for n in names if n not in rec.neuron_names]
    if missing:
        raise ValueError(f"select_neurons: neuron(s) not in recording: {missing}")
    if exclude:
        keep = [n for n in rec.neuron_names if n not in set(names)]
    else:
        keep = list(names)
    idx = [rec.neuron_names.index(n) for n in keep]
    return replace(rec, neuron_names=keep, traces=rec.traces[idx],
                   derivatives=rec.derivatives[idx], labels=list(rec.labels))


# ---------------------------------------------------------------------------
# windows and folds
# ---------------------------------------------------------------------------

def majority_label(labels) -> StateLabel:
    """The most frequent label; a tie goes to the smallest label value."""
    counts: dict[StateLabel, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    return min((lab for lab, c in counts.items() if c == best), key=lambda lab: lab.value)


def windowize(rec: WormRecording, window_len: int, seed: int) -> np.ndarray:
    """Start indices of floor(T/W) non-overlapping windows, shuffled
    deterministically; window i is ``rec.features[starts[i] : starts[i] + W]``.

    The trailing remainder is dropped.
    """
    if window_len < 2:
        raise ValueError(f"windowize: window length must be >= 2, got {window_len}")
    if window_len > rec.n_timesteps:
        raise ValueError(
            f"windowize: window length {window_len} exceeds recording length {rec.n_timesteps}"
        )
    order = derive_rng(seed, "windowize", rec.worm_id).permutation(rec.n_timesteps // window_len)
    return (order * window_len).astype(np.intp)


def assign_folds(window_labels, k: int, seed: int) -> np.ndarray:
    """Stratified near-equal folds, one per window, deterministic under seed.

    ``window_labels`` holds each window's label sequence.  Windows are
    grouped by majority label and dealt round-robin with a cursor shared
    across groups, so fold sizes differ by at most one while each fold
    stays representative of the label mix.  With fewer windows than folds,
    some folds stay empty; ``training.train`` rejects that for the worms it
    trains on.
    """
    if k < 2:
        raise ValueError(f"assign_folds: fold count must be >= 2, got {k}")

    groups: dict[str, list[int]] = {}
    for i, labels in enumerate(window_labels):
        groups.setdefault(majority_label(labels).value, []).append(i)

    rng = derive_rng(seed, "folds")
    folds = np.empty(len(window_labels), dtype=np.intp)
    cursor = 0
    for label_value in sorted(groups):
        members = np.asarray(groups[label_value])
        folds[members[rng.permutation(len(members))]] = (cursor + np.arange(len(members))) % k
        cursor += len(members)
    return folds


def worm_permutations(worm_ids, r: int) -> list[tuple]:
    """All size-r unordered subsets, in lexicographic order."""
    worm_ids = list(worm_ids)
    if not 1 <= r <= len(worm_ids):
        raise ValueError(f"worm_permutations: r={r} out of range for {len(worm_ids)} ids")
    return list(combinations(worm_ids, r))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_LABEL_FROM_STRING = {lab.value: lab for lab in StateLabel}


def load_recording(path) -> WormRecording:
    """Read a recording file (see docs/recording_format.md); un-normalized.

    A missing derivative matrix is computed from the raw traces.  Errors
    carry field-level diagnostics.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise RecordingFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise RecordingFormatError(f"{path}: top level must be an object")

    for fieldname in ("worm_id", "dataset_tag", "sample_period_s", "neuron_names", "traces", "labels"):
        if fieldname not in raw:
            raise RecordingFormatError(f"{path}: missing field {fieldname!r}")
        if fieldname in ("neuron_names", "labels") and not isinstance(raw[fieldname], list):
            raise RecordingFormatError(f"{path}: {fieldname} must be a list, got {type(raw[fieldname]).__name__}")

    def numbers(fieldname, convert=lambda values: np.asarray(values, dtype=np.float64)):
        try:  # ragged rows, or an entry that is not a number
            return convert(raw[fieldname])
        except (TypeError, ValueError) as exc:
            raise RecordingFormatError(f"{path}: {fieldname}: {exc}") from None

    traces, period = numbers("traces"), numbers("sample_period_s", float)
    if traces.ndim != 2 or traces.shape[1] < 2:
        raise RecordingFormatError(
            f"{path}: traces must be an N x T matrix with T >= 2, got shape {traces.shape}"
        )
    labels = []
    for i, s in enumerate(raw["labels"]):
        lab = _LABEL_FROM_STRING.get(s) if isinstance(s, str) else None
        if lab is None or lab.is_coarse:
            raise RecordingFormatError(f"{path}: labels[{i}]: unknown fine label {s!r}")
        labels.append(lab)
    if "derivatives" in raw and raw["derivatives"] is not None:
        derivatives = numbers("derivatives")
    else:
        derivatives = np.apply_along_axis(compute_derivative, 1, traces)
    # min-max scaling would silently zero a row holding NaN, infinity or null
    for fieldname, matrix in (("traces", traces), ("derivatives", derivatives)):
        bad = np.argwhere(~np.isfinite(matrix))
        if bad.size:
            index = "".join(f"[{i}]" for i in bad[0])
            raise RecordingFormatError(
                f"{path}: {fieldname}{index} is {matrix[tuple(bad[0])]}, not a finite number")

    try:
        return WormRecording(
            worm_id=str(raw["worm_id"]),
            dataset_tag=str(raw["dataset_tag"]),
            sample_period_s=period,
            neuron_names=[str(n) for n in raw["neuron_names"]],
            traces=traces,
            derivatives=derivatives,
            labels=labels,
        )
    except RecordingFormatError as exc:
        raise RecordingFormatError(f"{path}: {exc}") from None


def save_recording(rec: WormRecording, path) -> None:
    payload = {
        "worm_id": rec.worm_id,
        "dataset_tag": rec.dataset_tag,
        "sample_period_s": rec.sample_period_s,
        "neuron_names": rec.neuron_names,
        "traces": rec.traces.tolist(),
        "derivatives": rec.derivatives.tolist(),
        "labels": [lab.value for lab in rec.labels],
    }
    Path(path).write_text(json.dumps(payload))


def load_connectome_triples(path) -> list[tuple[str, str, float]]:
    """Parse (source, target, weight) triples; '#' starts a comment line."""
    triples = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.replace(",", " ").split()
        if len(parts) != 3:
            raise RecordingFormatError(f"{path}:{lineno}: expected 'source target weight', got {line!r}")
        try:
            weight = float(parts[2])
        except ValueError:
            raise RecordingFormatError(f"{path}:{lineno}: weight {parts[2]!r} is not a number") from None
        if not 0 <= weight < np.inf:
            raise RecordingFormatError(f"{path}:{lineno}: weight must be finite and >= 0, got {parts[2]}")
        triples.append((parts[0], parts[1], weight))
    return triples


# The neurons uniquely identified across all individuals of the primary
# training corpus, and the subset shared with the extended-evaluation corpus.
SHARED_NEURONS_15 = [
    "AIBL", "AIBR", "ALA", "AVAL", "AVAR", "AVBL", "AVER", "RID",
    "RIML", "RIMR", "RMED", "RMEL", "RMER", "VB01", "VB02",
]
SHARED_NEURONS_3 = ["AIBR", "AVAL", "VB02"]
