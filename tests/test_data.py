"""Data pipeline tests: normalization, derivative, windows, folds, labels."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wormgnn import data as dp
from wormgnn.data import StateLabel


def make_recording(traces, labels=None, names=None, worm_id="w1"):
    traces = np.asarray(traces, dtype=float)
    n, t = traces.shape
    if names is None:
        names = [f"N{i:02d}" for i in range(n)]
    if labels is None:
        labels = [StateLabel.FORWARD] * t
    derivs = np.apply_along_axis(dp.compute_derivative, 1, traces)
    return dp.WormRecording(
        worm_id=worm_id,
        dataset_tag="test",
        sample_period_s=0.33,
        neuron_names=names,
        traces=traces,
        derivatives=derivs,
        labels=labels,
    )


# -- derivative ---------------------------------------------------------------

def test_derivative_constant_series():
    assert np.array_equal(dp.compute_derivative([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])


def test_derivative_ramp():
    assert np.array_equal(dp.compute_derivative([0.0, 1.0, 2.0, 3.0]), [1.0, 1.0, 1.0, 1.0])


def test_derivative_last_value_repeats():
    assert np.array_equal(dp.compute_derivative([0.0, 2.0, 1.0]), [2.0, -1.0, -1.0])


def test_derivative_too_short():
    with pytest.raises(ValueError, match="2 timesteps"):
        dp.compute_derivative([1.0])


# -- normalization ------------------------------------------------------------

def test_normalize_row():
    rec = make_recording([[2.0, 4.0, 6.0]])
    out = dp.normalize_recording(rec)
    assert np.allclose(out.traces[0], [0.0, 0.5, 1.0])


def test_normalize_constant_row_zeros():
    rec = make_recording([[5.0, 5.0, 5.0]])
    out = dp.normalize_recording(rec)
    assert np.array_equal(out.traces[0], [0.0, 0.0, 0.0])
    assert np.array_equal(out.derivatives[0], [0.0, 0.0, 0.0])


def test_normalize_float_dust_row_is_constant():
    # arange-built ramps have a constant derivative only up to float dust;
    # scaling must not amplify a span of ~1e-17 to full range
    trace = np.arange(50) * 0.01
    deriv = dp.compute_derivative(trace)
    rec = make_recording([deriv.tolist()])
    out = dp.normalize_recording(rec)
    assert np.array_equal(out.traces[0], np.zeros(50))


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    rec = make_recording(rng.normal(size=(4, 50)))
    once = dp.normalize_recording(rec)
    twice = dp.normalize_recording(once)
    assert np.allclose(once.traces, twice.traces)
    assert np.allclose(once.derivatives, twice.derivatives)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=40))
def test_normalize_range_and_extrema_positions(row):
    rec = make_recording([row])
    out = dp.normalize_recording(rec).traces[0]
    assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
    arr = np.asarray(row)
    if arr.max() > arr.min():
        # positions of extrema survive scaling (up to float-rounding ties)
        assert out[np.argmax(arr)] >= out.max() - 1e-9
        assert out[np.argmin(arr)] <= out.min() + 1e-9


# -- selection ----------------------------------------------------------------

def test_select_neurons_order():
    rec = make_recording(np.arange(15 * 4).reshape(15, 4), names=list(dp.SHARED_NEURONS_15))
    out = dp.select_neurons(rec, dp.SHARED_NEURONS_3)
    assert out.neuron_names == ["AIBR", "AVAL", "VB02"]
    assert out.n_neurons == 3
    assert np.array_equal(out.traces[0], rec.traces[rec.neuron_names.index("AIBR")])


def test_select_neurons_exclude():
    rec = make_recording(np.arange(15 * 4).reshape(15, 4), names=list(dp.SHARED_NEURONS_15))
    out = dp.select_neurons(rec, ["AVAL", "AVAR"], exclude=True)
    assert out.n_neurons == 13
    assert "AVAL" not in out.neuron_names and "AVAR" not in out.neuron_names


def test_select_neurons_identity():
    rec = make_recording(np.arange(6).reshape(2, 3), names=["A", "B"])
    out = dp.select_neurons(rec, ["A", "B"])
    assert np.array_equal(out.traces, rec.traces)


def test_select_neurons_missing():
    rec = make_recording(np.arange(6).reshape(2, 3), names=["A", "B"])
    with pytest.raises(ValueError, match="XYZ"):
        dp.select_neurons(rec, ["A", "XYZ"])


# -- label mapping ------------------------------------------------------------

def test_map_labels_full_table():
    table = {
        StateLabel.FORWARD: StateLabel.FORWARD4,
        StateLabel.FORWARD_SLOWING: StateLabel.FORWARD4,
        StateLabel.REVERSE1: StateLabel.REVERSE4,
        StateLabel.REVERSE2: StateLabel.REVERSE4,
        StateLabel.SUSTAINED_REVERSE: StateLabel.REVERSE4,
        StateLabel.DORSAL_TURN: StateLabel.DORSAL_TURN4,
        StateLabel.VENTRAL_TURN: StateLabel.VENTRAL_TURN4,
        StateLabel.UNKNOWN: StateLabel.UNKNOWN,
    }
    fine = list(table)
    assert dp.map_labels(fine) == [table[lab] for lab in fine]


def test_map_labels_rejects_coarse():
    with pytest.raises(ValueError, match="coarse"):
        dp.map_labels([StateLabel.FORWARD4])


def test_map_labels_surjective_on_coarse():
    mapped = set(dp.map_labels(dp.FINE_LABELS + [StateLabel.UNKNOWN]))
    assert mapped == set(dp.COARSE_LABELS) | {StateLabel.UNKNOWN}


def test_label_to_class_binary_masks_turns():
    assert dp.label_to_class(StateLabel.FORWARD, "binary") == 0
    assert dp.label_to_class(StateLabel.SUSTAINED_REVERSE, "binary") == 1
    assert dp.label_to_class(StateLabel.DORSAL_TURN, "binary") is None
    assert dp.label_to_class(StateLabel.UNKNOWN, "binary") is None


# -- windows ------------------------------------------------------------------

def test_windowize_count_3200():
    rec = make_recording(np.random.default_rng(0).normal(size=(2, 3200)))
    starts = dp.windowize(rec, 8, seed=0)
    # oracle: enumeration of non-overlapping starts
    expected = list(range(0, 3200 - 8 + 1, 8))
    assert starts.dtype == np.intp
    assert len(starts) == len(expected) == 400
    assert sorted(starts.tolist()) == expected


def test_windowize_remainder_dropped():
    rec = make_recording(np.random.default_rng(0).normal(size=(2, 10)))
    starts = dp.windowize(rec, 8, seed=5)
    assert starts.tolist() == [0]
    assert rec.features[starts[0] : starts[0] + 8].shape == (8, 2, 2)


def test_windowize_deterministic():
    rec = make_recording(np.random.default_rng(0).normal(size=(2, 160)))
    a = dp.windowize(rec, 8, seed=42)
    b = dp.windowize(rec, 8, seed=42)
    assert a.tolist() == b.tolist()


def test_windowize_window_too_long():
    rec = make_recording(np.random.default_rng(0).normal(size=(2, 6)))
    with pytest.raises(ValueError, match="exceeds"):
        dp.windowize(rec, 8, seed=0)


def test_windows_tile_prefix():
    rec = make_recording(np.random.default_rng(0).normal(size=(3, 43)))
    starts = dp.windowize(rec, 8, seed=1)
    covered = sorted(t for s in starts for t in range(s, s + 8))
    assert covered == list(range((43 // 8) * 8))


def test_window_features_match_channels():
    rec = dp.normalize_recording(make_recording(np.random.default_rng(3).normal(size=(3, 16))))
    assert rec.features.shape == (16, 3, 2)
    assert np.array_equal(rec.features[:, :, 0], rec.traces.T)
    assert np.array_equal(rec.features[:, :, 1], rec.derivatives.T)
    first = min(dp.windowize(rec, 8, seed=0))
    window = rec.features[first : first + 8]
    assert np.array_equal(window[:, :, 0], rec.traces[:, :8].T)
    assert np.array_equal(window[:, :, 1], rec.derivatives[:, :8].T)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(2, 300), w=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       worm_id=st.sampled_from(["w1", "w2"]))
def test_windowize_permutes_window_starts(t, w, seed, worm_id):
    assume(w <= t)
    rec = make_recording(np.zeros((1, t)), worm_id=worm_id)
    starts = dp.windowize(rec, w, seed=seed)
    assert starts.dtype == np.intp
    assert sorted(starts.tolist()) == list(range(0, (t // w) * w, w))
    assert np.array_equal(starts, dp.windowize(rec, w, seed=seed))


# -- folds --------------------------------------------------------------------

def _window_labels(n, labels_cycle):
    """n windows of 8 identical labels, cycling through ``labels_cycle``."""
    return [[labels_cycle[i % len(labels_cycle)]] * 8 for i in range(n)]


def test_majority_label_ties_go_to_smallest_value():
    assert dp.majority_label([StateLabel.REVERSE1] * 3 + [StateLabel.FORWARD]) is StateLabel.REVERSE1
    tie = [StateLabel.REVERSE1, StateLabel.FORWARD, StateLabel.UNKNOWN, StateLabel.FORWARD,
           StateLabel.UNKNOWN, StateLabel.REVERSE1]
    assert dp.majority_label(tie) is StateLabel.FORWARD
    assert dp.majority_label(tie[2:3] + tie[5:]) is StateLabel.REVERSE1


def test_assign_folds_equal_sizes():
    labels = _window_labels(400, [StateLabel.FORWARD, StateLabel.REVERSE1])
    folds = dp.assign_folds(labels, 10, seed=0)
    sizes = np.bincount(folds, minlength=10)
    assert np.array_equal(sizes, np.full(10, 40))


def test_assign_folds_near_equal_sizes():
    labels = _window_labels(43, [StateLabel.FORWARD, StateLabel.REVERSE1, StateLabel.DORSAL_TURN])
    folds = dp.assign_folds(labels, 10, seed=0)
    sizes = np.bincount(folds, minlength=10)
    assert set(sizes) <= {4, 5}


def test_assign_folds_partition():
    labels = _window_labels(37, [StateLabel.FORWARD, StateLabel.REVERSE1])
    folds = dp.assign_folds(labels, 5, seed=3)
    # one fold per window, aligned with the windows
    assert folds.shape == (37,) and folds.dtype == np.intp
    assert set(folds.tolist()) <= set(range(5))


def test_assign_folds_stratified_proportions():
    # 70/30 label mix; per-fold majority-label share within 10 points of global
    labels = _window_labels(200, [StateLabel.FORWARD] * 7 + [StateLabel.REVERSE1] * 3)
    folds = dp.assign_folds(labels, 10, seed=1)
    global_share = 0.7
    for fold in range(10):
        members = [lab for lab, f in zip(labels, folds) if f == fold]
        share = sum(dp.majority_label(lab) is StateLabel.FORWARD for lab in members) / len(members)
        assert abs(share - global_share) <= 0.10


@settings(max_examples=60, deadline=None)
@given(majorities=st.lists(st.sampled_from(dp.FINE_LABELS + [StateLabel.UNKNOWN]),
                           min_size=2, max_size=120),
       k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_assign_folds_near_equal_and_deterministic(majorities, k, seed):
    assume(k <= len(majorities))
    labels = [[lab] * 3 for lab in majorities]
    folds = dp.assign_folds(labels, k, seed=seed)
    assert folds.shape == (len(labels),)
    assert folds.min() >= 0 and folds.max() < k
    sizes = np.bincount(folds, minlength=k)
    assert sizes.max() - sizes.min() <= 1
    assert np.array_equal(folds, dp.assign_folds(labels, k, seed=seed))


# -- permutations -------------------------------------------------------------

def test_worm_permutations_pairs():
    pairs = dp.worm_permutations(["1", "2", "3", "4", "5"], 2)
    assert pairs == [
        ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("2", "3"),
        ("2", "4"), ("2", "5"), ("3", "4"), ("3", "5"), ("4", "5"),
    ]


def test_worm_permutations_full_and_singletons():
    ids = ["a", "b", "c", "d", "e"]
    assert dp.worm_permutations(ids, 5) == [tuple(ids)]
    assert dp.worm_permutations(ids, 1) == [(x,) for x in ids]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_worm_permutations_count(n, r):
    if r > n:
        return
    ids = [f"w{i}" for i in range(n)]
    subsets = dp.worm_permutations(ids, r)
    from math import comb

    assert len(subsets) == comb(n, r)
    assert len(set(subsets)) == len(subsets)


def test_worm_permutations_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        dp.worm_permutations(["a"], 2)


# -- file round-trips ---------------------------------------------------------

def test_recording_roundtrip(tmp_path):
    rec = make_recording(
        np.random.default_rng(0).normal(size=(3, 10)),
        labels=[StateLabel.FORWARD] * 5 + [StateLabel.REVERSE1] * 5,
    )
    path = tmp_path / "rec.json"
    dp.save_recording(rec, path)
    loaded = dp.load_recording(path)
    assert loaded.n_neurons == 3 and loaded.n_timesteps == 10
    assert np.allclose(loaded.traces, rec.traces)
    assert np.allclose(loaded.derivatives, rec.derivatives)
    assert loaded.labels == rec.labels


def test_load_recording_label_length_mismatch(tmp_path):
    payload = {
        "worm_id": "w",
        "dataset_tag": "t",
        "sample_period_s": 0.3,
        "neuron_names": ["A"],
        "traces": [[1.0, 2.0, 3.0]],
        "labels": ["forward", "forward"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(dp.RecordingFormatError, match="length 2 != timestep count 3"):
        dp.load_recording(path)


def test_load_recording_duplicate_neurons(tmp_path):
    payload = {
        "worm_id": "w",
        "dataset_tag": "t",
        "sample_period_s": 0.3,
        "neuron_names": ["A", "A"],
        "traces": [[1.0, 2.0], [3.0, 4.0]],
        "labels": ["forward", "forward"],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(dp.RecordingFormatError, match="duplicate"):
        dp.load_recording(path)


@pytest.mark.parametrize("fieldname,row,bad", [
    ("traces", 0, "NaN"),
    ("traces", 0, "null"),
    ("derivatives", 1, "-Infinity"),
])
def test_load_recording_rejects_non_finite(tmp_path, fieldname, row, bad):
    payload = {
        "worm_id": "w",
        "dataset_tag": "t",
        "sample_period_s": 0.3,
        "neuron_names": ["A", "B"],
        "traces": [[0.1 * t for t in range(8)], [0.2] * 8],
        "derivatives": [[0.1] * 8, [0.0] * 8],
        "labels": ["forward"] * 8,
    }
    payload[fieldname][row][5] = 12345.5  # stands in for a value JSON dumps cannot write
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload).replace("12345.5", bad))
    with pytest.raises(dp.RecordingFormatError, match=re.escape(f"{fieldname}[{row}][5]")):
        dp.load_recording(path)


def test_load_recording_not_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {")
    with pytest.raises(dp.RecordingFormatError, match="JSON"):
        dp.load_recording(path)


EXAMPLE_RECORDING = Path(__file__).resolve().parents[1] / "docs" / "example_recording.json"


@pytest.mark.parametrize("fieldname,value,message", [
    ("sample_period_s", "NaN", "sample_period_s must be a finite number, got 'NaN'"),
    ("sample_period_s", "0.3", "sample_period_s must be a finite number, got '0.3'"),
    ("sample_period_s", True, "sample_period_s must be a finite number, got True"),
    ("sample_period_s", 0, "sample_period_s must be > 0, got 0"),
    ("sample_period_s", -1, "sample_period_s must be > 0, got -1"),
    ("worm_id", ["a"], "worm_id must be a string, got ['a']"),
    ("worm_id", 7, "worm_id must be a string, got 7"),
    ("dataset_tag", None, "dataset_tag must be a string, got None"),
    ("neuron_names", [1, 2, 3], "neuron_names must be a list of strings, got [1, 2, 3]"),
], ids=["period_nan_text", "period_text", "period_bool", "period_zero", "period_negative", "id_list",
        "id_int", "tag_null", "names_ints"])
def test_load_recording_checks_header_types(tmp_path, fieldname, value, message):
    payload = json.loads(EXAMPLE_RECORDING.read_text())
    payload[fieldname] = value
    path = tmp_path / "header.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(dp.RecordingFormatError, match=re.escape(f"{path}: {message}")):
        dp.load_recording(path)


def test_load_recording_reads_an_integer_period_as_a_float(tmp_path):
    payload = json.loads(EXAMPLE_RECORDING.read_text())
    payload["sample_period_s"] = 1
    path = tmp_path / "period.json"
    path.write_text(json.dumps(payload))
    rec = dp.load_recording(path)
    assert type(rec.sample_period_s) is float and rec.sample_period_s == 1.0
    assert rec.worm_id == payload["worm_id"] and rec.neuron_names == payload["neuron_names"]


@pytest.mark.parametrize("fieldname,row,col,value,spelling", [
    ("traces", 0, 2, "1.0", '"1.0"'),
    ("traces", 1, 0, True, "true"),
    ("derivatives", 2, 5, False, "false"),
    ("derivatives", 0, 0, "0", '"0"'),
], ids=["trace_text", "trace_true", "derivative_false", "derivative_text"])
def test_load_recording_rejects_entries_that_are_not_numbers(tmp_path, fieldname, row, col, value, spelling):
    # numpy reads each of these as a number; a later bad entry is not named
    payload = json.loads(EXAMPLE_RECORDING.read_text())
    payload[fieldname][row][col] = value
    payload[fieldname][-1][-1] = "2.0"
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(dp.RecordingFormatError) as caught:
        dp.load_recording(path)
    assert str(caught.value) == f"{path}: {fieldname}[{row}][{col}] is {spelling}, not a number"


def test_load_recording_reads_integer_entries_as_floats(tmp_path):
    payload = json.loads(EXAMPLE_RECORDING.read_text())
    expected = dp.load_recording(EXAMPLE_RECORDING)
    payload["traces"][0][0], payload["derivatives"][1][3] = 1, -2
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(payload))
    rec = dp.load_recording(path)
    assert rec.traces.dtype == rec.derivatives.dtype == np.float64
    assert rec.traces[0, 0] == 1.0 and rec.derivatives[1, 3] == -2.0
    expected.traces[0, 0], expected.derivatives[1, 3] = 1.0, -2.0
    assert rec.traces.tobytes() == expected.traces.tobytes()
    assert rec.derivatives.tobytes() == expected.derivatives.tobytes()


def test_shared_neuron_lists():
    assert len(dp.SHARED_NEURONS_15) == 15
    assert dp.SHARED_NEURONS_15 == sorted(dp.SHARED_NEURONS_15)
    assert set(dp.SHARED_NEURONS_3) <= set(dp.SHARED_NEURONS_15)


def test_connectome_triples(tmp_path):
    path = tmp_path / "conn.txt"
    path.write_text("# comment\nAVAL AVAR 2.0\nRID VB02, 1\n\n")
    triples = dp.load_connectome_triples(path)
    assert triples == [("AVAL", "AVAR", 2.0), ("RID", "VB02", 1.0)]


def test_connectome_negative_weight(tmp_path):
    path = tmp_path / "conn.txt"
    path.write_text("A B -1.0\n")
    with pytest.raises(dp.RecordingFormatError, match=">= 0"):
        dp.load_connectome_triples(path)


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf"])
def test_connectome_non_finite_weight_names_file_and_line(tmp_path, spelling):
    # these would otherwise load, and load_connectome_edges return NaN and inf
    # entries (a NaN row maximum also skips that row's normalization)
    path = tmp_path / "conn.txt"
    path.write_text(f"A B 1.0\nA C {spelling}\n")
    with pytest.raises(dp.RecordingFormatError) as caught:
        dp.load_connectome_triples(path)
    assert str(caught.value) == f"{path}:2: weight must be finite and >= 0, got {spelling}"
