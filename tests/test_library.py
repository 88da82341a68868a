"""Prototype store: retrieval against a brute-force oracle, persistence, inversion."""
import json

import numpy as np
import pytest

from eyerig.channels import (
    AU_SLICE,
    GAZE_SLICE,
    HEAD_SLICE,
    N_CHANNELS,
    ControlSequence,
    channel_index,
    enforce_state_invariants,
)
from eyerig.library import (
    DEFAULT_QUERY_WEIGHTS,
    NeutralBaseline,
    Prototype,
    PrototypeLibrary,
    baseline_from_model,
    build_library,
    invert_controls,
    load_library,
    query,
    save_library,
)
from eyerig.mapper import KeypointSequence, default_model, map_sequence


def make_sequence(rng, frames=5, fps=25.0):
    vals = np.zeros((frames, N_CHANNELS))
    vals[:, AU_SLICE] = rng.uniform(0, 1, (frames, 10))
    vals[:, 14] = rng.uniform(-45, 45, frames)
    vals[:, 15] = rng.uniform(-30, 30, frames)
    vals[:, 16] = rng.uniform(-20, 20, frames)
    return ControlSequence(enforce_state_invariants(vals), fps)


def make_library(rng, n, labels=("a", "b"), frames=5):
    records = []
    for i in range(n):
        seq = make_sequence(rng, frames)
        _, k3 = map_sequence(seq)
        records.append((labels[i % len(labels)], seq, k3))
    return build_library(records)


def oracle_distances(lib, target, weights):
    """Exhaustive weighted-L1 with half-width head normalization."""
    norm = np.ones(N_CHANNELS)
    norm[14], norm[15], norm[16] = 90.0, 60.0, 45.0
    out = []
    for i, p in enumerate(lib.prototypes):
        d = float(np.sum(weights * np.abs(target - p.controls.values.mean(axis=0)) / norm))
        out.append((d, i))
    return out


def test_prototype_length_mismatch_rejected():
    rng = np.random.default_rng(0)
    seq = make_sequence(rng, 5)
    _, k3 = map_sequence(make_sequence(rng, 6))
    with pytest.raises(ValueError, match="disagree"):
        Prototype("x", seq, k3)


def test_prototype_needs_3d_keypoints():
    seq = make_sequence(np.random.default_rng(0), 5)
    k2, _ = map_sequence(seq)
    with pytest.raises(ValueError, match="keypoints must be 3-D, got 2-D"):
        Prototype("x", seq, k2)


def test_query_single_channel_separation():
    # two prototypes at 0.2 and 0.5 on AU1; target 0.25 prefers the first
    fps = 25.0
    records = []
    for value in (0.2, 0.5):
        vals = np.zeros((4, N_CHANNELS))
        vals[:, channel_index("AU1")] = value
        seq = ControlSequence(vals, fps)
        _, k3 = map_sequence(seq)
        records.append(("x", seq, k3))
    lib = build_library(records)
    target = np.zeros(N_CHANNELS)
    target[channel_index("AU1")] = 0.25
    res = query(lib, target, np.ones(N_CHANNELS), k=2)
    assert [r.prototype_id for r in res] == [0, 1]
    assert res[0].distance == pytest.approx(0.05)
    assert res[1].distance == pytest.approx(0.25)


def test_query_tie_breaks_by_ascending_id():
    rng = np.random.default_rng(1)
    seq = make_sequence(rng, 4)
    _, k3 = map_sequence(seq)
    lib = build_library([("x", seq, k3), ("x", seq, k3), ("x", seq, k3)])
    res = query(lib, np.zeros(N_CHANNELS), k=3)
    assert [r.prototype_id for r in res] == [0, 1, 2]


def test_query_zero_weights_rank_by_id():
    rng = np.random.default_rng(2)
    lib = make_library(rng, 6)
    res = query(lib, np.zeros(N_CHANNELS), np.zeros(N_CHANNELS), k=6)
    assert [r.prototype_id for r in res] == [0, 1, 2, 3, 4, 5]


def test_query_label_filter():
    rng = np.random.default_rng(3)
    lib = make_library(rng, 8, labels=("a", "b"))
    res = query(lib, np.zeros(N_CHANNELS), label_filter="b", k=8)
    assert res and all(r.label == "b" for r in res)
    assert query(lib, np.zeros(N_CHANNELS), label_filter="missing", k=2) == []


def test_query_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        lib = make_library(rng, rng.integers(1, 40), labels=("a", "b", "c"))
        target = rng.uniform(0, 1, N_CHANNELS)
        target[HEAD_SLICE] = rng.uniform(-60, 60, 3)
        weights = rng.uniform(0, 2, N_CHANNELS)
        k = int(rng.integers(1, 8))
        expected = sorted(oracle_distances(lib, target, weights))[:k]
        got = query(lib, target, weights, k=k)
        assert [r.prototype_id for r in got] == [i for _, i in expected]
        for r, (d, _) in zip(got, expected):
            assert r.distance == pytest.approx(d, abs=1e-12)


def test_head_channels_normalized_by_half_width():
    # a 9-degree yaw gap counts the same as a 0.1 intensity gap
    fps = 25.0
    records = []
    for yaw, au in ((9.0, 0.0), (0.0, 0.1)):
        vals = np.zeros((3, N_CHANNELS))
        vals[:, channel_index("yaw")] = yaw
        vals[:, channel_index("AU1")] = au
        seq = ControlSequence(vals, fps)
        _, k3 = map_sequence(seq)
        records.append(("x", seq, k3))
    lib = build_library(records)
    res = query(lib, np.zeros(N_CHANNELS), np.ones(N_CHANNELS), k=2)
    assert res[0].distance == pytest.approx(res[1].distance, abs=1e-12)


def test_library_means_match_channel_summary_exactly():
    # retrieval means are each prototype's own mean(axis=0), bit for bit; a
    # segmented np.add.reduceat differs in the last bits and reorders ties
    rng = np.random.default_rng(6)
    protos = []
    for frames in (1, 2, 7, 50, 200, 1, 133):
        seq = make_sequence(rng, frames)
        protos.append(Prototype("x", seq, KeypointSequence(np.zeros((frames, 62, 3)), seq.fps)))
    lib = PrototypeLibrary(tuple(protos))
    want = np.stack([p.controls.values.mean(axis=0) for p in protos])
    np.testing.assert_array_equal(lib._means, want)


def test_library_json_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    lib = make_library(rng, 4, labels=("calm", "alert"))
    path = tmp_path / "lib.json"
    save_library(lib, path)
    back = load_library(path)
    assert len(back) == len(lib)
    for p, q in zip(lib.prototypes, back.prototypes):
        assert p.label == q.label
        np.testing.assert_array_equal(p.controls.values, q.controls.values)
        np.testing.assert_array_equal(p.keypoints.frames, q.keypoints.frames)
        np.testing.assert_array_equal(
            p.controls.values.mean(axis=0), q.controls.values.mean(axis=0)
        )


@pytest.mark.parametrize("n", [0, 1, 3])
def test_library_json_wire_format(tmp_path, n):
    lib = make_library(np.random.default_rng(n), n, labels=("calm", "alert"), frames=4)
    path = tmp_path / "lib.json"
    save_library(lib, path)
    payload = {
        "version": 1,
        "prototypes": [
            {
                "label": p.label,
                "fps": p.controls.fps,
                "controls": [[float(v) for v in row] for row in p.controls.values],
                "keypoints": [[[float(c) for c in pt] for pt in f] for f in p.keypoints.frames],
            }
            for p in lib.prototypes
        ],
    }
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()


def test_library_version_mismatch(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text('{"version": 99, "prototypes": []}')
    with pytest.raises(ValueError, match="version"):
        load_library(path)


def test_library_malformed(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_library(path)


def test_library_with_2d_keypoints_names_file(tmp_path):
    path = tmp_path / "lib.json"
    entry = {"label": "x", "fps": 25.0, "controls": [[0.0] * 17], "keypoints": [[[0.5, 0.5]] * 62]}
    path.write_text(json.dumps({"version": 1, "prototypes": [entry]}))
    with pytest.raises(ValueError, match=r"lib\.json: prototype 'x': keypoints must be 3-D"):
        load_library(path)


def test_baseline_symmetry_enforced():
    pts = default_model().template.copy()
    pts[0, 0] += 0.01
    with pytest.raises(ValueError, match="symmetric"):
        NeutralBaseline(pts)


def test_invert_neutral_is_zero():
    m = default_model()
    k3 = KeypointSequence(m.template[None, :, :], 25.0)
    rec = invert_controls(k3, baseline_from_model(m), m)
    np.testing.assert_allclose(rec.values, 0.0, atol=1e-9)


def test_invert_pure_rotation():
    m = default_model()
    vals = np.zeros((1, N_CHANNELS))
    vals[0, 14:] = (30.0, -20.0, 10.0)
    _, k3 = map_sequence(ControlSequence(vals, 25.0), m)
    rec = invert_controls(k3, baseline_from_model(m), m)
    np.testing.assert_allclose(rec.values, vals, atol=1e-9)


def test_invert_round_trip_random_states():
    m = default_model()
    rng = np.random.default_rng(6)
    vals = np.zeros((60, N_CHANNELS))
    vals[:, AU_SLICE] = rng.uniform(0, 1, (60, 10))
    g = rng.uniform(0, 1, (60, 4))
    g[:, 1] = 0.0  # keep opposition satisfied
    g[:, 3] = 0.0
    vals[:, GAZE_SLICE] = g
    vals[:, 14] = rng.uniform(-90, 90, 60)
    vals[:, 15] = rng.uniform(-60, 60, 60)
    vals[:, 16] = rng.uniform(-45, 45, 60)
    vals = enforce_state_invariants(vals)
    seq = ControlSequence(vals, 25.0)
    _, k3 = map_sequence(seq, m)
    rec = invert_controls(k3, baseline_from_model(m), m)
    assert np.max(np.abs(rec.values - seq.values)) <= 1e-3


def test_invert_degenerate_frame_errors():
    m = default_model()
    frames = np.zeros((1, 62, 3))
    with pytest.raises(ValueError, match="frame 1"):
        invert_controls(KeypointSequence(frames, 25.0), baseline_from_model(m), m)
