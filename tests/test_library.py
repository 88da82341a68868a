"""Prototype store: retrieval against a brute-force oracle, persistence, inversion."""
import json
from dataclasses import replace

import numpy as np
import pytest

import eyerig.library as library
from eyerig import build_demo_library, compose, plan, refine
from eyerig.channels import (
    AU_SLICE,
    GAZE_NAMES,
    GAZE_SLICE,
    HEAD_SLICE,
    N_AU,
    N_CHANNELS,
    N_GAZE,
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
from eyerig.mapper import KeypointSequence, default_model, euler_from_rotation, map_sequence
from wire import paths_params, use_encoder_path, with_edges


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


def without_keypoints(lib, drop=lambda i: True):
    """The same library with the keypoints of every prototype i where drop(i) removed."""
    return PrototypeLibrary(
        tuple(replace(p, keypoints=None) if drop(i) else p for i, p in enumerate(lib.prototypes))
    )


def test_library_json_round_trip_bit_exact(tmp_path):
    # odd prototypes are controls-only, so one file holds both kinds of entry
    rng = np.random.default_rng(5)
    lib = without_keypoints(make_library(rng, 4, labels=("calm", "alert")), lambda i: i % 2)
    path = tmp_path / "lib.json"
    save_library(lib, path)
    back = load_library(path)
    assert len(back) == len(lib)
    for i, (p, q) in enumerate(zip(lib.prototypes, back.prototypes)):
        assert p.label == q.label
        np.testing.assert_array_equal(p.controls.values, q.controls.values)
        if i % 2:
            assert p.keypoints is None and q.keypoints is None
        else:
            np.testing.assert_array_equal(p.keypoints.frames, q.keypoints.frames)
        np.testing.assert_array_equal(
            p.controls.values.mean(axis=0), q.controls.values.mean(axis=0)
        )
    again = tmp_path / "again.json"
    save_library(back, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "n, keypoints, encoder",
    paths_params(
        [(0, True), (1, True), (3, True), (1, False), (3, False)],
        ["0", "1", "3", "1-controls-only", "3-controls-only"],
    ),
)
def test_library_json_wire_format(tmp_path, monkeypatch, n, keypoints, encoder):
    use_encoder_path(monkeypatch, encoder)
    lib = make_library(np.random.default_rng(n), n, labels=("calm", "alert"), frames=4)
    lib = PrototypeLibrary(tuple(
        replace(p, controls=ControlSequence(with_edges(p.controls.values), p.controls.fps),
                keypoints=KeypointSequence(with_edges(p.keypoints.frames), p.keypoints.fps))
        for p in lib.prototypes
    ))
    if not keypoints:
        lib = without_keypoints(lib)
    path = tmp_path / "lib.json"
    save_library(lib, path)

    def entry(p):
        out = {
            "label": p.label,
            "fps": p.controls.fps,
            "controls": [[float(v) for v in row] for row in p.controls.values],
        }
        if keypoints:
            out["keypoints"] = [[[float(c) for c in pt] for pt in f] for f in p.keypoints.frames]
        return out

    payload = {"version": 1, "prototypes": [entry(p) for p in lib.prototypes]}
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()


def test_build_library_takes_records_with_or_without_keypoints():
    seq = make_sequence(np.random.default_rng(2))
    lib = build_library([("a", seq), ("b", seq, map_sequence(seq)[1])])
    assert lib.prototypes[0].keypoints is None
    assert len(lib.prototypes[1].keypoints) == len(seq)


_ENTRY = {"label": "x", "fps": 25.0, "controls": [[0.0] * 17]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"version": True, "prototypes": []}, r"unsupported library version True in \S*lib\.json"),
        ({"version": 1.0, "prototypes": []}, r"unsupported library version 1\.0 in \S*lib\.json"),
        ({"version": 1, "prototypes": [{**_ENTRY, "fps": "1e999"}]}, "got inf"),
        ({"version": 1, "prototypes": [{**_ENTRY, "fps": True}]}, "got True"),
        ({"version": 1, "prototypes": [{**_ENTRY, "fps": "25"}]}, "got '25'"),
        ({"version": 1, "prototypes": [{**_ENTRY, "fps": 0}]}, "got 0"),
        ({"version": 1, "prototypes": [{**_ENTRY, "label": ["a"]}]}, r"got \['a'\]"),
        ({"version": 1, "prototypes": [{**_ENTRY, "label": 5}]}, "got 5"),
        ({"version": 1, "prototypes": [{**_ENTRY, "label": ""}]}, "got ''"),
    ],
    ids=[
        "version-true", "version-float", "fps-inf", "fps-true", "fps-string", "fps-zero",
        "label-list", "label-int", "label-empty",
    ],
)
def test_library_malformed_values_name_file_and_entry(tmp_path, payload, message):
    path = tmp_path / "lib.json"
    # "1e999" is written bare, so the JSON parser reads it as inf
    path.write_text(json.dumps(payload).replace('"1e999"', "1e999"))
    if payload["prototypes"]:
        message = r"\S*lib\.json: prototypes\[0\]: .*" + message
    with pytest.raises(ValueError, match=message):
        load_library(path)


def test_library_version_mismatch(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text('{"version": 99, "prototypes": []}')
    with pytest.raises(ValueError, match="version"):
        load_library(path)


def test_library_malformed(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match=r"lib\.json: not valid JSON"):
        load_library(path)


def test_library_with_2d_keypoints_names_file(tmp_path):
    path = tmp_path / "lib.json"
    entry = {"label": "x", "fps": 25.0, "controls": [[0.0] * 17], "keypoints": [[[0.5, 0.5]] * 62]}
    path.write_text(json.dumps({"version": 1, "prototypes": [entry]}))
    with pytest.raises(ValueError, match=r"lib\.json: prototypes\[0\]: prototype 'x': keypoints must be 3-D"):
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


def rotation_states():
    """One frame of pure head rotation."""
    vals = np.zeros((1, N_CHANNELS))
    vals[0, 14:] = (30.0, -20.0, 10.0)
    return ControlSequence(vals, 25.0)


def test_invert_pure_rotation():
    m = default_model()
    seq = rotation_states()
    _, k3 = map_sequence(seq, m)
    rec = invert_controls(k3, baseline_from_model(m), m)
    np.testing.assert_allclose(rec.values, seq.values, atol=1e-9)


def random_states():
    """60 legal control states over the whole head range, gaze opposition kept."""
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
    return ControlSequence(enforce_state_invariants(vals), 25.0)


def test_invert_round_trip_random_states():
    m = default_model()
    seq = random_states()
    _, k3 = map_sequence(seq, m)
    rec = invert_controls(k3, baseline_from_model(m), m)
    assert np.max(np.abs(rec.values - seq.values)) <= 1e-3


def test_invert_degenerate_frame_errors():
    m = default_model()
    frames = np.zeros((1, 62, 3))
    with pytest.raises(ValueError, match="frame 1"):
        invert_controls(KeypointSequence(frames, 25.0), baseline_from_model(m), m)


def test_invert_2d_keypoints_rejected():
    k2, _ = map_sequence(ControlSequence(np.zeros((2, N_CHANNELS)), 25.0))
    with pytest.raises(ValueError, match="needs 3-D keypoints, got 2-D"):
        invert_controls(k2, baseline_from_model())


def test_kabsch_stack_matches_per_pair():
    rng = np.random.default_rng(7)
    source = rng.normal(size=(9, 40, 3))
    target = rng.normal(size=(9, 40, 3))
    target[::2] = -target[::2]  # reflections: the det sign flips the last axis
    stacked = library._kabsch(source, target)
    assert stacked.shape == (9, 3, 3)
    assert np.array_equal(stacked, [library._kabsch(s, t) for s, t in zip(source, target)])
    shared = library._kabsch(source[0], target)  # one source broadcast over the stack
    assert np.array_equal(shared, [library._kabsch(source[0], t) for t in target])


def invert_loop(keypoints, baseline, model=None, max_iter=200, tol=1e-12):
    """The frame-by-frame inversion: the reference the batched one must equal
    bit for bit, with the same NNLS calls."""
    model = model or default_model()
    base = baseline.points
    c = base.mean(axis=0)
    base_c = base - c

    A = model.au_bases[:, library._SHAPE_IDS, :].reshape(N_AU, -1).T
    Q, Rqr = np.linalg.qr(A)
    pinv = np.linalg.pinv(A)
    gaze_step = np.array(
        [model.gaze_bases[i, library._GAZE_IDS, :].mean(axis=0) for i in range(N_GAZE)]
    )
    h_step = abs(gaze_step[GAZE_NAMES.index("gaze_right"), 0])
    v_step = abs(gaze_step[GAZE_NAMES.index("gaze_up"), 1])

    anchors = library._anchor_points(model)
    out = np.zeros((len(keypoints), N_CHANNELS))
    for t in range(len(keypoints)):
        obs = keypoints.frames[t]
        obs_c = obs - c
        if np.linalg.norm(obs_c - obs_c.mean(axis=0), ord="fro") < 1e-9:
            raise ValueError(f"frame {t + 1}: degenerate keypoint configuration")
        vec = np.zeros(N_CHANNELS)
        if anchors.size:
            R = library._kabsch(base_c[anchors], obs_c[anchors])
        else:
            R = library._kabsch(base_c, obs_c)
        converged = False
        for _ in range(max_iter):
            derot = obs_c @ R + c
            residual = derot - base
            b = residual[library._SHAPE_IDS].reshape(-1)
            au = pinv @ b
            if np.any(au < 0.0):
                au, _ = library.nnls(Rqr, Q.T @ b)
            au = np.clip(au, 0.0, 1.0)
            g = residual[library._GAZE_IDS].mean(axis=0)
            gaze = np.clip(
                [
                    max(-g[0], 0.0) / h_step,
                    max(g[0], 0.0) / h_step,
                    max(g[1], 0.0) / v_step,
                    max(-g[1], 0.0) / v_step,
                ],
                0.0,
                1.0,
            )
            yaw, pitch, roll = euler_from_rotation(R)
            new_vec = np.concatenate([au, gaze, [yaw, pitch, roll]])
            if np.max(np.abs(new_vec - vec)) < tol:
                vec = new_vec
                converged = True
                break
            vec = new_vec
            disp = np.tensordot(au, model.au_bases, axes=1)
            disp += np.tensordot(gaze, model.gaze_bases, axes=1)
            R = library._kabsch(base_c + disp, obs_c)
        if not converged:
            raise ValueError(f"frame {t + 1}: control inversion did not converge")
        out[t] = vec
    return ControlSequence(out, keypoints.fps)


@pytest.fixture
def nnls_calls(monkeypatch):
    """Counts calls to the NNLS solver as eyerig.library looks it up."""
    calls = [0]
    solver = library.nnls

    def counted(*args):
        calls[0] += 1
        return solver(*args)

    monkeypatch.setattr(library, "nnls", counted)
    return calls


def assert_matches_loop(k3, nnls_calls):
    m = default_model()
    base = baseline_from_model(m)
    want = invert_loop(k3, base, m)
    loop_calls, nnls_calls[0] = nnls_calls[0], 0
    got = invert_controls(k3, base, m)
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()  # signed zeros too, as the file writes them
    assert nnls_calls[0] == loop_calls
    return loop_calls


def test_invert_equals_loop_neutral(nnls_calls):
    assert_matches_loop(KeypointSequence(default_model().template[None, :, :], 25.0), nnls_calls)


@pytest.mark.parametrize("states", [rotation_states, random_states])
def test_invert_equals_loop_mapped(states, nnls_calls):
    assert_matches_loop(map_sequence(states())[1], nnls_calls)


def test_invert_equals_loop_compiled_trace(nnls_calls):
    # a 200-frame compile whose lid/brow least squares goes negative on some
    # frames and not on others: fewer NNLS calls than frames, but some
    lib = build_demo_library(25.0)
    instructions = "raise your eyebrows"
    p = plan("disgust", 200, 25.0, instructions=instructions)
    seq = refine(compose(p, lib, sample_k=1, seed=0), p, lib=lib, instructions=instructions).sequence
    calls = assert_matches_loop(map_sequence(seq)[1], nnls_calls)
    assert 0 < calls < len(seq)


def test_invert_equals_loop_all_point_seed(monkeypatch, nnls_calls):
    monkeypatch.setattr(library, "_anchor_points", lambda model: np.empty(0, dtype=np.intp))
    assert_matches_loop(map_sequence(random_states())[1], nnls_calls)


def test_invert_degenerate_frames_checked_before_iterating():
    m = default_model()
    frames = map_sequence(random_states())[1].frames[:5].copy()
    frames[2] = 0.0
    k3 = KeypointSequence(frames, 25.0)
    # frame 1 cannot converge in one iteration, but frame 3 is named first
    with pytest.raises(ValueError, match=r"^frame 3: degenerate"):
        invert_controls(k3, baseline_from_model(m), m, max_iter=1)


def test_invert_non_convergence_names_lowest_frame():
    m = default_model()
    moved = map_sequence(random_states())[1].frames
    frames = np.stack([m.template, m.template, moved[0], m.template, moved[1]])
    k3 = KeypointSequence(frames, 25.0)
    base = baseline_from_model(m)
    # neutral frames converge in one iteration; frames 3 and 5 do not
    with pytest.raises(ValueError, match=r"^frame 3: control inversion did not converge"):
        invert_loop(k3, base, m, max_iter=1)
    with pytest.raises(ValueError, match=r"^frame 3: control inversion did not converge"):
        invert_controls(k3, base, m, max_iter=1)
