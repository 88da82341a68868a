"""Deformation model: layout, rotation convention, projection, mirror symmetry."""
import json

import numpy as np
import pytest

from eyerig.channels import (
    AU_SLICE,
    GAZE_SLICE,
    HEAD_SLICE,
    N_CHANNELS,
    channel_index,
    enforce_state_invariants,
)
from eyerig.mapper import (
    GAZE_POINT_INDICES,
    KEYPOINT_LAYOUT,
    LEFT_BROW,
    LEFT_PUPIL,
    LEFT_UPPER_LID,
    MIRROR_PERMUTATION,
    N_POINTS,
    RIGHT_BROW,
    RIGHT_PUPIL,
    DeformationModel,
    KeypointSequence,
    _KEYPOINT_BLOCK_FRAMES,
    default_model,
    euler_from_rotation,
    load_keypoints_json,
    map_sequence,
    mirror_points,
    rotation_matrix,
    save_keypoints_json,
)
from eyerig.channels import ControlSequence
from wire import mirror_control_vector, paths_params, use_encoder_path, with_edges


def state(**channels):
    v = np.zeros(N_CHANNELS)
    for name, value in channels.items():
        v[channel_index(name)] = value
    return v


def map_one(vec, model=None):
    """(62, 2) projected and (62, 3) rotated points of one (17,) control vector."""
    k2, k3 = map_sequence(ControlSequence(np.asarray(vec)[None], 25.0), model)
    return k2.frames[0], k3.frames[0]


def deform(vec, model):
    """Template plus AU and gaze displacements of one (17,) vector, before any rigid motion."""
    disp = np.tensordot(vec[AU_SLICE], model.au_bases, axes=1)
    disp += np.tensordot(vec[GAZE_SLICE], model.gaze_bases, axes=1)
    return model.template + disp


def test_layout_block_sizes():
    assert N_POINTS == 62
    assert len(LEFT_UPPER_LID) == 8 and len(LEFT_BROW) == 10
    assert len(GAZE_POINT_INDICES) == 10  # 4 iris + pupil per eye
    # permutation is an involution touching every point
    assert np.array_equal(MIRROR_PERMUTATION[MIRROR_PERMUTATION], np.arange(N_POINTS))


def test_template_bilateral_symmetry():
    tmpl = default_model().template
    assert np.max(np.abs(tmpl - mirror_points(tmpl))) < 1e-6


def test_rotation_yaw_90_maps_z_to_x():
    # pinned convention: yaw about the vertical axis
    np.testing.assert_allclose(rotation_matrix(90, 0, 0) @ [0, 0, 1], [1, 0, 0], atol=1e-12)


def test_rotation_roll_90_maps_x_to_y():
    np.testing.assert_allclose(rotation_matrix(0, 0, 90) @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_rotation_positive_pitch_raises_face():
    out = rotation_matrix(0, 30, 0) @ [0, 0, 1]
    assert out[1] > 0  # forward axis tips upward


def test_rotation_orthonormal():
    rng = np.random.default_rng(2)
    for _ in range(50):
        R = rotation_matrix(*rng.uniform(-90, 90, 3))
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)


def test_euler_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(200):
        y = rng.uniform(-90, 90)
        p = rng.uniform(-60, 60)
        r = rng.uniform(-45, 45)
        ye, pe, re = euler_from_rotation(rotation_matrix(y, p, r))
        assert max(abs(ye - y), abs(pe - p), abs(re - r)) < 1e-9


def test_au_bases_zero_outside_subsets():
    m = default_model()
    # AU2_L touches only the left brow
    b = m.au_bases[channel_index("AU2_L")]
    touched = np.where(np.abs(b).sum(axis=1) > 0)[0]
    assert set(touched) <= set(LEFT_BROW)
    # AU43_R never reaches the left side or any brow
    b = m.au_bases[channel_index("AU43_R")]
    touched = set(np.where(np.abs(b).sum(axis=1) > 0)[0])
    assert touched and all(21 <= i <= 36 for i in touched)


def test_gaze_bases_only_iris_pupil():
    m = default_model()
    for g in m.gaze_bases:
        touched = set(np.where(np.abs(g).sum(axis=1) > 0)[0])
        assert touched == set(GAZE_POINT_INDICES)


def test_au_bases_mirror_pairs():
    m = default_model()
    for name_l, name_r in (("AU2_L", "AU2_R"), ("AU4_L", "AU4_R"), ("AU5_L", "AU5_R"), ("AU43_L", "AU43_R")):
        bl = m.au_bases[channel_index(name_l)]
        br = m.au_bases[channel_index(name_r)]
        assert np.max(np.abs(br - mirror_points(bl))) < 1e-12


def test_neutral_maps_to_projected_template():
    m = default_model()
    frame, rotated = map_one(state(), m)
    np.testing.assert_allclose(rotated, m.template, atol=1e-15)
    # projection: u = 0.5 + x, v = 0.5 - y at unit scale
    np.testing.assert_allclose(frame[:, 0], 0.5 + m.template[:, 0])
    np.testing.assert_allclose(frame[:, 1], 0.5 - m.template[:, 1])


def test_au43_closes_lid_downward():
    m = default_model()
    closed, _ = map_one(state(AU43_L=1.0), m)
    open_, _ = map_one(state(), m)
    mid = LEFT_UPPER_LID[3]
    # image y grows downward, so a dropping lid increases v
    assert closed[mid, 1] > open_[mid, 1]


def test_gaze_left_moves_pupils_left_in_image():
    m = default_model()
    shifted, _ = map_one(state(gaze_left=1.0), m)
    rest, _ = map_one(state(), m)
    for p in (LEFT_PUPIL, RIGHT_PUPIL):
        assert shifted[p, 0] < rest[p, 0]
    # lids do not move with gaze
    np.testing.assert_array_equal(shifted[list(LEFT_UPPER_LID)], rest[list(LEFT_UPPER_LID)])


def test_mirror_equivariance():
    # mirrored controls on a mirrored template give mirrored keypoints
    m = default_model()
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = np.zeros(N_CHANNELS)
        v[:10] = rng.uniform(0, 0.5, 10)
        v[10] = rng.uniform(0, 1)  # gaze_left only; opposition holds either way
        v[12] = rng.uniform(0, 1)
        v[14:] = rng.uniform(-30, 30, 3)
        _, p3d = map_one(v, m)
        _, p3d_m = map_one(mirror_control_vector(v), m)
        assert np.max(np.abs(p3d_m - mirror_points(p3d))) < 1e-6


def test_projection_scale_monotone_about_principal_point():
    m = default_model()
    m2 = DeformationModel(m.template, m.au_bases, m.gaze_bases, scale=2.0)
    f1, _ = map_one(state(), m)
    f2, _ = map_one(state(), m2)
    np.testing.assert_allclose(f2 - 0.5, 2.0 * (f1 - 0.5), atol=1e-12)


def test_map_sequence_rejects_invalid_frame():
    with pytest.raises(ValueError, match="frame 1: invalid control state: opposing gaze"):
        map_one(state(gaze_left=0.5, gaze_right=0.5))


def test_map_sequence_shapes_and_fps():
    seq = ControlSequence(np.zeros((6, N_CHANNELS)), 30.0)
    k2, k3 = map_sequence(seq)
    assert k2.frames.shape == (6, N_POINTS, 2)
    assert k3.frames.shape == (6, N_POINTS, 3)
    assert k2.fps == 30.0 and k3.fps == 30.0


def test_map_sequence_matches_per_frame_composition():
    m = default_model()
    rng = np.random.default_rng(29)
    n = 300
    t = np.arange(n) / 25.0
    v = np.zeros((n, N_CHANNELS))
    v[:, AU_SLICE] = rng.uniform(0, 1, (n, 10))
    v[:, GAZE_SLICE] = rng.uniform(0, 1, (n, 4))
    v[:, 14] = 60 * np.sin(0.7 * t) + rng.normal(0, 2, n)
    v[:, 15] = 35 * np.sin(1.3 * t + 1) + rng.normal(0, 2, n)
    v[:, 16] = 25 * np.cos(0.9 * t) + rng.normal(0, 2, n)
    v = enforce_state_invariants(v)
    k2, k3 = map_sequence(ControlSequence(v, 25.0), m)
    c = m.centroid
    ppx, ppy = m.principal_point
    for i in range(n):
        rotated = (deform(v[i], m) - c) @ rotation_matrix(*map(float, v[i, HEAD_SLICE])).T + c
        projected = np.stack([ppx + m.scale * rotated[:, 0], ppy - m.scale * rotated[:, 1]], axis=1)
        assert np.array_equal(k3.frames[i], rotated), i
        assert np.array_equal(k2.frames[i], projected), i


def test_map_sequence_with_holds_matches_per_frame_composition_bit_for_bit():
    # long holds, a return to an earlier pose, and two frames that differ only
    # in the sign of a zero yaw: runs are found by bits and mapped once
    m = default_model()
    rng = np.random.default_rng(31)
    poses = enforce_state_invariants(rng.uniform(0, 0.6, (4, N_CHANNELS)))
    poses[:, HEAD_SLICE] = rng.uniform(-20, 20, (4, 3))
    poses[1, 14] = 0.0
    signed = poses[1].copy()
    signed[14] = -0.0
    v = np.array([poses[0]] * 40 + [poses[1]] * 25 + [signed] * 30 + [poses[2], poses[3]]
                 + [poses[0]] * 60 + [signed])
    k2, k3 = map_sequence(ControlSequence(v, 25.0), m)
    c = m.centroid
    ppx, ppy = m.principal_point
    for i in range(len(v)):
        rotated = (deform(v[i], m) - c) @ rotation_matrix(*map(float, v[i, HEAD_SLICE])).T + c
        projected = np.stack([ppx + m.scale * rotated[:, 0], ppy - m.scale * rotated[:, 1]], axis=1)
        assert k3.frames[i].tobytes() == rotated.tobytes(), i
        assert k2.frames[i].tobytes() == projected.tobytes(), i


def test_keypoints_stay_normalized_under_legal_poses():
    m = default_model()
    rng = np.random.default_rng(13)
    for _ in range(30):
        v = np.zeros(N_CHANNELS)
        v[14] = rng.uniform(-90, 90)
        v[15] = rng.uniform(-60, 60)
        v[16] = rng.uniform(-45, 45)
        frame, _ = map_one(v, m)
        assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_keypoint_json_round_trip_2d(tmp_path):
    seq = ControlSequence(np.zeros((3, N_CHANNELS)), 25.0)
    k2, k3 = map_sequence(seq)
    path = tmp_path / "kp.json"
    save_keypoints_json(k2, path)
    back = load_keypoints_json(path, dims=2)
    assert isinstance(back, KeypointSequence)
    np.testing.assert_array_equal(back.frames, k2.frames)
    assert back.fps == 25.0
    assert KEYPOINT_LAYOUT in path.read_text()


def test_keypoint_json_round_trip_3d(tmp_path):
    seq = ControlSequence(np.zeros((2, N_CHANNELS)), 25.0)
    _, k3 = map_sequence(seq)
    path = tmp_path / "kp3.json"
    save_keypoints_json(k3, path)
    back = load_keypoints_json(path, dims=3)
    assert back.frames.shape == (2, N_POINTS, 3)
    np.testing.assert_array_equal(back.frames, k3.frames)


_WIRE_CASES = [(n, dims) for n in (1, _KEYPOINT_BLOCK_FRAMES, _KEYPOINT_BLOCK_FRAMES + 1) for dims in (2, 3)]


@pytest.mark.parametrize(
    "n, dims, encoder", paths_params(_WIRE_CASES, [f"{n}-{dims}" for n, dims in _WIRE_CASES])
)
def test_keypoint_json_wire_format(tmp_path, monkeypatch, n, dims, encoder):
    use_encoder_path(monkeypatch, encoder)
    frames = with_edges(np.random.default_rng(n).normal(0.5, 0.2, (n, N_POINTS, dims)))
    # the same edges again in the last frame, so the last block holds them too
    frames[-1] = with_edges(frames[-1])
    seq = KeypointSequence(frames, 30.0)
    path = tmp_path / "kp.json"
    save_keypoints_json(seq, path)
    payload = {
        "fps": 30.0,
        "layout": KEYPOINT_LAYOUT,
        "frames": [[[float(c) for c in pt] for pt in f] for f in frames],
    }
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()


def test_keypoint_json_bad_layout(tmp_path):
    path = tmp_path / "kp.json"
    path.write_text('{"fps": 25, "layout": "other-64", "frames": []}')
    with pytest.raises(ValueError, match="layout"):
        load_keypoints_json(path, dims=2)


@pytest.mark.parametrize(
    "frames", [[[[0.5, 0.5]] * N_POINTS, [[0.5, 0.5]] * 5], [[["a", 0.5]] * N_POINTS]]
)
def test_keypoint_json_malformed_frames_name_file(tmp_path, frames):
    path = tmp_path / "rag.json"
    path.write_text(json.dumps({"fps": 25.0, "layout": KEYPOINT_LAYOUT, "frames": frames}))
    with pytest.raises(ValueError, match=r"rag\.json: (setting an array element|could not convert)"):
        load_keypoints_json(path, dims=2)


@pytest.mark.parametrize("dims, found", [(2, 3), (3, 2)])
def test_keypoint_json_wrong_dims_names_file_and_dims(tmp_path, dims, found):
    path = tmp_path / "kp.json"
    save_keypoints_json(KeypointSequence(np.zeros((2, N_POINTS, found)), 25.0), path)
    with pytest.raises(ValueError, match=f"kp.json: needs {dims}-D keypoints, found {found}-D"):
        load_keypoints_json(path, dims=dims)


@pytest.mark.parametrize("shape", [(0, N_POINTS, 2), (2, N_POINTS, 4), (2, 61, 2), (N_POINTS, 2)])
def test_keypoint_sequence_rejects_bad_shapes(shape):
    with pytest.raises(ValueError, match="keypoint sequence must have shape"):
        KeypointSequence(np.zeros(shape), 25.0)


@pytest.mark.parametrize("fps", [True, float("inf"), float("nan"), "25", 0, -1.0, None])
@pytest.mark.parametrize("make", ["controls", "keypoints"])
def test_sequences_refuse_fps_that_is_not_a_finite_positive_number(make, fps):
    with pytest.raises(ValueError, match="fps must be a finite positive number"):
        if make == "controls":
            ControlSequence(np.zeros((1, N_CHANNELS)), fps)
        else:
            KeypointSequence(np.zeros((1, N_POINTS, 3)), fps)


def test_euler_stack_matches_per_matrix():
    rng = np.random.default_rng(8)
    angles = rng.uniform((-90, -60, -45), (90, 60, 45), (2, 25, 3))
    R = rotation_matrix(*np.moveaxis(angles, -1, 0))
    stacked = euler_from_rotation(R)
    assert [a.shape for a in stacked] == [(2, 25)] * 3
    for i in np.ndindex(2, 25):
        assert np.array_equal([a[i] for a in stacked], euler_from_rotation(R[i]))
    single = euler_from_rotation(R[0, 0])
    assert len(single) == 3 and all(np.ndim(a) == 0 for a in single)


def test_euler_rejects_non_3x3():
    with pytest.raises(ValueError, match="3x3"):
        euler_from_rotation(np.eye(4))
    with pytest.raises(ValueError, match="3x3"):
        euler_from_rotation(np.ones(3))
