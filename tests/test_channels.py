"""Control-space invariants, validation rules, resampling, and CSV round trips."""
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from eyerig.channels import (
    AU_NAMES,
    AU_SLICE,
    CHANNEL_NAMES,
    CHANNEL_RANGES,
    DIRECTIONS,
    GAZE_SLICE,
    HEAD_NAMES,
    N_CHANNELS,
    CSV_HEADER,
    ControlSequence,
    _dumps_floats,
    channel_index,
    enforce_state_invariants,
    load_controls_csv,
    mirror_control_vector,
    opposing_gaze,
    resample_sequence,
    save_controls_csv,
    validate_control_state,
    validate_sequence,
)
from eyerig.library import build_library, load_library, save_library
from eyerig.mapper import map_sequence
from eyerig.objectives import KtoExample, KtoManifest, load_kto_manifest, save_kto_manifest
from eyerig.planner import load_template_table
from wire import EDGE_VALUES, ORJSON_PATHS, use_encoder_path, with_edges


def vec(**channels):
    v = np.zeros(N_CHANNELS)
    for name, value in channels.items():
        v[channel_index(name)] = value
    return v


def test_channel_roster_order():
    assert CHANNEL_NAMES[:10] == AU_NAMES
    assert CHANNEL_NAMES[10:14] == ("gaze_left", "gaze_right", "gaze_up", "gaze_down")
    assert CHANNEL_NAMES[14:] == ("yaw", "pitch", "roll")
    assert len(CHANNEL_NAMES) == 17


def test_zero_state_is_valid():
    assert validate_control_state(np.zeros(N_CHANNELS)).ok


def test_au_range_violation_detected():
    report = validate_control_state(vec(AU1=1.2))
    assert not report.ok
    assert [v.rule for v in report.violations] == ["au_range"]
    assert report.violations[0].channel == "AU1"


def test_head_range_violation_detected():
    report = validate_control_state(vec(pitch=-75.0))
    assert [v.rule for v in report.violations] == ["head_range"]


def test_opposing_gaze_rejected():
    # both horizontal gaze channels active on one frame is non-physical
    report = validate_control_state(vec(gaze_left=0.3, gaze_right=0.2))
    assert [v.rule for v in report.violations] == ["gaze_opposition"]


def test_single_gaze_direction_fine():
    assert validate_control_state(vec(gaze_left=0.9)).ok


def test_lid_conflict_rejected():
    report = validate_control_state(vec(AU5_L=0.6, AU43_L=0.7))
    assert [v.rule for v in report.violations] == ["lid_conflict"]
    # at the limit is allowed
    assert validate_control_state(vec(AU5_L=0.5, AU43_L=0.9)).ok


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.zeros(N_CHANNELS - 1), "shape"),
        (np.zeros((1, N_CHANNELS)), "shape"),
        (vec(AU1=np.nan), "non-finite"),
    ],
)
def test_validate_control_state_rejects_malformed_vector(bad, match):
    with pytest.raises(ValueError, match=match):
        validate_control_state(bad)


def test_validate_control_state_matches_validate_sequence():
    rng = np.random.default_rng(31)
    raw = rng.uniform(-1, 2, (40, N_CHANNELS))
    whole = validate_sequence(ControlSequence(raw, 25.0)).violations
    per_frame = [v for t in range(40) for v in validate_control_state(raw[t], frame=t + 1).violations]
    assert whole and per_frame == whole


def test_validate_sequence_reports_frame_numbers():
    values = np.zeros((3, N_CHANNELS))
    values[1] = vec(gaze_up=0.4, gaze_down=0.4)
    report = validate_sequence(ControlSequence(values, 25.0))
    assert [v.frame for v in report.violations] == [2]

    # every rule, several frames, head angles in degrees: the exact list, in order
    values = np.zeros((6, N_CHANNELS))
    values[1] = vec(AU43_R=1.5, gaze_down=-0.25, yaw=92.5, gaze_left=0.3, gaze_right=0.2)
    values[2] = vec(AU5_L=0.75, AU43_L=0.6, AU5_R=0.9, AU43_R=0.9)
    values[4] = vec(AU1=-0.1, gaze_up=0.5, gaze_down=0.125, pitch=-61.0, roll=7.0)
    values[5] = vec(gaze_right=1.25, AU5_R=0.51, AU43_R=0.52)
    report = validate_sequence(ControlSequence(values, 25.0))
    assert [(v.rule, v.channel, v.message, v.frame) for v in report.violations] == [
        ("au_range", "AU43_R", "AU43_R=1.5 outside [0, 1]", 2),
        ("gaze_range", "gaze_down", "gaze_down=-0.25 outside [0, 1]", 2),
        ("head_range", "yaw", "yaw=92.5 outside [-90, 90] deg", 2),
        ("gaze_opposition", "gaze_left",
         "opposing gaze channels gaze_left=0.3 and gaze_right=0.2 both active", 2),
        ("lid_conflict", "AU5_L", "AU5_L=0.75 and AU43_L=0.6 both exceed 0.5", 3),
        ("lid_conflict", "AU5_R", "AU5_R=0.9 and AU43_R=0.9 both exceed 0.5", 3),
        ("au_range", "AU1", "AU1=-0.1 outside [0, 1]", 5),
        ("head_range", "pitch", "pitch=-61 outside [-60, 60] deg", 5),
        ("gaze_opposition", "gaze_up",
         "opposing gaze channels gaze_up=0.5 and gaze_down=0.125 both active", 5),
        ("gaze_range", "gaze_right", "gaze_right=1.25 outside [0, 1]", 6),
        ("lid_conflict", "AU5_R", "AU5_R=0.51 and AU43_R=0.52 both exceed 0.5", 6),
    ]

    # the mapper refuses on the first bad frame, naming only its violations
    with pytest.raises(ValueError) as exc:
        map_sequence(ControlSequence(values, 25.0))
    assert str(exc.value) == (
        "frame 2: invalid control state: AU43_R=1.5 outside [0, 1]; "
        "gaze_down=-0.25 outside [0, 1]; "
        "yaw=92.5 outside [-90, 90] deg; "
        "opposing gaze channels gaze_left=0.3 and gaze_right=0.2 both active"
    )


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((0, N_CHANNELS)), 25.0)


def test_bad_fps_rejected():
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((1, N_CHANNELS)), 0.0)


def test_sequence_values_immutable():
    seq = ControlSequence(np.zeros((2, N_CHANNELS)), 25.0)
    with pytest.raises(ValueError):
        seq.values[0, 0] = 1.0


def test_range_and_direction_tables():
    assert tuple(CHANNEL_RANGES) == CHANNEL_NAMES
    assert CHANNEL_RANGES["pitch"] == (-60.0, 60.0) and CHANNEL_RANGES["AU1"] == (0.0, 1.0)
    assert tuple(DIRECTIONS) == ("left", "right", "up", "down")
    for gaze, head, sign in DIRECTIONS.values():
        assert head in HEAD_NAMES
        # the opposite gaze channel is the direction with the opposite head move
        opposite = {g: (h, s) for g, h, s in DIRECTIONS.values()}[opposing_gaze(gaze)]
        assert opposite == (head, -sign)
    # projection clamps every channel to its table range
    raw = np.full((2, N_CHANNELS), -1e3)
    raw[1] = 1e3
    for name in ("gaze_right", "gaze_down", "AU43_L", "AU43_R"):  # keep the pair rules quiet
        raw[1, channel_index(name)] = 0.0
    clamped = enforce_state_invariants(raw)
    assert clamped[0].tolist() == [lo for lo, _ in CHANNEL_RANGES.values()]
    assert clamped[1].tolist() == [
        0.0 if raw[1, j] == 0.0 else hi for j, (_, hi) in enumerate(CHANNEL_RANGES.values())
    ]


def test_resample_linear_ramp():
    # two frames 0 -> 1 stretched to five: exact quarter steps
    values = np.zeros((2, N_CHANNELS))
    values[1, channel_index("AU1")] = 1.0
    out = resample_sequence(ControlSequence(values, 25.0), 5)
    np.testing.assert_allclose(out.channel("AU1"), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_resample_preserves_endpoints():
    rng = np.random.default_rng(11)
    seq = ControlSequence(rng.uniform(0, 1, (13, N_CHANNELS)), 25.0)
    for target in (2, 7, 13, 29):
        out = resample_sequence(seq, target)
        assert len(out) == target
        np.testing.assert_array_equal(out.values[0], seq.values[0])
        np.testing.assert_array_equal(out.values[-1], seq.values[-1])


def test_resample_same_length_identity():
    rng = np.random.default_rng(5)
    seq = ControlSequence(rng.uniform(0, 1, (9, N_CHANNELS)), 25.0)
    out = resample_sequence(seq, 9)
    np.testing.assert_array_equal(out.values, seq.values)


def test_resample_single_frame_repeats():
    values = np.zeros((1, N_CHANNELS))
    values[0, channel_index("AU7")] = 0.3
    out = resample_sequence(ControlSequence(values, 25.0), 4)
    assert np.all(out.channel("AU7") == 0.3)


def test_resample_keeps_au_in_bounds():
    rng = np.random.default_rng(17)
    vals = np.zeros((20, N_CHANNELS))
    vals[:, AU_SLICE] = rng.uniform(0, 1, (20, 10))
    vals[:, GAZE_SLICE] = rng.uniform(0, 1, (20, 4))
    out = resample_sequence(ControlSequence(vals, 25.0), 47)
    assert out.values[:, AU_SLICE].min() >= 0.0 and out.values[:, AU_SLICE].max() <= 1.0


def test_enforce_invariants_resolves_opposition():
    raw = np.stack([vec(gaze_left=0.7, gaze_right=0.2)])
    out = enforce_state_invariants(raw)
    assert out[0, channel_index("gaze_left")] == pytest.approx(0.5)
    assert out[0, channel_index("gaze_right")] == 0.0


def test_enforce_invariants_caps_lid_conflict():
    raw = np.stack([vec(AU5_R=0.8, AU43_R=0.9)])
    out = enforce_state_invariants(raw)
    assert out[0, channel_index("AU5_R")] == pytest.approx(0.5)
    assert out[0, channel_index("AU43_R")] == pytest.approx(0.9)


def test_enforce_invariants_idempotent():
    rng = np.random.default_rng(23)
    raw = rng.uniform(-1, 2, (30, N_CHANNELS))
    once = enforce_state_invariants(raw)
    twice = enforce_state_invariants(once)
    np.testing.assert_array_equal(once, twice)
    for t in range(30):
        assert validate_control_state(once[t]).ok


def test_mirror_control_involution():
    rng = np.random.default_rng(29)
    v = rng.uniform(-1, 1, N_CHANNELS)
    np.testing.assert_allclose(mirror_control_vector(mirror_control_vector(v)), v)
    m = mirror_control_vector(vec(AU2_L=0.4, gaze_left=0.2, yaw=10.0, pitch=5.0))
    assert m[channel_index("AU2_R")] == pytest.approx(0.4)
    assert m[channel_index("gaze_right")] == pytest.approx(0.2)
    assert m[channel_index("yaw")] == pytest.approx(-10.0)
    assert m[channel_index("pitch")] == pytest.approx(5.0)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(31)
    vals = np.zeros((12, N_CHANNELS))
    vals[:, AU_SLICE] = rng.uniform(0, 1, (12, 10))
    vals[:, 14] = rng.uniform(-90, 90, 12)
    seq = ControlSequence(vals, 25.0)
    path = tmp_path / "controls.csv"
    save_controls_csv(seq, path)
    assert (tmp_path / "controls.meta.json").exists()
    back = load_controls_csv(path)
    np.testing.assert_array_equal(back.values, seq.values)
    assert back.fps == seq.fps


@pytest.mark.parametrize("encoder", ORJSON_PATHS)
def test_csv_wire_format(tmp_path, monkeypatch, encoder):
    use_encoder_path(monkeypatch, encoder)
    vals = with_edges(np.random.default_rng(8).uniform(-90, 90, (3, N_CHANNELS)))
    vals[-1] = with_edges(vals[-1])
    path = tmp_path / "controls.csv"
    save_controls_csv(ControlSequence(vals, 25.0), path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t in range(len(vals)):
            writer.writerow([t + 1] + [repr(float(v)) for v in vals[t]])
    assert path.read_bytes() == reference.read_bytes()
    np.testing.assert_array_equal(load_controls_csv(path).values, vals)


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))


@pytest.mark.parametrize("encoder", ORJSON_PATHS)
@pytest.mark.parametrize("shape", [(), (N_CHANNELS,), (62, 3)], ids=["n", "n-17", "n-62-3"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4), data=st.data())
def test_float_encoder_is_json_dumps(encoder, shape, n, data):
    arr = data.draw(arrays(np.float64, (n, *shape), elements=_FINITE))
    with pytest.MonkeyPatch.context() as mp:
        use_encoder_path(mp, encoder)
        assert _dumps_floats(arr) == json.dumps(arr.tolist())


def test_csv_missing_sidecar_errors(tmp_path):
    seq = ControlSequence(np.zeros((2, N_CHANNELS)), 25.0)
    path = tmp_path / "c.csv"
    save_controls_csv(seq, path)
    (tmp_path / "c.meta.json").unlink()
    with pytest.raises(FileNotFoundError):
        load_controls_csv(path)
    # explicit fps override works without the sidecar
    assert load_controls_csv(path, fps=30.0).fps == 30.0


def test_csv_bad_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_controls_csv(path, fps=25.0)


def _versioned_controls(tmp_path):
    save_controls_csv(ControlSequence(np.zeros((2, N_CHANNELS)), 25.0), tmp_path / "x.csv")
    return tmp_path / "x.meta.json", lambda: load_controls_csv(tmp_path / "x.csv")


def _versioned_library(tmp_path):
    seq = ControlSequence(np.zeros((2, N_CHANNELS)), 25.0)
    save_library(build_library([("calm", seq)]), tmp_path / "lib.json")
    return tmp_path / "lib.json", lambda: load_library(tmp_path / "lib.json")


def _versioned_table(tmp_path):
    stage = {"ratio": 1.0, "semantics": "hold", "targets": {"AU1": [0.1, 0.2]}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"version": 1, "categories": {"calm": [stage]}}))
    return path, lambda: load_template_table(path)


def _versioned_manifest(tmp_path):
    save_kto_manifest(KtoManifest((KtoExample("a", 0.1, True),)), tmp_path / "prefs.json")
    return tmp_path / "prefs.json", lambda: load_kto_manifest(tmp_path / "prefs.json")


# One version rule behind every versioned file: the version is the int 1.
VERSIONED_LOADERS = {
    "controls_sidecar": _versioned_controls,
    "library": _versioned_library,
    "template_table": _versioned_table,
    "kto_manifest": _versioned_manifest,
}


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
@pytest.mark.parametrize("loader", sorted(VERSIONED_LOADERS))
def test_format_version_is_the_int_one(tmp_path, loader, version):
    path, load = VERSIONED_LOADERS[loader](tmp_path)
    load()  # as written: version 1
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    payload["version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"unsupported .* version {version!r} in \S*{path.name}"):
        load()
