"""Cross-fade math, amplitude rescaling, and plan-to-sequence composition."""
import numpy as np
import pytest

from eyerig.channels import (
    ControlSequence,
    channel_index,
    validate_sequence,
)
from eyerig.composer import compose, crossfade_concat, rescale_amplitude
from eyerig.library import build_library
from eyerig.mapper import KeypointSequence, N_POINTS
from eyerig.planner import Plan, StagedEvent, plan


def _proto_record(label, values, fps=25.0):
    seq = ControlSequence(np.asarray(values, dtype=np.float64), fps)
    kp = KeypointSequence(np.zeros((len(seq), N_POINTS, 3)), fps)
    return (label, seq, kp)


@pytest.fixture()
def small_library():
    t = np.linspace(0.0, 1.0, 20)
    ramp = np.zeros((20, 17))
    ramp[:, channel_index("AU4_L")] = t
    ramp[:, channel_index("AU4_R")] = t
    ramp[:, channel_index("AU7")] = t
    flat = np.zeros((20, 17))
    flat[:, channel_index("AU4_L")] = 0.2
    flat[:, channel_index("AU4_R")] = 0.2
    gazey = np.zeros((20, 17))
    gazey[:, channel_index("gaze_left")] = t
    return build_library(
        [
            _proto_record("anger", ramp),
            _proto_record("anger", flat),
            _proto_record("other", gazey),
        ]
    )


class TestRescaleAmplitude:
    def test_affine_map(self):
        v = np.linspace(0.0, 1.0, 11)
        out = rescale_amplitude(v, 0.2, 0.6)
        assert out[0] == pytest.approx(0.2)
        assert out[-1] == pytest.approx(0.6)
        assert out[5] == pytest.approx(0.4)

    def test_constant_goes_to_midpoint(self):
        out = rescale_amplitude(np.full(7, 0.3), 0.5, 0.9)
        assert np.allclose(out, 0.7)

    def test_interval_order_checked(self):
        with pytest.raises(ValueError, match="lo"):
            rescale_amplitude(np.zeros(3), 0.9, 0.1)

    def test_requires_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            rescale_amplitude(np.zeros((3, 2)), 0.0, 1.0)


class TestCrossfadeConcat:
    def test_unit_step_four_frame_fade(self):
        a = np.zeros((10, 1))
        b = np.ones((10, 1))
        out = crossfade_concat([a, b], 4)
        assert out.shape == (20, 1)
        assert np.allclose(out[:8], 0.0)
        assert out[8:12, 0] == pytest.approx([0.2, 0.4, 0.6, 0.8])
        assert np.allclose(out[12:], 1.0)

    def test_unit_step_three_frame_fade(self):
        out = crossfade_concat([np.zeros((10, 1)), np.ones((10, 1))], 3)
        assert out[8:11, 0] == pytest.approx([0.25, 0.5, 0.75])
        assert np.allclose(out[:8], 0.0)
        assert np.allclose(out[11:], 1.0)

    def test_zero_blend_is_concat(self):
        a = np.zeros((4, 2))
        b = np.ones((3, 2))
        out = crossfade_concat([a, b], 0)
        assert np.array_equal(out, np.vstack([a, b]))

    def test_window_shrinks_for_short_segments(self):
        out = crossfade_concat([np.zeros((1, 1)), np.ones((1, 1))], 4)
        assert out[:, 0] == pytest.approx([1 / 3, 2 / 3])

    def test_three_segments_chain(self):
        segs = [np.zeros((6, 1)), np.ones((6, 1)), np.zeros((6, 1))]
        out = crossfade_concat(segs, 2)
        assert out.shape == (18, 1)
        # each seam blends one frame per side at weights 1/3, 2/3
        assert out[5, 0] == pytest.approx(1 / 3)
        assert out[6, 0] == pytest.approx(2 / 3)
        assert out[11, 0] == pytest.approx(2 / 3)
        assert out[12, 0] == pytest.approx(1 / 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            crossfade_concat([np.zeros((3, 2)), np.zeros((3, 3))], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no segments"):
            crossfade_concat([], 2)

    def test_negative_blend_rejected(self):
        with pytest.raises(ValueError, match="blend_frames"):
            crossfade_concat([np.zeros((3, 1))], -1)


class TestCompose:
    def test_basic_shape_and_validity(self, small_library):
        p = plan("anger", 50, 25.0)
        seq = compose(p, small_library)
        assert len(seq) == 50
        assert seq.fps == 25.0
        assert validate_sequence(seq).ok

    def test_first_frame_head_pinned(self, small_library):
        pose = (10.0, -5.0, 3.0)
        p = plan("anger", 50, 25.0, initial_pose=pose)
        seq = compose(p, small_library, initial_pose=pose)
        assert seq.values[0, 14:] == pytest.approx(pose)

    def test_pin_releases_gradually(self, small_library):
        pose = (20.0, 0.0, 0.0)
        p = plan("anger", 50, 25.0, initial_pose=pose)
        seq = compose(p, small_library, initial_pose=pose, blend_frames=3)
        yaw = seq.values[:, 14]
        # frames 1..3 interpolate between the pose and the composed track
        assert abs(yaw[1] - pose[0]) <= abs(yaw[4] - pose[0]) + 1e-9

    def test_targets_reached(self, small_library):
        p = plan("anger", 50, 25.0)
        seq = compose(p, small_library)
        au4 = seq.values[:, channel_index("AU4_L")]
        assert au4.max() >= 0.6
        assert au4.max() <= 0.85

    def test_untargeted_channels_stay_quiet(self, small_library):
        p = plan("anger", 50, 25.0)
        seq = compose(p, small_library)
        assert np.allclose(seq.values[:, channel_index("gaze_left")], 0.0)
        assert np.allclose(seq.values[:, channel_index("gaze_right")], 0.0)

    def test_label_fallback_when_no_match(self, small_library):
        p = plan("fear", 30, 25.0)
        seq = compose(p, small_library)
        assert len(seq) == 30
        assert validate_sequence(seq).ok

    def test_empty_library_rejected(self, small_library):
        empty = build_library([])
        p = plan("anger", 30, 25.0)
        with pytest.raises(ValueError, match="no prototypes available"):
            compose(p, empty)

    def test_deterministic(self, small_library):
        p = plan("anger", 40, 25.0)
        a = compose(p, small_library)
        b = compose(p, small_library)
        assert np.array_equal(a.values, b.values)

    def test_single_frame_events(self, small_library):
        p = plan("anger", 3, 25.0)
        seq = compose(p, small_library)
        assert len(seq) == 3
        assert validate_sequence(seq).ok

    def test_invalid_plan_rejected(self):
        # a broken plan cannot be built, so it never reaches compose
        with pytest.raises(ValueError, match="partition"):
            Plan(
                label="anger",
                events=(StagedEvent(1, 10, "a", {}), StagedEvent(12, 20, "b", {})),
                total_frames=20,
                fps=25.0,
            )

    def test_zero_blend_keeps_length(self, small_library):
        p = plan("anger", 50, 25.0)
        seq = compose(p, small_library, blend_frames=0)
        assert len(seq) == 50
        assert validate_sequence(seq).ok


class TestSampledRetrieval:
    def test_seeded_draws_reproduce(self, small_library):
        p = plan("anger", 40, 25.0)
        a = compose(p, small_library, sample_k=3, seed=11)
        b = compose(p, small_library, sample_k=3, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_can_differ(self, small_library):
        p = plan("anger", 40, 25.0)
        outs = {
            compose(p, small_library, sample_k=3, seed=s).values.tobytes()
            for s in range(8)
        }
        assert len(outs) > 1

    def test_k_one_ignores_seed(self, small_library):
        p = plan("anger", 40, 25.0)
        a = compose(p, small_library, sample_k=1, seed=1)
        b = compose(p, small_library, sample_k=1, seed=2)
        assert np.array_equal(a.values, b.values)

    def test_invalid_k(self, small_library):
        p = plan("anger", 40, 25.0)
        with pytest.raises(ValueError, match="sample_k"):
            compose(p, small_library, sample_k=0)
