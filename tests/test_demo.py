"""Bundled demo library: construction, retrieval alignment, end-to-end use."""
import numpy as np
import pytest

from eyerig.channels import channel_index, validate_control_state
from eyerig.composer import compose
from eyerig.critic import critique, refine
from eyerig.demo import (
    STAGE_PROTO_FRAMES,
    build_demo_library,
    demo_records,
    stage_envelope,
)
from eyerig.planner import CATEGORIES, plan


@pytest.fixture(scope="module")
def lib():
    return build_demo_library()


class TestStageEnvelope:
    def test_mean_is_four_fifths(self):
        assert stage_envelope().mean() == pytest.approx(0.8)

    def test_range_and_length(self):
        env = stage_envelope()
        assert len(env) == STAGE_PROTO_FRAMES
        assert env.min() == 0.0
        assert env.max() == 1.0

    def test_rise_hold_fall_shape(self):
        env = stage_envelope()
        assert env[0] == 0.0
        assert env[-1] == 0.0
        middle = env[15:45]
        assert np.all(middle == 1.0)

    def test_custom_length(self):
        assert len(stage_envelope(20)) == 20

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            stage_envelope(2)


class TestDemoRecords:
    def test_three_stages_per_category(self, lib):
        assert len(lib) == 3 * len(CATEGORIES)
        assert set(lib.labels()) == set(CATEGORIES)
        for label in CATEGORIES:
            assert len(lib.by_label[label]) == 3

    def test_channel_mean_hits_stage_midpoint(self, lib):
        # anger stage 2 targets AU4 in [0.50, 0.80]; uncapped, so the stored
        # mean lands on the midpoint exactly
        proto = lib.prototypes[lib.by_label["anger"][1]]
        au4 = proto.controls.values[:, channel_index("AU4_L")]
        assert au4.mean() == pytest.approx(0.65)

    def test_untargeted_channels_silent(self, lib):
        # anger never targets gaze; every anger exemplar keeps it at zero
        for pid in lib.by_label["anger"]:
            v = lib.prototypes[pid].controls.values
            for name in ("gaze_left", "gaze_right", "gaze_up", "gaze_down"):
                assert np.all(v[:, channel_index(name)] == 0.0)

    def test_every_frame_valid(self, lib):
        for proto in lib.prototypes:
            for t in range(0, len(proto.controls), 13):
                assert validate_control_state(proto.controls.values[t]).ok

    def test_prototypes_store_controls_only(self, lib):
        # retrieval and composition read only controls; no keypoints are derived
        for proto in lib.prototypes:
            assert proto.keypoints is None
            assert len(proto.controls) == STAGE_PROTO_FRAMES

    def test_records_are_deterministic(self):
        a = list(demo_records())
        b = list(demo_records())
        assert len(a) == len(b)
        for (la, ca), (lb, cb) in zip(a, b):
            assert la == lb
            assert np.array_equal(ca.values, cb.values)


class TestEndToEnd:
    @pytest.mark.parametrize("label", CATEGORIES)
    def test_every_category_composes_clean(self, lib, label):
        p = plan(label, 50, 25.0)
        seq = compose(p, lib)
        assert critique(seq, p).verdict == "pass"

    def test_short_duration_still_passes(self, lib):
        p = plan("drowsiness", 12, 25.0)
        res = refine(compose(p, lib), p, lib=lib)
        assert res.report.verdict == "pass"

    def test_instruction_blink_heals(self, lib):
        instr = "look to the left and blink"
        p = plan("anger", 50, 25.0, instructions=instr)
        res = refine(compose(p, lib), p, lib=lib, instructions=instr)
        assert res.report.verdict == "pass"
