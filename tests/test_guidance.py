"""Temporal schedule, spatial gain, field assembly, and the OGF1 format."""
import numpy as np
import pytest

from eyerig.channels import N_CHANNELS, ControlSequence
from eyerig.guidance import (
    GuidanceField,
    GuidanceParams,
    apply_guidance,
    eye_centers,
    guidance_field,
    load_guidance_ogf1,
    save_guidance_ogf1,
    spatial_gain,
    step_progress,
    temporal_weight,
)
from eyerig.mapper import N_POINTS, default_model, map_sequence


@pytest.fixture(scope="module")
def neutral_frame():
    points2d, _ = map_sequence(ControlSequence(np.zeros((1, N_CHANNELS)), 25.0), default_model())
    return points2d.frames[0]


class TestTemporalWeight:
    def test_schedule_values(self):
        assert temporal_weight(0.10) == pytest.approx(8.0, abs=1e-12)
        assert temporal_weight(0.40) == pytest.approx(6.0, abs=1e-12)
        assert temporal_weight(0.70) == pytest.approx(4.0, abs=1e-12)

    def test_endpoints(self):
        assert temporal_weight(0.0) == pytest.approx(8.0)
        assert temporal_weight(1.0) == pytest.approx(4.0)

    def test_breakpoints(self):
        assert temporal_weight(0.25) == pytest.approx(8.0)
        assert temporal_weight(0.55) == pytest.approx(4.0)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 1.0, 201)
        w = temporal_weight(grid)
        assert np.all(np.diff(w) <= 1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            temporal_weight(1.5)

    def test_custom_params(self):
        params = GuidanceParams(omega_hi=10.0, omega_lo=2.0, ramp_start=0.2, ramp_end=0.8)
        assert temporal_weight(0.5, params) == pytest.approx(6.0)

    def test_bad_ramp_rejected(self):
        with pytest.raises(ValueError, match="ramp_start"):
            GuidanceParams(ramp_start=0.6, ramp_end=0.5)


class TestStepProgress:
    def test_midpoints(self):
        p = step_progress(40)
        assert p.shape == (40,)
        assert p[0] == pytest.approx(0.0125)
        assert p[-1] == pytest.approx(0.9875)
        assert np.all((p > 0) & (p < 1))

    def test_single_step(self):
        assert step_progress(1) == pytest.approx([0.5])


class TestSpatialGain:
    def test_on_grid_center_peaks_at_one(self):
        gain = spatial_gain((9, 9), np.array([[4.0, 4.0]]), sigma=2.0)
        assert gain[4, 4] == pytest.approx(1.0, abs=1e-15)
        assert gain.max() == pytest.approx(1.0)

    def test_radially_nonincreasing_from_center(self):
        gain = spatial_gain((31, 31), np.array([[15.0, 15.0]]), sigma=4.0)
        row = gain[15, 15:]
        col = gain[15:, 15]
        assert np.all(np.diff(row) <= 1e-15)
        assert np.all(np.diff(col) <= 1e-15)

    def test_two_centers_take_max(self):
        centers = np.array([[2.0, 2.0], [2.0, 12.0]])
        gain = spatial_gain((5, 15), centers, sigma=1.5)
        assert gain[2, 2] == pytest.approx(1.0)
        assert gain[2, 12] == pytest.approx(1.0)
        assert gain.max() <= 1.0 + 1e-15

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            spatial_gain((4, 4), np.array([[1.0, 1.0]]), sigma=0.0)


class TestEyeCenters:
    def test_neutral_centers_are_symmetric(self, neutral_frame):
        centers = eye_centers(neutral_frame)
        assert centers.shape == (2, 2)
        # horizontal mirror: same v, u mirrored about the principal point
        assert centers[0, 1] == pytest.approx(centers[1, 1], abs=1e-9)
        assert centers[0, 0] + centers[1, 0] == pytest.approx(1.0, abs=1e-9)
        assert centers[0, 0] < centers[1, 0]  # left eye sits at smaller u

    @pytest.mark.parametrize(
        "shape", [(N_POINTS, 3), (1, N_POINTS, 2), (N_POINTS - 1, 2)]
    )
    def test_needs_one_2d_frame(self, shape):
        with pytest.raises(ValueError, match=rf"keypoint frame must have shape \({N_POINTS}, 2\)"):
            eye_centers(np.zeros(shape))

    def test_non_finite_rejected(self, neutral_frame):
        pts = neutral_frame.copy()
        pts[3, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            guidance_field(pts)


class TestGuidanceField:
    def test_shape_and_formula(self, neutral_frame):
        field = guidance_field(neutral_frame, (64, 64))
        assert field.values.shape == (40, 64, 64)
        assert field.progress.shape == (40,)
        # every step obeys weight = w(t) * gain + bg * (1 - gain)
        params = GuidanceParams()
        w0 = temporal_weight(field.progress[0], params)
        gain = (field.values[0] - params.omega_bg) / (w0 - params.omega_bg)
        for t in (10, 25, 39):
            wt = temporal_weight(field.progress[t], params)
            expected = wt * gain + params.omega_bg * (1.0 - gain)
            assert np.allclose(field.values[t], expected, atol=1e-12)

    def test_bounds(self, neutral_frame):
        field = guidance_field(neutral_frame, (64, 64))
        params = GuidanceParams()
        assert field.values.min() >= params.omega_bg - 1e-12
        assert field.values.max() <= params.omega_hi + 1e-12
        # early steps emphasize more than late steps everywhere
        assert np.all(field.values[0] >= field.values[-1] - 1e-12)

    def test_corners_settle_at_background(self, neutral_frame):
        field = guidance_field(neutral_frame, (64, 64))
        assert field.values[0, 0, 0] == pytest.approx(1.0, abs=1e-3)
        assert field.values[0, -1, -1] == pytest.approx(1.0, abs=1e-3)

    def test_eye_region_emphasized(self, neutral_frame):
        field = guidance_field(neutral_frame, (64, 64))
        centers = eye_centers(neutral_frame)
        row = int(round(centers[0, 1] * 64 - 0.5))
        col = int(round(centers[0, 0] * 64 - 0.5))
        assert field.values[0, row, col] > 7.5
        assert field.values[-1, row, col] > 3.5

    def test_custom_step_count(self, neutral_frame):
        field = guidance_field(
            neutral_frame, (16, 16), GuidanceParams(n_steps=7)
        )
        assert field.values.shape == (7, 16, 16)


class TestApplyGuidance:
    def test_broadcast_single_grid(self, neutral_frame):
        field = guidance_field(neutral_frame, (8, 8), GuidanceParams(n_steps=3))
        base = np.zeros((3, 8, 8))
        correction = np.ones((8, 8))
        out = apply_guidance(base, correction, field)
        assert np.allclose(out, field.values)

    def test_additive_formula(self, neutral_frame):
        field = guidance_field(neutral_frame, (8, 8), GuidanceParams(n_steps=2))
        rng = np.random.default_rng(7)
        base = rng.normal(size=(2, 8, 8))
        corr = rng.normal(size=(2, 8, 8))
        out = apply_guidance(base, corr, field)
        assert np.allclose(out, base + field.values * corr)

    def test_shape_mismatch_message(self, neutral_frame):
        field = guidance_field(neutral_frame, (8, 8), GuidanceParams(n_steps=2))
        with pytest.raises(ValueError, match="broadcast"):
            apply_guidance(np.zeros((2, 8, 8)), np.ones((5, 5)), field)


class TestOgf1Format:
    def test_round_trip(self, neutral_frame, tmp_path):
        field = guidance_field(neutral_frame, (32, 32), GuidanceParams(n_steps=5))
        path = tmp_path / "field.ogf1"
        save_guidance_ogf1(field, path)
        loaded = load_guidance_ogf1(path)
        assert loaded.values.shape == (5, 32, 32)
        assert np.array_equal(
            loaded.values, field.values.astype("<f4").astype(np.float64)
        )
        assert np.array_equal(
            loaded.progress, field.progress.astype("<f4").astype(np.float64)
        )

    def test_header_layout(self, neutral_frame, tmp_path):
        field = guidance_field(neutral_frame, (4, 6), GuidanceParams(n_steps=2))
        path = tmp_path / "field.ogf1"
        save_guidance_ogf1(field, path)
        raw = path.read_bytes()
        assert raw[:4] == b"OGF1"
        import struct

        h, w, steps = struct.unpack("<III", raw[4:16])
        assert (h, w, steps) == (4, 6, 2)
        assert len(raw) == 16 + 4 * 2 + 4 * 2 * 4 * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ogf1"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="bad magic"):
            load_guidance_ogf1(path)

    def test_truncated(self, neutral_frame, tmp_path):
        field = guidance_field(neutral_frame, (4, 4), GuidanceParams(n_steps=2))
        path = tmp_path / "cut.ogf1"
        save_guidance_ogf1(field, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected"):
            load_guidance_ogf1(path)
