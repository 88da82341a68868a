"""Warping cost, activation F1, temporal score, and landmark distance."""
import itertools
import json

import numpy as np
import pytest

from eyerig.channels import ControlSequence, channel_index
from eyerig.mapper import KeypointSequence, LEFT_PUPIL, RIGHT_PUPIL, N_POINTS
from eyerig.metrics import (
    MetricConfig,
    _dtw_rows,
    au_f1,
    au_temp,
    dtw,
    eye_lmd,
    load_metric_config,
)
from eyerig.planner import signature_aus


def dtw_loop(a, b):
    """The cell-by-cell recurrence over the full (n, m) matrix: the reference
    the anti-diagonal kernel must equal bit for bit."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    n, m = x.size, y.size
    cost = np.abs(x[:, None] - y[None, :])
    acc = np.full((n, m), np.inf)
    acc[0, 0] = cost[0, 0]
    for j in range(1, m):
        acc[0, j] = cost[0, j] + acc[0, j - 1]
    for i in range(1, n):
        acc[i, 0] = cost[i, 0] + acc[i - 1, 0]
        for j in range(1, m):
            acc[i, j] = cost[i, j] + min(
                acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]
            )
    return float(acc[n - 1, m - 1])


def _tracks(rng, C, n, m, zeros=0.4):
    """Random (C, n) and (C, m) tracks with about `zeros` exact zeros, so
    that equal costs and tied minima are common."""
    X = rng.random((C, n))
    Y = rng.random((C, m))
    X[rng.random((C, n)) < zeros] = 0.0
    Y[rng.random((C, m)) < zeros] = 0.0
    return X, Y


def dtw_brute(a, b):
    """Minimum alignment cost by full path enumeration (tiny inputs only)."""
    n, m = len(a), len(b)
    best = [np.inf]

    def walk(i, j, acc):
        acc += abs(a[i] - b[j])
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


class TestDtw:
    def test_known_value(self):
        assert dtw([0.0, 1.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_identical_tracks(self):
        t = np.linspace(0, 1, 20)
        assert dtw(t, t) == pytest.approx(0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.random(8)
        b = rng.random(5)
        assert dtw(a, b) == pytest.approx(dtw(b, a))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(1, 7)
            m = rng.integers(1, 7)
            a = rng.random(n)
            b = rng.random(m)
            assert dtw(a, b) == pytest.approx(dtw_brute(a, b), abs=1e-12)

    def test_tempo_change_is_cheap(self):
        slow = np.repeat([0.0, 0.5, 1.0], 4)
        fast = np.array([0.0, 0.5, 1.0])
        assert dtw(slow, fast) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            dtw([], [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            _dtw_rows(np.zeros((2, 3)), np.zeros((2, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dtw([0.0, bad], [1.0])
        with pytest.raises(ValueError, match="finite"):
            dtw([0.0], [1.0, bad, 0.5])
        X = np.zeros((3, 4))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _dtw_rows(X, np.zeros((3, 2)))

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            dtw(np.zeros((3, 2)), np.zeros(3))


class TestDtwBitExact:
    """The anti-diagonal kernel equals the cell-by-cell loop exactly."""

    @pytest.mark.parametrize(
        "n, m",
        [(1, 1), (1, 7), (7, 1), (1, 40), (40, 1), (2, 3), (3, 2), (5, 31), (31, 5), (17, 17)],
    )
    def test_dtw_shapes(self, n, m):
        rng = np.random.default_rng(100 + 41 * n + m)
        for _ in range(5):
            X, Y = _tracks(rng, 1, n, m)
            assert dtw(X[0], Y[0]) == dtw_loop(X[0], Y[0])

    def test_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            C, n, m = rng.integers(1, 5), rng.integers(1, 40), rng.integers(1, 40)
            X, Y = _tracks(rng, C, n, m)
            want = np.array([dtw_loop(X[c], Y[c]) for c in range(C)])
            assert np.array_equal(_dtw_rows(X, Y), want), (C, n, m)
            assert dtw(X[0], Y[0]) == want[0]

    def test_ties_on_a_coarse_grid(self):
        # values on a 0.1 grid: many equal cell costs and equal path sums
        rng = np.random.default_rng(12)
        for _ in range(100):
            C, n, m = rng.integers(1, 4), rng.integers(1, 25), rng.integers(1, 25)
            X, Y = _tracks(rng, C, n, m, zeros=0.5)
            X, Y = np.round(X, 1), np.round(Y, 1)
            want = np.array([dtw_loop(X[c], Y[c]) for c in range(C)])
            assert np.array_equal(_dtw_rows(X, Y), want), (C, n, m)

    def test_500_by_500(self):
        rng = np.random.default_rng(14)
        X, Y = _tracks(rng, 2, 500, 500)
        want = np.array([dtw_loop(X[c], Y[c]) for c in range(2)])
        assert np.array_equal(_dtw_rows(X, Y), want)
        assert dtw(X[1], Y[1]) == want[1]


def _seq_with(active_cells, T=2):
    v = np.zeros((T, 17))
    for frame, name in active_cells:
        v[frame, channel_index(name)] = 0.5
    return ControlSequence(v, 25.0)


class TestAuF1:
    def test_half_precision_half_recall(self):
        ref = _seq_with([(0, "AU1"), (1, "AU2_L")])
        pred = _seq_with([(0, "AU1"), (1, "AU2_R")])
        score = au_f1(pred, ref)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)
        assert score.f1 == pytest.approx(0.5)

    def test_perfect(self):
        ref = _seq_with([(0, "AU1"), (1, "AU43_L")])
        score = au_f1(ref, ref)
        assert score == au_f1(ref, ref)
        assert score.f1 == 1.0

    def test_both_silent_is_perfect(self):
        silent = _seq_with([])
        score = au_f1(silent, silent)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_silent_prediction_misses_everything(self):
        ref = _seq_with([(0, "AU1")])
        score = au_f1(_seq_with([]), ref)
        assert score.f1 == 0.0

    def test_threshold_is_strict(self):
        v = np.zeros((1, 17))
        v[0, channel_index("AU1")] = 0.1
        at_threshold = ControlSequence(v, 25.0)
        ref = _seq_with([(0, "AU1")], T=1)
        assert au_f1(at_threshold, ref).f1 == 0.0

    def test_channel_subset(self):
        ref = _seq_with([(0, "AU1"), (0, "AU7")])
        pred = _seq_with([(0, "AU1")])
        full = au_f1(pred, ref)
        only_au1 = au_f1(pred, ref, channels=["AU1"])
        assert full.f1 < 1.0
        assert only_au1.f1 == 1.0

    def test_gaze_channel_rejected(self):
        ref = _seq_with([])
        with pytest.raises(ValueError, match="not an AU channel"):
            au_f1(ref, ref, channels=["gaze_left"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            au_f1(_seq_with([], T=3), _seq_with([], T=4))


class TestAuTemp:
    def _track_seq(self, label, level, T=20):
        v = np.zeros((T, 17))
        for name in signature_aus(label):
            v[:, channel_index(name)] = level
        return ControlSequence(v, 25.0)

    def test_perfect_agreement(self):
        seq = self._track_seq("drowsiness", 0.6)
        assert au_temp(seq, seq, "drowsiness") == pytest.approx(1.0)

    def test_total_disagreement_floors_at_zero(self):
        pred = self._track_seq("drowsiness", 1.0)
        ref = self._track_seq("drowsiness", 0.0)
        assert au_temp(pred, ref, "drowsiness") == 0.0

    def test_non_signature_channels_ignored(self):
        pred = self._track_seq("drowsiness", 0.5)
        noisy = pred.values.copy()
        noisy[:, channel_index("AU1")] = 0.9  # not in the drowsiness signature
        assert au_temp(
            ControlSequence(noisy, 25.0), pred, "drowsiness"
        ) == pytest.approx(1.0)

    def test_tempo_robustness(self):
        t_slow = np.linspace(0, 1, 40)
        t_fast = np.linspace(0, 1, 20)
        names = signature_aus("drowsiness")
        a = np.zeros((40, 17))
        b = np.zeros((20, 17))
        for n in names:
            a[:, channel_index(n)] = np.interp(t_slow, [0, 0.5, 1], [0, 0.8, 0])
            b[:, channel_index(n)] = np.interp(t_fast, [0, 0.5, 1], [0, 0.8, 0])
        score = au_temp(
            ControlSequence(a, 25.0), ControlSequence(b, 25.0), "drowsiness"
        )
        assert score > 0.8

    def test_unknown_label(self):
        seq = self._track_seq("drowsiness", 0.5)
        with pytest.raises(ValueError, match="unknown label"):
            au_temp(seq, seq, "boredom")

    def test_channel_override(self):
        seq = self._track_seq("drowsiness", 0.5)
        assert au_temp(seq, seq, "drowsiness", channels=["AU1"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["yaw", "gaze_left", "nonsense"])
    def test_non_au_channel_rejected(self, name):
        seq = self._track_seq("drowsiness", 0.5)
        with pytest.raises(ValueError, match="not an AU channel"):
            au_temp(seq, seq, "drowsiness", channels=["AU1", name])

    @pytest.mark.parametrize("label", ["drowsiness", "anger", "fear"])
    def test_equals_per_channel_reference_mean(self, label):
        rng = np.random.default_rng(sum(map(ord, label)))
        pred = rng.random((43, 17))
        ref = rng.random((37, 17))
        pred[rng.random(pred.shape) < 0.4] = 0.0
        names = signature_aus(label)
        costs = [dtw_loop(pred[:, channel_index(n)], ref[:, channel_index(n)]) for n in names]
        want = max(0.0, 1.0 - float(np.mean(costs)) / 37.0)
        assert au_temp(pred, ref, label) == want


def _kp_seq(offset_u=0.0, T=5):
    pts = np.zeros((T, N_POINTS, 2))
    pts[:, :, 0] = 0.5 + offset_u
    pts[:, :, 1] = 0.5
    pts[:, LEFT_PUPIL, 0] = 0.32 + offset_u
    pts[:, RIGHT_PUPIL, 0] = 0.68 + offset_u
    return KeypointSequence(pts, 25.0)


class TestEyeLmd:
    def test_identical_is_zero(self):
        seq = _kp_seq()
        assert eye_lmd(seq, seq) == pytest.approx(0.0)

    def test_uniform_shift_normalized_by_pupil_span(self):
        ref = _kp_seq()
        shifted = _kp_seq(offset_u=0.036)
        assert eye_lmd(shifted, ref) == pytest.approx(0.036 / 0.36)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            eye_lmd(_kp_seq(T=3), _kp_seq(T=4))

    def test_degenerate_reference(self):
        pts = np.full((2, N_POINTS, 2), 0.5)
        bad = KeypointSequence(pts, 25.0)
        with pytest.raises(ValueError, match="degenerate"):
            eye_lmd(_kp_seq(T=2), bad)


class TestMetricConfig:
    def test_defaults(self):
        cfg = MetricConfig()
        assert cfg.activation_threshold == 0.1
        assert cfg.channels_for("drowsiness") == signature_aus("drowsiness")

    def test_override(self):
        cfg = MetricConfig(signature_override={"drowsiness": ["AU1"]})
        assert cfg.channels_for("drowsiness") == ("AU1",)

    def test_json_loader(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {
                    "activation_threshold": 0.2,
                    "signature_override": {"anger": ["AU4_L", "AU4_R"]},
                }
            )
        )
        cfg = load_metric_config(path)
        assert cfg.activation_threshold == 0.2
        assert cfg.channels_for("anger") == ("AU4_L", "AU4_R")

    def test_bad_threshold(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text('{"activation_threshold": 1.5}')
        with pytest.raises(ValueError, match=r"activation_threshold must be in \[0, 1\), got"):
            load_metric_config(path)

    @pytest.mark.parametrize("threshold", ["1.0", "-0.1", "false", "true", '"0.2"', "NaN"])
    def test_bad_threshold_values(self, tmp_path, threshold):
        path = tmp_path / "metrics.json"
        path.write_text('{"activation_threshold": %s}' % threshold)
        with pytest.raises(ValueError, match=r"activation_threshold must be in \[0, 1\), got"):
            load_metric_config(path)

    def test_misspelt_key_refused(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text('{"activation_treshold": 0.9}')
        with pytest.raises(ValueError, match=r"metrics\.json: \$: unknown keys \['activation_treshold'\]"):
            load_metric_config(path)

    def test_bad_override_channel(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text('{"signature_override": {"anger": ["gaze_left"]}}')
        with pytest.raises(ValueError, match="signature_override"):
            load_metric_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("[")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_metric_config(path)
