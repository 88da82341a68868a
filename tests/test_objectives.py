"""Velocity-target regression and preference loss behavior."""
import json
import math
import re
import warnings

import numpy as np
import pytest

from eyerig.objectives import (
    KtoExample,
    KtoManifest,
    estimate_z_ref,
    fm_interpolate,
    fm_loss,
    fm_loss_grad,
    kto_loss,
    kto_manifest_loss,
    load_kto_manifest,
    save_kto_manifest,
)


class TestFmInterpolate:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(4, 8))
        x1 = rng.normal(size=(4, 8))
        xt0, v = fm_interpolate(x0, x1, 0.0)
        assert np.allclose(xt0, x0)
        xt1, _ = fm_interpolate(x0, x1, 1.0)
        assert np.allclose(xt1, x1)
        assert np.allclose(v, x1 - x0)

    def test_midpoint(self):
        x0 = np.zeros((3, 2))
        x1 = np.ones((3, 2))
        xt, v = fm_interpolate(x0, x1, 0.5)
        assert np.allclose(xt, 0.5)
        assert np.allclose(v, 1.0)

    def test_velocity_constant_in_t(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(5, 3))
        x1 = rng.normal(size=(5, 3))
        _, v_a = fm_interpolate(x0, x1, 0.2)
        _, v_b = fm_interpolate(x0, x1, 0.9)
        assert np.array_equal(v_a, v_b)

    def test_per_sample_t(self):
        x0 = np.zeros((4, 2))
        x1 = np.ones((4, 2))
        t = np.array([0.0, 0.25, 0.5, 1.0])[:, None]
        xt, _ = fm_interpolate(x0, x1, t)
        assert np.allclose(xt, t * np.ones((4, 2)))

    def test_t_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fm_interpolate(np.zeros(3), np.ones(3), 1.2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            fm_interpolate(np.zeros(3), np.ones(4), 0.5)


class TestFmLoss:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(6, 5))
        x1 = rng.normal(size=(6, 5))
        assert fm_loss(x1 - x0, x0, x1) == 0.0

    def test_unit_offset(self):
        x0 = np.zeros((2, 3))
        x1 = np.ones((2, 3))
        pred = (x1 - x0) + 1.0
        assert fm_loss(pred, x0, x1) == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        # toy model: velocity = a * f1 + b * f2, loss as a function of (a, b)
        rng = np.random.default_rng(3)
        f1 = rng.normal(size=(8, 4))
        f2 = rng.normal(size=(8, 4))
        x0 = rng.normal(size=(8, 4))
        x1 = rng.normal(size=(8, 4))
        a, b = 0.7, -0.3

        def loss_at(pa, pb):
            return fm_loss(pa * f1 + pb * f2, x0, x1)

        g = fm_loss_grad(a * f1 + b * f2, x0, x1)
        analytic = np.array([np.sum(g * f1), np.sum(g * f2)])
        h = 1e-6
        fd = np.array(
            [
                (loss_at(a + h, b) - loss_at(a - h, b)) / (2 * h),
                (loss_at(a, b + h) - loss_at(a, b - h)) / (2 * h),
            ]
        )
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
        assert np.all(rel <= 1e-5)


class TestKtoLoss:
    def test_neutral_point_is_half(self):
        assert kto_loss(0.0, 0.0, True, beta=625.0) == pytest.approx(0.5, abs=1e-12)
        assert kto_loss(0.0, 0.0, False, beta=625.0) == pytest.approx(0.5, abs=1e-12)

    def test_desirable_monotone_decreasing_in_reward(self):
        # beta * r stays within +/- 25 so neither tail saturates in float64
        rewards = np.linspace(-0.04, 0.04, 101)
        losses = [kto_loss(r, 0.0, True) for r in rewards]
        assert np.all(np.diff(losses) < 0)

    def test_undesirable_monotone_increasing_in_reward(self):
        rewards = np.linspace(-0.04, 0.04, 101)
        losses = [kto_loss(r, 0.0, False) for r in rewards]
        assert np.all(np.diff(losses) > 0)

    def test_weights_scale_contributions(self):
        base = kto_loss(0.0, 0.0, True)
        assert kto_loss(0.0, 0.0, True, desirable_weight=2.0) == pytest.approx(2 * base)

    def test_batch_mean(self):
        out = kto_loss([0.0, 0.0], 0.0, [True, False])
        assert out == pytest.approx(0.5)

    def test_reference_point_shifts_loss(self):
        # with a positive reference, zero reward looks like a loss
        assert kto_loss(0.0, 5.0, True) > 0.5
        assert kto_loss(0.0, 5.0, False) < 0.5

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            kto_loss(0.0, 0.0, True, beta=0.0)

    def test_extreme_rewards_saturate(self):
        assert kto_loss(10.0, 0.0, True) == pytest.approx(0.0, abs=1e-12)
        assert kto_loss(-10.0, 0.0, True) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("margin", [800.0, 1e6])
    def test_tails_are_exact_without_warnings(self, margin):
        # exp(margin) overflows; the loss never computes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, desirable, want in [(margin, True, 0.0), (-margin, True, 2.0),
                                       (margin, False, 3.0), (-margin, False, 0.0)]:
                got = kto_loss(m, 0.0, desirable, beta=1.0, desirable_weight=2.0,
                               undesirable_weight=3.0)
                assert got == want


class TestZRef:
    def test_positive_mean(self):
        assert estimate_z_ref([0.01, 0.03], beta=100.0) == pytest.approx(2.0)

    def test_negative_mean_floored(self):
        assert estimate_z_ref([-0.5, -0.1]) == 0.0

    def test_empty(self):
        assert estimate_z_ref([]) == 0.0


class TestManifest:
    def _manifest(self):
        return KtoManifest(
            examples=(
                KtoExample("a", 0.02, True),
                KtoExample("b", -0.01, False),
                KtoExample("c", 0.0, True),
            ),
            beta=625.0,
        )

    def test_round_trip(self, tmp_path):
        m = self._manifest()
        path = tmp_path / "prefs.json"
        save_kto_manifest(m, path)
        assert load_kto_manifest(path) == m

    def test_loss_matches_direct_call(self):
        m = self._manifest()
        rewards = np.array([e.reward for e in m.examples])
        desirable = np.array([e.desirable for e in m.examples])
        z = estimate_z_ref(rewards, m.beta)
        assert kto_manifest_loss(m) == pytest.approx(
            kto_loss(rewards, z, desirable, beta=m.beta)
        )

    def test_explicit_z_ref(self):
        m = self._manifest()
        assert kto_manifest_loss(m, z_ref=0.0) != kto_manifest_loss(m, z_ref=3.0)

    def test_empty_manifest_loss_rejected(self):
        with pytest.raises(ValueError, match="no examples"):
            kto_manifest_loss(KtoManifest(examples=()))

    def test_version_checked(self, tmp_path):
        path = tmp_path / "prefs.json"
        save_kto_manifest(self._manifest(), path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 9
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_kto_manifest(path)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "prefs.json"
        path.write_text(
            '{"version": 1, "examples": [{"id": "a", "reward": 0.1}]}'
        )
        with pytest.raises(ValueError, match=r"examples\[0\]"):
            load_kto_manifest(path)

    @pytest.mark.parametrize(
        "misspelt, error",
        [("beta", "prefs.json: $: unknown keys ['betta']"),
         ("reward", "prefs.json: examples[1]: unknown keys ['rewrd']")],
    )
    def test_misspelt_key_refused(self, tmp_path, misspelt, error):
        path = tmp_path / "prefs.json"
        save_kto_manifest(self._manifest(), path)
        payload = json.loads(path.read_text())
        obj = payload if misspelt == "beta" else payload["examples"][1]
        obj["betta" if misspelt == "beta" else "rewrd"] = obj.pop(misspelt)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(error)):
            load_kto_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "prefs.json"
        path.write_text("{broken")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_kto_manifest(path)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("desirable", "false", "examples[1].desirable must be true or false, got 'false'"),
            ("desirable", 0, "examples[1].desirable must be true or false, got 0"),
            ("reward", True, "examples[1].reward must be a finite number, got True"),
            ("reward", "0.1", "examples[1].reward must be a finite number, got '0.1'"),
            ("reward", math.nan, "examples[1].reward must be a finite number, got nan"),
            ("beta", math.nan, "beta must be a finite positive number, got nan"),
            ("beta", "625", "beta must be a finite positive number, got '625'"),
            ("beta", 0, "beta must be a finite positive number, got 0"),
            ("desirable_weight", True, "desirable_weight must be a finite non-negative"),
            ("undesirable_weight", -1.0, "undesirable_weight must be a finite non-negative"),
        ],
    )
    def test_malformed_values_named(self, tmp_path, field, value, error):
        path = tmp_path / "prefs.json"
        save_kto_manifest(self._manifest(), path)
        payload = json.loads(path.read_text())
        (payload["examples"][1] if field in ("desirable", "reward") else payload)[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"prefs.json: {error}")):
            load_kto_manifest(path)

    @pytest.mark.parametrize(
        "value, shown",
        [(None, "None"), (7, "7"), ({"a": 1}, "{'a': 1}"), ("", "''"), (True, "True")],
    )
    def test_id_must_be_a_string(self, tmp_path, value, shown):
        path = tmp_path / "prefs.json"
        save_kto_manifest(self._manifest(), path)
        payload = json.loads(path.read_text())
        payload["examples"][1]["id"] = value
        path.write_text(json.dumps(payload))
        error = f"prefs.json: examples[1].id must be a non-empty string, got {shown}"
        with pytest.raises(ValueError, match=re.escape(error)):
            load_kto_manifest(path)

    def test_example_checks_its_id(self):
        with pytest.raises(ValueError, match="id must be a non-empty string"):
            KtoExample(None, 0.1, True)

    @pytest.mark.parametrize("field", ["beta", "desirable_weight", "undesirable_weight"])
    def test_manifest_checks_its_numbers(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            KtoManifest(examples=(), **{field: math.nan})
