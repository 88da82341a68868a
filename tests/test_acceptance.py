"""Acceptance gate: seven end-to-end shipping criteria.

Each criterion is one test that finishes by printing a single verdict line
(visible under pytest -s; under plain pytest the per-test PASSED/FAILED line
serves the same role).  Oracles here are written from scratch rather than
imported from the unit-test modules so that each criterion stands alone.
"""
import json
import time

import numpy as np
import pytest

from eyerig.channels import (
    AU_SLICE,
    GAZE_SLICE,
    ControlSequence,
    channel_index,
    enforce_state_invariants,
)
from eyerig.cli import main as cli_main
from eyerig.critic import refine
from eyerig.demo import build_demo_library
from eyerig.guidance import GuidanceParams, eye_centers, guidance_field, temporal_weight
from eyerig.library import (
    DEFAULT_QUERY_WEIGHTS,
    Prototype,
    PrototypeLibrary,
    baseline_from_model,
    invert_controls,
    query,
)
from eyerig.mapper import KeypointSequence, default_model, map_sequence
from eyerig.metrics import au_f1, au_temp, dtw
from eyerig.objectives import fm_loss, fm_loss_grad, kto_loss
from eyerig.planner import CATEGORIES, signature_aus

from corpus import build_corpus

HEAD_HALF = np.array([90.0, 60.0, 45.0])


def _verdict(number, text):
    print(f"criterion {number}: PASS - {text}")


def _random_states(rng, n):
    vals = np.empty((n, 17))
    vals[:, :14] = rng.uniform(0.0, 1.0, (n, 14))
    vals[:, 14:] = rng.uniform(-1.0, 1.0, (n, 3)) * HEAD_HALF
    return vals


def test_criterion_1_retrieval_matches_exhaustive_search():
    rng = np.random.default_rng(101)
    w = np.asarray(DEFAULT_QUERY_WEIGHTS, dtype=np.float64)
    shared_kp = KeypointSequence(np.zeros((1, 62, 3)), 25.0)
    elapsed = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 1001))
        vals = _random_states(rng, n)
        qvec = _random_states(rng, 1)[0]

        t0 = time.perf_counter()
        lib = PrototypeLibrary(
            tuple(
                Prototype(
                    f"label{i % 5}", ControlSequence(vals[i : i + 1], 25.0), shared_kp
                )
                for i in range(n)
            )
        )
        hits = query(lib, qvec, k=5)
        elapsed += time.perf_counter() - t0

        # exhaustive weighted-distance scan, ties toward the lower id
        diffs = np.abs(qvec[None, :] - vals)
        diffs[:, 14:] /= HEAD_HALF[None, :]
        dists = diffs @ w
        want = sorted(range(n), key=lambda i: (dists[i], i))[:5]
        got = [h.prototype_id for h in hits]
        assert got == want[: len(got)], f"trial {trial}: {got} != {want}"
        for h in hits:
            assert h.distance == pytest.approx(dists[h.prototype_id], abs=1e-9)
    assert elapsed < 5.0, f"retrieval took {elapsed:.2f} s"
    _verdict(1, f"top-5 retrieval exact on 200 random libraries ({elapsed:.2f} s)")


def test_criterion_2_mapping_round_trip():
    model = default_model()
    rng = np.random.default_rng(102)
    n = 500
    vals = np.zeros((n, 17))
    vals[:, AU_SLICE] = rng.uniform(0.0, 1.0, (n, 10))
    gaze = rng.uniform(0.0, 1.0, (n, 4))
    gaze[:, 1] = 0.0  # one direction per axis keeps the states valid
    gaze[:, 3] = 0.0
    vals[:, GAZE_SLICE] = gaze
    vals[:, 14:] = rng.uniform(-1.0, 1.0, (n, 3)) * HEAD_HALF
    vals = enforce_state_invariants(vals)

    t0 = time.perf_counter()
    _, points3d = map_sequence(ControlSequence(vals, 25.0), model)
    recovered = invert_controls(points3d, baseline_from_model(model), model)
    elapsed = time.perf_counter() - t0

    err = float(np.max(np.abs(recovered.values - vals)))
    assert err <= 1e-3, f"round-trip error {err:.2e}"
    assert elapsed < 10.0, f"round trip took {elapsed:.2f} s"
    _verdict(2, f"500-state round trip, max error {err:.1e} ({elapsed:.2f} s)")


def test_criterion_3_critic_detection_and_repair():
    corpus = build_corpus()
    assert len(corpus) == 12
    detected = 0
    for case in corpus:
        result = refine(case.sequence, case.plan, instructions=case.instructions)
        first = result.history[0]
        fired = {v.rule for v in first.violations}
        assert set(case.expect_rules) <= fired, (
            f"{case.name}: expected {case.expect_rules}, fired {fired}"
        )
        detected += 1
        if case.repairable:
            assert result.report.verdict == "pass", (
                f"{case.name} not healed: "
                f"{[v.message for v in result.report.violations]}"
            )
            assert result.composition_rounds <= 3
        else:
            assert result.report.verdict == "fail"
    repaired = sum(c.repairable for c in corpus)
    assert detected == 12 and repaired == 8
    _verdict(3, "12/12 violations detected, 8/8 repairable cases healed")


def test_criterion_4_guidance_schedule():
    params = GuidanceParams()
    assert temporal_weight(0.10, params) == 8.0
    assert temporal_weight(0.40, params) == pytest.approx(6.0, abs=1e-12)
    assert temporal_weight(0.70, params) == 4.0

    # squeeze the neutral face so both iris centers land on exact grid cells:
    # columns 20 and 43, row 31 on a 64x64 grid
    points2d, _ = map_sequence(ControlSequence(np.zeros((1, 17)), 25.0), default_model())
    snapped = points2d.frames[0].copy()
    snapped[:, 0] = 0.5 + (snapped[:, 0] - 0.5) * ((23.0 / 64.0) / 0.36)
    snapped[:, 1] = snapped[:, 1] - (0.5 - 31.5 / 64.0)
    cells = eye_centers(snapped) * 64.0 - 0.5
    np.testing.assert_allclose(cells[:, 0], [20.0, 43.0], atol=1e-9)
    np.testing.assert_allclose(cells[:, 1], [31.0, 31.0], atol=1e-9)

    field = guidance_field(snapped, (64, 64), params)
    assert field.values.shape == (40, 64, 64)
    schedule = temporal_weight(field.progress, params)

    # at an eye center the full temporal weight applies
    np.testing.assert_array_equal(field.values[:, 31, 20], schedule)
    np.testing.assert_array_equal(field.values[:, 31, 43], schedule)

    # where the spatial gain has decayed to nothing, the background weight rules
    for row, col in ((0, 0), (0, 63), (63, 0), (63, 63)):
        assert abs(field.values[0, row, col] - 1.0) <= 1e-6

    # radially non-increasing away from the pair of centers
    for step in (0, 20, 39):
        grid = field.values[step]
        assert np.all(np.diff(grid[31, 43:]) <= 1e-15)
        assert np.all(np.diff(grid[31, 20::-1]) <= 1e-15)
        assert np.all(np.diff(grid[31:, 20]) <= 1e-15)
        assert np.all(np.diff(grid[31::-1, 43]) <= 1e-15)
    _verdict(4, "trapezoid schedule exact, field anchored at eye centers")


def test_criterion_5_objectives():
    rng = np.random.default_rng(105)
    x0 = rng.normal(size=(16, 8))
    x1 = rng.normal(size=(16, 8))
    assert fm_loss(x1 - x0, x0, x1) == 0.0

    # two-parameter toy model: velocity = a * f1 + b * f2
    f1 = rng.normal(size=(16, 8))
    f2 = rng.normal(size=(16, 8))
    a, b = 0.6, -0.4

    def loss_at(pa, pb):
        return fm_loss(pa * f1 + pb * f2, x0, x1)

    grad_field = fm_loss_grad(a * f1 + b * f2, x0, x1)
    analytic = np.array([np.sum(grad_field * f1), np.sum(grad_field * f2)])
    h = 1e-6
    fd = np.array(
        [
            (loss_at(a + h, b) - loss_at(a - h, b)) / (2 * h),
            (loss_at(a, b + h) - loss_at(a, b - h)) / (2 * h),
        ]
    )
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.all(rel <= 1e-5), f"gradient mismatch {rel}"

    assert kto_loss(0.0, 0.0, True, beta=625.0) == pytest.approx(0.5, abs=1e-12)
    assert kto_loss(0.0, 0.0, False, beta=625.0) == pytest.approx(0.5, abs=1e-12)

    # beta * r spans +/- 25: steep but unsaturated in float64
    rewards = np.linspace(-0.04, 0.04, 101)
    desirable = [kto_loss(r, 0.0, True) for r in rewards]
    undesirable = [kto_loss(r, 0.0, False) for r in rewards]
    assert np.all(np.diff(desirable) < 0)
    assert np.all(np.diff(undesirable) > 0)
    _verdict(5, "flow-matching loss/grad and preference loss check out")


def _dtw_brute(a, b):
    """Exhaustive minimum over all monotone alignment paths."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    best = [np.inf]

    def walk(i, j, cost):
        cost += abs(a[i] - b[j])
        if cost >= best[0]:
            return
        if i == len(a) - 1 and j == len(b) - 1:
            best[0] = cost
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni < len(a) and nj < len(b):
                walk(ni, nj, cost)

    walk(0, 0, 0.0)
    return best[0]


def _activations(cells, n_frames=2):
    v = np.zeros((n_frames, 17))
    for frame, name in cells:
        v[frame, channel_index(name)] = 0.5
    return ControlSequence(v, 25.0)


def test_criterion_6_metrics():
    # identical traces score perfectly
    busy = _activations([(0, "AU1"), (1, "AU43_L")])
    assert au_f1(busy, busy).f1 == 1.0

    # three AUs, one shared: precision = recall = f1 = 1/2
    ref = _activations([(0, "AU1"), (1, "AU2_L")])
    pred = _activations([(0, "AU1"), (1, "AU2_R")])
    score = au_f1(pred, ref)
    assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    sig = signature_aus("drowsiness")
    tracks = np.zeros((20, 17))
    for name in sig:
        tracks[:, channel_index(name)] = 0.6
    steady = ControlSequence(tracks, 25.0)
    assert au_temp(steady, steady, "drowsiness") == pytest.approx(1.0)

    # constant 1 vs constant 0: per-channel warp cost equals the normalizer
    ones = np.zeros((20, 17))
    for name in sig:
        ones[:, channel_index(name)] = 1.0
    flat = ControlSequence(np.zeros((20, 17)), 25.0)
    assert au_temp(ControlSequence(ones, 25.0), flat, "drowsiness") == 0.0

    assert dtw([0, 1, 2], [0, 2]) == 1.0
    rng = np.random.default_rng(106)
    for _ in range(40):
        a = rng.uniform(-1, 1, int(rng.integers(1, 7)))
        b = rng.uniform(-1, 1, int(rng.integers(1, 7)))
        assert dtw(a, b) == pytest.approx(_dtw_brute(a, b), abs=1e-12)
    _verdict(6, "activation F1, temporal fidelity, and warping cost all exact")


def test_criterion_7_end_to_end_determinism(tmp_path):
    from eyerig.library import save_library

    lib_path = tmp_path / "demo_lib.json"
    save_library(build_demo_library(), lib_path)

    for label in CATEGORIES:
        outputs = []
        for run in ("first", "second"):
            out_dir = tmp_path / label / run
            code = cli_main(
                [
                    "--seed",
                    "7",
                    "compile",
                    "--label",
                    label,
                    "--frames",
                    "50",
                    "--library",
                    str(lib_path),
                    "--out-dir",
                    str(out_dir),
                ]
            )
            assert code == 0, f"{label}: compile exited {code}"
            audit = json.loads((out_dir / f"{label}.audit.json").read_text())
            assert audit["verdict"] == "pass", f"{label}: {audit['violations']}"
            assert audit["frames"] == 50
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out_dir.iterdir())
                }
            )
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], (
                f"{label}: {name} differs between seeded runs"
            )
    _verdict(7, "all 12 categories compile to critic-pass, byte-stable per seed")
