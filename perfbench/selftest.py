"""Quick self-test of the benchmark's oracles and of BENCHMARK.json.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks the row-at-a-time DTW against exhaustive path enumeration on tiny
tracks, the batched projection against the rotation conventions that
`eyerig.mapper.rotation_matrix` documents and against `map_sequence`, the F1
count on a hand-made case, and that BENCHMARK.json lists exactly the per-layer
metrics the tracer reports.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402


def _brute_dtw(a, b) -> float:
    """Minimum cost over every monotone path from (0, 0) to (n-1, m-1)."""
    n, m = len(a), len(b)

    def paths(i, j):
        if (i, j) == (n - 1, m - 1):
            yield [(i, j)]
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di < n and j + dj < m:
                for rest in paths(i + di, j + dj):
                    yield [(i, j)] + rest

    return min(sum(abs(a[i] - b[j]) for i, j in p) for p in paths(0, 0))


def test_dtw_matches_exhaustive_paths():
    rng = np.random.default_rng(0)
    for n, m in itertools.product(range(1, 5), repeat=2):
        for _ in range(5):
            a, b = rng.random(n), rng.random(m)
            assert abs(oracles.dtw(a, b) - _brute_dtw(a, b)) <= 1e-12, (n, m)


def test_rotation_conventions():
    def turn(yaw=0.0, pitch=0.0, roll=0.0):
        return oracles.rotations([yaw], [pitch], [roll])[0]

    x, y, z = np.eye(3)
    assert np.allclose(turn(yaw=90) @ z, x)
    assert np.allclose(turn(roll=90) @ x, y)
    assert np.allclose(turn(pitch=90) @ z, y)
    assert np.allclose(turn(pitch=-90) @ z, -y)
    from eyerig.mapper import rotation_matrix
    angles = np.random.default_rng(1).uniform(-60, 60, (20, 3))
    stacked = oracles.rotations(*angles.T)
    for (yw, p, r), R in zip(angles, stacked):
        assert np.allclose(R, rotation_matrix(yw, p, r), atol=1e-15, rtol=0)


def test_projection_matches_map_sequence():
    from eyerig import ControlSequence, default_model, map_sequence
    rng = np.random.default_rng(2)
    values = np.zeros((40, len(oracles.CHANNELS)))
    values[:, : oracles.N_AU] = rng.uniform(0, 0.5, (40, oracles.N_AU))
    values[:, oracles.COL["gaze_right"]] = rng.uniform(0, 1, 40)
    values[:, oracles.COL["gaze_down"]] = rng.uniform(0, 1, 40)
    values[:, -3:] = rng.uniform(-40, 40, (40, 3))
    oracles.check_controls(values, 40, "random controls")
    points2d, _ = map_sequence(ControlSequence(values, 25.0))
    err = np.max(np.abs(oracles.project(values, default_model()) - points2d.frames))
    assert err <= 1e-12, err


def test_f1_counts():
    pred = np.zeros((4, 17))
    ref = np.zeros((4, 17))
    pred[:2, 0] = 0.5  # two predicted cells, one of them matched
    ref[1:4, 0] = 0.5  # three reference cells
    precision, recall, f1 = oracles.f1_scores(pred, ref)
    assert (precision, recall) == (0.5, 1 / 3) and abs(f1 - 0.4) <= 1e-15
    assert oracles.f1_scores(np.zeros((3, 17)), np.zeros((3, 17))) == (1.0, 1.0, 1.0)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_specs()


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} oracle self-tests passed")
