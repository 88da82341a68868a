"""Independent checks of eyerig outputs.

Everything here is the benchmark's own code, written from the file formats and
conventions the README and docstrings document: CSV parsing with `csv`, range and
invariant checks, a vectorised keypoint projection, an activation-F1 count and a
row-at-a-time DTW. Only the model's arrays (`default_model()`) and the label's
signature AU list come from eyerig. A failed check raises CheckError.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

AU_NAMES = ("AU1", "AU2_L", "AU2_R", "AU4_L", "AU4_R", "AU5_L", "AU5_R", "AU7", "AU43_L", "AU43_R")
GAZE_NAMES = ("gaze_left", "gaze_right", "gaze_up", "gaze_down")
HEAD_LIMITS = {"yaw": 90.0, "pitch": 60.0, "roll": 45.0}
CHANNELS = AU_NAMES + GAZE_NAMES + tuple(HEAD_LIMITS)
COL = {name: i for i, name in enumerate(CHANNELS)}
N_AU, N_GAZE = len(AU_NAMES), len(GAZE_NAMES)
LID_LIMIT = 0.5
ACTIVATION_THRESHOLD = 0.1


class CheckError(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_controls(path: str | Path) -> tuple[np.ndarray, float]:
    """Parse a controls CSV and its sidecar; returns (T x 17 values, fps)."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and tuple(rows[0]) == ("frame",) + CHANNELS, f"{path.name}: unexpected header")
    body = rows[1:]
    require([r[0] for r in body] == [str(t) for t in range(1, len(body) + 1)],
            f"{path.name}: frame column is not 1..T")
    values = np.array([[float(v) for v in r[1:]] for r in body]).reshape(-1, len(CHANNELS))
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    return values, meta["fps"]


def check_controls(values: np.ndarray, frames: int, what: str) -> None:
    """Frame count, channel ranges and the two control-space invariants."""
    require(values.shape == (frames, len(CHANNELS)), f"{what}: shape {values.shape}, want {frames} frames")
    require(np.all(np.isfinite(values)), f"{what}: non-finite values")
    unit = values[:, : N_AU + N_GAZE]
    require(np.all((unit >= 0.0) & (unit <= 1.0)), f"{what}: AU or gaze outside [0, 1]")
    for name, limit in HEAD_LIMITS.items():
        require(np.all(np.abs(values[:, COL[name]]) <= limit), f"{what}: {name} outside +-{limit:g}")
    for a, b in (("gaze_left", "gaze_right"), ("gaze_up", "gaze_down")):
        both = (values[:, COL[a]] > 0.0) & (values[:, COL[b]] > 0.0)
        require(not both.any(), f"{what}: {a} and {b} both active at frame {np.argmax(both) + 1}")
    for side in ("L", "R"):
        both = (values[:, COL[f"AU5_{side}"]] > LID_LIMIT) & (values[:, COL[f"AU43_{side}"]] > LID_LIMIT)
        require(not both.any(), f"{what}: AU5_{side} and AU43_{side} conflict at frame {np.argmax(both) + 1}")


def rotations(yaw, pitch, roll) -> np.ndarray:
    """Stacked head rotations R = Rz(roll) Rx(-pitch) Ry(yaw), angles in degrees.

    Built from the documented convention alone: yaw = 90 maps +z to +x,
    roll = 90 maps +x to +y, and positive pitch turns +z toward +y.
    """
    y, p, r = (np.deg2rad(np.asarray(a, dtype=np.float64)) for a in (yaw, pitch, roll))
    one, zero = np.ones_like(y), np.zeros_like(y)

    def stack(rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    ry = stack([[np.cos(y), zero, np.sin(y)], [zero, one, zero], [-np.sin(y), zero, np.cos(y)]])
    rx = stack([[one, zero, zero], [zero, np.cos(p), np.sin(p)], [zero, -np.sin(p), np.cos(p)]])
    rz = stack([[np.cos(r), -np.sin(r), zero], [np.sin(r), np.cos(r), zero], [zero, zero, one]])
    return rz @ rx @ ry


def project(values: np.ndarray, model) -> np.ndarray:
    """(T, 62, 2) keypoints for (T, 17) controls, in one batched pass."""
    pre = (model.template
           + np.einsum("ta,apk->tpk", values[:, :N_AU], model.au_bases)
           + np.einsum("tg,gpk->tpk", values[:, N_AU:N_AU + N_GAZE], model.gaze_bases))
    c = model.template.mean(axis=0)
    R = rotations(values[:, COL["yaw"]], values[:, COL["pitch"]], values[:, COL["roll"]])
    rotated = np.einsum("tpk,tjk->tpj", pre - c, R) + c
    ppx, ppy = model.principal_point
    return np.stack([ppx + model.scale * rotated[..., 0], ppy - model.scale * rotated[..., 1]], axis=-1)


def dtw(a, b) -> float:
    """DTW cost (cell |a_i - b_j|, steps right/down/diagonal), one row at a time.

    Row i is acc[j] = C[j] + min over k <= j of (up_or_diag[k] - C[k]), with C
    the prefix sum of the row's costs, so each row is a few array operations.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    acc = np.cumsum(np.abs(a[0] - b))
    for x in a[1:]:
        cost = np.abs(x - b)
        up_or_diag = cost + np.minimum(acc, np.concatenate(([np.inf], acc[:-1])))
        prefix = np.cumsum(cost)
        acc = prefix + np.minimum.accumulate(up_or_diag - prefix)
    return float(acc[-1])


def f1_scores(pred: np.ndarray, ref: np.ndarray, threshold: float = ACTIVATION_THRESHOLD):
    """(precision, recall, f1) of frame-wise AU activation, cells above threshold."""
    pa = pred[:, :N_AU] > threshold
    ga = ref[:, :N_AU] > threshold
    tp, pp, rp = int(np.sum(pa & ga)), int(np.sum(pa)), int(np.sum(ga))
    precision = tp / pp if pp else float(rp == 0)
    recall = tp / rp if rp else float(pp == 0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def temporal_score(pred: np.ndarray, ref: np.ndarray, channels) -> float:
    costs = [dtw(pred[:, COL[n]], ref[:, COL[n]]) for n in channels]
    return max(0.0, 1.0 - float(np.mean(costs)) / ref.shape[0])


def check_compile(op: dict, out: Path, code: int, model) -> None:
    """Controls, keypoints and audit of one compile op against its request."""
    label, frames = op["label"], op["frames"]
    values, fps = read_controls(out / f"{label}.controls.csv")
    require(fps == 25.0, f"{label}: sidecar fps {fps}")
    check_controls(values, frames, f"{out.name}/{label}.controls.csv")
    kp = json.loads((out / f"{label}.keypoints.json").read_text())
    require(kp["layout"] == "cogportrait-62-v1" and kp["fps"] == fps, f"{label}: keypoints header")
    points = np.asarray(kp["frames"], dtype=np.float64)
    require(points.shape == (frames, 62, 2), f"{label}: keypoints shape {points.shape}")
    err = float(np.max(np.abs(points - project(values, model))))
    require(err <= 1e-9, f"{out.name}/{label}: keypoints differ from the projected controls by {err:.3g}")
    audit = json.loads((out / f"{label}.audit.json").read_text())
    require(audit["frames"] == frames, f"{label}: audit frames {audit['frames']}")
    require(audit["verdict"] == {0: "pass", 2: "fail"}[code], f"{label}: verdict {audit['verdict']} with exit {code}")
    if op["expect_fail"] and code == 2:
        require(any(op["expect_fail"] in v["message"] for v in audit["violations"]),
                f"{label}: audit lacks the expected reason {op['expect_fail']!r}")


def check_build_lib(op: dict) -> None:
    """The library holds every trace; its recovered controls match their sources."""
    lib = json.loads(Path(op["library"]).read_text())
    require(lib["version"] == 1, "library version")
    sources = np.load(op["sources"])
    stems = sorted(sources.files)
    require(len(lib["prototypes"]) == len(stems), "library prototype count")
    for stem, proto in zip(stems, lib["prototypes"]):
        require(proto["label"] == stem.split("__")[0], f"{stem}: label {proto['label']}")
        controls = np.asarray(proto["controls"], dtype=np.float64)
        source = sources[stem]
        require(controls.shape == source.shape, f"{stem}: controls shape {controls.shape}")
        err = float(np.max(np.abs(controls - source)))
        require(err <= 1e-3, f"{stem}: recovered controls differ from the source by {err:.3g}")
        trace = json.loads((Path(op["traces"]) / f"{stem}.keypoints.json").read_text())
        require(proto["keypoints"] == trace["frames"], f"{stem}: stored keypoints differ from the trace")


def check_eval(op: dict, stdout: str, signature: tuple[str, ...]) -> None:
    """au_f1 and au_temp against the benchmark's own count and DTW."""
    report = json.loads(stdout)
    pred, _ = read_controls(op["pred"])
    ref, _ = read_controls(op["ref"])
    precision, recall, f1 = f1_scores(pred, ref)
    got = report["au_f1"]
    for name, want in (("precision", precision), ("recall", recall), ("f1", f1)):
        require(abs(got[name] - want) <= 1e-12, f"{op['label']}: au_f1 {name} {got[name]} != {want}")
    want = temporal_score(pred, ref, signature)
    require(abs(report["au_temp"] - want) <= 1e-9, f"{op['label']}: au_temp {report['au_temp']} != {want}")


def same_tree(a: Path, b: Path) -> None:
    """Every file under a and b is present in both and byte-identical."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    require(files_a == files_b, f"repeated ops wrote different file sets: {files_a} vs {files_b}")
    for rel in files_a:
        require((a / rel).read_bytes() == (b / rel).read_bytes(), f"repeated op wrote different bytes to {rel}")
