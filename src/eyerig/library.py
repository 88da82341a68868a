"""Prototype store: retrieval over the per-prototype channel means that the library
computes, and control inversion."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    CHANNEL_RANGES,
    GAZE_NAMES,
    HEAD_NAMES,
    N_AU,
    N_CHANNELS,
    N_GAZE,
    ControlSequence,
    _check_version,
    _dumps_floats,
    _fields,
    _read_json,
)
from .mapper import (
    GAZE_POINT_INDICES,
    N_POINTS,
    DeformationModel,
    KeypointSequence,
    _write_json_streamed,
    default_model,
    euler_from_rotation,
    mirror_points,
)

__all__ = [
    "LIBRARY_FORMAT_VERSION",
    "DEFAULT_QUERY_WEIGHTS",
    "NeutralBaseline",
    "Prototype",
    "PrototypeLibrary",
    "QueryResult",
    "baseline_from_model",
    "build_library",
    "query",
    "save_library",
    "load_library",
    "invert_controls",
]

LIBRARY_FORMAT_VERSION = 1

# Channel weights for retrieval: AUs carry double weight, everything else unit.
DEFAULT_QUERY_WEIGHTS: np.ndarray = np.concatenate(
    [np.full(N_AU, 2.0), np.ones(N_GAZE), np.ones(3)]
)
DEFAULT_QUERY_WEIGHTS.setflags(write=False)

# Head channels enter the distance normalized by their range half-width so a
# degree does not swamp an intensity unit.
_CHANNEL_NORM = np.array(
    [(hi - lo) / 2.0 if name in HEAD_NAMES else 1.0 for name, (lo, hi) in CHANNEL_RANGES.items()]
)
_CHANNEL_NORM.setflags(write=False)


@dataclass(frozen=True)
class NeutralBaseline:
    """Rest-expression keypoint geometry for one identity, 62 x 3."""

    points: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.shape != (N_POINTS, 3):
            raise ValueError(f"baseline must have shape ({N_POINTS}, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("baseline contains non-finite values")
        if np.max(np.abs(arr - mirror_points(arr))) > 1e-6:
            raise ValueError("baseline is not bilaterally symmetric about the midline")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)


def baseline_from_model(model: DeformationModel | None = None) -> NeutralBaseline:
    return NeutralBaseline((model or default_model()).template)


@dataclass(frozen=True)
class Prototype:
    """One stored behavior snippet: label, controls, its source trace's 3-D keypoints if any."""

    label: str
    controls: ControlSequence
    keypoints: KeypointSequence | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.label, str) and self.label):
            raise ValueError(f"prototype label must be a non-empty string, got {self.label!r}")
        if self.keypoints is None:
            return
        dims = self.keypoints.frames.shape[-1]
        if dims != 3:
            raise ValueError(f"prototype '{self.label}': keypoints must be 3-D, got {dims}-D")
        if len(self.controls) != len(self.keypoints):
            raise ValueError(
                f"prototype '{self.label}': controls ({len(self.controls)} frames) and "
                f"keypoints ({len(self.keypoints)} frames) disagree"
            )


@dataclass(frozen=True)
class PrototypeLibrary:
    """Immutable prototype collection with a label index and stacked channel means."""

    prototypes: tuple[Prototype, ...]
    by_label: dict[str, tuple[int, ...]] = field(default_factory=dict, compare=False)
    _means: np.ndarray = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        protos = tuple(self.prototypes)
        index: dict[str, list[int]] = {}
        for i, p in enumerate(protos):
            index.setdefault(p.label, []).append(i)
        means = np.array([p.controls.values.mean(axis=0) for p in protos]).reshape(-1, N_CHANNELS)
        means.setflags(write=False)
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "by_label", {k: tuple(v) for k, v in index.items()})
        object.__setattr__(self, "_means", means)

    def __len__(self) -> int:
        return len(self.prototypes)

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_label))


@dataclass(frozen=True)
class QueryResult:
    prototype_id: int
    distance: float
    label: str


def build_library(records: Iterable[tuple]) -> PrototypeLibrary:
    """Assemble prototypes from (label, controls) or (label, controls, keypoints) records.

    Per-prototype length agreement is checked by the Prototype constructor;
    the library computes the per-prototype channel means used by retrieval.
    """
    protos = [Prototype(*record) for record in records]
    return PrototypeLibrary(tuple(protos))


def query(
    lib: PrototypeLibrary,
    target: np.ndarray | Sequence[float],
    weights: np.ndarray | Sequence[float] | None = None,
    label_filter: str | None = None,
    k: int = 1,
) -> list[QueryResult]:
    """Top-k prototypes by weighted L1 distance between target and channel means.

    Distance is sum_j w_j |q_j - mean_j| with head channels normalized by
    their range half-width.  Ties break toward the lower prototype id.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(target, dtype=np.float64)
    if q.shape != (N_CHANNELS,):
        raise ValueError(f"target must have shape ({N_CHANNELS},), got {q.shape}")
    w = (
        np.array(DEFAULT_QUERY_WEIGHTS)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    if w.shape != (N_CHANNELS,):
        raise ValueError(f"weights must have shape ({N_CHANNELS},), got {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")

    if label_filter is not None:
        ids = np.asarray(lib.by_label.get(label_filter, ()), dtype=np.intp)
    else:
        ids = np.arange(len(lib), dtype=np.intp)
    if ids.size == 0:
        return []
    diffs = np.abs(q[None, :] - lib._means[ids]) / _CHANNEL_NORM[None, :]
    dists = diffs @ w
    order = np.lexsort((ids, dists))[: min(k, ids.size)]
    return [
        QueryResult(int(ids[i]), float(dists[i]), lib.prototypes[int(ids[i])].label)
        for i in order
    ]


def _prototype_json(p: Prototype) -> str:
    """`json.dumps` of a prototype's entry, keys sorted; keypoints only when it has them."""
    fields = {"controls": _dumps_floats(p.controls.values), "fps": json.dumps(p.controls.fps),
              "label": json.dumps(p.label)}
    if p.keypoints is not None:
        fields["keypoints"] = _dumps_floats(p.keypoints.frames)
    return "".join(["{", ", ".join(f'"{k}": {v}' for k, v in sorted(fields.items())), "}"])


def save_library(lib: PrototypeLibrary, path: str | Path) -> None:
    """Write the library JSON; floats round-trip bit-exact via repr.

    A prototype's "keypoints" are written only when it has them.  Prototypes
    are encoded and written one at a time, so memory holds one prototype's
    text, not the whole file's.
    """
    items = (_prototype_json(p) for p in lib.prototypes)
    _write_json_streamed(path, {"version": LIBRARY_FORMAT_VERSION}, "prototypes", items)


def load_library(path: str | Path) -> PrototypeLibrary:
    """Read a library JSON; channel means are recomputed, never trusted from disk."""
    payload = _fields(_read_json(path), {"version": None, "prototypes": "list"}, f"{path}: $",
                      required=("prototypes",))
    _check_version(payload, LIBRARY_FORMAT_VERSION, "library", path)
    spec = {"label": None, "fps": None, "controls": "list", "keypoints": None}
    protos = []
    for i, entry in enumerate(payload["prototypes"]):
        where = f"{path}: prototypes[{i}]"
        _fields(entry, spec, where, required=("label", "fps", "controls"))
        try:
            fps = entry["fps"]
            controls = ControlSequence(np.asarray(entry["controls"], dtype=np.float64), fps)
            kp = entry.get("keypoints")
            keypoints = None if kp is None else KeypointSequence(np.asarray(kp, dtype=np.float64), fps)
            protos.append(Prototype(entry["label"], controls, keypoints))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    return PrototypeLibrary(tuple(protos))


def _kabsch(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotation R minimizing ||target - R @ source|| over proper rotations.

    Points are rows, already referenced to the rotation center; no centering
    or scaling here.  (k, 3) point sets give one (3, 3) rotation; (..., k, 3)
    stacks, broadcast against each other, give a (..., 3, 3) stack, each
    matrix equal to its own pair's call.
    """
    H = source.swapaxes(-1, -2) @ target
    U, _, Vt = np.linalg.svd(H)
    V, Ut = Vt.swapaxes(-1, -2), U.swapaxes(-1, -2)
    D = np.broadcast_to(np.eye(3), H.shape).copy()
    D[..., 2, 2] = np.sign(np.linalg.det(V @ Ut))
    return V @ D @ Ut


def _anchor_points(model: DeformationModel) -> np.ndarray:
    """Indices of points no AU or gaze basis ever displaces.

    Such points move rigidly with the head, so aligning them alone recovers
    the rotation without deformation cross-talk.  Needs a well-spread set to
    be usable; callers fall back to all-point alignment otherwise.
    """
    moved = np.abs(model.au_bases).sum(axis=(0, 2)) + np.abs(model.gaze_bases).sum(axis=(0, 2))
    ids = np.where(moved == 0.0)[0]
    if ids.size < 3:
        return np.empty(0, dtype=np.intp)
    spread = model.template[ids] - model.template[ids].mean(axis=0)
    sv = np.linalg.svd(spread, compute_uv=False)
    if sv[1] < 1e-6:  # collinear anchors cannot fix a rotation
        return np.empty(0, dtype=np.intp)
    return ids.astype(np.intp)


def nnls(A: np.ndarray, b: np.ndarray):
    """`scipy.optimize.nnls(A, b)`, imported on the first call.

    Only inversion needs scipy, so no other command pays for importing it.
    `invert_controls` looks this name up at call time, so wrapping the module
    attribute sees every solve.
    """
    from scipy.optimize import nnls as solve

    return solve(A, b)


# Pre-computed index sets for the inversion's two residual sub-problems.
_GAZE_IDS = np.asarray(GAZE_POINT_INDICES, dtype=np.intp)
_SHAPE_IDS = np.asarray(
    [i for i in range(N_POINTS) if i not in set(GAZE_POINT_INDICES)], dtype=np.intp
)


def invert_controls(
    keypoints: KeypointSequence,
    baseline: NeutralBaseline,
    model: DeformationModel | None = None,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> ControlSequence:
    """Recover per-frame control vectors from 3-D keypoints.

    Per frame, alternates (a) rigid-rotation estimation against the deformed
    baseline, (b) least squares of the de-rotated lid/brow residual onto the
    AU bases, redone as non-negative least squares where it goes negative,
    and (c) gaze readout from the mean iris/pupil residual, until the
    recovered vector moves less than `tol`.  Extreme head poses contract
    slowly, hence the generous iteration cap.

    Each iteration runs over all still-active frames at once; a frame leaves
    the active set with the vector of the iteration it converged on.  Every
    frame's sums keep the order of a one-frame solve (stacked (1, k) and
    (k, 1) products, never one (n, k) @ (k, m)), so the result is
    bit-identical to inverting frame by frame (the reference loop in
    tests/test_library.py).  Degenerate frames are checked over the whole
    sequence first; then the lowest non-convergent frame raises.
    """
    model = model or default_model()
    dims = keypoints.frames.shape[-1]
    if dims != 3:
        raise ValueError(f"control inversion needs 3-D keypoints, got {dims}-D")
    base = baseline.points
    c = base.mean(axis=0)
    base_c = base - c

    # Flattened AU design matrix over lid/brow points only; gaze never leaks in.
    A = model.au_bases[:, _SHAPE_IDS, :].reshape(N_AU, -1).T
    if np.linalg.matrix_rank(A) < N_AU:
        raise ValueError("AU bases are rank-deficient over lid/brow points")
    # Reduce the tall LS problem once: argmin ||Ax - b|| == argmin ||Rx - Q^T b||.
    Q, Rqr = np.linalg.qr(A)
    pinv = np.linalg.pinv(A)
    gaze_step = np.array(
        [model.gaze_bases[i, _GAZE_IDS, :].mean(axis=0) for i in range(N_GAZE)]
    )  # (4, 3) mean displacement per unit magnitude
    h_step = abs(gaze_step[GAZE_NAMES.index("gaze_right"), 0])
    v_step = abs(gaze_step[GAZE_NAMES.index("gaze_up"), 1])
    if h_step <= 0 or v_step <= 0:
        raise ValueError("gaze bases have no horizontal/vertical support")

    gaze_div = np.array([h_step, h_step, v_step, v_step])
    au_flat = model.au_bases.reshape(N_AU, -1)
    gaze_flat = model.gaze_bases.reshape(N_GAZE, -1)

    obs_c = keypoints.frames - c
    spread = (obs_c - obs_c.mean(axis=1, keepdims=True)).reshape(len(keypoints), 1, -1)
    # (1, k) @ (k, 1) is a dot product, summed as a one-frame Frobenius norm is.
    degenerate = np.flatnonzero(np.sqrt(spread @ spread.swapaxes(-1, -2)).ravel() < 1e-9)
    if degenerate.size:
        raise ValueError(f"frame {degenerate[0] + 1}: degenerate keypoint configuration")

    # Rotation seed: rigid anchor points when the model has them, else a
    # crude all-point alignment that the loop refines.
    anchors = _anchor_points(model)
    if anchors.size:
        R = _kabsch(base_c[anchors], obs_c[:, anchors])
    else:
        R = _kabsch(base_c, obs_c)
    out = np.zeros((len(keypoints), N_CHANNELS))
    active = np.arange(len(keypoints))  # frame index of each row still iterating
    vec = np.zeros_like(out)  # each active frame's previous vector
    for _ in range(max_iter):
        residual = obs_c @ R + c - base  # R.T applied to rows
        b = residual[:, _SHAPE_IDS].reshape(len(active), -1, 1)
        au = (pinv @ b)[..., 0]
        for i in np.flatnonzero((au < 0.0).any(axis=1)):
            au[i], _ = nnls(Rqr, (Q.T @ b[i])[:, 0])
        au = np.clip(au, 0.0, 1.0)
        g = residual[:, _GAZE_IDS].mean(axis=1)
        # Clamped below at 0 by a select, not np.maximum, so that -0.0 stays -0.0
        # as in the frame-by-frame readout: the library file writes the sign.
        signed = np.stack([-g[:, 0], g[:, 0], g[:, 1], -g[:, 1]], axis=1)  # left, right, up, down
        gaze = np.clip(np.where(signed < 0.0, 0.0, signed) / gaze_div, 0.0, 1.0)
        new_vec = np.concatenate([au, gaze, np.stack(euler_from_rotation(R), axis=1)], axis=1)
        moving = np.flatnonzero(~(np.max(np.abs(new_vec - vec), axis=1) < tol))
        out[active] = new_vec
        if moving.size == 0:
            return ControlSequence(out, keypoints.fps)
        active, obs_c, vec = active[moving], obs_c[moving], new_vec[moving]
        disp = np.matmul(au[moving, None, :], au_flat)
        disp += np.matmul(gaze[moving, None, :], gaze_flat)
        R = _kabsch(base_c + disp.reshape(-1, N_POINTS, 3), obs_c)
    raise ValueError(f"frame {active[0] + 1}: control inversion did not converge")
