"""Deformation model mapping control vectors to 62-point eye-region keypoints."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np
from numpy.typing import ArrayLike

from .channels import (
    AU_SLICE,
    GAZE_NAMES,
    GAZE_SLICE,
    HEAD_SLICE,
    N_AU,
    N_GAZE,
    ControlSequence,
    _dumps_floats,
    _fields,
    _number_problem,
    _read_json,
    channel_index,
    validate_sequence,
)

__all__ = [
    "KEYPOINT_LAYOUT",
    "N_POINTS",
    "LEFT_UPPER_LID",
    "LEFT_LOWER_LID",
    "LEFT_IRIS",
    "LEFT_PUPIL",
    "RIGHT_UPPER_LID",
    "RIGHT_LOWER_LID",
    "RIGHT_IRIS",
    "RIGHT_PUPIL",
    "LEFT_BROW",
    "RIGHT_BROW",
    "GAZE_POINT_INDICES",
    "MIRROR_PERMUTATION",
    "KeypointSequence",
    "DeformationModel",
    "default_model",
    "rotation_matrix",
    "euler_from_rotation",
    "map_sequence",
    "mirror_points",
    "save_keypoints_json",
    "load_keypoints_json",
]

# On-wire layout id; consumers match on this string, so it is frozen.
KEYPOINT_LAYOUT = "cogportrait-62-v1"
N_POINTS = 62

# Index blocks.  Per eye: 8 upper lid, 8 lower lid, 4 iris, 1 pupil; then
# 10 brow points per side.  "Left" is the negative-x side of the canonical face.
LEFT_UPPER_LID = tuple(range(0, 8))
LEFT_LOWER_LID = tuple(range(8, 16))
LEFT_IRIS = tuple(range(16, 20))
LEFT_PUPIL = 20
RIGHT_UPPER_LID = tuple(range(21, 29))
RIGHT_LOWER_LID = tuple(range(29, 37))
RIGHT_IRIS = tuple(range(37, 41))
RIGHT_PUPIL = 41
LEFT_BROW = tuple(range(42, 52))
RIGHT_BROW = tuple(range(52, 62))

LEFT_EYE_BLOCK = LEFT_UPPER_LID + LEFT_LOWER_LID + LEFT_IRIS + (LEFT_PUPIL,)
RIGHT_EYE_BLOCK = RIGHT_UPPER_LID + RIGHT_LOWER_LID + RIGHT_IRIS + (RIGHT_PUPIL,)
GAZE_POINT_INDICES = LEFT_IRIS + (LEFT_PUPIL,) + RIGHT_IRIS + (RIGHT_PUPIL,)

_EYE_HALF_SPAN = 0.18  # eye centers sit at x = -+ this


def _build_mirror_permutation() -> np.ndarray:
    perm = np.empty(N_POINTS, dtype=np.intp)
    pairs = [
        (LEFT_UPPER_LID, RIGHT_UPPER_LID),
        (LEFT_LOWER_LID, RIGHT_LOWER_LID),
        (LEFT_IRIS, RIGHT_IRIS),
        ((LEFT_PUPIL,), (RIGHT_PUPIL,)),
        (LEFT_BROW, RIGHT_BROW),
    ]
    for left, right in pairs:
        for a, b in zip(left, right):
            perm[a] = b
            perm[b] = a
    return perm


# Point index permutation swapping the left and right blocks.
MIRROR_PERMUTATION: np.ndarray = _build_mirror_permutation()
MIRROR_PERMUTATION.setflags(write=False)


def mirror_points(points: np.ndarray) -> np.ndarray:
    """Reflect a (..., 62, k) point array about the canonical midline (x -> -x)."""
    out = np.asarray(points, dtype=np.float64)[..., MIRROR_PERMUTATION, :].copy()
    out[..., 0] = -out[..., 0]
    return out


def _check_points(points: np.ndarray, dims: int, what: str, ndim: int = 2) -> np.ndarray:
    """Float64 `points`, checked finite and shaped (62, dims), or (T, 62, dims) when ndim is 3."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-2:] != (N_POINTS, dims):
        lead = "T, " * (ndim - 2)
        raise ValueError(f"{what} must have shape ({lead}{N_POINTS}, {dims}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class KeypointSequence:
    """Keypoints over time: (T, 62, 2) projected, or (T, 62, 3) rotated before projection."""

    frames: np.ndarray
    fps: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[2] not in (2, 3):
            raise ValueError(
                f"keypoint sequence must have shape (T, {N_POINTS}, 2|3), T >= 1, got {arr.shape}"
            )
        arr = _check_points(arr, arr.shape[2], "keypoint sequence", ndim=3).copy()
        problem = _number_problem(self.fps, "positive")
        if problem:
            raise ValueError(f"fps {problem}")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)
        object.__setattr__(self, "fps", float(self.fps))

    def __len__(self) -> int:
        return int(self.frames.shape[0])


@dataclass(frozen=True)
class DeformationModel:
    """Linear keypoint model: template plus AU bases, gaze offsets, projection.

    template: (62, 3) rest geometry.  au_bases: (10, 62, 3), one displacement
    field per AU channel, zero outside that AU's anatomical subset.
    gaze_bases: (4, 62, 3), displacement per unit gaze magnitude, supported
    only on iris/pupil points.  Projection is weak-perspective about
    principal_point with isotropic scale.
    """

    template: np.ndarray
    au_bases: np.ndarray
    gaze_bases: np.ndarray
    scale: float = 1.0
    principal_point: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        tmpl = _check_points(self.template, 3, "template").copy()
        au = np.asarray(self.au_bases, dtype=np.float64)
        gz = np.asarray(self.gaze_bases, dtype=np.float64)
        if au.shape != (N_AU, N_POINTS, 3):
            raise ValueError(f"au_bases must have shape ({N_AU}, {N_POINTS}, 3), got {au.shape}")
        if gz.shape != (N_GAZE, N_POINTS, 3):
            raise ValueError(f"gaze_bases must have shape ({N_GAZE}, {N_POINTS}, 3), got {gz.shape}")
        if not (np.all(np.isfinite(au)) and np.all(np.isfinite(gz))):
            raise ValueError("deformation bases contain non-finite values")
        if not self.scale > 0:
            raise ValueError("projection scale must be positive")
        au = au.copy()
        gz = gz.copy()
        for arr in (tmpl, au, gz):
            arr.setflags(write=False)
        object.__setattr__(self, "template", tmpl)
        object.__setattr__(self, "au_bases", au)
        object.__setattr__(self, "gaze_bases", gz)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "principal_point", (float(self.principal_point[0]), float(self.principal_point[1])))

    @property
    def centroid(self) -> np.ndarray:
        return self.template.mean(axis=0)


def _face_depth(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # gentle convexity toward the camera; symmetric in x
    return 0.05 - 0.25 * x**2 - 0.10 * (y - 0.02) ** 2


def _left_eye_points() -> dict[str, np.ndarray]:
    cx = -_EYE_HALF_SPAN
    theta_u = np.pi * np.arange(8) / 7.0
    upper = np.stack(
        [cx + 0.07 * np.cos(theta_u), 0.035 * np.sin(theta_u), np.zeros(8)], axis=1
    )
    theta_l = np.pi * (np.arange(8) + 0.5) / 8.0
    lower = np.stack(
        [cx + 0.07 * np.cos(theta_l), -0.030 * np.sin(theta_l), np.zeros(8)], axis=1
    )
    iris = np.array(
        [
            [cx + 0.028, 0.0, 0.008],
            [cx, 0.028, 0.008],
            [cx - 0.028, 0.0, 0.008],
            [cx, -0.028, 0.008],
        ]
    )
    pupil = np.array([[cx, 0.0, 0.012]])
    t = np.linspace(0.0, 1.0, 10)
    brow = np.stack(
        [cx + 0.095 - 0.200 * t, 0.105 + 0.035 * np.sin(np.pi * (0.05 + 0.9 * t)), np.full(10, 0.015)],
        axis=1,
    )
    for arr in (upper, lower, iris, pupil, brow):
        arr[:, 2] += _face_depth(arr[:, 0], arr[:, 1])
    return {"upper": upper, "lower": lower, "iris": iris, "pupil": pupil, "brow": brow}


def _assemble_template() -> np.ndarray:
    left = _left_eye_points()
    pts = np.zeros((N_POINTS, 3))
    pts[list(LEFT_UPPER_LID)] = left["upper"]
    pts[list(LEFT_LOWER_LID)] = left["lower"]
    pts[list(LEFT_IRIS)] = left["iris"]
    pts[LEFT_PUPIL] = left["pupil"][0]
    pts[list(LEFT_BROW)] = left["brow"]
    # right side is the exact mirror of the left
    right_ids = list(RIGHT_EYE_BLOCK) + list(RIGHT_BROW)
    pts[right_ids] = mirror_points(pts)[right_ids]
    return pts


def _brow_profile_inner(t: np.ndarray) -> np.ndarray:
    return (1.0 - t) ** 2


def _brow_profile_outer(t: np.ndarray) -> np.ndarray:
    return t**2


def _brow_profile_lower(t: np.ndarray) -> np.ndarray:
    return 0.6 + 0.4 * (1.0 - t)


def _build_au_bases() -> np.ndarray:
    bases = np.zeros((N_AU, N_POINTS, 3))
    t = np.linspace(0.0, 1.0, 10)  # brow parameter, inner -> outer
    sin_u = np.sin(np.pi * np.arange(8) / 7.0)
    sin_l = np.sin(np.pi * (np.arange(8) + 0.5) / 8.0)

    def left_basis(name: str) -> np.ndarray:
        b = np.zeros((N_POINTS, 3))
        if name == "AU2":
            b[list(LEFT_BROW), 1] = 0.032 * _brow_profile_outer(t)
        elif name == "AU4":
            w = _brow_profile_lower(t)
            b[list(LEFT_BROW), 1] = -0.028 * w
            b[list(LEFT_BROW), 0] = 0.008 * w  # toward the midline for the left side
        elif name == "AU5":
            b[list(LEFT_UPPER_LID), 1] = 0.022 * sin_u
        elif name == "AU43":
            b[list(LEFT_UPPER_LID), 1] = -0.055 * sin_u
            b[list(LEFT_LOWER_LID), 1] = 0.008 * sin_l
        else:
            raise ValueError(name)
        return b

    # AU1: bilateral inner-brow raise
    au1 = np.zeros((N_POINTS, 3))
    au1[list(LEFT_BROW), 1] = 0.030 * _brow_profile_inner(t)
    bases[channel_index("AU1")] = au1 + mirror_points(au1)
    for au in ("AU2", "AU4", "AU5", "AU43"):
        left = left_basis(au)
        bases[channel_index(f"{au}_L")] = left
        bases[channel_index(f"{au}_R")] = mirror_points(left)
    # AU7: bilateral lid tightener; squared profile keeps it independent of
    # the AU5/AU43 lid fields
    au7 = np.zeros((N_POINTS, 3))
    au7[list(LEFT_UPPER_LID), 1] = -0.007 * sin_u**2
    au7[list(LEFT_LOWER_LID), 1] = 0.012 * sin_l**2
    bases[channel_index("AU7")] = au7 + mirror_points(au7)
    # snap float dust (sin(pi) etc.) so untouched points are exactly rigid
    bases[np.abs(bases) < 1e-12] = 0.0
    return bases


def _build_gaze_bases() -> np.ndarray:
    bases = np.zeros((N_GAZE, N_POINTS, 3))
    ids = list(GAZE_POINT_INDICES)
    step_h, step_v = 0.035, 0.022
    bases[GAZE_NAMES.index("gaze_left"), ids, 0] = -step_h
    bases[GAZE_NAMES.index("gaze_right"), ids, 0] = step_h
    bases[GAZE_NAMES.index("gaze_up"), ids, 1] = step_v
    bases[GAZE_NAMES.index("gaze_down"), ids, 1] = -step_v
    return bases


_DEFAULT_MODEL: DeformationModel | None = None


def default_model() -> DeformationModel:
    """The built-in canonical model; constructed once, deterministic."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = DeformationModel(
            template=_assemble_template(),
            au_bases=_build_au_bases(),
            gaze_bases=_build_gaze_bases(),
            scale=1.0,
            principal_point=(0.5, 0.5),
        )
    return _DEFAULT_MODEL


def rotation_matrix(yaw: ArrayLike, pitch: ArrayLike, roll: ArrayLike) -> np.ndarray:
    """Head rotation R = Rz(roll) @ Rx(-pitch) @ Ry(yaw), angles in degrees.

    Intrinsic z-x-y composition in a y-up frame with the camera looking down
    -z.  yaw=90 maps +z to +x; roll=90 maps +x to +y; positive pitch raises
    the face (+z toward +y), so a lowering head has negative pitch.  Scalar
    angles give one (3, 3) matrix; arrays broadcast to a (..., 3, 3) stack.
    """
    y, p, r = np.deg2rad(np.stack(np.broadcast_arrays(yaw, pitch, roll)))
    cy, sy = np.cos(y), np.sin(y)
    cp, sp = np.cos(p), np.sin(p)
    cr, sr = np.cos(r), np.sin(r)
    o, i = np.zeros_like(y), np.ones_like(y)

    def mat(*rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    ry = mat((cy, o, sy), (o, i, o), (-sy, o, cy))
    rx = mat((i, o, o), (o, cp, sp), (o, -sp, cp))
    rz = mat((cr, -sr, o), (sr, cr, o), (o, o, i))
    return rz @ rx @ ry


def euler_from_rotation(R: ArrayLike) -> tuple[Any, Any, Any]:
    """Recover (yaw, pitch, roll) in degrees from a rotation_matrix() product.

    Valid away from pitch = +-90 deg, far outside the legal head range.  One
    (3, 3) matrix gives three scalars; a (..., 3, 3) stack gives three (...)
    arrays, each element equal to that matrix's own call.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 rotation, got {R.shape}")
    pitch = np.arcsin(np.clip(-R[..., 2, 1], -1.0, 1.0))
    yaw = np.arctan2(-R[..., 2, 0], R[..., 2, 2])
    roll = np.arctan2(-R[..., 0, 1], R[..., 1, 1])
    return tuple(np.rad2deg(np.stack([yaw, pitch, roll])))


def _project(points3d: np.ndarray, model: DeformationModel) -> np.ndarray:
    ppx, ppy = model.principal_point
    out = np.empty(points3d.shape[:-1] + (2,))
    out[..., 0] = ppx + model.scale * points3d[..., 0]
    out[..., 1] = ppy - model.scale * points3d[..., 1]  # image y grows downward
    return out


def _map_values(values: np.ndarray, model: DeformationModel) -> tuple[np.ndarray, np.ndarray]:
    """Map (T, 17) control values to (T, 62, 2) projected and (T, 62, 3) rotated points.

    Per-frame (1, k) @ (k, 186) products keep every frame's sums in the same
    order as a one-frame AU-then-gaze `tensordot` (the per-frame reference in
    tests/test_mapper.py), so the stack is bit-identical to mapping frame by
    frame; one (T, k) @ (k, 186) product is not.
    """
    disp = np.matmul(values[:, None, AU_SLICE], model.au_bases.reshape(N_AU, -1))
    disp += np.matmul(values[:, None, GAZE_SLICE], model.gaze_bases.reshape(N_GAZE, -1))
    pre = model.template + disp.reshape(-1, N_POINTS, 3)
    R = rotation_matrix(*values[:, HEAD_SLICE].T)
    c = model.centroid
    rotated = (pre - c) @ R.swapaxes(-1, -2) + c
    return _project(rotated, model), rotated


def map_sequence(
    seq: ControlSequence, model: DeformationModel | None = None
) -> tuple[KeypointSequence, KeypointSequence]:
    """Map every frame at once to (2-D, 3-D) keypoints; fps is carried through.

    Deformation is applied in the canonical frame, then the head rotation
    about the template centroid, then weak-perspective projection.  The
    sequence is validated as a whole first; an invalid one raises
    "frame N: invalid control state: ..." for its first bad frame only.
    """
    model = model or default_model()
    report = validate_sequence(seq)
    if not report.ok:
        first = report.violations[0].frame
        msgs = "; ".join(v.message for v in report.violations if v.frame == first)
        raise ValueError(f"frame {first}: invalid control state: {msgs}")
    points2d, rotated = _map_values(seq.values, model)
    return KeypointSequence(points2d, seq.fps), KeypointSequence(rotated, seq.fps)


# Frames per block when streaming keypoints: bounds the text held at once.
_KEYPOINT_BLOCK_FRAMES = 256


def _write_json_streamed(path: str | Path, payload: dict, key: str, items: Iterable[str]) -> None:
    """Write `payload` with `payload[key]` set to the list whose items' text is `items`, in order.

    Each piece of `items` is the JSON text of one or more list items, as
    `json.dumps` separates them.  The bytes equal
    `json.dump({**payload, key: [...]}, fh, sort_keys=True)` plus a newline,
    but only one piece's text is held at a time.
    """
    key_text = json.dumps(key)
    head, _, tail = json.dumps({**payload, key: None}, sort_keys=True).partition(f"{key_text}: null")
    with open(path, "w") as fh:
        fh.write(f"{head}{key_text}: [")
        sep = ""
        for text in items:
            fh.write(sep)
            fh.write(text)
            sep = ", "
            del text  # free this piece before the next one is encoded
        fh.write(f"]{tail}\n")


def save_keypoints_json(seq: KeypointSequence, path: str | Path) -> None:
    """Serialize 2-D or 3-D keypoints with fps and the layout id.

    Frames are written in blocks of a few hundred, so memory stays bounded
    on long clips; the file is the same as one `json.dump` of the payload.
    """
    frames = seq.frames
    items = (
        _dumps_floats(frames[i : i + _KEYPOINT_BLOCK_FRAMES])[1:-1]
        for i in range(0, len(frames), _KEYPOINT_BLOCK_FRAMES)
    )
    _write_json_streamed(path, {"fps": float(seq.fps), "layout": KEYPOINT_LAYOUT}, "frames", items)


def load_keypoints_json(path: str | Path, dims: int) -> KeypointSequence:
    """Load a keypoint JSON whose frames must carry `dims` (2 or 3) coordinates."""
    spec = {"fps": None, "layout": None, "frames": "list"}
    payload = _fields(_read_json(path), spec, f"{path}: $", required=tuple(spec))
    if payload["layout"] != KEYPOINT_LAYOUT:
        raise ValueError(f"{path}: unsupported layout {payload['layout']!r}")
    try:
        frames = np.asarray(payload["frames"], dtype=np.float64)
        if frames.ndim != 3 or frames.shape[1] != N_POINTS:
            raise ValueError(f"frames must have shape (T, {N_POINTS}, {dims}), got {frames.shape}")
        if frames.shape[2] != dims:
            raise ValueError(
                f"needs {dims}-D keypoints, found {frames.shape[2]}-D "
                "(map writes 2-D, map --three-d writes 3-D)"
            )
        return KeypointSequence(frames, payload["fps"])
    except (TypeError, ValueError) as exc:  # numpy raises these for ragged or non-numeric frames
        raise ValueError(f"{path}: {exc}") from None
