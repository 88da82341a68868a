"""Spatio-temporal guidance weights for diffusion-style refinement of eyes."""
from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import _number_problem
from .mapper import LEFT_IRIS, RIGHT_IRIS, _check_points

__all__ = [
    "GuidanceParams",
    "GuidanceField",
    "temporal_weight",
    "step_progress",
    "spatial_gain",
    "eye_centers",
    "guidance_field",
    "apply_guidance",
    "save_guidance_ogf1",
    "load_guidance_ogf1",
]

_MAGIC = b"OGF1"


@dataclass(frozen=True)
class GuidanceParams:
    """Weight schedule parameters.

    The temporal weight holds at omega_hi through early refinement, ramps
    down linearly between ramp_start and ramp_end (as fractions of total
    progress), and holds at omega_lo after.  Spatially the weight falls off
    as a Gaussian around each eye center whose width is width_scale times a
    quarter of the inter-center distance (about one eye half-width); far
    from the eyes it settles at omega_bg.  Every field is a finite number;
    n_steps is a positive int and width_scale positive.
    """

    omega_hi: float = 8.0
    omega_lo: float = 4.0
    ramp_start: float = 0.25
    ramp_end: float = 0.55
    width_scale: float = 1.0
    omega_bg: float = 1.0
    n_steps: int = 40

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            sign = "positive" if f.name in ("n_steps", "width_scale") else ""
            problem = _number_problem(getattr(self, f.name), sign, integer=f.type == "int")
            if problem:
                raise ValueError(f"{f.name} {problem}")
        if not (0.0 <= self.ramp_start < self.ramp_end <= 1.0):
            raise ValueError(
                f"need 0 <= ramp_start < ramp_end <= 1, got "
                f"{self.ramp_start:g}, {self.ramp_end:g}"
            )


@dataclass(frozen=True)
class GuidanceField:
    """Per-step weight grids, shape (steps, H, W), with each step's progress."""

    values: np.ndarray
    progress: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        prog = np.ascontiguousarray(np.asarray(self.progress, dtype=np.float64))
        if vals.ndim != 3:
            raise ValueError(f"field values must be (steps, H, W), got {vals.shape}")
        if prog.shape != (vals.shape[0],):
            raise ValueError(
                f"progress must have one entry per step, got {prog.shape} "
                f"for {vals.shape[0]} steps"
            )
        vals.setflags(write=False)
        prog.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "progress", prog)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.values.shape[1], self.values.shape[2])


def temporal_weight(progress, params: GuidanceParams | None = None):
    """Weight at a refinement progress in [0, 1]; scalar in, scalar out.

    Flat at omega_hi before ramp_start, flat at omega_lo after ramp_end,
    linear in between.
    """
    params = params or GuidanceParams()
    p = np.asarray(progress, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("progress must lie in [0, 1]")
    out = np.interp(
        p,
        [params.ramp_start, params.ramp_end],
        [params.omega_hi, params.omega_lo],
    )
    return float(out) if np.isscalar(progress) or p.ndim == 0 else out


def step_progress(n_steps: int) -> np.ndarray:
    """Midpoint progress of each refinement step: (k + 0.5) / n."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return (np.arange(n_steps) + 0.5) / n_steps


def spatial_gain(
    grid_shape: tuple[int, int],
    centers: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Gaussian attention grid: 1 at a center, falling off with cell distance.

    `centers` are (k, 2) points in cell coordinates (row, col), where integer
    coordinates land exactly on cell centers.  Overlapping bumps take the max
    so the gain never exceeds 1.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma:g}")
    c = np.asarray(centers, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
        raise ValueError(f"centers must be (k, 2), got {c.shape}")
    h, w = grid_shape
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    gain = np.zeros((h, w))
    for r, col in c:
        d2 = (rows - r) ** 2 + (cols - col) ** 2
        np.maximum(gain, np.exp(-d2 / (2.0 * sigma * sigma)), out=gain)
    return gain


def eye_centers(points: np.ndarray) -> np.ndarray:
    """Both iris centers of one (62, 2) keypoint frame, shape (2, 2) as (u, v)."""
    pts = _check_points(points, 2, "keypoint frame")
    left = pts[list(LEFT_IRIS)].mean(axis=0)
    right = pts[list(RIGHT_IRIS)].mean(axis=0)
    return np.stack([left, right])


def guidance_field(
    points: np.ndarray,
    grid_shape: tuple[int, int] = (64, 64),
    params: GuidanceParams | None = None,
) -> GuidanceField:
    """Build the per-step weight grids for one (62, 2) keypoint frame.

    Each step's grid blends the temporal weight over the eye regions with the
    background weight elsewhere: weight = w(t) * gain + omega_bg * (1 - gain).
    """
    params = params or GuidanceParams()
    h, w = grid_shape
    if h < 1 or w < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_shape}")
    centers_uv = eye_centers(points)
    # (u, v) -> (row, col) cell coordinates; integer coords hit cell centers
    centers_cells = np.stack(
        [centers_uv[:, 1] * h - 0.5, centers_uv[:, 0] * w - 0.5], axis=1
    )
    inter = float(np.linalg.norm(centers_cells[0] - centers_cells[1]))
    if inter < 1e-9:
        raise ValueError("degenerate eye geometry: iris centers coincide")
    sigma = params.width_scale * inter / 4.0
    gain = spatial_gain(grid_shape, centers_cells, sigma)
    prog = step_progress(params.n_steps)
    weights = temporal_weight(prog, params)
    values = weights[:, None, None] * gain + params.omega_bg * (1.0 - gain)
    return GuidanceField(values, prog)


def apply_guidance(
    base: np.ndarray, correction: np.ndarray, field: GuidanceField
) -> np.ndarray:
    """Add a correction scaled by the guidance weights: base + field * correction.

    base and correction broadcast against the field's (steps, H, W) values,
    so a single (H, W) correction applies to every step.
    """
    b = np.asarray(base, dtype=np.float64)
    c = np.asarray(correction, dtype=np.float64)
    try:
        return b + field.values * c
    except ValueError as exc:
        raise ValueError(
            f"cannot broadcast base {b.shape} and correction {c.shape} "
            f"against field {field.values.shape}"
        ) from exc


def save_guidance_ogf1(field: GuidanceField, path: str | Path) -> None:
    """Write the binary field file: magic, u32 H/W/steps, f32 progress, grids."""
    h, w = field.grid_shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", h, w, field.n_steps))
        f.write(field.progress.astype("<f4").tobytes())
        f.write(field.values.astype("<f4").tobytes())


def load_guidance_ogf1(path: str | Path) -> GuidanceField:
    """Read a field file written by save_guidance_ogf1; validates layout."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated field file")
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    h, w, steps = struct.unpack("<III", raw[4:16])
    expected = 16 + 4 * steps + 4 * steps * h * w
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {steps} steps of "
            f"{h}x{w}, got {len(raw)}"
        )
    prog = np.frombuffer(raw, dtype="<f4", count=steps, offset=16)
    values = np.frombuffer(
        raw, dtype="<f4", count=steps * h * w, offset=16 + 4 * steps
    ).reshape(steps, h, w)
    return GuidanceField(values.astype(np.float64), prog.astype(np.float64))
