"""Retrieval-based composition: a staged plan becomes one control sequence."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channels import (
    ControlSequence,
    HEAD_SLICE,
    N_CHANNELS,
    channel_index,
    enforce_state_invariants,
    resample_sequence,
)
from .library import PrototypeLibrary, query
from .planner import Plan

__all__ = [
    "rescale_amplitude",
    "crossfade_concat",
    "compose",
]


def rescale_amplitude(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Affinely map a 1-D trajectory's [min, max] onto [lo, hi].

    A constant trajectory carries no shape to preserve and maps to the
    interval midpoint.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D trajectory, got shape {v.shape}")
    if lo > hi:
        raise ValueError(f"lo {lo:g} > hi {hi:g}")
    vmin = float(v.min())
    vmax = float(v.max())
    if vmax - vmin < 1e-12:
        return np.full_like(v, (lo + hi) / 2.0)
    return lo + (v - vmin) * (hi - lo) / (vmax - vmin)


def crossfade_concat(segments: Sequence[np.ndarray], blend_frames: int) -> np.ndarray:
    """Concatenate (T_i, C) segments, cross-fading each seam over a window.

    The window takes the last ceil(b/2) frames of the left side and the first
    floor(b/2) frames of the right side; window frame k of b gets weight
    k / (b + 1) toward the right side.  Each side's contribution is its own
    content inside its half and its boundary frame held constant across the
    other half, so a unit step faded over four frames becomes
    0.2, 0.4, 0.6, 0.8.  The window shrinks when a side is shorter than its
    half.  Seams are resolved left to right.
    """
    segs = [np.asarray(s, dtype=np.float64) for s in segments]
    if not segs:
        raise ValueError("no segments to concatenate")
    if any(s.ndim != 2 or s.shape[1] != segs[0].shape[1] for s in segs):
        raise ValueError("segments must share a (frames, channels) shape")
    if blend_frames < 0:
        raise ValueError(f"blend_frames must be >= 0, got {blend_frames}")
    out = segs[0].copy()
    for seg in segs[1:]:
        left_len = len(out)
        merged = np.vstack([out, seg])
        if blend_frames > 0:
            a_take = min(math.ceil(blend_frames / 2), left_len)
            b_take = min(blend_frames // 2, len(seg))
            b_eff = a_take + b_take
            a_hold = out[-1]
            b_hold = seg[0]
            for k in range(1, b_eff + 1):
                alpha = k / (b_eff + 1)
                pos = left_len - a_take + (k - 1)
                a_val = out[pos] if pos < left_len else a_hold
                b_val = seg[pos - left_len] if pos >= left_len else b_hold
                merged[pos] = (1.0 - alpha) * a_val + alpha * b_val
        out = merged
    return out


def _event_query(event_targets: dict[str, tuple[float, float]]) -> np.ndarray:
    """Query vector for retrieval: target midpoints, zero where untargeted."""
    q = np.zeros(N_CHANNELS)
    for name, (lo, hi) in event_targets.items():
        q[channel_index(name)] = (lo + hi) / 2.0
    return q


def compose(
    p: Plan,
    lib: PrototypeLibrary,
    weights: Sequence[float] | None = None,
    initial_pose: Sequence[float] = (0.0, 0.0, 0.0),
    blend_frames: int = 3,
    sample_k: int = 1,
    seed: int | None = None,
) -> ControlSequence:
    """Realize a plan as a control sequence by prototype retrieval.

    Per event: retrieve the best prototype (same-label prototypes first,
    whole library as fallback), resample it to the event length, and rescale
    each targeted channel's amplitude into its target interval.  Segments are
    joined with cross-fades, the first frame's head pose is pinned to
    initial_pose (released over blend_frames frames), and the result is
    projected onto the valid control set.

    sample_k > 1 draws each event's prototype uniformly from the top sample_k
    retrieval hits instead of always taking the best one; the draw is seeded,
    so outputs stay reproducible.
    """
    if len(lib) == 0:
        raise ValueError("no prototypes available")
    if sample_k < 1:
        raise ValueError(f"sample_k must be >= 1, got {sample_k}")
    pose = np.asarray(initial_pose, dtype=np.float64)
    if pose.shape != (3,):
        raise ValueError("initial_pose must be (yaw, pitch, roll)")
    rng = np.random.default_rng(seed) if sample_k > 1 else None

    segments: list[np.ndarray] = []
    for ev in p.events:
        qvec = _event_query(ev.channel_targets)
        hits = query(lib, qvec, weights=weights, label_filter=p.label, k=sample_k)
        if not hits:
            hits = query(lib, qvec, weights=weights, k=sample_k)
        pick = int(rng.integers(len(hits))) if rng is not None else 0
        proto = lib.prototypes[hits[pick].prototype_id]
        seg = resample_sequence(proto.controls, ev.n_frames).values.copy()
        for name, (lo, hi) in ev.channel_targets.items():
            j = channel_index(name)
            seg[:, j] = rescale_amplitude(seg[:, j], lo, hi)
        segments.append(seg)

    values = crossfade_concat(segments, blend_frames)
    values[0, HEAD_SLICE] = pose
    for i in range(1, min(blend_frames, len(values) - 1) + 1):
        alpha = i / (blend_frames + 1)
        values[i, HEAD_SLICE] = (1.0 - alpha) * pose + alpha * values[i, HEAD_SLICE]
    values = enforce_state_invariants(values)
    return ControlSequence(values, p.fps)
