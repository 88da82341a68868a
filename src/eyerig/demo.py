"""Bundled demo prototypes: one synthetic exemplar per category stage.

The generator turns each planner stage template into a short control
trajectory whose channel means sit at the stage's target midpoints, so
retrieval picks the matching stage exemplar, and whose rise-hold-fall shape
gives composed events real onset and release dynamics.  The library stands in
for captured behavior traces in the CLI and the end-to-end tests.
"""
from __future__ import annotations

import numpy as np

from .channels import CHANNEL_RANGES, ControlSequence, channel_index
from .library import PrototypeLibrary, build_library
from .planner import TEMPLATES

__all__ = [
    "STAGE_PROTO_FRAMES",
    "stage_envelope",
    "demo_records",
    "build_demo_library",
]

STAGE_PROTO_FRAMES = 60

_RISE = 12
_FALL = 12


def stage_envelope(n_frames: int = STAGE_PROTO_FRAMES) -> np.ndarray:
    """Rise-hold-fall activation profile in [0, 1] with mean exactly 0.8.

    Linear rise over the first fifth, full hold, linear fall over the last
    fifth.  The fixed mean lets callers place a channel's average at any
    level by scaling the whole profile.
    """
    if n_frames < 3:
        raise ValueError(f"need at least 3 frames, got {n_frames}")
    rise = max(1, round(n_frames * _RISE / STAGE_PROTO_FRAMES))
    fall = max(1, round(n_frames * _FALL / STAGE_PROTO_FRAMES))
    hold = n_frames - rise - fall
    return np.concatenate(
        [np.linspace(0.0, 1.0, rise), np.ones(hold), np.linspace(1.0, 0.0, fall)]
    )


def demo_records(fps: float = 25.0):
    """Yield (label, controls) for every category stage.

    Each record activates exactly the channels its stage targets, scaled so
    the per-channel mean equals the target midpoint (capped at the channel's
    legal range).  Untargeted channels stay at zero, keeping retrieval
    distances clean and leak-through into neighboring events silent.
    """
    env = stage_envelope()
    env_mean = float(env.mean())
    for label, stages in TEMPLATES.items():
        for _, _, targets, _ in stages:
            values = np.zeros((STAGE_PROTO_FRAMES, 17))
            for name, (lo, hi) in targets.items():
                mid = (lo + hi) / 2.0
                track = env * (mid / env_mean)
                values[:, channel_index(name)] = np.clip(track, *CHANNEL_RANGES[name])
            yield label, ControlSequence(values, fps)


def build_demo_library(fps: float = 25.0) -> PrototypeLibrary:
    """Assemble the bundled demo library: 3 stage exemplars per category."""
    return build_library(demo_records(fps))
