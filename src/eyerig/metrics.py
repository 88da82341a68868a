"""Evaluation metrics: activation F1, warped temporal agreement, landmark error."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import (
    AU_NAMES,
    ControlSequence,
    _fields,
    _number_problem,
    _read_json,
    _show,
    channel_index,
)
from .mapper import KeypointSequence, LEFT_PUPIL, RIGHT_PUPIL
from .planner import TEMPLATES, signature_aus

__all__ = [
    "dtw",
    "F1Score",
    "au_f1",
    "au_temp",
    "eye_lmd",
    "MetricConfig",
    "load_metric_config",
]


def _dtw_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """DTW costs of C track pairs at once: float64 X (C, n) against Y (C, m).

    Sweeps the anti-diagonals d = i + j in order; one numpy pass per diagonal
    applies the cell rule acc[i, j] = |x_i - y_j| + min(min(up, left), diag)
    to every cell and channel.  Only three diagonal buffers are kept, indexed
    by i + 1 and padded with inf, so cells outside the grid never win a min
    and row 0 and column 0 get the exact edge sums of the full-matrix
    recurrence; y is read reversed so each diagonal's costs are one
    contiguous slice.  O(n*m) time, O(C*n) memory, and bit-identical to
    filling the (n, m) matrix cell by cell, since min of finite floats is
    exact in any order.
    """
    if X.shape[1] == 0 or Y.shape[1] == 0:
        raise ValueError("dtw tracks must be non-empty")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("dtw tracks must be finite")
    C, n = X.shape
    m = Y.shape[1]
    Yr = np.ascontiguousarray(Y[:, ::-1])
    prev2, prev1, cur = (np.full((C, n + 2), np.inf) for _ in range(3))
    cur[:, 1] = np.abs(X[:, 0] - Y[:, 0])
    for d in range(1, n + m - 1):
        prev2, prev1, cur = prev1, cur, prev2
        lo, hi = max(0, d - m + 1), min(n - 1, d) + 1
        # cell i of this diagonal is (i, d - i), and y_(d - i) is Yr[m - 1 - d + i]
        cost = np.abs(X[:, lo:hi] - Yr[:, m - 1 - d + lo:m - 1 - d + hi])
        best = np.minimum(prev1[:, lo:hi], prev1[:, lo + 1:hi + 1])
        np.minimum(best, prev2[:, lo:hi], out=best)
        np.add(cost, best, out=cur[:, lo + 1:hi + 1])
    return cur[:, n].copy()


def dtw(a: Sequence[float], b: Sequence[float]) -> float:
    """Dynamic time warping cost between two finite, non-empty 1-D tracks.

    Cell cost |a_i - b_j|, moves right/down/diagonal, endpoints aligned.  The
    one-row case of `_dtw_rows`: an anti-diagonal sweep, O(n*m) time and
    O(n) memory, bit-identical to the cell-by-cell rule
    acc[i, j] = |a_i - b_j| + min(acc[i-1, j], acc[i, j-1], acc[i-1, j-1]).
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("dtw expects 1-D tracks")
    return float(_dtw_rows(x[None, :], y[None, :])[0])


@dataclass(frozen=True)
class F1Score:
    precision: float
    recall: float
    f1: float


def _as_values(seq) -> np.ndarray:
    if isinstance(seq, ControlSequence):
        return seq.values
    arr = np.asarray(seq, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 17:
        raise ValueError(f"expected a (frames, 17) control array, got {arr.shape}")
    return arr


def _au_columns(names: Sequence[str]) -> list[int]:
    """Column indices of AU channel names; any other name is a ValueError."""
    idx = []
    for n in names:
        if n not in AU_NAMES:
            raise ValueError(f"{n!r} is not an AU channel")
        idx.append(channel_index(n))
    return idx


def au_f1(
    pred,
    reference,
    threshold: float = 0.1,
    channels: Sequence[str] | None = None,
) -> F1Score:
    """Frame-wise activation agreement over AU channels.

    A cell counts as active when strictly above the threshold.  When a side
    has no active cells the corresponding ratio is 1 if the other side is
    also silent, else 0; f1 is 0 whenever precision + recall is 0.
    """
    p = _as_values(pred)
    g = _as_values(reference)
    if p.shape[0] != g.shape[0]:
        raise ValueError(
            f"sequences must have equal length, got {p.shape[0]} and {g.shape[0]}"
        )
    idx = _au_columns(channels if channels is not None else AU_NAMES)
    pa = p[:, idx] > threshold
    ga = g[:, idx] > threshold
    tp = float(np.sum(pa & ga))
    pred_pos = float(np.sum(pa))
    ref_pos = float(np.sum(ga))
    if pred_pos == 0:
        precision = 1.0 if ref_pos == 0 else 0.0
    else:
        precision = tp / pred_pos
    if ref_pos == 0:
        recall = 1.0 if pred_pos == 0 else 0.0
    else:
        recall = tp / ref_pos
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return F1Score(precision, recall, f1)


def au_temp(
    pred,
    reference,
    label: str,
    channels: Sequence[str] | None = None,
) -> float:
    """Temporal agreement on a label's signature AUs, via per-channel warping.

    Score = 1 - mean_over_channels(dtw / reference_length), floored at 0.
    Channels default to the label's signature AU set; pass `channels` to
    override (AU channels only).  Lengths may differ; warping absorbs tempo
    changes.  All channels are warped in one `_dtw_rows` sweep.
    """
    p = _as_values(pred)
    g = _as_values(reference)
    names = tuple(channels) if channels is not None else signature_aus(label)
    if not names:
        raise ValueError(f"no AU channels to compare for label {label!r}")
    idx = _au_columns(names)
    z = float(g.shape[0])
    costs = _dtw_rows(p[:, idx].T, g[:, idx].T)
    return max(0.0, 1.0 - float(np.mean(costs)) / z)


def eye_lmd(pred: KeypointSequence, reference: KeypointSequence) -> float:
    """Mean landmark distance, normalized by the reference inter-pupil span.

    Per frame: mean Euclidean distance over all 62 points divided by that
    frame's reference pupil-to-pupil distance; averaged over frames.
    """
    p = pred.frames
    g = reference.frames
    if p.shape[0] != g.shape[0]:
        raise ValueError(
            f"sequences must have equal length, got {p.shape[0]} and {g.shape[0]}"
        )
    inter = np.linalg.norm(
        g[:, LEFT_PUPIL, :] - g[:, RIGHT_PUPIL, :], axis=1
    )
    if np.any(inter < 1e-9):
        raise ValueError("reference inter-pupil distance is degenerate")
    per_point = np.linalg.norm(p - g, axis=2)
    per_frame = per_point.mean(axis=1) / inter
    return float(per_frame.mean())


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation settings: activation threshold and signature overrides."""

    activation_threshold: float = 0.1
    signature_override: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "signature_override",
            {k: tuple(v) for k, v in dict(self.signature_override).items()},
        )

    def channels_for(self, label: str, templates=TEMPLATES) -> tuple[str, ...]:
        """The label's override, else its signature AUs in the stage table."""
        if label in self.signature_override:
            return self.signature_override[label]
        return signature_aus(label, templates)


def load_metric_config(path: str | Path) -> MetricConfig:
    spec = {"activation_threshold": None, "signature_override": "object"}
    payload = _fields(_read_json(path), spec, f"{path}: $")
    threshold = payload.get("activation_threshold", 0.1)
    if _number_problem(threshold, "non-negative") or not threshold < 1.0:
        raise ValueError(f"{path}: activation_threshold must be in [0, 1), got {_show(threshold)}")
    override = payload.get("signature_override", {})
    for label, names in override.items():
        if not isinstance(names, list) or not all(
            isinstance(n, str) and n in AU_NAMES for n in names
        ):
            raise ValueError(
                f"{path}: signature_override[{label!r}] must list AU channels"
            )
    return MetricConfig(float(threshold), override)
