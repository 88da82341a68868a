"""Training objectives: velocity-target regression and preference weighting."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import _check_version, _fields, _number_problem, _read_json, _show

__all__ = [
    "fm_interpolate",
    "fm_loss",
    "fm_loss_grad",
    "kto_loss",
    "estimate_z_ref",
    "KtoExample",
    "KtoManifest",
    "kto_manifest_loss",
    "save_kto_manifest",
    "load_kto_manifest",
]

KTO_MANIFEST_VERSION = 1


def fm_interpolate(x0: np.ndarray, x1: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Point on the straight path from x0 to x1 and the velocity target.

    Returns (x_t, v) with x_t = (1 - t) * x0 + t * x1 and v = x1 - x0; the
    velocity of the straight path is constant in t.  `t` may be a scalar or
    an array broadcastable against the samples, with every entry in [0, 1].
    """
    a = np.asarray(x0, dtype=np.float64)
    b = np.asarray(x1, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"endpoint shapes differ: {a.shape} vs {b.shape}")
    tt = np.asarray(t, dtype=np.float64)
    if np.any(tt < 0.0) or np.any(tt > 1.0):
        raise ValueError("t must lie in [0, 1]")
    xt = (1.0 - tt) * a + tt * b
    if xt.shape != a.shape:
        raise ValueError(
            f"t with shape {tt.shape} does not broadcast over samples {a.shape}"
        )
    return xt, b - a


def fm_loss(pred_velocity: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> float:
    """Mean squared error between a predicted velocity and the path target."""
    pred = np.asarray(pred_velocity, dtype=np.float64)
    target = np.asarray(x1, dtype=np.float64) - np.asarray(x0, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def fm_loss_grad(pred_velocity: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Gradient of fm_loss with respect to the prediction."""
    pred = np.asarray(pred_velocity, dtype=np.float64)
    target = np.asarray(x1, dtype=np.float64) - np.asarray(x0, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target {target.shape}")
    return 2.0 * (pred - target) / pred.size


def _expit(m: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-m), with no overflow: e^-|m| is at most 1."""
    e = np.exp(-np.abs(m))
    return np.where(m >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def kto_loss(
    rewards,
    z_ref: float,
    desirable,
    beta: float = 625.0,
    desirable_weight: float = 1.0,
    undesirable_weight: float = 1.0,
) -> float:
    """Prospect-weighted preference loss, averaged over the batch.

    A desirable sample contributes w_d * (1 - sigmoid(beta * r - z_ref)),
    an undesirable one w_u * (1 - sigmoid(z_ref - beta * r)): gains above
    the reference point stop paying once saturated, losses below it stop
    hurting once saturated.
    """
    r = np.atleast_1d(np.asarray(rewards, dtype=np.float64))
    d = np.atleast_1d(np.asarray(desirable, dtype=bool))
    if r.shape != d.shape:
        raise ValueError(f"rewards shape {r.shape} != desirable shape {d.shape}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta:g}")
    margin = beta * r - z_ref
    # 1 - sigmoid(m) computed as sigmoid(-m): exact deep into the tails
    per_sample = np.where(
        d,
        desirable_weight * _expit(-margin),
        undesirable_weight * _expit(margin),
    )
    return float(per_sample.mean())


def estimate_z_ref(rewards, beta: float = 625.0) -> float:
    """Reference point: the batch-average scaled reward, floored at zero."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        return 0.0
    return max(0.0, beta * float(r.mean()))


@dataclass(frozen=True)
class KtoExample:
    sample_id: str
    reward: float
    desirable: bool

    def __post_init__(self) -> None:
        if not (isinstance(self.sample_id, str) and self.sample_id):
            raise ValueError(f"id must be a non-empty string, got {_show(self.sample_id)}")
        problem = _number_problem(self.reward)
        if problem:
            raise ValueError(f"reward {problem}")
        if not isinstance(self.desirable, bool):
            raise ValueError(f"desirable must be true or false, got {_show(self.desirable)}")
        object.__setattr__(self, "reward", float(self.reward))


@dataclass(frozen=True)
class KtoManifest:
    """A preference batch: labeled rewards plus the loss hyperparameters."""

    examples: tuple[KtoExample, ...]
    beta: float = 625.0
    desirable_weight: float = 1.0
    undesirable_weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        for name in ("beta", "desirable_weight", "undesirable_weight"):
            value = getattr(self, name)
            problem = _number_problem(value, "positive" if name == "beta" else "non-negative")
            if problem:
                raise ValueError(f"{name} {problem}")
            object.__setattr__(self, name, float(value))


def kto_manifest_loss(manifest: KtoManifest, z_ref: float | None = None) -> float:
    """Batch loss for a manifest; z_ref defaults to the estimate from rewards."""
    if not manifest.examples:
        raise ValueError("manifest has no examples")
    rewards = np.array([e.reward for e in manifest.examples])
    desirable = np.array([e.desirable for e in manifest.examples])
    if z_ref is None:
        z_ref = estimate_z_ref(rewards, manifest.beta)
    return kto_loss(
        rewards,
        z_ref,
        desirable,
        beta=manifest.beta,
        desirable_weight=manifest.desirable_weight,
        undesirable_weight=manifest.undesirable_weight,
    )


def save_kto_manifest(manifest: KtoManifest, path: str | Path) -> None:
    payload = {
        "version": KTO_MANIFEST_VERSION,
        "beta": manifest.beta,
        "desirable_weight": manifest.desirable_weight,
        "undesirable_weight": manifest.undesirable_weight,
        "examples": [
            {"id": e.sample_id, "reward": e.reward, "desirable": e.desirable}
            for e in manifest.examples
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_kto_manifest(path: str | Path) -> KtoManifest:
    spec = {"version": None, "examples": "list", "beta": None,
            "desirable_weight": None, "undesirable_weight": None}
    payload = _fields(_read_json(path), spec, f"{path}: $", required=("examples",))
    _check_version(payload, KTO_MANIFEST_VERSION, "manifest", path)
    keys = ("id", "reward", "desirable")
    examples = []
    for k, e in enumerate(payload["examples"]):
        _fields(e, dict.fromkeys(keys), f"{path}: examples[{k}]", required=keys)
        try:
            examples.append(KtoExample(e["id"], e["reward"], e["desirable"]))
        except ValueError as exc:
            raise ValueError(f"{path}: examples[{k}].{exc}") from None
    weights = {k: v for k, v in payload.items() if k not in ("version", "examples")}
    try:
        return KtoManifest(tuple(examples), **weights)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
