"""Pipeline-wide configuration: one JSON file drives every CLI subcommand."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import N_CHANNELS
from .critic import RuleSet
from .guidance import GuidanceParams
from .planner import load_template_table

__all__ = [
    "PipelineConfig",
    "load_pipeline_config",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared across subcommands, plus an optional planner table.

    query_weights of None means the library's default channel weighting.
    sample_k > 1 switches composition to a seeded draw from the top-k
    retrieval hits; seed feeds that draw.  template_table holds the already
    loaded custom stage table (load_pipeline_config resolves the path).
    """

    fps: float = 25.0
    blend_frames: int = 3
    query_weights: tuple[float, ...] | None = None
    rules: RuleSet = field(default_factory=RuleSet)
    guidance: GuidanceParams = field(default_factory=GuidanceParams)
    template_table: dict | None = None
    seed: int | None = None
    sample_k: int = 1

    def __post_init__(self) -> None:
        try:
            fps_ok = self.fps > 0 and math.isfinite(self.fps)
        except OverflowError:  # an int literal beyond float range
            fps_ok = False
        if not fps_ok:
            raise ValueError(f"fps must be a finite positive number, got {self.fps!r}")
        if self.blend_frames < 0:
            raise ValueError(f"blend_frames must be >= 0, got {self.blend_frames}")
        if self.sample_k < 1:
            raise ValueError(f"sample_k must be >= 1, got {self.sample_k}")
        if self.query_weights is not None:
            w = tuple(float(x) for x in self.query_weights)
            if len(w) != N_CHANNELS:
                raise ValueError(
                    f"query_weights needs {N_CHANNELS} values, got {len(w)}"
                )
            if any(not np.isfinite(x) or x < 0 for x in w):
                raise ValueError("query_weights must be finite and non-negative")
            object.__setattr__(self, "query_weights", w)


def _sub_config(cls, raw: dict, context: str):
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - valid
    if unknown:
        raise ValueError(f"{context}: unknown fields {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context}: {exc}") from None


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Read a config JSON; rules and guidance sections may be partial.

    A template_table_path is resolved relative to the config file and loaded
    immediately, so a missing or malformed table fails here, not mid-run.
    """
    path = Path(path)
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"config {path}: top level must be an object")
    known = {
        "fps",
        "blend_frames",
        "query_weights",
        "rules",
        "guidance",
        "template_table_path",
        "seed",
        "sample_k",
    }
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"config {path}: unknown fields {sorted(unknown)}")

    kwargs: dict = {}
    for name in ("fps", "blend_frames", "seed", "sample_k"):
        if name in payload:
            kwargs[name] = payload[name]
    if payload.get("query_weights") is not None:
        kwargs["query_weights"] = tuple(payload["query_weights"])
    if "rules" in payload:
        if not isinstance(payload["rules"], dict):
            raise ValueError(f"config {path}: rules must be an object")
        kwargs["rules"] = _sub_config(RuleSet, payload["rules"], f"config {path} rules")
    if "guidance" in payload:
        if not isinstance(payload["guidance"], dict):
            raise ValueError(f"config {path}: guidance must be an object")
        kwargs["guidance"] = _sub_config(
            GuidanceParams, payload["guidance"], f"config {path} guidance"
        )
    table_path = payload.get("template_table_path")
    if table_path is not None:
        if not isinstance(table_path, str):
            raise ValueError(f"config {path}: template_table_path must be a string")
        resolved = Path(table_path)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        if not resolved.exists():
            raise ValueError(f"config {path}: template table {resolved} does not exist")
        kwargs["template_table"] = load_template_table(resolved)
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {path}: {exc}") from None
