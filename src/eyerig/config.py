"""Pipeline-wide configuration: one JSON file drives every CLI subcommand."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .channels import N_CHANNELS, _number_problem, _refuse_unknown_keys
from .critic import RuleSet
from .guidance import GuidanceParams
from .planner import TEMPLATES, load_template_table

__all__ = [
    "PipelineConfig",
    "load_pipeline_config",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared across subcommands, plus the planner's stage table.

    query_weights of None means the library's default channel weighting.
    sample_k > 1 switches composition to a seeded draw from the top-k
    retrieval hits; seed feeds that draw.  template_table is the stage table
    in force: the built-in TEMPLATES, or a loaded custom table
    (load_pipeline_config resolves the path).
    """

    fps: float = 25.0
    blend_frames: int = 3
    query_weights: tuple[float, ...] | None = None
    rules: RuleSet = field(default_factory=RuleSet)
    guidance: GuidanceParams = field(default_factory=GuidanceParams)
    template_table: Mapping[str, tuple] = field(default_factory=lambda: TEMPLATES)
    seed: int | None = None
    sample_k: int = 1

    def __post_init__(self) -> None:
        w = self.query_weights
        if w is not None and not (isinstance(w, (list, tuple)) and len(w) == N_CHANNELS):
            raise ValueError(f"query_weights must be a list of {N_CHANNELS} numbers, got {w!r}")
        checks = [
            ("fps", self.fps, "positive", False),
            ("blend_frames", self.blend_frames, "non-negative", True),
            ("sample_k", self.sample_k, "positive", True),
        ]
        if self.seed is not None:
            checks.append(("seed", self.seed, "non-negative", True))
        checks += [("query_weights", x, "non-negative", False) for x in w or ()]
        for name, x, sign, integer in checks:
            problem = _number_problem(x, sign, integer=integer)
            if problem:
                raise ValueError(f"{name} {problem}")
        if w is not None:
            object.__setattr__(self, "query_weights", tuple(float(x) for x in w))


def _sub_config(cls, raw, path: Path, name: str):
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: {name} must be an object")
    _refuse_unknown_keys(raw, {f.name for f in dataclasses.fields(cls)}, f"config {path}: {name}")
    try:
        return cls(**raw)
    except ValueError as exc:
        raise ValueError(f"config {path} {name}: {exc}") from None


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
    _refuse_unknown_keys(payload, known, f"config {path}: $")

    kwargs: dict = {}
    for name in ("fps", "blend_frames", "query_weights", "seed", "sample_k"):
        if name in payload:
            kwargs[name] = payload[name]
    for name, cls in (("rules", RuleSet), ("guidance", GuidanceParams)):
        if name in payload:
            kwargs[name] = _sub_config(cls, payload[name], path, name)
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
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
