"""Pipeline-wide configuration: one JSON file drives every CLI subcommand."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .channels import N_CHANNELS, _fields, _number_problem, _read_json
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


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Read a config JSON; rules and guidance sections may be partial.

    A template_table_path is resolved relative to the config file and loaded
    immediately, so a missing or malformed table fails here, not mid-run.
    """
    path = Path(path)
    spec = {
        "fps": None, "blend_frames": None, "query_weights": None, "seed": None, "sample_k": None,
        "rules": "object", "guidance": "object", "template_table_path": None,
    }
    payload = _fields(_read_json(path), spec, f"{path}: $")
    kwargs = {k: v for k, v in payload.items() if k != "template_table_path"}
    for name, cls in (("rules", RuleSet), ("guidance", GuidanceParams)):
        if name in payload:
            known = dict.fromkeys(f.name for f in dataclasses.fields(cls))
            section = _fields(payload[name], known, f"{path}: {name}")
            try:
                kwargs[name] = cls(**section)
            except ValueError as exc:
                raise ValueError(f"{path}: {name}: {exc}") from None
    table_path = payload.get("template_table_path")
    if table_path is not None:
        if not isinstance(table_path, str):
            raise ValueError(f"{path}: template_table_path: must be a string")
        resolved = Path(table_path)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        if not resolved.exists():
            raise ValueError(f"{path}: template_table_path: {resolved} does not exist")
        kwargs["template_table"] = load_template_table(resolved)
    try:
        return PipelineConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
