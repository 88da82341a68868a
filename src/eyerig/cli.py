"""Command-line surface: plan, compose, critique, map, and inspect rigs.

Exit codes: 0 success (compile: critic pass), 2 content failure (compile:
critic fail, validate: violations found), 1 usage, file, or parse errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .channels import (
    load_controls_csv,
    save_controls_csv,
    validate_sequence,
)
from .config import PipelineConfig, load_pipeline_config
from .critic import check_physiology, compile_behavior
from .demo import build_demo_library
from .guidance import guidance_field, save_guidance_ogf1
from .library import (
    baseline_from_model,
    build_library,
    invert_controls,
    load_library,
    save_library,
)
from .mapper import (
    LEFT_BROW,
    LEFT_IRIS,
    LEFT_LOWER_LID,
    LEFT_PUPIL,
    LEFT_UPPER_LID,
    RIGHT_BROW,
    RIGHT_IRIS,
    RIGHT_LOWER_LID,
    RIGHT_PUPIL,
    RIGHT_UPPER_LID,
    default_model,
    load_keypoints_json,
    map_sequence,
    save_keypoints_json,
)
from .metrics import MetricConfig, au_f1, au_temp, eye_lmd, load_metric_config

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for content
    # failures here, so parse errors become exit 1 instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache  # parsing leaves the parser as it was, so one per process serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="eyerig", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="seed for sampled retrieval")
    parser.add_argument("--fps", type=float, help="frame rate override")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-lib", help="assemble a prototype library from traces")
    p.add_argument("trace_dir", help="directory of *.controls.csv / *.keypoints.json pairs")
    p.add_argument("-o", "--out", required=True, help="library JSON to write")

    p = sub.add_parser("compile", help="plan, compose, and refine one behavior")
    p.add_argument("--label", required=True, help="behavior category")
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--frames", type=int, help="output length in frames")
    span.add_argument(
        "--duration-seconds", type=float, help="output length in seconds"
    )
    p.add_argument("--instructions", default="", help="free-text steering phrases")
    p.add_argument(
        "--initial-pose",
        default="0,0,0",
        help="starting head pose as yaw,pitch,roll degrees",
    )
    p.add_argument("--library", help="prototype library JSON (default: bundled demo)")
    p.add_argument("--out-dir", default=".", help="directory for the three outputs")
    p.add_argument("--out-controls", help="explicit controls CSV path")
    p.add_argument("--out-keypoints", help="explicit keypoints JSON path")
    p.add_argument("--out-audit", help="explicit audit JSON path")

    p = sub.add_parser("validate", help="check a controls CSV against all rules")
    p.add_argument("controls", help="controls CSV")

    p = sub.add_parser("map", help="project a controls CSV to keypoints")
    p.add_argument("controls", help="controls CSV")
    p.add_argument("-o", "--out", required=True, help="keypoints JSON to write")
    p.add_argument(
        "--three-d",
        action="store_true",
        help="write rotated 3-D points (library input) instead of the 2-D projection",
    )

    p = sub.add_parser("guidance", help="export a spatial weight schedule")
    p.add_argument("keypoints", help="keypoints JSON (frame geometry source)")
    p.add_argument("-o", "--out", required=True, help="OGF1 binary to write")
    p.add_argument("--frame", type=int, default=1, help="1-based frame to use")
    p.add_argument("--grid", default="64x64", help="grid size as HxW")

    p = sub.add_parser("eval", help="score a prediction against a reference")
    p.add_argument("pred", help="predicted controls CSV or keypoints JSON")
    p.add_argument("ref", help="reference controls CSV or keypoints JSON")
    p.add_argument("--label", help="category for the temporal score")
    p.add_argument("--metric-config", help="metric config JSON")

    p = sub.add_parser("preview", help="render keypoint frames as SVG images")
    p.add_argument("keypoints", help="keypoints JSON")
    p.add_argument("-o", "--out-dir", required=True, help="directory for the images")
    p.add_argument("--every", type=int, default=1, help="render every Nth frame")
    p.add_argument("--size", type=int, default=320, help="image edge in pixels")
    return parser


def _load_config(args) -> PipelineConfig:
    cfg = load_pipeline_config(args.config) if args.config else PipelineConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.fps is not None:
        updates["fps"] = args.fps
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _violation_payload(violations) -> list[dict]:
    return [
        {"rule": v.rule, "channel": v.channel, "message": v.message, "frame": v.frame}
        for v in violations
    ]


def _cmd_build_lib(args, cfg: PipelineConfig) -> int:
    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        raise FileNotFoundError(f"trace directory {trace_dir} does not exist")
    kp_files = sorted(trace_dir.glob("*.keypoints.json"))
    if not kp_files:
        raise FileNotFoundError(f"no *.keypoints.json traces under {trace_dir}")
    model = default_model()
    baseline = baseline_from_model(model)
    records = []
    for kp_path in kp_files:
        stem = kp_path.name[: -len(".keypoints.json")]
        label = stem.split("__", 1)[0]
        keypoints = load_keypoints_json(kp_path, dims=3)
        controls_path = trace_dir / f"{stem}.controls.csv"
        if controls_path.exists():
            controls = load_controls_csv(controls_path)
        else:
            try:
                controls = invert_controls(keypoints, baseline, model)
            except ValueError as exc:
                raise ValueError(f"{kp_path}: {exc}") from None
        records.append((label, controls, keypoints))
    lib = build_library(records)
    save_library(lib, args.out)
    labels = ", ".join(lib.labels())
    print(f"built library with {len(lib)} prototypes ({labels}) -> {args.out}")
    return 0


def _parse_pose(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--initial-pose needs yaw,pitch,roll, got {text!r}")
    try:
        return tuple(float(x) for x in parts)  # type: ignore[return-value]
    except ValueError:
        raise _UsageError(f"--initial-pose needs numbers, got {text!r}") from None


def _cmd_compile(args, cfg: PipelineConfig) -> int:
    if args.frames is not None:
        total = args.frames
    else:
        frames = args.duration_seconds * cfg.fps
        if not (math.isfinite(frames) and frames > 0):
            raise _UsageError(
                f"--duration-seconds {args.duration_seconds!r} gives no positive finite frame count at {cfg.fps:g} fps"
            )
        total = max(1, round(frames))
    pose = _parse_pose(args.initial_pose)
    lib = load_library(args.library) if args.library else build_demo_library(cfg.fps)
    result = compile_behavior(args.label, total, lib, args.instructions, pose, cfg)
    points2d, _ = map_sequence(result.sequence)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    controls_path = Path(args.out_controls or out_dir / f"{args.label}.controls.csv")
    keypoints_path = Path(args.out_keypoints or out_dir / f"{args.label}.keypoints.json")
    audit_path = Path(args.out_audit or out_dir / f"{args.label}.audit.json")
    save_controls_csv(result.sequence, controls_path)
    save_keypoints_json(points2d, keypoints_path)
    audit = {
        "label": args.label,
        "verdict": result.report.verdict,
        "violations": _violation_payload(result.report.violations),
        "composition_rounds": result.composition_rounds,
        "replans": result.replans,
        "history": [r.verdict for r in result.history],
        "frames": len(result.sequence),
        "fps": result.sequence.fps,
    }
    with open(audit_path, "w") as fh:
        json.dump(audit, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"verdict: {result.report.verdict} "
        f"({len(result.sequence)} frames at {result.sequence.fps:g} fps)"
    )
    print(f"wrote {controls_path}, {keypoints_path}, {audit_path}")
    return 0 if result.report.verdict == "pass" else 2


def _cmd_validate(args, cfg: PipelineConfig) -> int:
    seq = load_controls_csv(args.controls, fps=args.fps)
    report = validate_sequence(seq)
    violations = list(report.violations)
    violations.extend(check_physiology(seq, rules=cfg.rules))
    _emit({"ok": not violations, "violations": _violation_payload(violations)})
    return 0 if not violations else 2


def _cmd_map(args, cfg: PipelineConfig) -> int:
    seq = load_controls_csv(args.controls, fps=args.fps)
    points2d, points3d = map_sequence(seq)
    save_keypoints_json(points3d if args.three_d else points2d, args.out)
    kind = "3-D" if args.three_d else "2-D"
    print(f"wrote {kind} keypoints for {len(seq)} frames -> {args.out}")
    return 0


def _cmd_guidance(args, cfg: PipelineConfig) -> int:
    seq = load_keypoints_json(args.keypoints, dims=2)
    if not 1 <= args.frame <= len(seq):
        raise _UsageError(f"--frame must be in [1, {len(seq)}], got {args.frame}")
    try:
        h_txt, w_txt = args.grid.lower().split("x")
        grid = (int(h_txt), int(w_txt))
    except ValueError:
        raise _UsageError(f"--grid needs HxW, got {args.grid!r}") from None
    field = guidance_field(seq.frames[args.frame - 1], grid_shape=grid, params=cfg.guidance)
    save_guidance_ogf1(field, args.out)
    steps, h, w = field.values.shape
    print(f"wrote {steps}-step {h}x{w} guidance field -> {args.out}")
    return 0


def _metric_cfg(args) -> MetricConfig:
    if args.metric_config:
        return load_metric_config(args.metric_config)
    return MetricConfig()


def _cmd_eval(args, cfg: PipelineConfig) -> int:
    pred_csv = args.pred.endswith(".csv")
    ref_csv = args.ref.endswith(".csv")
    if pred_csv != ref_csv:
        raise _UsageError("pred and ref must both be controls CSVs or both keypoints JSONs")
    mcfg = _metric_cfg(args)
    report: dict = {"au_f1": None, "au_temp": None, "eye_lmd": None}
    if pred_csv:
        pred = load_controls_csv(args.pred, fps=args.fps)
        ref = load_controls_csv(args.ref, fps=args.fps)
        score = au_f1(pred, ref, threshold=mcfg.activation_threshold)
        report["au_f1"] = {
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
        }
        if args.label:
            report["au_temp"] = au_temp(
                pred,
                ref,
                args.label,
                channels=mcfg.channels_for(args.label, cfg.template_table),
            )
    else:
        pred = load_keypoints_json(args.pred, dims=2)
        ref = load_keypoints_json(args.ref, dims=2)
        report["eye_lmd"] = eye_lmd(pred, ref)
    _emit(report)
    return 0


_PREVIEW_STYLE = (
    '<rect width="{s}" height="{s}" fill="#1b1b22"/>'
)


def _polyline(pts, indices, size: int, color: str, close: bool = False) -> str:
    coords = " ".join(
        f"{pts[i][0] * size:.2f},{pts[i][1] * size:.2f}" for i in indices
    )
    tag = "polygon" if close else "polyline"
    return (
        f'<{tag} points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.5" stroke-linejoin="round"/>'
    )


def _frame_svg_body(pts, size: int) -> str:
    parts = [_PREVIEW_STYLE.format(s=size)]
    for lid in (LEFT_UPPER_LID, LEFT_LOWER_LID, RIGHT_UPPER_LID, RIGHT_LOWER_LID):
        parts.append(_polyline(pts, lid, size, "#e8e3d8"))
    for iris in (LEFT_IRIS, RIGHT_IRIS):
        parts.append(_polyline(pts, iris, size, "#7fb2d9", close=True))
    for brow in (LEFT_BROW, RIGHT_BROW):
        parts.append(_polyline(pts, brow, size, "#c9a36a"))
    for pupil in (LEFT_PUPIL, RIGHT_PUPIL):
        u, v = pts[pupil][0] * size, pts[pupil][1] * size
        parts.append(f'<circle cx="{u:.2f}" cy="{v:.2f}" r="2.5" fill="#9fd0f5"/>')
    return "".join(parts)


def _cmd_preview(args, cfg: PipelineConfig) -> int:
    if args.every < 1:
        raise _UsageError(f"--every must be >= 1, got {args.every}")
    if args.size < 16:
        raise _UsageError(f"--size must be >= 16, got {args.size}")
    seq = load_keypoints_json(args.keypoints, dims=2)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    size = args.size
    picked = list(range(0, len(seq), args.every))
    bodies = []
    for t in picked:
        body = _frame_svg_body(seq.frames[t], size)
        bodies.append((t, body))
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">{body}</svg>\n'
        )
        (out_dir / f"frame_{t + 1:04d}.svg").write_text(svg)

    cols = min(8, len(bodies))
    rows = (len(bodies) + cols - 1) // cols
    cell = 120
    scale = cell / size
    tiles = []
    for n, (t, body) in enumerate(bodies):
        x = (n % cols) * cell
        y = (n // cols) * cell
        tiles.append(
            f'<g transform="translate({x},{y}) scale({scale:.4f})">{body}</g>'
            f'<text x="{x + 4}" y="{y + 12}" fill="#e8e3d8" font-size="10" '
            f'font-family="monospace">{t + 1}</text>'
        )
    sheet = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
        f'height="{rows * cell}" viewBox="0 0 {cols * cell} {rows * cell}">'
        + "".join(tiles)
        + "</svg>\n"
    )
    (out_dir / "contact_sheet.svg").write_text(sheet)
    print(f"wrote {len(bodies)} frame images and a contact sheet under {out_dir}")
    return 0


_COMMANDS = {
    "build-lib": _cmd_build_lib,
    "compile": _cmd_compile,
    "validate": _cmd_validate,
    "map": _cmd_map,
    "guidance": _cmd_guidance,
    "eval": _cmd_eval,
    "preview": _cmd_preview,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
