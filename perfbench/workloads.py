"""Workload inputs for the eyerig benchmark, made from a seed with eyerig itself.

`make_inputs` runs in a child process during set-up (so the inputs' own memory
peak never shows in the timed process). It writes the input files under
`<work>/inputs` and returns one round of operations: each op is the argv a user
would give `eyerig` plus what the checks need to know about it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from eyerig import (
    CATEGORIES,
    build_demo_library,
    compose,
    map_sequence,
    plan,
    refine,
    save_controls_csv,
    save_keypoints_json,
    save_library,
    signature_aus,
)

FPS = 25.0

# Instruction strings drawn by the seeded ops. Every label passes the critic
# with each of them at 50-120 and 2000-5000 frames, under sample_k 1 and 3
# (config seeds 0-3). Strings that fail only for some labels or lengths are
# left out; CHANGES.md names them.
INSTRUCTIONS = (
    "",
    "look to the left and blink",
    "turn your head to the right",
    "raise your eyebrows",
    "lower your head",
    "wink right",
    "raise your head",
)

# The one kept failure: these labels with this instruction end in critic
# verdict `fail` (exit 2) at every length from 50 frames up, because the
# instruction strips a gaze target that the label's signature still demands.
# Each maps to a phrase its audit must hold.
FAILING = {
    "sadness": "gaze moves opposite to the instructed up",
    "low_arousal_negative": "commits to gaze_down but it stays below 0.1",
    "evasive_response": "gaze moves opposite to the instructed up",
}
FAILING_INSTRUCTION = "look up and raise eyebrows"
FAILING_FRAMES = 80

SAMPLE_K = 3
CONFIG_SEEDS = 4

# compile_long_demo: one op per base length, each plus 25 * (0..7) frames.
LONG_BASES = (2000, 3000, 4000, 4800)

# build_lib_invert: one trace per label.
TRACE_FRAMES = 200

# eval_temporal: one pair per label; its length is set so that every op warps
# about this many cells (signature AUs x n^2), which keeps op times alike.
EVAL_CELLS = 612_500


def _compile_seq(lib, label: str, frames: int, instructions: str, sample_k: int, seed):
    p = plan(label, frames, FPS, instructions=instructions)
    seq = compose(p, lib, sample_k=sample_k, seed=seed)
    return refine(seq, p, lib=lib, instructions=instructions).sequence


def _compile_op(label, frames, instructions, out, extra=(), library=None, expect_fail=None):
    argv = [*extra, "compile", "--label", label, "--frames", str(frames)]
    argv += ["--instructions", instructions]
    if library is not None:
        argv += ["--library", library]
    argv += ["--out-dir", out]
    return {"kind": "compile", "argv": argv, "label": label, "frames": frames,
            "expect_fail": expect_fail}


def _short_lib(rng, inputs: Path, out: Path) -> list[dict]:
    lib_path = str(inputs / "demo_library.json")
    save_library(build_demo_library(FPS), lib_path)
    cfg_path = inputs / "sample_k.json"
    cfg_path.write_text(json.dumps({"sample_k": SAMPLE_K}) + "\n")
    n = len(CATEGORIES)
    labels = rng.permutation(CATEGORIES)
    frames = rng.permutation(50 + 6 * np.arange(n)) + rng.integers(0, 5, n)
    sampled = rng.permutation(np.arange(n) % 2 == 0)
    ops = []
    for i in range(n):
        extra = ()
        if sampled[i]:
            extra = ("--config", str(cfg_path), "--seed", str(rng.integers(CONFIG_SEEDS)))
        ops.append(_compile_op(str(labels[i]), int(frames[i]), str(rng.choice(INSTRUCTIONS)),
                               str(out / f"op{i:02d}"), extra, lib_path))
    for label, reason in FAILING.items():
        ops.append(_compile_op(label, FAILING_FRAMES, FAILING_INSTRUCTION,
                               str(out / f"op{len(ops):02d}"), (), lib_path, reason))
    return ops


def _long_demo(rng, inputs: Path, out: Path) -> list[dict]:
    labels = rng.choice(CATEGORIES, len(LONG_BASES), replace=False)
    return [
        _compile_op(str(labels[i]), base + 25 * int(rng.integers(8)),
                    str(rng.choice(INSTRUCTIONS)), str(out / f"op{i:02d}"))
        for i, base in enumerate(LONG_BASES)
    ]


def _build_lib(rng, inputs: Path, out: Path) -> list[dict]:
    lib = build_demo_library(FPS)
    traces = inputs / "traces"
    traces.mkdir()
    sources = {}
    for i, label in enumerate(CATEGORIES):
        k = SAMPLE_K if rng.random() < 0.5 else 1
        seq = _compile_seq(lib, label, TRACE_FRAMES, str(rng.choice(INSTRUCTIONS)), k,
                           int(rng.integers(CONFIG_SEEDS)))
        _, points3d = map_sequence(seq)
        stem = f"{label}__{i:02d}"
        save_keypoints_json(points3d, traces / f"{stem}.keypoints.json")
        sources[stem] = seq.values
    np.savez(inputs / "sources.npz", **sources)
    lib_out = out / "op00" / "library.json"
    return [{"kind": "build_lib", "argv": ["build-lib", str(traces), "-o", str(lib_out)],
             "frames": TRACE_FRAMES * len(CATEGORIES), "traces": str(traces),
             "sources": str(inputs / "sources.npz"), "library": str(lib_out)}]


def _eval(rng, inputs: Path, out: Path) -> list[dict]:
    lib = build_demo_library(FPS)
    ops = []
    for i, label in enumerate(rng.permutation(CATEGORIES)):
        label = str(label)
        n = round(math.sqrt(EVAL_CELLS / len(signature_aus(label))) * rng.uniform(0.97, 1.03))
        ref = _compile_seq(lib, label, n, "", 1, None)
        pred = _compile_seq(lib, label, n, str(rng.choice(INSTRUCTIONS)), SAMPLE_K,
                            int(rng.integers(CONFIG_SEEDS)))
        ref_path, pred_path = inputs / f"ref{i:02d}.controls.csv", inputs / f"pred{i:02d}.controls.csv"
        save_controls_csv(ref, ref_path)
        save_controls_csv(pred, pred_path)
        ops.append({"kind": "eval", "argv": ["eval", str(pred_path), str(ref_path), "--label", label],
                    "label": label, "frames": 2 * n, "pred": str(pred_path), "ref": str(ref_path)})
    return ops


_MAKERS = {
    "compile_short_lib": _short_lib,
    "compile_long_demo": _long_demo,
    "build_lib_invert": _build_lib,
    "eval_temporal": _eval,
}


def make_inputs(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of `workload` under work/inputs; return one round of ops."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    return _MAKERS[workload](np.random.default_rng(seed), inputs, work / "out")
