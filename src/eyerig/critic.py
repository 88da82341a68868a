"""Physiological and semantic critique of control sequences, with repair, and
the compile entry point that chains plan, compose and refine."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    DIRECTIONS,
    GAZE_NAMES,
    HEAD_NAMES,
    ControlSequence,
    Violation,
    channel_index,
    enforce_state_invariants,
    opposing_gaze,
)
from .composer import compose
from .config import PipelineConfig, RuleSet
from .planner import (
    _PHYSIOLOGY_RULES,
    TEMPLATES,
    Plan,
    parse_instructions,
    plan as build_plan,
    signature_channels,
)

__all__ = [
    "RuleSet",
    "EditSuggestion",
    "CriticReport",
    "RefineResult",
    "check_physiology",
    "check_semantic",
    "critique",
    "apply_edits",
    "refine",
    "compile_behavior",
]

_COACTIVATION_PAIRS = (
    ("AU4_L", "AU2_L"),
    ("AU4_R", "AU2_R"),
    ("AU5_L", "AU43_L"),
    ("AU5_R", "AU43_R"),
)
_LIDS = [channel_index("AU43_L"), channel_index("AU43_R")]

# refine's budgets: local-edit rounds per plan, and re-plans per clip.
_MAX_COMPOSITION_ROUNDS = 3
_MAX_REPLANS = 1


@dataclass(frozen=True)
class EditSuggestion:
    """One local repair: what to do, where, and which rule it answers.

    `value` carries the edit's numeric parameter: the ms cap for
    truncate_blink, the signed target angle for head_ramp.
    """

    kind: str
    rule: str
    channel: str
    start_frame: int  # 1-based inclusive
    end_frame: int  # 1-based inclusive
    note: str = ""
    value: float = 0.0


@dataclass(frozen=True)
class CriticReport:
    """Critique outcome: verdict plus the violations and repair suggestions.

    Verdicts: "pass" (clean), "revise_composition" (every violation has a
    local repair), "revise_plan" (at least one violation needs new targets),
    "fail" (refinement budgets exhausted; only refine() emits this).
    """

    verdict: str
    violations: tuple[Violation, ...] = ()
    suggestions: tuple[EditSuggestion, ...] = ()


@dataclass(frozen=True)
class RefineResult:
    sequence: ControlSequence
    report: CriticReport
    history: tuple[CriticReport, ...]
    composition_rounds: int = 0
    replans: int = 0


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal True runs as 0-based inclusive (start, end) pairs."""
    edges = np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1).tolist()
    ends = (np.flatnonzero(edges == -1) - 1).tolist()
    return list(zip(starts, ends))


def _exempt_mask(p: Plan | None, rule: str, n_frames: int) -> np.ndarray:
    mask = np.zeros(n_frames, dtype=bool)
    if p is None:
        return mask
    for ev in p.events:
        if rule in ev.exemptions:
            mask[ev.start_frame - 1 : ev.end_frame] = True  # a slice stops at n_frames
    return mask


def _ms_frames(ms: float, fps: float) -> float:
    """ms milliseconds in frames at fps, capped so a rate near the float limit
    still rounds to an int (the cap exceeds any clip length)."""
    return min(ms * fps / 1000.0, float(sys.maxsize))


def _frames_for_min_ms(ms: float, fps: float) -> int:
    return max(1, math.ceil(_ms_frames(ms, fps) - 1e-9))


def _frames_for_max_ms(ms: float, fps: float) -> int:
    return max(1, math.floor(_ms_frames(ms, fps) + 1e-9))


def _closure(v: np.ndarray) -> np.ndarray:
    """Both-lid closure per frame: the lower of the two AU43 tracks."""
    return v[:, _LIDS].min(axis=1)


def _peak(v: np.ndarray, name: str) -> float:
    return float(v[:, channel_index(name)].max())


# Physiology checks.  Each takes (values, fps, exempt, rules), where exempt
# marks the frames whose plan events exempt the check's rule, and yields
# (channel, message, run, edit) per finding: run is the 0-based inclusive
# span whose start is the violation's frame, and edit is None (new targets
# needed) or (kind, channel, run, note, value) for an EditSuggestion.


def _blink_lengths(v, fps, exempt, rules):
    """Each closure episode lasts [blink_min_ms, cap]; exemption raises the cap."""
    for a, b in _runs(_closure(v) > rules.closure_threshold):
        ms = (b - a + 1) * 1000.0 / fps
        cap = rules.blink_exempt_max_ms if exempt[a : b + 1].any() else rules.blink_max_ms
        if ms < rules.blink_min_ms:
            floor = f"{rules.blink_min_ms:.0f} ms"
            yield "AU43", f"closure of {ms:.0f} ms is shorter than {floor}", (a, b), (
                "stretch_blink", "AU43", (a, b), f"hold closure for {floor}", 0.0
            )
        elif ms > cap:
            yield "AU43", f"closure of {ms:.0f} ms exceeds {cap:.0f} ms", (a, b), (
                "truncate_blink", "AU43", (a, b), f"reopen after {cap:.0f} ms", cap
            )


def _blink_gaps(v, fps, exempt, rules):
    """Open time between consecutive closure episodes."""
    episodes = _runs(_closure(v) > rules.closure_threshold)
    for (_, b1), (a2, b2) in zip(episodes, episodes[1:]):
        gap_ms = (a2 - b1 - 1) * 1000.0 / fps
        if gap_ms < rules.interblink_min_ms and not exempt[a2]:
            need = f"need {rules.interblink_min_ms:.0f} ms"
            yield "AU43", f"only {gap_ms:.0f} ms between closures, {need}", (a2, b2), (
                "suppress_blink", "AU43", (a2, b2), "drop the second closure", 0.0
            )


def _lid_asymmetry(v, fps, exempt, rules):
    """Lids far apart outside exempted (wink) spans."""
    apart = np.abs(v[:, _LIDS[0]] - v[:, _LIDS[1]]) > rules.asymmetry_limit
    for run in _runs(apart & ~exempt):
        yield "AU43", f"lid closure differs by more than {rules.asymmetry_limit:g}", run, (
            "balance_lids", "AU43", run, "raise the lower lid toward the higher one", 0.0
        )


def _antagonists(v, fps, exempt, rules):
    """Antagonist pairs both strongly active on one side."""
    limit = rules.coactivation_limit
    for first, second in _COACTIVATION_PAIRS:
        both = (v[:, channel_index(first)] > limit) & (v[:, channel_index(second)] > limit)
        pair = f"{first}+{second}"
        for run in _runs(both & ~exempt):
            yield pair, f"{first} and {second} both exceed {limit:g}", run, (
                "reduce_coactivation", pair, run, "lower the weaker of the pair", 0.0
            )


def _saccades(v, fps, exempt, rules):
    """Per-frame gaze speed under the cap, and every excursion moves fast enough."""
    n = len(v)
    limit = rules.velocity_limit(fps)
    for name in GAZE_NAMES:
        g = v[:, channel_index(name)]
        fast = np.zeros(n, dtype=bool)
        fast[1:] = np.abs(np.diff(g)) > limit + 1e-12
        for run in _runs(fast & ~exempt):
            yield name, f"velocity above {limit:g} per frame", run, (
                "slew_limit", name, (0, n - 1), f"cap per-frame change at {limit:g}", 0.0
            )
        for a, b in _runs(g > rules.excursion_floor):
            if exempt[a : b + 1].all():
                continue
            lo_edge = max(a - 1, 0)
            peak_delta = float(np.abs(np.diff(g[lo_edge : b + 1])).max()) if b > lo_edge else 0.0
            needed = rules.excursion_coeff * float(g[a : b + 1].max()) / (b - a + 1)
            if peak_delta + 1e-12 < needed:
                # constant plateaus need new targets, not edits
                message = f"sluggish excursion: peak velocity {peak_delta:g} below {needed:g}"
                yield name, message, (a, b), None


def _head_support(v, fps, exempt, rules):
    """Gaze held strongly for longer than sustain_ms needs a head deflection."""
    n = len(v)
    sustain = math.floor(_ms_frames(rules.sustain_ms, fps) + 1e-9) + 1
    window = _frames_for_min_ms(rules.coordination_window_ms, fps)
    deg = rules.head_deflection_deg
    for name, head_name, sign in DIRECTIONS.values():
        h = v[:, channel_index(head_name)]
        for a, b in _runs(v[:, channel_index(name)] > rules.closure_threshold):
            if (b - a + 1) < sustain or exempt[a]:
                continue
            if (sign * h[a : min(a + window, n - 1) + 1]).max() < deg:
                target = sign * (deg + 1.0)
                message = f"sustained {name} without a matching {head_name} move of {deg:g} deg"
                yield name, message, (a, b), (
                    "head_ramp", head_name, (a, b), f"ramp {head_name} to {target:g} deg", target
                )


# Each rule of _PHYSIOLOGY_RULES with its check, in that report order; a rule's
# name is also the plan exemption that lifts it.
_PHYSIOLOGY = dict(zip(_PHYSIOLOGY_RULES, (
    _blink_lengths, _blink_gaps, _lid_asymmetry, _antagonists, _saccades, _head_support,
), strict=True))


def _physiology(
    seq: ControlSequence, p: Plan | None, rules: RuleSet
) -> list[tuple[Violation, EditSuggestion | None]]:
    out: list[tuple[Violation, EditSuggestion | None]] = []
    for rule, check in _PHYSIOLOGY.items():
        exempt = _exempt_mask(p, rule, len(seq))
        for channel, message, (a, _), edit in check(seq.values, seq.fps, exempt, rules):
            fix = None
            if edit is not None:
                kind, target, (lo, hi), note, value = edit
                fix = EditSuggestion(kind, rule, target, lo + 1, hi + 1, note, value)
            out.append((Violation(rule, channel, message, frame=a + 1), fix))
    return out


def check_physiology(
    seq: ControlSequence, p: Plan | None = None, rules: RuleSet | None = None
) -> list[Violation]:
    """Dynamics rules over a sequence; plan exemptions lift matching rules."""
    rules = rules or RuleSet()
    return [v for v, _ in _physiology(seq, p, rules)]


def _event_core(ev_start: int, ev_end: int, guard: int, n: int) -> tuple[int, int]:
    """0-based inclusive span with seam guards trimmed when room allows."""
    a = ev_start - 1
    b = min(ev_end, n) - 1
    if b - a + 1 > 2 * guard + 1:
        return a + guard, b - guard
    return a, b


# Semantic checks yield (channel, message, frame) per finding; none has a
# local edit, so any of them sends the verdict to revise_plan.


def _target_misses(v, p, rules):
    """Each event reaches its targets inside its seam-guarded core."""
    for k, ev in enumerate(p.events):
        a, b = _event_core(ev.start_frame, ev.end_frame, rules.event_edge_guard, len(v))
        for name, (lo, hi) in ev.channel_targets.items():
            track = v[a : b + 1, channel_index(name)]
            if name in HEAD_NAMES:
                tol = rules.head_target_tolerance_deg
                if not ((track >= lo - tol) & (track <= hi + tol)).any():
                    message = f"events[{k}] never brings {name} near [{lo:g}, {hi:g}] deg"
                    yield name, message, ev.start_frame
                continue
            peak = float(track.max())
            tol = rules.event_target_tolerance
            if peak < lo - tol or peak > hi + tol:
                message = f"events[{k}] peak {peak:.3f} for {name} outside [{lo:g}, {hi:g}]"
                yield name, message, ev.start_frame


def _instruction_misses(v, instructions, rules):
    """Every instructed gaze, head, brow, blink and wink move is realized."""
    intent = parse_instructions(instructions)
    floor = rules.instruction_presence_min
    for d in intent.gaze:
        name = DIRECTIONS[d][0]
        peak = _peak(v, name)
        if peak < floor:
            yield name, f"instructed gaze {d} never rises above {floor:g}", None
        elif _peak(v, opposing_gaze(name)) > peak:
            yield name, f"gaze moves opposite to the instructed {d}", None
    deg = rules.head_deflection_deg
    for d in intent.head:
        _, head_name, sign = DIRECTIONS[d]
        if (sign * v[:, channel_index(head_name)]).max() < deg:
            yield head_name, f"instructed head {d} never reaches {deg:g} deg", None
    if intent.brow is not None:
        sides = {"both": ("AU2_L", "AU2_R"), "left": ("AU2_L",), "right": ("AU2_R",)}
        for name in sides[intent.brow]:
            if _peak(v, name) < floor:
                yield name, "instructed brow raise is absent", None
    if intent.blink and not (_closure(v) > rules.closure_threshold).any():
        yield "AU43", "instructed blink is absent", None
    if intent.wink is not None:
        name = "AU43_L" if intent.wink == "left" else "AU43_R"
        if _peak(v, name) <= rules.closure_threshold:
            yield name, "instructed wink is absent", None


def _signature_misses(v, p, rules, templates):
    """The label's committed channels, from the table in force, are active."""
    if p.label not in templates:
        return
    for name in signature_channels(p.label, templates):
        if _peak(v, name) < rules.signature_min:
            message = (
                f"label {p.label!r} commits to {name} but it stays "
                f"below {rules.signature_min:g}"
            )
            yield name, message, None


def check_semantic(
    seq: ControlSequence,
    p: Plan,
    rules: RuleSet | None = None,
    instructions: str = "",
    templates=TEMPLATES,
) -> list[Violation]:
    """Does the sequence do what the plan and instructions asked for?

    Checks: the sequence is as long as the plan (event_order), per-event
    target attainment inside seam-guarded cores (event_target), instruction
    keywords realized (instruction_consistency), and the label's committed
    channels actually active (label_signature).  The stage table in
    `templates` supplies the signatures; a label it does not hold has none.
    """
    rules = rules or RuleSet()
    v = seq.values
    if len(v) != p.total_frames:
        # a sequence that does not fit its plan leaves nothing else to check
        message = f"sequence has {len(v)} frames, plan covers {p.total_frames}"
        return [Violation("event_order", "", message)]
    checks = {
        "event_target": _target_misses(v, p, rules),
        "instruction_consistency": _instruction_misses(v, instructions, rules),
        "label_signature": _signature_misses(v, p, rules, templates),
    }
    return [Violation(rule, *found) for rule, findings in checks.items() for found in findings]


def critique(
    seq: ControlSequence,
    p: Plan,
    rules: RuleSet | None = None,
    instructions: str = "",
    templates=TEMPLATES,
) -> CriticReport:
    """Full critique: physiology plus semantics, folded into one verdict.

    Every violation is listed; an edit that several violations suggest (one
    whole-clip slew_limit per fast run) is listed once.
    """
    rules = rules or RuleSet()
    findings = _physiology(seq, p, rules)
    findings += [(v, None) for v in check_semantic(seq, p, rules, instructions, templates)]
    if not findings:
        verdict = "pass"
    elif any(edit is None for _, edit in findings):
        verdict = "revise_plan"
    else:
        verdict = "revise_composition"
    violations = tuple(v for v, _ in findings)
    edits = dict.fromkeys(e for _, e in findings if e is not None)
    return CriticReport(verdict, violations, tuple(edits))


def _apply_one(v: np.ndarray, s: EditSuggestion, rules: RuleSet, fps: float) -> None:
    n = len(v)
    a = s.start_frame - 1
    b = min(s.end_frame, n) - 1
    open_level = rules.closure_threshold - 0.05
    if s.kind == "stretch_blink":
        end = min(a + _frames_for_min_ms(rules.blink_min_ms, fps) - 1, n - 1)
        peak = v[a : b + 1, _LIDS].max(axis=0)
        v[a : end + 1, _LIDS] = np.maximum(v[a : end + 1, _LIDS], peak)
    elif s.kind == "truncate_blink":
        cut = a + _frames_for_max_ms(s.value if s.value > 0 else rules.blink_max_ms, fps)
        v[cut : b + 1, _LIDS] = np.minimum(v[cut : b + 1, _LIDS], open_level)
    elif s.kind == "suppress_blink":
        v[a : b + 1, _LIDS] = np.minimum(v[a : b + 1, _LIDS], open_level)
    elif s.kind == "balance_lids":
        lids = v[a : b + 1, _LIDS]
        lifted = np.maximum(lids.min(axis=1), lids.max(axis=1) - (rules.asymmetry_limit - 0.05))
        lids[np.arange(len(lids)), lids.argmin(axis=1)] = lifted  # ties lift the left lid
        v[a : b + 1, _LIDS] = lids
    elif s.kind == "reduce_coactivation":
        first, second = s.channel.split("+")
        fi = channel_index(first)
        si = channel_index(second)
        cap = rules.coactivation_limit - 0.05
        fa, sa = v[a : b + 1, fi].copy(), v[a : b + 1, si].copy()
        first_weak = fa <= sa
        v[a : b + 1, fi] = np.where(first_weak, np.minimum(fa, cap), fa)
        v[a : b + 1, si] = np.where(first_weak, sa, np.minimum(sa, cap))
    elif s.kind == "slew_limit":
        j = channel_index(s.channel)
        limit = rules.velocity_limit(fps)
        for t in range(1, n):  # a recurrence: each frame is capped from the capped last one
            lo = v[t - 1, j] - limit
            hi = v[t - 1, j] + limit
            v[t, j] = min(max(v[t, j], lo), hi)
        np.clip(v[:, j], 0.0, 1.0, out=v[:, j])
    elif s.kind == "head_ramp":
        j = channel_index(s.channel)
        reach = min(a + _frames_for_min_ms(rules.coordination_window_ms, fps), b)
        alpha = np.arange(reach - a + 1) / max(reach - a, 1)
        v[a : reach + 1, j] = (1.0 - alpha) * v[a, j] + alpha * s.value
        v[reach + 1 : b + 1, j] = s.value
    else:
        raise ValueError(f"unknown edit kind {s.kind!r}")


def apply_edits(
    seq: ControlSequence,
    suggestions: Sequence[EditSuggestion],
    rules: RuleSet | None = None,
) -> ControlSequence:
    """Apply local repairs in order, then project back onto the valid set."""
    rules = rules or RuleSet()
    v = seq.values.copy()
    for s in suggestions:
        _apply_one(v, s, rules, seq.fps)
    return ControlSequence(enforce_state_invariants(v), seq.fps)


def _plan_and_compose(label, total_frames, fps, lib, instructions, initial_pose, cfg, relax=0.0):
    """A plan under cfg's stage table and its composition under cfg's retrieval
    settings: the one place a compile calls plan and compose."""
    p = build_plan(
        label, total_frames, fps, instructions=instructions, initial_pose=initial_pose,
        relax=relax, templates=cfg.template_table,
    )
    seq = compose(
        p, lib, weights=cfg.query_weights, initial_pose=initial_pose,
        blend_frames=cfg.blend_frames, sample_k=cfg.sample_k, seed=cfg.seed,
    )
    return p, seq


def refine(
    seq: ControlSequence,
    p: Plan,
    lib=None,
    instructions: str = "",
    initial_pose: Sequence[float] = (0.0, 0.0, 0.0),
    cfg: PipelineConfig | None = None,
) -> RefineResult:
    """Critique-and-repair loop with explicit budgets.

    Local edits answer revise_composition verdicts up to
    _MAX_COMPOSITION_ROUNDS times; a revise_plan verdict re-plans with
    widened targets and recomposes (needs lib), up to _MAX_REPLANS times,
    resetting the composition budget.  When budgets run out the last critique
    is returned with verdict "fail" and the full audit history attached.
    cfg (None means PipelineConfig()) supplies the rules, the stage table for
    each critique and re-plan, and the retrieval settings for each recompose;
    a re-plan keeps the plan's own fps, not cfg.fps.
    """
    cfg = cfg or PipelineConfig()
    rules = cfg.rules
    templates = cfg.template_table
    current = seq
    current_plan = p
    comp_rounds = 0
    replans = 0
    history: list[CriticReport] = []
    while True:
        report = critique(current, current_plan, rules, instructions, templates)
        history.append(report)
        if report.verdict == "pass":
            return RefineResult(current, report, tuple(history), comp_rounds, replans)
        if report.verdict == "revise_composition" and comp_rounds < _MAX_COMPOSITION_ROUNDS:
            current = apply_edits(current, report.suggestions, rules)
            comp_rounds += 1
            continue
        can_replan = (
            replans < _MAX_REPLANS
            and lib is not None
            and current_plan.label in templates
        )
        if can_replan:
            replans += 1
            current_plan, current = _plan_and_compose(
                current_plan.label, current_plan.total_frames, current_plan.fps, lib,
                instructions, initial_pose, cfg, relax=0.5 * replans,
            )
            comp_rounds = 0
            continue
        final = CriticReport("fail", report.violations, report.suggestions)
        history[-1] = final
        return RefineResult(current, final, tuple(history), comp_rounds, replans)


def compile_behavior(
    label: str,
    total_frames: int,
    lib,
    instructions: str = "",
    initial_pose: Sequence[float] = (0.0, 0.0, 0.0),
    cfg: PipelineConfig | None = None,
) -> RefineResult:
    """Compile one behaviour: plan at cfg.fps, compose from lib, then refine.

    cfg (None means PipelineConfig()) carries every setting of the three
    stages, so the result equals plan, compose and refine called by hand with
    the same settings.
    """
    cfg = cfg or PipelineConfig()
    p, seq = _plan_and_compose(label, total_frames, cfg.fps, lib, instructions, initial_pose, cfg)
    return refine(seq, p, lib, instructions, initial_pose, cfg)
