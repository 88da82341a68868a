"""Physiological and semantic critique of control sequences, with repair."""
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
from .planner import (
    CATEGORIES,
    Plan,
    parse_instructions,
    plan as build_plan,
    signature_channels,
    validate_plan,
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
]

_COACTIVATION_PAIRS = (
    ("AU4_L", "AU2_L"),
    ("AU4_R", "AU2_R"),
    ("AU5_L", "AU43_L"),
    ("AU5_R", "AU43_R"),
)

@dataclass(frozen=True)
class RuleSet:
    """Thresholds for every critic rule; times in milliseconds, angles in deg.

    The per-frame gaze velocity cap is stated at reference_fps and rescaled
    to the sequence rate, so the physical speed limit is rate-independent.
    """

    blink_min_ms: float = 100.0
    blink_max_ms: float = 500.0
    blink_exempt_max_ms: float = 1500.0
    interblink_min_ms: float = 400.0
    closure_threshold: float = 0.5
    asymmetry_limit: float = 0.5
    coactivation_limit: float = 0.5
    gaze_velocity_limit: float = 0.25
    reference_fps: float = 25.0
    excursion_floor: float = 0.05
    excursion_coeff: float = 0.3
    sustain_ms: float = 300.0
    coordination_window_ms: float = 400.0
    head_deflection_deg: float = 2.0
    event_target_tolerance: float = 0.05
    head_target_tolerance_deg: float = 2.0
    event_edge_guard: int = 2
    instruction_presence_min: float = 0.1
    signature_min: float = 0.1

    def velocity_limit(self, fps: float) -> float:
        return self.gaze_velocity_limit * self.reference_fps / fps


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
            lo = max(ev.start_frame - 1, 0)
            hi = min(ev.end_frame, n_frames)
            mask[lo:hi] = True
    return mask


def _ms_frames(ms: float, fps: float) -> float:
    """ms milliseconds in frames at fps, capped so a rate near the float limit
    still rounds to an int (the cap exceeds any clip length)."""
    return min(ms * fps / 1000.0, float(sys.maxsize))


def _frames_for_min_ms(ms: float, fps: float) -> int:
    return max(1, math.ceil(_ms_frames(ms, fps) - 1e-9))


def _frames_for_max_ms(ms: float, fps: float) -> int:
    return max(1, math.floor(_ms_frames(ms, fps) + 1e-9))


def _physiology(
    seq: ControlSequence, p: Plan | None, rules: RuleSet
) -> list[tuple[Violation, EditSuggestion | None]]:
    v = seq.values
    n = len(seq)
    fps = seq.fps
    out: list[tuple[Violation, EditSuggestion | None]] = []
    l43 = v[:, channel_index("AU43_L")]
    r43 = v[:, channel_index("AU43_R")]
    closure = np.minimum(l43, r43)
    episodes = _runs(closure > rules.closure_threshold)

    # blink_duration: each closure episode within [min, cap] milliseconds
    exempt_blink = _exempt_mask(p, "blink_duration", n)
    for a, b in episodes:
        dur_ms = (b - a + 1) * 1000.0 / fps
        cap = (
            rules.blink_exempt_max_ms
            if exempt_blink[a : b + 1].any()
            else rules.blink_max_ms
        )
        if dur_ms < rules.blink_min_ms:
            out.append(
                (
                    Violation(
                        "blink_duration",
                        "AU43",
                        f"closure of {dur_ms:.0f} ms is shorter than "
                        f"{rules.blink_min_ms:.0f} ms",
                        frame=a + 1,
                    ),
                    EditSuggestion(
                        "stretch_blink", "blink_duration", "AU43", a + 1, b + 1,
                        note=f"hold closure for {rules.blink_min_ms:.0f} ms",
                    ),
                )
            )
        elif dur_ms > cap:
            out.append(
                (
                    Violation(
                        "blink_duration",
                        "AU43",
                        f"closure of {dur_ms:.0f} ms exceeds {cap:.0f} ms",
                        frame=a + 1,
                    ),
                    EditSuggestion(
                        "truncate_blink", "blink_duration", "AU43", a + 1, b + 1,
                        note=f"reopen after {cap:.0f} ms", value=cap,
                    ),
                )
            )

    # interblink_interval: open time between consecutive episodes
    exempt_gap = _exempt_mask(p, "interblink_interval", n)
    for (a1, b1), (a2, b2) in zip(episodes, episodes[1:]):
        gap_ms = (a2 - b1 - 1) * 1000.0 / fps
        if gap_ms < rules.interblink_min_ms and not exempt_gap[a2]:
            out.append(
                (
                    Violation(
                        "interblink_interval",
                        "AU43",
                        f"only {gap_ms:.0f} ms between closures, need "
                        f"{rules.interblink_min_ms:.0f} ms",
                        frame=a2 + 1,
                    ),
                    EditSuggestion(
                        "suppress_blink", "interblink_interval", "AU43",
                        a2 + 1, b2 + 1, note="drop the second closure",
                    ),
                )
            )

    # blink_asymmetry: lids far apart outside exempted (wink) spans
    asym = np.abs(l43 - r43) > rules.asymmetry_limit
    asym &= ~_exempt_mask(p, "blink_asymmetry", n)
    for a, b in _runs(asym):
        out.append(
            (
                Violation(
                    "blink_asymmetry",
                    "AU43",
                    f"lid closure differs by more than {rules.asymmetry_limit:g}",
                    frame=a + 1,
                ),
                EditSuggestion(
                    "balance_lids", "blink_asymmetry", "AU43", a + 1, b + 1,
                    note="raise the lower lid toward the higher one",
                ),
            )
        )

    # au_coactivation: antagonist pairs both strongly active on one side
    exempt_co = _exempt_mask(p, "au_coactivation", n)
    for first, second in _COACTIVATION_PAIRS:
        fa = v[:, channel_index(first)]
        fb = v[:, channel_index(second)]
        both = (fa > rules.coactivation_limit) & (fb > rules.coactivation_limit)
        both &= ~exempt_co
        for a, b in _runs(both):
            pair = f"{first}+{second}"
            out.append(
                (
                    Violation(
                        "au_coactivation",
                        pair,
                        f"{first} and {second} both exceed "
                        f"{rules.coactivation_limit:g}",
                        frame=a + 1,
                    ),
                    EditSuggestion(
                        "reduce_coactivation", "au_coactivation", pair,
                        a + 1, b + 1, note="lower the weaker of the pair",
                    ),
                )
            )

    # gaze_main_sequence: per-frame speed cap, and excursions must move
    limit = rules.velocity_limit(fps)
    exempt_gaze = _exempt_mask(p, "gaze_main_sequence", n)
    for name in GAZE_NAMES:
        g = v[:, channel_index(name)]
        if n > 1:
            deltas = np.abs(np.diff(g))
            fast = np.zeros(n, dtype=bool)
            fast[1:] = deltas > limit + 1e-12
            fast &= ~exempt_gaze
            for a, b in _runs(fast):
                out.append(
                    (
                        Violation(
                            "gaze_main_sequence",
                            name,
                            f"velocity above {limit:g} per frame",
                            frame=a + 1,
                        ),
                        EditSuggestion(
                            "slew_limit", "gaze_main_sequence", name, 1, n,
                            note=f"cap per-frame change at {limit:g}",
                        ),
                    )
                )
        for a, b in _runs(g > rules.excursion_floor):
            if exempt_gaze[a : b + 1].all():
                continue
            amplitude = float(g[a : b + 1].max())
            duration = b - a + 1
            lo_edge = max(a - 1, 0)
            peak_delta = (
                float(np.abs(np.diff(g[lo_edge : b + 1])).max())
                if b > lo_edge
                else 0.0
            )
            needed = rules.excursion_coeff * amplitude / duration
            if peak_delta + 1e-12 < needed:
                out.append(
                    (
                        Violation(
                            "gaze_main_sequence",
                            name,
                            f"sluggish excursion: peak velocity {peak_delta:g} "
                            f"below {needed:g}",
                            frame=a + 1,
                        ),
                        None,  # constant plateaus need new targets, not edits
                    )
                )

    # gaze_head_coordination: sustained strong gaze needs a head deflection
    # (strictly longer than sustain_ms)
    sustain_frames = math.floor(_ms_frames(rules.sustain_ms, fps) + 1e-9) + 1
    window = _frames_for_min_ms(rules.coordination_window_ms, fps)
    exempt_coord = _exempt_mask(p, "gaze_head_coordination", n)
    for name, head_name, sign in DIRECTIONS.values():
        g = v[:, channel_index(name)]
        h = v[:, channel_index(head_name)]
        for a, b in _runs(g > rules.closure_threshold):
            if (b - a + 1) < sustain_frames or exempt_coord[a]:
                continue
            w_end = min(a + window, n - 1)
            deflect = sign * h[a : w_end + 1]
            if deflect.max() < rules.head_deflection_deg:
                out.append(
                    (
                        Violation(
                            "gaze_head_coordination",
                            name,
                            f"sustained {name} without a matching {head_name} "
                            f"move of {rules.head_deflection_deg:g} deg",
                            frame=a + 1,
                        ),
                        EditSuggestion(
                            "head_ramp", "gaze_head_coordination", head_name,
                            a + 1, b + 1,
                            note=f"ramp {head_name} to "
                            f"{sign * (rules.head_deflection_deg + 1.0):g} deg",
                            value=sign * (rules.head_deflection_deg + 1.0),
                        ),
                    )
                )
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


def check_semantic(
    seq: ControlSequence,
    p: Plan,
    rules: RuleSet | None = None,
    instructions: str = "",
) -> list[Violation]:
    """Does the sequence do what the plan and instructions asked for?

    Checks: structural agreement with the plan (event_order), per-event target
    attainment inside seam-guarded cores (event_target), instruction keywords
    realized (instruction_consistency), and the label's committed channels
    actually active (label_signature).
    """
    rules = rules or RuleSet()
    v = seq.values
    n = len(seq)
    out: list[Violation] = []

    plan_report = validate_plan(p)
    for pv in plan_report.violations:
        out.append(Violation("event_order", pv.channel, pv.message, pv.frame))
    if n != p.total_frames:
        out.append(
            Violation(
                "event_order",
                "",
                f"sequence has {n} frames, plan covers {p.total_frames}",
            )
        )
    if not plan_report.ok or n != p.total_frames:
        return out

    for k, ev in enumerate(p.events):
        a, b = _event_core(ev.start_frame, ev.end_frame, rules.event_edge_guard, n)
        for name, (lo, hi) in ev.channel_targets.items():
            j = channel_index(name)
            track = v[a : b + 1, j]
            if name in HEAD_NAMES:
                tol = rules.head_target_tolerance_deg
                near = (track >= lo - tol) & (track <= hi + tol)
                if not near.any():
                    out.append(
                        Violation(
                            "event_target",
                            name,
                            f"events[{k}] never brings {name} near "
                            f"[{lo:g}, {hi:g}] deg",
                            frame=ev.start_frame,
                        )
                    )
            else:
                peak = float(track.max())
                tol = rules.event_target_tolerance
                if peak < lo - tol or peak > hi + tol:
                    out.append(
                        Violation(
                            "event_target",
                            name,
                            f"events[{k}] peak {peak:.3f} for {name} outside "
                            f"[{lo:g}, {hi:g}]",
                            frame=ev.start_frame,
                        )
                    )

    intent = parse_instructions(instructions)
    floor = rules.instruction_presence_min
    for d in intent.gaze:
        name = DIRECTIONS[d][0]
        peak = float(v[:, channel_index(name)].max())
        opp_peak = float(v[:, channel_index(opposing_gaze(name))].max())
        if peak < floor:
            out.append(
                Violation(
                    "instruction_consistency",
                    name,
                    f"instructed gaze {d} never rises above {floor:g}",
                )
            )
        elif opp_peak > peak:
            out.append(
                Violation(
                    "instruction_consistency",
                    name,
                    f"gaze moves opposite to the instructed {d}",
                )
            )
    for d in intent.head:
        _, head_name, sign = DIRECTIONS[d]
        deflect = sign * v[:, channel_index(head_name)]
        if deflect.max() < rules.head_deflection_deg:
            out.append(
                Violation(
                    "instruction_consistency",
                    head_name,
                    f"instructed head {d} never reaches "
                    f"{rules.head_deflection_deg:g} deg",
                )
            )
    if intent.brow is not None:
        sides = {"both": ("AU2_L", "AU2_R"), "left": ("AU2_L",), "right": ("AU2_R",)}
        for name in sides[intent.brow]:
            if float(v[:, channel_index(name)].max()) < floor:
                out.append(
                    Violation(
                        "instruction_consistency",
                        name,
                        "instructed brow raise is absent",
                    )
                )
    if intent.blink:
        closure = np.minimum(
            v[:, channel_index("AU43_L")], v[:, channel_index("AU43_R")]
        )
        if not (closure > rules.closure_threshold).any():
            out.append(
                Violation(
                    "instruction_consistency", "AU43", "instructed blink is absent"
                )
            )
    if intent.wink is not None:
        name = "AU43_L" if intent.wink == "left" else "AU43_R"
        if float(v[:, channel_index(name)].max()) <= rules.closure_threshold:
            out.append(
                Violation(
                    "instruction_consistency", name, "instructed wink is absent"
                )
            )

    if p.label in CATEGORIES:
        for name in signature_channels(p.label):
            if float(v[:, channel_index(name)].max()) < rules.signature_min:
                out.append(
                    Violation(
                        "label_signature",
                        name,
                        f"label {p.label!r} commits to {name} but it stays "
                        f"below {rules.signature_min:g}",
                    )
                )
    return out


def critique(
    seq: ControlSequence,
    p: Plan,
    rules: RuleSet | None = None,
    instructions: str = "",
) -> CriticReport:
    """Full critique: physiology plus semantics, folded into one verdict."""
    rules = rules or RuleSet()
    rich = _physiology(seq, p, rules)
    violations = [v for v, _ in rich]
    suggestions = [s for _, s in rich if s is not None]
    escalate = any(s is None for _, s in rich)
    sem = check_semantic(seq, p, rules, instructions)
    violations.extend(sem)
    escalate = escalate or bool(sem)
    if not violations:
        verdict = "pass"
    elif escalate:
        verdict = "revise_plan"
    else:
        verdict = "revise_composition"
    return CriticReport(verdict, tuple(violations), tuple(suggestions))


def _apply_one(v: np.ndarray, s: EditSuggestion, rules: RuleSet, fps: float) -> None:
    n = len(v)
    a = s.start_frame - 1
    b = min(s.end_frame, n) - 1
    li = channel_index("AU43_L")
    ri = channel_index("AU43_R")
    open_level = rules.closure_threshold - 0.05
    if s.kind == "stretch_blink":
        need = _frames_for_min_ms(rules.blink_min_ms, fps)
        end = min(a + need - 1, n - 1)
        peak_l = float(v[a : b + 1, li].max())
        peak_r = float(v[a : b + 1, ri].max())
        v[a : end + 1, li] = np.maximum(v[a : end + 1, li], peak_l)
        v[a : end + 1, ri] = np.maximum(v[a : end + 1, ri], peak_r)
    elif s.kind == "truncate_blink":
        cap_ms = s.value if s.value > 0 else rules.blink_max_ms
        cap = _frames_for_max_ms(cap_ms, fps)
        cut = a + cap
        if cut <= b:
            v[cut : b + 1, li] = np.minimum(v[cut : b + 1, li], open_level)
            v[cut : b + 1, ri] = np.minimum(v[cut : b + 1, ri], open_level)
    elif s.kind == "suppress_blink":
        v[a : b + 1, li] = np.minimum(v[a : b + 1, li], open_level)
        v[a : b + 1, ri] = np.minimum(v[a : b + 1, ri], open_level)
    elif s.kind == "balance_lids":
        lo_side = np.minimum(v[a : b + 1, li], v[a : b + 1, ri])
        hi_side = np.maximum(v[a : b + 1, li], v[a : b + 1, ri])
        floor_val = hi_side - (rules.asymmetry_limit - 0.05)
        lifted = np.maximum(lo_side, floor_val)
        left_is_low = v[a : b + 1, li] <= v[a : b + 1, ri]
        v[a : b + 1, li] = np.where(left_is_low, lifted, v[a : b + 1, li])
        v[a : b + 1, ri] = np.where(~left_is_low, lifted, v[a : b + 1, ri])
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
        for t in range(1, n):
            lo = v[t - 1, j] - limit
            hi = v[t - 1, j] + limit
            v[t, j] = min(max(v[t, j], lo), hi)
        np.clip(v[:, j], 0.0, 1.0, out=v[:, j])
    elif s.kind == "head_ramp":
        j = channel_index(s.channel)
        target = s.value
        window = _frames_for_min_ms(rules.coordination_window_ms, fps)
        reach = min(a + window, b)
        start_val = v[a, j]
        for t in range(a, reach + 1):
            alpha = (t - a) / max(reach - a, 1)
            v[t, j] = (1.0 - alpha) * start_val + alpha * target
        if reach < b:
            v[reach + 1 : b + 1, j] = target
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


def refine(
    seq: ControlSequence,
    p: Plan,
    lib=None,
    rules: RuleSet | None = None,
    instructions: str = "",
    initial_pose: Sequence[float] = (0.0, 0.0, 0.0),
    max_composition_rounds: int = 3,
    max_replans: int = 1,
    weights: Sequence[float] | None = None,
    blend_frames: int = 3,
    templates=None,
    sample_k: int = 1,
    seed: int | None = None,
) -> RefineResult:
    """Critique-and-repair loop with explicit budgets.

    Local edits answer revise_composition verdicts up to
    max_composition_rounds times; a revise_plan verdict re-plans with widened
    targets and recomposes (needs lib), up to max_replans times, resetting
    the composition budget.  When budgets run out the last critique is
    returned with verdict "fail" and the full audit history attached.
    A custom planner template table (see load_template_table) flows through
    `templates` into each re-plan, and `sample_k`/`seed` into each recompose,
    as in `compose`.
    """
    rules = rules or RuleSet()
    current = seq
    current_plan = p
    comp_rounds = 0
    replans = 0
    history: list[CriticReport] = []
    known_labels = CATEGORIES if templates is None else tuple(templates)
    while True:
        report = critique(current, current_plan, rules, instructions)
        history.append(report)
        if report.verdict == "pass":
            return RefineResult(current, report, tuple(history), comp_rounds, replans)
        if report.verdict == "revise_composition" and comp_rounds < max_composition_rounds:
            current = apply_edits(current, report.suggestions, rules)
            comp_rounds += 1
            continue
        can_replan = (
            replans < max_replans
            and lib is not None
            and current_plan.label in known_labels
        )
        if can_replan:
            replans += 1
            current_plan = build_plan(
                current_plan.label,
                current_plan.total_frames,
                current_plan.fps,
                instructions=instructions,
                initial_pose=initial_pose,
                relax=0.5 * replans,
                templates=templates,
            )
            current = compose(
                current_plan,
                lib,
                weights=weights,
                initial_pose=initial_pose,
                blend_frames=blend_frames,
                sample_k=sample_k,
                seed=seed,
            )
            comp_rounds = 0
            continue
        final = CriticReport("fail", report.violations, report.suggestions)
        history[-1] = final
        return RefineResult(current, final, tuple(history), comp_rounds, replans)
