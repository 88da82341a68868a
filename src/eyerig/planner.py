"""Staged-event planning: behavior labels and instructions become event plans."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from numbers import Real
from types import MappingProxyType
from typing import Mapping, Sequence

from .channels import (
    AU_NAMES,
    CHANNEL_RANGES,
    DIRECTIONS,
    HEAD_NAMES,
    _check_version,
    _fields,
    _loads,
    _number_problem,
    _read_json,
    opposing_gaze,
)

__all__ = [
    "CATEGORIES",
    "TEMPLATES",
    "TEMPLATE_TABLE_VERSION",
    "StagedEvent",
    "Plan",
    "InstructionIntent",
    "plan",
    "parse_instructions",
    "signature_channels",
    "signature_aus",
    "load_template_table",
    "encode_plan",
    "decode_agent_plan",
]

TEMPLATE_TABLE_VERSION = 1

# Bilateral names a stage table may use; its normal form expands each to _L/_R.
_BILATERAL = {
    "AU2": ("AU2_L", "AU2_R"),
    "AU4": ("AU4_L", "AU4_R"),
    "AU5": ("AU5_L", "AU5_R"),
    "AU43": ("AU43_L", "AU43_R"),
}

# One stage: (duration ratio, semantics, targets, exemptions).
_Stage = tuple[float, str, Mapping[str, tuple[float, float]], tuple[str, ...]]

# The critic's physiology rules, in report order: the only names a plan event
# or a stage may exempt.
_PHYSIOLOGY_RULES: tuple[str, ...] = (
    "blink_duration", "interblink_interval", "blink_asymmetry",
    "au_coactivation", "gaze_main_sequence", "gaze_head_coordination",
)


def _exemption_problem(exemptions) -> str:
    """What is wrong with an exemption list; empty if nothing."""
    unknown = sorted((e for e in exemptions if e not in _PHYSIOLOGY_RULES), key=repr)
    return f"unknown rules {unknown}" if unknown else ""


def _target_problems(name: str, interval) -> list[str]:
    """What is wrong with a target interval for channel `name`; empty if nothing.

    The one target-interval rule, checked in this order: a known channel, a
    [lo, hi] pair of numbers (bools are not numbers), lo <= hi, and both
    bounds inside the channel's CHANNEL_RANGES entry.  An unknown channel or a
    malformed pair ends the checks.  The range check is written as not-inside,
    so a NaN bound fails it.
    """
    if name not in CHANNEL_RANGES:
        return ["unknown channel"]
    if (
        not isinstance(interval, (list, tuple))
        or len(interval) != 2
        or not all(isinstance(x, Real) and not isinstance(x, bool) for x in interval)
    ):
        return [f"must be a [lo, hi] pair of numbers, got {interval!r}"]
    try:
        lo, hi = float(interval[0]), float(interval[1])
    except OverflowError:  # an int literal beyond float range
        return ["a bound is beyond float range"]
    lim_lo, lim_hi = CHANNEL_RANGES[name]
    problems = []
    if lo > hi:
        problems.append(f"lo {lo:g} > hi {hi:g}")
    if not (lim_lo <= lo and hi <= lim_hi):
        problems.append(f"[{lo:g}, {hi:g}] outside legal [{lim_lo:g}, {lim_hi:g}]")
    return problems


def _fail(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}")


def _checked_table(
    raw: Mapping[str, Sequence[Sequence]], source: str = "template table "
) -> Mapping[str, tuple[_Stage, ...]]:
    """Check a stage table and return its read-only normal form.

    `raw` maps each label to its stages, each a (ratio, semantics, targets,
    exemptions) sequence.  Per stage: the ratio passes the number rule as a
    positive number, semantics is a non-empty string, every target passes the
    target-interval rule under its channel name or bilateral name (AU2, AU4,
    AU5, AU43), and exemptions is a list of _PHYSIOLOGY_RULES names.  Per
    label, the ratios sum to 1.  Errors start with `source`, then name the
    offending field, e.g. categories['x'][0].targets['AU2'].  In the normal
    form bilateral names are expanded to _L/_R, intervals are float pairs and
    exemptions are tuples.
    """
    table = {}
    for label, stages in raw.items():
        ctx = f"{source}categories[{label!r}]"
        normal = []
        for i, (ratio, semantics, targets, exempt) in enumerate(stages):
            sctx = f"{ctx}[{i}]"
            problem = _number_problem(ratio, "positive")
            if problem:
                raise _fail(sctx, f"ratio {problem}")
            if not isinstance(semantics, str) or not semantics:
                raise _fail(sctx, "semantics must be a non-empty string")
            if not isinstance(targets, Mapping):
                raise _fail(sctx, "targets must be an object")
            expanded = {}
            for name, interval in targets.items():
                channels = _BILATERAL.get(name, (name,))
                problems = _target_problems(channels[0], interval)
                if problems:
                    raise _fail(f"{sctx}.targets[{name!r}]", problems[0])
                for channel in channels:
                    expanded[channel] = (float(interval[0]), float(interval[1]))
            if not isinstance(exempt, (list, tuple)):
                raise _fail(sctx, "exemptions must be a list of rule names")
            problem = _exemption_problem(exempt)
            if problem:
                raise _fail(f"{sctx}.exemptions", problem)
            normal.append((float(ratio), semantics, MappingProxyType(expanded), tuple(exempt)))
        total = sum(st[0] for st in normal)
        if abs(total - 1.0) > 1e-6:
            raise _fail(ctx, f"stage ratios sum to {total:g}, expected 1")
        table[label] = tuple(normal)
    return MappingProxyType(table)


# The built-in stage table per category, checked and normalised like a loaded
# one.  Intervals stay inside channel legal ranges and gaze highs avoid
# uncoordinated saccades.
TEMPLATES: Mapping[str, tuple[_Stage, ...]] = _checked_table({
    "sadness": (
        (0.15, "neutral onset", {"AU1": (0.05, 0.15)}, ()),
        (
            0.45,
            "inner brows rise as gaze lowers",
            {"AU1": (0.30, 0.60), "AU4": (0.10, 0.25), "gaze_down": (0.15, 0.35)},
            (),
        ),
        (
            0.40,
            "head droops with lowered gaze",
            {"AU1": (0.25, 0.50), "gaze_down": (0.20, 0.40), "pitch": (-10.0, -4.0)},
            (),
        ),
    ),
    "fear": (
        (0.20, "alert onset", {"AU5": (0.20, 0.40), "AU1": (0.10, 0.30)}, ()),
        (
            0.50,
            "eyes widen and brows raise",
            {"AU1": (0.40, 0.70), "AU2": (0.30, 0.60), "AU5": (0.50, 0.80)},
            (),
        ),
        (0.30, "frozen stare", {"AU5": (0.40, 0.70), "AU1": (0.30, 0.60)}, ()),
    ),
    "disgust": (
        (0.15, "onset", {"AU4": (0.10, 0.30)}, ()),
        (
            0.50,
            "brows lower and lids tighten",
            {"AU4": (0.40, 0.70), "AU7": (0.30, 0.60)},
            (),
        ),
        (
            0.35,
            "sustained squint, head turns aside",
            {"AU4": (0.30, 0.60), "AU7": (0.25, 0.50), "yaw": (6.0, 14.0)},
            (),
        ),
    ),
    "contempt": (
        (0.20, "neutral onset", {}, ()),
        (
            0.45,
            "unilateral brow raise",
            {"AU2_L": (0.30, 0.60), "roll": (2.0, 6.0)},
            (),
        ),
        (
            0.35,
            "narrowed lids with a slight head tilt",
            {"AU7": (0.20, 0.40), "AU2_L": (0.20, 0.50), "roll": (3.0, 8.0)},
            (),
        ),
    ),
    "anger": (
        (0.15, "onset", {"AU4": (0.15, 0.35)}, ()),
        (
            0.50,
            "brows lower and lids tighten",
            {"AU4": (0.50, 0.80), "AU7": (0.40, 0.70), "AU5": (0.30, 0.50)},
            (),
        ),
        (
            0.35,
            "fixed glare",
            {"AU4": (0.40, 0.70), "AU7": (0.30, 0.60), "AU5": (0.25, 0.45)},
            (),
        ),
    ),
    "surprise": (
        (0.12, "onset", {"AU1": (0.10, 0.30)}, ()),
        (
            0.38,
            "brows shoot up, eyes widen",
            {"AU1": (0.50, 0.80), "AU2": (0.50, 0.80), "AU5": (0.50, 0.80), "pitch": (2.0, 8.0)},
            (),
        ),
        (
            0.50,
            "held wide-eyed look",
            {"AU1": (0.40, 0.70), "AU2": (0.40, 0.70), "AU5": (0.40, 0.70)},
            (),
        ),
    ),
    "laughter": (
        (0.20, "smiling onset around the eyes", {"AU7": (0.20, 0.40)}, ()),
        (
            0.45,
            "eyes crease as the head rocks back",
            {"AU7": (0.50, 0.80), "AU43": (0.20, 0.45), "pitch": (3.0, 10.0)},
            (),
        ),
        (
            0.35,
            "settling with residual crease",
            {"AU7": (0.30, 0.60), "AU43": (0.10, 0.30)},
            (),
        ),
    ),
    "cognitive_effort": (
        (0.12, "attentive onset", {"AU5": (0.15, 0.35)}, ()),
        (
            0.24,
            "gaze shifts left with a mild squint",
            {
                "AU4": (0.10, 0.20),
                "AU7": (0.12, 0.25),
                "gaze_left": (0.15, 0.30),
                "gaze_up": (0.10, 0.25),
            },
            (),
        ),
        (
            0.64,
            "head lowers slightly, squint held",
            {
                "AU4": (0.05, 0.12),
                "AU7": (0.08, 0.18),
                "gaze_left": (0.25, 0.50),
                "pitch": (-12.0, -5.0),
            },
            (),
        ),
    ),
    "low_arousal_negative": (
        (0.20, "dull onset", {"AU43": (0.15, 0.30)}, ()),
        (
            0.45,
            "lids grow heavy, gaze drifts down",
            {"AU43": (0.25, 0.45), "gaze_down": (0.10, 0.30), "AU4": (0.10, 0.25)},
            (),
        ),
        (
            0.35,
            "slumped hold with a slow blink",
            {"AU43": (0.60, 0.90), "pitch": (-8.0, -3.0)},
            ("blink_duration",),
        ),
    ),
    "social_engagement": (
        (0.25, "attentive onset", {"AU5": (0.20, 0.40), "AU1": (0.10, 0.30)}, ()),
        (
            0.40,
            "brow flash with direct gaze",
            {"AU1": (0.30, 0.60), "AU2": (0.30, 0.60), "AU5": (0.25, 0.50)},
            (),
        ),
        (
            0.35,
            "engaged nod",
            {"AU5": (0.20, 0.40), "AU1": (0.20, 0.45), "pitch": (-7.0, -2.0)},
            (),
        ),
    ),
    "evasive_response": (
        (0.18, "brief direct onset", {"AU5": (0.10, 0.30)}, ()),
        (
            0.47,
            "gaze averts sideways with a head turn",
            {"gaze_left": (0.40, 0.65), "yaw": (-16.0, -6.0), "AU43": (0.10, 0.30)},
            (),
        ),
        (
            0.35,
            "averted hold drifting downward",
            {
                "gaze_left": (0.25, 0.50),
                "gaze_down": (0.10, 0.30),
                "yaw": (-14.0, -5.0),
                "pitch": (-8.0, -3.0),
            },
            (),
        ),
    ),
    "drowsiness": (
        (0.12, "eyelids droop", {"AU43": (0.25, 0.45)}, ()),
        (0.28, "prolonged blink", {"AU43": (0.65, 0.95)}, ("blink_duration",)),
        (
            0.60,
            "drowsy head nod",
            {"AU43": (0.30, 0.50), "pitch": (-12.0, -5.0)},
            (),
        ),
    ),
})

CATEGORIES: tuple[str, ...] = tuple(TEMPLATES)

# Targets an instruction adds when no event already moves that way; the head
# interval is for the direction's head channel (see DIRECTIONS).
_GAZE_ADD = (0.15, 0.30)
_HEAD_ADD = {
    "left": (-20.0, -8.0),
    "right": (8.0, 20.0),
    "up": (5.0, 12.0),
    "down": (-12.0, -5.0),
}


@dataclass(frozen=True)
class StagedEvent:
    """One plan stage: inclusive 1-based frame span, intent, and targets."""

    start_frame: int
    end_frame: int
    semantics: str
    channel_targets: dict[str, tuple[float, float]]
    exemptions: frozenset[str] = frozenset()

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame + 1


@dataclass(frozen=True)
class Plan:
    """Ordered staged events covering [1, total_frames] at a fixed rate.

    Valid by construction: a non-empty label, positive fps and int
    total_frames, int event frames partitioning [1, total_frames] in order,
    and legal targets; else ValueError naming the field as a JSON path.  It
    stores its events as a tuple, with float-pair targets and frozenset
    exemptions, and fps as a float.
    """

    label: str
    events: tuple[StagedEvent, ...]
    total_frames: int
    fps: float

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise _fail("label", "must be a non-empty string")
        for name, integer in (("fps", False), ("total_frames", True)):
            problem = _number_problem(getattr(self, name), "positive", integer=integer)
            if problem:
                raise _fail(name, problem)
        events = []
        cursor = 1
        for k, ev in enumerate(self.events):
            path = f"events[{k}]"
            start, end = ev.start_frame, ev.end_frame
            if _number_problem(start, integer=True) or _number_problem(end, integer=True):
                raise _fail(path, "start_frame and end_frame must be integers")
            if start != cursor:
                raise _fail(
                    f"{path}.start_frame",
                    f"events do not partition duration (expected {cursor}, got {start})",
                )
            if end < start:
                raise _fail(f"{path}.end_frame", f"must be >= start_frame {start}")
            targets = {}
            for name, interval in ev.channel_targets.items():
                problems = _target_problems(name, interval)
                if problems:
                    raise _fail(f"{path}.channel_targets.{name}", problems[0])
                targets[name] = (float(interval[0]), float(interval[1]))
            problem = _exemption_problem(ev.exemptions)
            if problem:
                raise _fail(f"{path}.exemptions", problem)
            events.append(StagedEvent(start, end, ev.semantics, targets, frozenset(ev.exemptions)))
            cursor = end + 1
        if cursor - 1 != self.total_frames:
            raise _fail(
                "events",
                f"events do not partition duration (cover 1..{cursor - 1}, "
                f"total_frames {self.total_frames})",
            )
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "fps", float(self.fps))


@dataclass(frozen=True)
class InstructionIntent:
    """Closed-vocabulary reading of a free-text instruction string."""

    gaze: tuple[str, ...] = ()
    head: tuple[str, ...] = ()
    brow: str | None = None  # "both" | "left" | "right"
    blink: bool = False
    wink: str | None = None  # "left" | "right"

    def is_empty(self) -> bool:
        return not (self.gaze or self.head or self.brow or self.blink or self.wink)


_BROW_WORDS = ("eyebrow", "eyebrows", "brow", "brows")
_RAISE_WORDS = ("raise", "raises", "raised", "lift", "lifts", "flash")
_LOWER_WORDS = ("lower", "lowers", "lowered", "drop", "drops")


def parse_instructions(text: str) -> InstructionIntent:
    """Keyword scan over a small vocabulary; unknown words are ignored.

    Direction words bind to the nearest of eyebrow/head within a three-token
    window, otherwise to gaze.  "lower"/"raise" near "head" become pitch
    moves; near a brow word they become brow raises.
    """
    tokens = re.findall(r"[a-z]+", (text or "").lower())
    gaze: list[str] = []
    head: list[str] = []
    brow: str | None = None
    blink = False
    wink: str | None = None

    def near(i: int, words: Sequence[str], radius: int = 3) -> bool:
        lo, hi = max(0, i - radius), min(len(tokens), i + radius + 1)
        return any(tok in words for tok in tokens[lo:hi])

    # side words adjacent to "wink" belong to the wink, not to gaze
    claimed: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok in ("wink", "winks", "winking"):
            if i + 1 < len(tokens) and tokens[i + 1] in ("left", "right"):
                claimed.add(i + 1)
            elif i > 0 and tokens[i - 1] in ("left", "right"):
                claimed.add(i - 1)

    for i, tok in enumerate(tokens):
        if tok in DIRECTIONS:
            if i in claimed:
                continue
            if i + 1 < len(tokens) and tokens[i + 1] in _BROW_WORDS:
                if tok in ("left", "right"):
                    brow = tok
                continue
            if near(i, ("head", "turn", "turns", "tilt", "tilts")):
                if tok not in head:
                    head.append(tok)
            else:
                if tok not in gaze:
                    gaze.append(tok)
        elif tok in _RAISE_WORDS:
            if near(i, _BROW_WORDS) and brow is None:
                brow = "both"
            elif near(i, ("head",)) and "up" not in head:
                head.append("up")
        elif tok in _LOWER_WORDS:
            if near(i, ("head",)) and "down" not in head:
                head.append("down")
        elif tok in ("blink", "blinks", "blinking"):
            blink = True
        elif tok in ("wink", "winks", "winking"):
            side = None
            if i + 1 < len(tokens) and tokens[i + 1] in ("left", "right"):
                side = tokens[i + 1]
            elif i > 0 and tokens[i - 1] in ("left", "right"):
                side = tokens[i - 1]
            wink = side or "left"
    return InstructionIntent(tuple(gaze), tuple(head), brow, blink, wink)


def _allocate_frames(ratios: Sequence[float], total: int) -> list[int]:
    """Largest-remainder split of `total` frames, every stage at least one."""
    exact = [r * total for r in ratios]
    counts = [int(x) for x in exact]
    remainder = total - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    # guarantee minimum of one frame per stage, stealing from the largest
    for i in range(len(counts)):
        while counts[i] < 1:
            j = max(range(len(counts)), key=lambda k: counts[k])
            if counts[j] <= 1:
                raise ValueError("cannot allocate at least one frame per stage")
            counts[j] -= 1
            counts[i] += 1
    return counts


def _relax_interval(
    name: str, interval: tuple[float, float], amount: float
) -> tuple[float, float]:
    lo, hi = interval
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * (1.0 + amount) + 0.01 * amount
    lim_lo, lim_hi = CHANNEL_RANGES[name]
    return (max(mid - half, lim_lo), min(mid + half, lim_hi))


def _apply_intent(
    events: list[dict], intent: InstructionIntent
) -> None:
    """Fold instruction intent into mutable event dicts (targets/exemptions)."""
    if intent.is_empty():
        return
    action = min(1, len(events) - 1)
    last = len(events) - 1
    for d in intent.gaze:
        chan = DIRECTIONS[d][0]
        opp = opposing_gaze(chan)
        for ev in events:
            ev["targets"].pop(opp, None)
        if not any(ev["targets"].get(chan, (0.0, 0.0))[0] > 0.0 for ev in events):
            events[action]["targets"][chan] = _GAZE_ADD
    for d in intent.head:
        _, chan, sign = DIRECTIONS[d]
        interval = _HEAD_ADD[d]
        for ev in events:
            cur = ev["targets"].get(chan)
            if cur is not None and (cur[0] * sign < 0 or cur[1] * sign < 0):
                ev["targets"].pop(chan)
        if not any(
            ev["targets"].get(chan) is not None
            and ev["targets"][chan][0] * sign >= 0
            and (abs(ev["targets"][chan][0]) > 0 or abs(ev["targets"][chan][1]) > 0)
            for ev in events
        ):
            events[last]["targets"][chan] = interval
    if intent.brow is not None:
        if intent.brow == "both":
            additions = {"AU1": (0.30, 0.60), "AU2_L": (0.30, 0.60), "AU2_R": (0.30, 0.60)}
        else:
            side = "L" if intent.brow == "left" else "R"
            additions = {f"AU2_{side}": (0.40, 0.70)}
        for chan, interval in additions.items():
            if not any(chan in ev["targets"] for ev in events):
                events[action]["targets"][chan] = interval
    if intent.blink:
        if not any(
            ev["targets"].get("AU43_L", (0.0, 0.0))[1] >= 0.5
            and ev["targets"].get("AU43_R", (0.0, 0.0))[1] >= 0.5
            for ev in events
        ):
            events[action]["targets"]["AU43_L"] = (0.70, 1.00)
            events[action]["targets"]["AU43_R"] = (0.70, 1.00)
    if intent.wink is not None:
        side = "L" if intent.wink == "left" else "R"
        events[action]["targets"][f"AU43_{side}"] = (0.70, 1.00)
        events[action]["exemptions"].add("blink_asymmetry")


def plan(
    label: str,
    total_frames: int,
    fps: float,
    instructions: str = "",
    initial_pose: Sequence[float] = (0.0, 0.0, 0.0),
    relax: float = 0.0,
    templates: Mapping[str, tuple[_Stage, ...]] = TEMPLATES,
) -> Plan:
    """Build the staged-event plan for a category label.

    Stage ratios come from the category template; instruction keywords add or
    strip channel targets; the first event's head targets are widened to
    contain initial_pose so the pinned first frame can always satisfy them.
    `relax` > 0 widens every target interval by that fraction (used when a
    critic escalation re-plans).  `templates` is the stage table in force:
    the built-in TEMPLATES, or a table from load_template_table.
    """
    if label not in templates:
        known = ", ".join(templates)
        raise ValueError(f"unknown label {label!r}; expected one of: {known}")
    problem = _number_problem(total_frames, "positive", integer=True)
    if problem:
        raise _fail("total_frames", problem)
    pose = tuple(float(v) for v in initial_pose)
    if len(pose) != 3:
        raise ValueError("initial_pose must be (yaw, pitch, roll)")
    for name, v in zip(HEAD_NAMES, pose):
        lo, hi = CHANNEL_RANGES[name]
        if not (lo <= v <= hi):
            raise ValueError(f"initial_pose {name}={v:g} outside [{lo:g}, {hi:g}]")

    stages = templates[label]
    if total_frames < len(stages):
        merged_targets: dict[str, tuple[float, float]] = {}
        merged_exempt: set[str] = set()
        for _, _, targets, exempt in stages:
            merged_targets.update(targets)
            merged_exempt.update(exempt)
        raw_events = [
            {
                "start": 1,
                "end": total_frames,
                "semantics": f"{label} (merged)",
                "targets": merged_targets,
                "exemptions": merged_exempt,
            }
        ]
    else:
        counts = _allocate_frames([s[0] for s in stages], total_frames)
        raw_events = []
        cursor = 1
        for (ratio, semantics, targets, exempt), n in zip(stages, counts):
            raw_events.append(
                {
                    "start": cursor,
                    "end": cursor + n - 1,
                    "semantics": semantics,
                    "targets": dict(targets),
                    "exemptions": set(exempt),
                }
            )
            cursor += n

    if relax > 0.0:
        for ev in raw_events:
            ev["targets"] = {
                name: _relax_interval(name, interval, relax)
                for name, interval in ev["targets"].items()
            }

    _apply_intent(raw_events, parse_instructions(instructions))

    # first event must be able to hold the pinned initial pose
    first = raw_events[0]
    for name, v in zip(HEAD_NAMES, pose):
        lim_lo, lim_hi = CHANNEL_RANGES[name]
        cur = first["targets"].get(name)
        if cur is None:
            first["targets"][name] = (max(v - 2.0, lim_lo), min(v + 2.0, lim_hi))
        else:
            first["targets"][name] = (min(cur[0], v), max(cur[1], v))

    events = tuple(
        StagedEvent(
            start_frame=ev["start"],
            end_frame=ev["end"],
            semantics=ev["semantics"],
            channel_targets=dict(sorted(ev["targets"].items())),
            exemptions=frozenset(ev["exemptions"]),
        )
        for ev in raw_events
    )
    return Plan(label=label, events=events, total_frames=total_frames, fps=fps)


def signature_channels(
    label: str, templates: Mapping[str, tuple[_Stage, ...]] = TEMPLATES
) -> tuple[str, ...]:
    """Channels a category's template commits to with midpoint >= 0.1 intensity.

    Head channels are excluded: direction is pose, not evidence of activity.
    """
    if label not in templates:
        raise ValueError(f"unknown label {label!r}")
    out: list[str] = []
    for _, _, targets, _ in templates[label]:
        for name, (lo, hi) in targets.items():
            if name in HEAD_NAMES:
                continue
            if (lo + hi) / 2.0 >= 0.1 and name not in out:
                out.append(name)
    return tuple(out)


def signature_aus(
    label: str, templates: Mapping[str, tuple[_Stage, ...]] = TEMPLATES
) -> tuple[str, ...]:
    """The AU subset of signature_channels; the default metric target set."""
    return tuple(n for n in signature_channels(label, templates) if n in AU_NAMES)


def load_template_table(path) -> Mapping[str, tuple[_Stage, ...]]:
    """Load a custom stage-template table from JSON.

    Format: {"version": 1, "categories": {label: [stage, ...]}} where each
    stage is {"ratio": num, "semantics": str, "targets": {channel: [lo, hi]},
    "exemptions": [rule, ...]}.  Only this JSON shape is checked here; the
    stages pass the same checks as the built-in TEMPLATES and come back in
    the same normal form, so the result drops into plan(..., templates=...)
    and critique(..., templates=...).  Errors name the file.
    """
    spec = {"version": None, "categories": "object"}
    payload = _fields(_read_json(path), spec, f"{path}: $", required=("categories",))
    _check_version(payload, TEMPLATE_TABLE_VERSION, "template table", path)
    if not payload["categories"]:
        raise _fail(f"{path}: categories", "must be a non-empty object")
    stage_spec = dict.fromkeys(("ratio", "semantics", "targets", "exemptions"))
    raw: dict[str, list[tuple]] = {}
    for label, stages in payload["categories"].items():
        where = f"{path}: categories[{label!r}]"
        if not isinstance(stages, list) or not stages:
            raise _fail(where, "must be a non-empty list of stages")
        raw[label] = []
        for i, st in enumerate(stages):
            _fields(st, stage_spec, f"{where}[{i}]", required=("ratio", "semantics"))
            raw[label].append((st["ratio"], st["semantics"],
                               st.get("targets", {}), st.get("exemptions", [])))
    return _checked_table(raw, f"{path}: ")


def _plan_payload(p: Plan) -> dict:
    return {
        "label": p.label,
        "fps": p.fps,
        "total_frames": p.total_frames,
        "events": [
            {
                "start_frame": ev.start_frame,
                "end_frame": ev.end_frame,
                "semantics": ev.semantics,
                "channel_targets": {
                    name: [lo, hi] for name, (lo, hi) in sorted(ev.channel_targets.items())
                },
                "exemptions": sorted(ev.exemptions),
            }
            for ev in p.events
        ],
    }


def encode_plan(p: Plan) -> str:
    """Serialize a plan to the interchange JSON (stable key order)."""
    return json.dumps(_plan_payload(p), sort_keys=True, indent=2) + "\n"


def decode_agent_plan(text: str | bytes) -> Plan:
    """Parse an externally produced plan JSON; errors carry the JSON field path.

    Bytes, such as a plan file's, are decoded as every JSON file is (`_loads`).
    Only the JSON shape is checked here; the Plan checks its own values.
    """
    try:
        payload = json.loads(text) if isinstance(text, str) else _loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"plan payload is not valid JSON: {exc}") from exc
    spec = {"label": None, "fps": None, "total_frames": None, "events": "list"}
    _fields(payload, spec, "$", required=tuple(spec))
    event_spec = {"start_frame": None, "end_frame": None, "semantics": "string",
                  "channel_targets": "object", "exemptions": "list"}
    events = []
    for k, ev in enumerate(payload["events"]):
        _fields(ev, event_spec, f"events[{k}]", required=("start_frame", "end_frame"))
        events.append(StagedEvent(ev["start_frame"], ev["end_frame"], ev.get("semantics", ""),
                                  ev.get("channel_targets", {}), ev.get("exemptions", [])))
    return Plan(payload["label"], tuple(events), payload["total_frames"], payload["fps"])
