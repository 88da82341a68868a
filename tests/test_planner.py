"""Plan construction, instruction parsing, and the agent-plan wire format."""
import json
import math
import re

import pytest

from eyerig.channels import CHANNEL_RANGES, HEAD_NAMES
from eyerig.planner import (
    CATEGORIES,
    TEMPLATES,
    Plan,
    StagedEvent,
    _checked_table,
    decode_agent_plan,
    encode_plan,
    load_template_table,
    parse_instructions,
    plan,
    signature_aus,
    signature_channels,
)

EXPECTED_CATEGORIES = {
    "sadness",
    "fear",
    "disgust",
    "contempt",
    "anger",
    "surprise",
    "laughter",
    "cognitive_effort",
    "low_arousal_negative",
    "social_engagement",
    "evasive_response",
    "drowsiness",
}


def test_category_roster():
    assert set(CATEGORIES) == EXPECTED_CATEGORIES
    assert len(CATEGORIES) == 12


@pytest.mark.parametrize("label", sorted(EXPECTED_CATEGORIES))
@pytest.mark.parametrize("total", [1, 2, 3, 7, 50, 120])
def test_all_categories_produce_valid_plans(label, total):
    p = plan(label, total, 25.0)
    assert p.label == label
    assert p.total_frames == total
    # exact coverage, in order
    assert p.events[0].start_frame == 1
    assert p.events[-1].end_frame == total
    for prev, nxt in zip(p.events, p.events[1:]):
        assert nxt.start_frame == prev.end_frame + 1


def test_drowsiness_stage_allocation():
    p = plan("drowsiness", 50, 25.0)
    assert [ev.n_frames for ev in p.events] == [6, 14, 30]
    middle = p.events[1]
    assert middle.channel_targets["AU43_L"] == (0.65, 0.95)
    assert middle.channel_targets["AU43_R"] == (0.65, 0.95)
    assert "blink_duration" in middle.exemptions
    assert p.events[2].channel_targets["pitch"] == (-12.0, -5.0)


def test_cognitive_effort_stage_allocation():
    p = plan("cognitive_effort", 100, 25.0)
    assert [ev.n_frames for ev in p.events] == [12, 24, 64]
    late = p.events[2]
    assert late.channel_targets["gaze_left"] == (0.25, 0.50)
    assert late.channel_targets["pitch"] == (-12.0, -5.0)


def test_short_duration_merges_stages():
    p = plan("fear", 2, 25.0)
    assert len(p.events) == 1
    ev = p.events[0]
    assert (ev.start_frame, ev.end_frame) == (1, 2)
    # union of stage targets, later stages override earlier ones
    assert "AU5_L" in ev.channel_targets
    assert "AU1" in ev.channel_targets


def test_every_stage_gets_at_least_one_frame():
    p = plan("drowsiness", 3, 25.0)
    assert len(p.events) == 3
    assert all(ev.n_frames >= 1 for ev in p.events)
    assert sum(ev.n_frames for ev in p.events) == 3


def test_unknown_label_lists_categories():
    with pytest.raises(ValueError, match="unknown label"):
        plan("boredom", 50, 25.0)
    try:
        plan("boredom", 50, 25.0)
    except ValueError as exc:
        for label in EXPECTED_CATEGORIES:
            assert label in str(exc)


def test_bad_duration_and_fps_rejected():
    with pytest.raises(ValueError, match="total_frames"):
        plan("anger", 0, 25.0)
    with pytest.raises(ValueError, match="fps"):
        plan("anger", 50, 0.0)


@pytest.mark.parametrize(
    "total, fps, error",
    [
        (2.5, 25.0, "total_frames: must be a finite positive integer, got 2.5"),
        (True, 25.0, "total_frames: must be a finite positive integer, got True"),
        (10, math.inf, "fps: must be a finite positive number, got inf"),
        (10, True, "fps: must be a finite positive number, got True"),
        (10, math.nan, "fps: must be a finite positive number, got nan"),
    ],
)
def test_plan_applies_the_number_rule(total, fps, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        plan("anger", total, fps)


def test_initial_pose_out_of_range_rejected():
    with pytest.raises(ValueError, match="yaw"):
        plan("anger", 50, 25.0, initial_pose=(120.0, 0.0, 0.0))


def test_first_event_head_targets_contain_initial_pose():
    pose = (10.0, -5.0, 3.0)
    p = plan("sadness", 50, 25.0, initial_pose=pose)
    first = p.events[0]
    for name, value in zip(HEAD_NAMES, pose):
        lo, hi = first.channel_targets[name]
        assert lo <= value <= hi
        lim_lo, lim_hi = CHANNEL_RANGES[name]
        assert lim_lo <= lo <= hi <= lim_hi


def test_first_event_widening_keeps_template_target():
    # laughter stage 1 has no head targets; default window is pose +/- 2 deg
    p = plan("laughter", 60, 25.0)
    first = p.events[0]
    assert first.channel_targets["yaw"] == (-2.0, 2.0)
    assert first.channel_targets["pitch"] == (-2.0, 2.0)
    assert first.channel_targets["roll"] == (-2.0, 2.0)


class TestParseInstructions:
    def test_empty(self):
        intent = parse_instructions("")
        assert intent.is_empty()

    def test_gaze_direction(self):
        intent = parse_instructions("look to the left then hold")
        assert intent.gaze == ("left",)
        assert intent.head == ()

    def test_gaze_up(self):
        assert parse_instructions("glance up").gaze == ("up",)

    def test_head_turn(self):
        intent = parse_instructions("turn your head to the right")
        assert intent.head == ("right",)
        assert intent.gaze == ()

    def test_head_lower(self):
        assert parse_instructions("lower your head").head == ("down",)

    def test_head_raise(self):
        assert parse_instructions("raise your head").head == ("up",)

    def test_brow_raise_both(self):
        assert parse_instructions("raise your eyebrows").brow == "both"

    def test_brow_raise_side(self):
        assert parse_instructions("raise your left eyebrow").brow == "left"

    def test_blink(self):
        assert parse_instructions("blink twice").blink is True

    def test_wink_default_side(self):
        assert parse_instructions("give a wink").wink == "left"

    def test_wink_side_not_gaze(self):
        intent = parse_instructions("wink right")
        assert intent.wink == "right"
        assert intent.gaze == ()

    def test_combined(self):
        intent = parse_instructions("look down, blink, and lower your head")
        assert intent.gaze == ("down",)
        assert intent.blink is True
        assert intent.head == ("down",)

    def test_unknown_words_ignored(self):
        assert parse_instructions("please remain completely natural").is_empty()


def test_instruction_adds_gaze_target():
    p = plan("sadness", 50, 25.0, instructions="look to the right")
    targeted = [ev for ev in p.events if "gaze_right" in ev.channel_targets]
    assert targeted
    lo, hi = targeted[0].channel_targets["gaze_right"]
    assert 0.0 < lo < hi <= 1.0


def test_instruction_strips_opposing_gaze():
    base = plan("cognitive_effort", 60, 25.0)
    assert any("gaze_left" in ev.channel_targets for ev in base.events)
    p = plan("cognitive_effort", 60, 25.0, instructions="look right")
    assert not any("gaze_left" in ev.channel_targets for ev in p.events)
    assert any("gaze_right" in ev.channel_targets for ev in p.events)


def test_instruction_strips_opposing_head_target():
    p = plan("evasive_response", 60, 25.0, instructions="turn your head to the right")
    for ev in p.events[1:]:
        yaw = ev.channel_targets.get("yaw")
        if yaw is not None:
            assert yaw[0] >= 0.0
    assert p.events[-1].channel_targets["yaw"] == (8.0, 20.0)


def test_instruction_blink_adds_closure_target():
    p = plan("contempt", 60, 25.0, instructions="blink")
    hit = [
        ev
        for ev in p.events
        if ev.channel_targets.get("AU43_L", (0, 0))[1] >= 0.5
        and ev.channel_targets.get("AU43_R", (0, 0))[1] >= 0.5
    ]
    assert hit


def test_instruction_wink_sets_asymmetry_exemption():
    p = plan("contempt", 60, 25.0, instructions="wink right")
    hit = [ev for ev in p.events if "AU43_R" in ev.channel_targets]
    assert hit
    assert "blink_asymmetry" in hit[0].exemptions
    assert not any("gaze_right" in ev.channel_targets for ev in p.events)


def test_relax_widens_every_interval():
    base = plan("anger", 50, 25.0)
    relaxed = plan("anger", 50, 25.0, relax=0.5)
    for ev_b, ev_r in zip(base.events, relaxed.events):
        for name, (lo, hi) in ev_b.channel_targets.items():
            rlo, rhi = ev_r.channel_targets[name]
            assert rlo <= lo and rhi >= hi
            lim_lo, lim_hi = CHANNEL_RANGES[name]
            assert lim_lo <= rlo <= rhi <= lim_hi


def test_signature_channels_drowsiness():
    chans = signature_channels("drowsiness")
    assert "AU43_L" in chans and "AU43_R" in chans
    assert "pitch" not in chans


def test_signature_aus_cognitive_effort():
    aus = signature_aus("cognitive_effort")
    assert set(aus) == {"AU5_L", "AU5_R", "AU4_L", "AU4_R", "AU7"}


def test_signature_unknown_label():
    with pytest.raises(ValueError, match="unknown label"):
        signature_channels("boredom")


class TestValidatePlanViolations:
    """Plan construction refuses a broken plan, naming the field as a JSON path."""

    def _mk(self, events, total=20):
        return Plan(label="anger", events=tuple(events), total_frames=total, fps=25.0)

    def _refused(self, events, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            self._mk(events)

    def test_empty_plan(self):
        self._refused([], "events: events do not partition duration (cover 1..0, total_frames 20)")

    def test_gap(self):
        events = [
            StagedEvent(1, 10, "a", {}),
            StagedEvent(12, 20, "b", {}),
        ]
        error = "events[1].start_frame: events do not partition duration (expected 11, got 12)"
        self._refused(events, error)

    def test_overlap(self):
        events = [
            StagedEvent(1, 10, "a", {}),
            StagedEvent(10, 20, "b", {}),
        ]
        error = "events[1].start_frame: events do not partition duration (expected 11, got 10)"
        self._refused(events, error)

    def test_span(self):
        self._refused(
            [StagedEvent(2, 20, "a", {})],
            "events[0].start_frame: events do not partition duration (expected 1, got 2)",
        )
        self._refused(
            [StagedEvent(1, 19, "a", {})],
            "events: events do not partition duration (cover 1..19, total_frames 20)",
        )
        self._refused([StagedEvent(1, 0, "a", {})], "events[0].end_frame: must be >= start_frame 1")

    def test_target_out_of_range(self):
        events = [StagedEvent(1, 20, "a", {"AU1": (0.5, 1.5)})]
        self._refused(events, "events[0].channel_targets.AU1: [0.5, 1.5] outside legal [0, 1]")

    def test_unknown_channel(self):
        events = [StagedEvent(1, 20, "a", {"AU99": (0.1, 0.2)})]
        self._refused(events, "events[0].channel_targets.AU99: unknown channel")

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("label", "", "label: must be a non-empty string"),
            ("label", None, "label: must be a non-empty string"),
            ("fps", math.inf, "fps: must be a finite positive number, got inf"),
            ("fps", True, "fps: must be a finite positive number, got True"),
            ("total_frames", 20.0, "total_frames: must be a finite positive integer, got 20.0"),
            ("total_frames", 0, "total_frames: must be a finite positive integer, got 0"),
        ],
    )
    def test_header_fields(self, field, value, error):
        fields = {"label": "anger", "events": (StagedEvent(1, 20, "a", {}),),
                  "total_frames": 20, "fps": 25.0}
        with pytest.raises(ValueError, match=re.escape(error)):
            Plan(**(fields | {field: value}))

    def test_frames_are_ints(self):
        self._refused([StagedEvent(1, 20.0, "a", {})], "events[0]: start_frame and end_frame")
        self._refused([StagedEvent(True, 20, "a", {})], "events[0]: start_frame and end_frame")

    def test_normal_form(self):
        p = Plan("anger", [StagedEvent(1, 20, "a", {"AU1": [0, 1]})], 20, 25)
        assert isinstance(p.events, tuple)
        assert type(p.fps) is float
        assert p.events[0].channel_targets == {"AU1": (0.0, 1.0)}
        assert all(type(x) is float for x in p.events[0].channel_targets["AU1"])


@pytest.mark.parametrize("label", sorted(EXPECTED_CATEGORIES))
def test_encode_decode_round_trip(label):
    p = plan(label, 40, 25.0, instructions="blink")
    decoded = decode_agent_plan(encode_plan(p))
    assert decoded == p


def test_encode_plan_deterministic():
    a = encode_plan(plan("surprise", 80, 30.0))
    b = encode_plan(plan("surprise", 80, 30.0))
    assert a == b


class TestDecodeAgentPlan:
    def _payload(self):
        return json.loads(encode_plan(plan("anger", 20, 25.0)))

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            decode_agent_plan("{nope")

    def test_missing_label(self):
        payload = self._payload()
        del payload["label"]
        with pytest.raises(ValueError, match="label"):
            decode_agent_plan(json.dumps(payload))

    def test_bad_fps(self):
        payload = self._payload()
        payload["fps"] = -1
        with pytest.raises(ValueError, match="fps"):
            decode_agent_plan(json.dumps(payload))

    def test_non_finite_fps(self):
        payload = self._payload()
        payload["fps"] = math.inf
        with pytest.raises(ValueError, match="fps: must be a finite positive number"):
            decode_agent_plan(json.dumps(payload))

    def test_fps_beyond_float_range(self):
        payload = json.dumps(self._payload()).replace('"fps": 25.0', '"fps": 1' + "0" * 400)
        assert "0" * 400 in payload
        with pytest.raises(ValueError, match="fps: must be a finite positive number"):
            decode_agent_plan(payload)

    def test_partition_gap_reported_with_path(self):
        payload = self._payload()
        payload["events"][1]["start_frame"] += 1
        with pytest.raises(ValueError, match=r"events\[1\].start_frame.*partition"):
            decode_agent_plan(json.dumps(payload))

    def test_total_frames_mismatch(self):
        payload = self._payload()
        payload["total_frames"] += 5
        with pytest.raises(ValueError, match="partition"):
            decode_agent_plan(json.dumps(payload))

    def test_unknown_channel_path(self):
        payload = self._payload()
        payload["events"][0]["channel_targets"]["AU99"] = [0.1, 0.2]
        with pytest.raises(ValueError, match=r"events\[0\].channel_targets.AU99"):
            decode_agent_plan(json.dumps(payload))

    def test_target_interval_order(self):
        payload = self._payload()
        payload["events"][0]["channel_targets"]["AU1"] = [0.8, 0.2]
        with pytest.raises(ValueError, match="lo 0.8 > hi 0.2"):
            decode_agent_plan(json.dumps(payload))

    def test_empty_events(self):
        payload = self._payload()
        payload["events"] = []
        with pytest.raises(ValueError, match="events"):
            decode_agent_plan(json.dumps(payload))

    def test_misspelt_event_keys_refused(self):
        payload = self._payload()
        ev = payload["events"][0]
        ev["exemption"], ev["channel_target"] = ev.pop("exemptions"), ev.pop("channel_targets")
        error = "events[0]: unknown keys ['channel_target', 'exemption']"
        with pytest.raises(ValueError, match=re.escape(error)):
            decode_agent_plan(json.dumps(payload))

    def test_misspelt_exemption_refused(self):
        error = "exemptions: unknown rules ['blink_durration']"
        events = (StagedEvent(1, 20, "a", {}, frozenset({"blink_durration"})),)
        with pytest.raises(ValueError, match=re.escape(f"events[0].{error}")):
            Plan("anger", events, 20, 25.0)
        payload = self._payload()
        payload["events"][1]["exemptions"] = ["blink_durration", "blink_duration"]
        with pytest.raises(ValueError, match=re.escape(f"events[1].{error}")):
            decode_agent_plan(json.dumps(payload))

    def test_misspelt_top_level_key_refused(self):
        payload = self._payload()
        payload["total_frame"] = payload.pop("total_frames")
        with pytest.raises(ValueError, match=re.escape("$: unknown keys ['total_frame']")):
            decode_agent_plan(json.dumps(payload))

    @pytest.mark.parametrize(
        "key, error",
        [
            ("fps", "fps: must be a finite positive number, got True"),
            ("total_frames", "total_frames: must be a finite positive integer, got True"),
            ("start_frame", "events[0]: start_frame and end_frame must be integers"),
            ("end_frame", "events[0]: start_frame and end_frame must be integers"),
        ],
    )
    def test_bool_is_not_a_number(self, key, error):
        # one event over frame 1, so true would stand in for 1 everywhere
        payload = json.loads(encode_plan(plan("anger", 1, 25.0)))
        (payload if key in payload else payload["events"][0])[key] = True
        with pytest.raises(ValueError, match=re.escape(error)):
            decode_agent_plan(json.dumps(payload))


class TestTemplateTable:
    def _write(self, tmp_path, payload):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload))
        return path

    def _valid(self):
        return {
            "version": 1,
            "categories": {
                "calm_focus": [
                    {
                        "ratio": 0.3,
                        "semantics": "settle",
                        "targets": {"AU43": [0.1, 0.2]},
                    },
                    {
                        "ratio": 0.7,
                        "semantics": "steady gaze",
                        "targets": {"AU5": [0.2, 0.4], "gaze_up": [0.1, 0.2]},
                        "exemptions": ["blink_duration"],
                    },
                ]
            },
        }

    def test_misspelt_stage_key_refused(self, tmp_path):
        payload = self._valid()
        stage = payload["categories"]["calm_focus"][1]
        stage["exemption"] = stage.pop("exemptions")
        error = "table.json: categories['calm_focus'][1]: unknown keys ['exemption']"
        with pytest.raises(ValueError, match=re.escape(error)):
            load_template_table(self._write(tmp_path, payload))

    def test_misspelt_exemption_refused(self, tmp_path):
        payload = self._valid()
        payload["categories"]["calm_focus"][1]["exemptions"] = ["blink_durration"]
        error = "categories['calm_focus'][1].exemptions: unknown rules ['blink_durration']"
        with pytest.raises(ValueError, match=re.escape(f"table.json: {error}")):
            load_template_table(self._write(tmp_path, payload))
        # the built-in table's check has no file to name
        stages = [(st["ratio"], st["semantics"], st["targets"], st.get("exemptions", []))
                  for st in payload["categories"]["calm_focus"]]
        with pytest.raises(ValueError, match=re.escape(f"template table {error}")):
            _checked_table({"calm_focus": stages})

    def test_load_and_plan(self, tmp_path):
        table = load_template_table(self._write(tmp_path, self._valid()))
        p = plan("calm_focus", 40, 25.0, templates=table)
        assert p.total_frames == 40
        assert len(p.events) == 2
        assert "AU5_L" in p.events[1].channel_targets
        assert "blink_duration" in p.events[1].exemptions

    def test_custom_signature(self, tmp_path):
        table = load_template_table(self._write(tmp_path, self._valid()))
        sig = signature_channels("calm_focus", table)
        assert "AU43_L" in sig and "gaze_up" in sig

    def test_builtin_labels_hidden(self, tmp_path):
        table = load_template_table(self._write(tmp_path, self._valid()))
        with pytest.raises(ValueError, match="calm_focus"):
            plan("anger", 40, 25.0, templates=table)

    def test_ratio_sum_enforced(self, tmp_path):
        payload = self._valid()
        payload["categories"]["calm_focus"][0]["ratio"] = 0.5
        with pytest.raises(ValueError, match="sum"):
            load_template_table(self._write(tmp_path, payload))

    def test_unknown_channel(self, tmp_path):
        payload = self._valid()
        payload["categories"]["calm_focus"][0]["targets"] = {"AU99": [0.1, 0.2]}
        with pytest.raises(ValueError, match="unknown channel"):
            load_template_table(self._write(tmp_path, payload))

    def test_ratio_beyond_float_range(self, tmp_path):
        payload = self._valid()
        payload["categories"]["calm_focus"][0]["ratio"] = 10**400
        with pytest.raises(ValueError, match=r"\['calm_focus'\]\[0\]: ratio must be a finite"):
            load_template_table(self._write(tmp_path, payload))

    def test_interval_outside_range(self, tmp_path):
        payload = self._valid()
        payload["categories"]["calm_focus"][0]["targets"] = {"AU43": [0.1, 1.4]}
        with pytest.raises(ValueError, match="legal"):
            load_template_table(self._write(tmp_path, payload))

    def test_head_interval_checked_in_degrees(self, tmp_path):
        payload = self._valid()
        payload["categories"]["calm_focus"][0]["targets"] = {"yaw": [-5.0, 5.0]}
        table = load_template_table(self._write(tmp_path, payload))
        assert table["calm_focus"][0][2]["yaw"] == (-5.0, 5.0)

    def test_bad_version(self, tmp_path):
        payload = self._valid()
        payload["version"] = 9
        with pytest.raises(ValueError, match="version"):
            load_template_table(self._write(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_template_table(path)

    def test_builtin_table_round_trips(self, tmp_path):
        # the built-in table passes the loader's checks and is already in its normal form
        categories = {
            label: [
                {"ratio": r, "semantics": s, "targets": {k: list(v) for k, v in t.items()},
                 "exemptions": list(e)}
                for r, s, t, e in stages
            ]
            for label, stages in TEMPLATES.items()
        }
        path = self._write(tmp_path, {"version": 1, "categories": categories})
        assert load_template_table(path) == TEMPLATES

    def test_builtin_table_is_read_only(self):
        with pytest.raises(TypeError):
            TEMPLATES["anger"] = ()
        with pytest.raises(TypeError):
            TEMPLATES["anger"][0][2]["AU7"] = (0.0, 0.1)


# One target-interval rule behind Plan construction, decode_agent_plan and
# load_template_table: (channel, interval, problem, accepted by templates).
_NAN = math.nan
INTERVAL_CASES = {
    "nan_lo": ("AU1", [_NAN, 0.5], "outside legal", False),
    "nan_hi": ("AU1", [0.1, _NAN], "outside legal", False),
    "lo_above_hi": ("AU1", [0.8, 0.2], "lo 0.8 > hi 0.2", False),
    "below_range": ("gaze_up", [-0.1, 0.2], "outside legal [0, 1]", False),
    "above_range": ("AU43_L", [0.5, 1.2], "outside legal [0, 1]", False),
    "head_outside_degrees": ("yaw", [-95.0, 5.0], "outside legal [-90, 90]", False),
    "head_inside_degrees": ("pitch", [-60.0, 60.0], None, True),
    "unknown_channel": ("AU99", [0.1, 0.2], "unknown channel", False),
    "bilateral_shorthand": ("AU2", [0.1, 0.2], "unknown channel", True),
    "bool_bound": ("AU1", [False, True], "must be a [lo, hi] pair of numbers", False),
}


@pytest.mark.parametrize("case", sorted(INTERVAL_CASES))
def test_target_interval_rule(tmp_path, case):
    name, interval, problem, template_ok = INTERVAL_CASES[case]

    # Plan construction: raises with the JSON path of the target, or keeps it
    events = (StagedEvent(1, 20, "a", {name: tuple(interval)}),)
    if problem is None:
        p = Plan("anger", events, 20, 25.0)
        assert p.events[0].channel_targets[name] == tuple(interval)
    else:
        path = f"events[0].channel_targets.{name}: "
        with pytest.raises(ValueError, match=re.escape(path) + ".*" + re.escape(problem)):
            Plan("anger", events, 20, 25.0)

    # decode_agent_plan: raises with the JSON path of the target
    payload = json.loads(encode_plan(plan("anger", 20, 25.0)))
    payload["events"][0]["channel_targets"][name] = interval
    if problem is None:
        decoded = decode_agent_plan(json.dumps(payload))
        assert decoded.events[0].channel_targets[name] == tuple(interval)
    else:
        path = f"events[0].channel_targets.{name}: "
        with pytest.raises(ValueError, match=re.escape(path) + ".*" + re.escape(problem)):
            decode_agent_plan(json.dumps(payload))

    # load_template_table: raises with the table context; shorthand is allowed
    # and comes back expanded to _L/_R
    table = {
        "version": 1,
        "categories": {"calm": [{"ratio": 1.0, "semantics": "s", "targets": {name: interval}}]},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    if template_ok:
        expanded = ("AU2_L", "AU2_R") if name == "AU2" else (name,)
        assert load_template_table(path)["calm"][0][2] == dict.fromkeys(expanded, tuple(interval))
    else:
        context = f"table.json: categories['calm'][0].targets['{name}']: "
        with pytest.raises(ValueError, match=re.escape(context) + ".*" + re.escape(problem)):
            load_template_table(path)
