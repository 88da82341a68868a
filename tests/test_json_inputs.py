"""One reader behind every JSON input: each malformed file is a ValueError that
names the file and the JSON path, and exits 1 where a subcommand reads it."""
import json

import numpy as np
import pytest

from eyerig.channels import N_CHANNELS, ControlSequence, load_controls_csv, save_controls_csv
from eyerig.cli import main
from eyerig.config import load_pipeline_config
from eyerig.library import load_library
from eyerig.mapper import KEYPOINT_LAYOUT, N_POINTS, load_keypoints_json
from eyerig.metrics import load_metric_config
from eyerig.objectives import load_kto_manifest
from eyerig.planner import decode_agent_plan, encode_plan, load_template_table, plan


def _compile(tmp_path, *options):
    return [*options, "compile", "--label", "fear", "--frames", "20", "--out-dir", tmp_path / "out"]


def _table_cli(tmp_path, path):
    (tmp_path / "uses_table.json").write_text(json.dumps({"template_table_path": path.name}))
    return _compile(tmp_path, "--config", tmp_path / "uses_table.json")


def _sidecar_load(path):
    return load_controls_csv(path.parent / "x.csv")


# Per loader: (file name, a valid payload, the load call, the CLI argv that reads
# the file or None where no subcommand does).  The sidecar belongs to x.csv,
# which the tests write first.
LOADERS = {
    "pipeline_config": (
        "cfg.json", lambda: {"fps": 25.0, "rules": {"blink_max_ms": 600.0}},
        load_pipeline_config, lambda tmp_path, path: _compile(tmp_path, "--config", path),
    ),
    "template_table": (
        "table.json",
        lambda: {"version": 1, "categories": {"calm": [
            {"ratio": 1.0, "semantics": "hold", "targets": {"AU1": [0.1, 0.2]}}]}},
        load_template_table, _table_cli,
    ),
    "metric_config": (
        "metrics.json",
        lambda: {"activation_threshold": 0.2, "signature_override": {"anger": ["AU4_L"]}},
        load_metric_config,
        lambda tmp_path, path: ["eval", tmp_path / "p.csv", tmp_path / "r.csv",
                                "--metric-config", path],
    ),
    "kto_manifest": (
        "prefs.json",
        lambda: {"version": 1, "examples": [{"id": "a", "reward": 0.1, "desirable": True}]},
        load_kto_manifest, None,
    ),
    "agent_plan": (
        "plan.json", lambda: json.loads(encode_plan(plan("anger", 20, 25.0))),
        lambda path: decode_agent_plan(path.read_text()), None,
    ),
    "library": (
        "lib.json",
        lambda: {"version": 1, "prototypes": [
            {"label": "fear", "fps": 25.0, "controls": [[0.0] * N_CHANNELS] * 3}]},
        load_library, lambda tmp_path, path: _compile(tmp_path) + ["--library", path],
    ),
    "keypoints": (
        "kp.json",
        lambda: {"fps": 25.0, "layout": KEYPOINT_LAYOUT, "frames": [[[0.5, 0.5]] * N_POINTS]},
        lambda path: load_keypoints_json(path, dims=2),
        lambda tmp_path, path: ["guidance", path, "-o", tmp_path / "g.ogf"],
    ),
    "controls_sidecar": (
        "x.meta.json", lambda: {"fps": 25.0, "version": 1},
        _sidecar_load, lambda tmp_path, path: ["validate", tmp_path / "x.csv"],
    ),
}


def _set(*keys, value):
    """A mutation that sets payload[k0][k1]...[kn] = value."""
    def mutate(payload):
        obj = payload
        for k in keys[:-1]:
            obj = obj[k]
        obj[keys[-1]] = value
    return mutate


def _drop(*keys):
    def mutate(payload):
        obj = payload
        for k in keys[:-1]:
            obj = obj[k]
        del obj[keys[-1]]
    return mutate


_STAGE = ("categories", "calm", 0)
_NOT_JSON = "{not json"
_NOT_OBJECT = "[1]"

# Per loader and case: the change (raw text, or a mutation of the valid
# payload) and the text, or texts, the message must hold.  The pipeline and metric configs
# have no required key: every field has a default.
CASES = {
    "pipeline_config": {
        "not_json": (_NOT_JSON, "cfg.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "cfg.json: $: must be an object"),
        "unknown_key": (_set("rules", "bogus", value=1), "cfg.json: rules: unknown keys ['bogus']"),
        "wrong_kind": (_set("rules", value=[]), "cfg.json: rules: must be an object"),
        "bool_number": (_set("fps", value=True),
                        "cfg.json: fps must be a finite positive number, got True"),
    },
    "template_table": {
        "not_json": (_NOT_JSON, "table.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "table.json: $: must be an object"),
        "unknown_key": (_set(*_STAGE, "bogus", value=1),
                        "table.json: categories['calm'][0]: unknown keys ['bogus']"),
        "missing_key": (_drop(*_STAGE, "semantics"),
                        "table.json: categories['calm'][0]: missing keys ['semantics']"),
        "wrong_kind": (_set("categories", value=[]), "table.json: categories: must be an object"),
        "bool_number": (_set(*_STAGE, "ratio", value=True), "table.json: categories['calm'][0]: "
                        "ratio must be a finite positive number, got True"),
    },
    "metric_config": {
        "not_json": (_NOT_JSON, "metrics.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "metrics.json: $: must be an object"),
        "unknown_key": (_set("bogus", value=1), "metrics.json: $: unknown keys ['bogus']"),
        "wrong_kind": (_set("signature_override", value=[]),
                       "metrics.json: signature_override: must be an object"),
        "bool_number": (_set("activation_threshold", value=True),
                        "metrics.json: activation_threshold must be in [0, 1), got True"),
    },
    "kto_manifest": {
        "not_json": (_NOT_JSON, "prefs.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "prefs.json: $: must be an object"),
        "unknown_key": (_set("examples", 0, "bogus", value=1),
                        "prefs.json: examples[0]: unknown keys ['bogus']"),
        "missing_key": (_drop("examples", 0, "reward"),
                        "prefs.json: examples[0]: missing keys ['reward']"),
        "wrong_kind": (_set("examples", value={}), "prefs.json: examples: must be a list"),
        "bool_number": (_set("examples", 0, "reward", value=True),
                        "prefs.json: examples[0].reward must be a finite number, got True"),
    },
    "agent_plan": {
        "not_json": (_NOT_JSON, "plan payload is not valid JSON"),
        "not_object": (_NOT_OBJECT, "$: must be an object"),
        "unknown_key": (_set("events", 0, "bogus", value=1), "events[0]: unknown keys ['bogus']"),
        "missing_key": (_drop("events", 0, "end_frame"), "events[0]: missing keys ['end_frame']"),
        "wrong_kind": (_set("events", 0, "exemptions", value="blink_duration"),
                       "events[0].exemptions: must be a list"),
        "bool_number": (_set("total_frames", value=True),
                        "total_frames: must be a finite positive integer, got True"),
    },
    "library": {
        "not_json": (_NOT_JSON, "lib.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "lib.json: $: must be an object"),
        "unknown_key": (_set("prototypes", 0, "labell", value="x"),
                        "lib.json: prototypes[0]: unknown keys ['labell']"),
        "missing_key": (_drop("prototypes", 0, "controls"),
                        "lib.json: prototypes[0]: missing keys ['controls']"),
        "wrong_kind": (_set("prototypes", value={}), "lib.json: prototypes: must be a list"),
        "bool_number": (_set("prototypes", 0, "fps", value=True),
                        "lib.json: prototypes[0]: fps must be a finite positive number, got True"),
    },
    "keypoints": {
        "not_json": (_NOT_JSON, "kp.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "kp.json: $: must be an object"),
        "unknown_key": (_set("fsp", value=30), "kp.json: $: unknown keys ['fsp']"),
        "missing_key": (_drop("layout"), "kp.json: $: missing keys ['layout']"),
        "wrong_kind": (_set("frames", value={}), "kp.json: frames: must be a list"),
        "bool_number": (_set("fps", value=True),
                        "kp.json: fps must be a finite positive number, got True"),
    },
    "controls_sidecar": {
        "not_json": (_NOT_JSON, "x.meta.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "x.meta.json: $: must be an object"),
        "unknown_key": (_set("fsp", value=30), "x.meta.json: $: unknown keys ['fsp']"),
        "missing_key": (_drop("fps"), "x.meta.json: $: missing keys ['fps']"),
        # the one version rule, in its own words
        "wrong_kind": (_set("version", value="1"),
                       ("unsupported controls format version '1' in ", "x.meta.json")),
        # the fps reaches the controls of x.csv, and the error names that file
        "bool_number": (_set("fps", value=True),
                        "x.csv: fps must be a finite positive number, got True"),
    },
}

PAIRS = [(loader, case) for loader in CASES for case in CASES[loader]]


def _write(tmp_path, loader, change=None):
    name, valid, _, _ = LOADERS[loader]
    if loader == "controls_sidecar":
        save_controls_csv(ControlSequence(np.zeros((2, N_CHANNELS)), 25.0), tmp_path / "x.csv")
    path = tmp_path / name
    payload = valid()
    if isinstance(change, str):
        path.write_text(change)
    else:
        if change is not None:
            change(payload)
        path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_valid_payload_loads(tmp_path, loader):
    LOADERS[loader][2](_write(tmp_path, loader))


@pytest.mark.parametrize("loader, case", PAIRS, ids=[f"{lo}-{c}" for lo, c in PAIRS])
def test_malformed_input_names_file_and_path(tmp_path, capsys, loader, case):
    _, _, load, cli_args = LOADERS[loader]
    change, expected = CASES[loader][case]
    expected = expected if isinstance(expected, tuple) else (expected,)
    path = _write(tmp_path, loader, change)
    with pytest.raises(ValueError) as info:
        load(path)
    assert all(text in str(info.value) for text in expected)
    if cli_args is None:
        return
    assert main([str(a) for a in cli_args(tmp_path, path)]) == 1
    err = capsys.readouterr().err
    assert all(text in err for text in expected) and "Traceback" not in err
