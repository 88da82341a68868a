"""One reader behind every JSON input: each malformed file is a ValueError that
names the file and the JSON path, and exits 1 where a subcommand reads it; a
well-formed one reads as `json.load` reads it, with orjson and without."""
import gc
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eyerig.channels import (
    N_CHANNELS,
    ControlSequence,
    _loads,
    _read_json,
    load_controls_csv,
    save_controls_csv,
)
from eyerig.cli import main
from eyerig.config import load_pipeline_config
from eyerig.library import load_library
from eyerig.mapper import KEYPOINT_LAYOUT, N_POINTS, load_keypoints_json
from eyerig.metrics import load_metric_config
from eyerig.objectives import load_kto_manifest
from eyerig.planner import decode_agent_plan, encode_plan, load_template_table, plan
from wire import ORJSON_PATHS, paths_params, use_encoder_path


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
        lambda path: decode_agent_plan(path.read_bytes()), None,
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
_NOT_UTF8 = '{"fps": 25.0}'.encode("utf-16")  # starts with the bytes ff fe

# Per loader and case: the change (raw text or bytes, or a mutation of the valid
# payload) and the text, or texts, the message must hold.  The pipeline and metric configs
# have no required key: every field has a default.
CASES = {
    "pipeline_config": {
        "not_json": (_NOT_JSON, "cfg.json: not valid JSON"),
        "not_utf8": (_NOT_UTF8, "cfg.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "cfg.json: $: must be an object"),
        "unknown_key": (_set("rules", "bogus", value=1), "cfg.json: rules: unknown keys ['bogus']"),
        "wrong_kind": (_set("rules", value=[]), "cfg.json: rules: must be an object"),
        "bool_number": (_set("fps", value=True),
                        "cfg.json: fps must be a finite positive number, got True"),
    },
    "template_table": {
        "not_json": (_NOT_JSON, "table.json: not valid JSON"),
        "not_utf8": (_NOT_UTF8, "table.json: not valid JSON"),
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
        "not_utf8": (_NOT_UTF8, "metrics.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "metrics.json: $: must be an object"),
        "unknown_key": (_set("bogus", value=1), "metrics.json: $: unknown keys ['bogus']"),
        "wrong_kind": (_set("signature_override", value=[]),
                       "metrics.json: signature_override: must be an object"),
        "bool_number": (_set("activation_threshold", value=True),
                        "metrics.json: activation_threshold must be in [0, 1), got True"),
    },
    "kto_manifest": {
        "not_json": (_NOT_JSON, "prefs.json: not valid JSON"),
        "not_utf8": (_NOT_UTF8, "prefs.json: not valid JSON"),
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
        "not_utf8": (_NOT_UTF8, "plan payload is not valid JSON"),
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
        "not_utf8": (_NOT_UTF8, "lib.json: not valid JSON"),
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
        "not_utf8": (_NOT_UTF8, "kp.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "kp.json: $: must be an object"),
        "unknown_key": (_set("fsp", value=30), "kp.json: $: unknown keys ['fsp']"),
        "missing_key": (_drop("layout"), "kp.json: $: missing keys ['layout']"),
        "wrong_kind": (_set("frames", value={}), "kp.json: frames: must be a list"),
        "bool_number": (_set("fps", value=True),
                        "kp.json: fps must be a finite positive number, got True"),
    },
    "controls_sidecar": {
        "not_json": (_NOT_JSON, "x.meta.json: not valid JSON"),
        "not_utf8": (_NOT_UTF8, "x.meta.json: not valid JSON"),
        "not_object": (_NOT_OBJECT, "x.meta.json: $: must be an object"),
        "unknown_key": (_set("fsp", value=30), "x.meta.json: $: unknown keys ['fsp']"),
        "missing_key": (_drop("fps"), "x.meta.json: $: missing keys ['fps']"),
        # the one version rule, in its own words
        "wrong_kind": (_set("version", value="1"),
                       ("unsupported controls format version '1' in ", "x.meta.json")),
        "bool_number": (_set("fps", value=True),
                        "x.meta.json: fps: must be a finite positive number, got True"),
    },
}

PAIRS = [(loader, case) for loader in CASES for case in CASES[loader]]


def _write(tmp_path, loader, change=None):
    name, valid, _, _ = LOADERS[loader]
    if loader == "controls_sidecar":
        save_controls_csv(ControlSequence(np.zeros((2, N_CHANNELS)), 25.0), tmp_path / "x.csv")
    path = tmp_path / name
    payload = valid()
    if isinstance(change, bytes):
        path.write_bytes(change)
    elif isinstance(change, str):
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


def _same(a, b) -> bool:
    """Equal and of the same type all the way down: NaN equals NaN, -0.0 is not
    0.0, 1 is not 1.0 or True, and object keys come in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isnan(a) and math.isnan(b) or struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def _reads_as_json_loads(path, raw: bytes) -> None:
    """`_read_json` of a file holding `raw` is `json.loads` of its UTF-8 text,
    or, where that raises, a ValueError naming the file."""
    path.write_bytes(raw)
    try:
        expected = json.loads(raw.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError or JSONDecodeError
        with pytest.raises(ValueError, match=re.escape(f"{path}: not valid JSON: ")):
            _read_json(path)
    else:
        assert _same(_read_json(path), expected)


# Text that orjson refuses or reads differently from json, and the edges of
# its int range, each alone and inside a document.
_EDGE_TEXTS = {
    "nan": b"NaN", "inf": b"Infinity", "neg_inf": b"-Infinity",
    "1e400": b"1e400", "neg_1e400": b"-1e400", "lone_surrogate": b'"\\ud800"',
    "int64_max": b"9223372036854775807", "int64_max_plus_1": b"9223372036854775808",
    "uint64_max": b"18446744073709551615", "uint64_max_plus_1": b"18446744073709551616",
    "int64_min": b"-9223372036854775808", "int64_min_minus_1": b"-9223372036854775809",
    "int_30_digits": b"123456789012345678901234567890",
    "neg_zero_int": b"-0", "neg_zero_float": b"-0.0",
    "duplicate_key": b'{"a": 1, "a": 2.5}',
    "bom": b'\xef\xbb\xbf{"a": 1}', "utf16": '{"a": 1}'.encode("utf-16"),
    "latin1": '"caf\xe9"'.encode("latin-1"), "empty": b"",
}
_READER_CASES = [(raw,) for raw in _EDGE_TEXTS.values()] + [
    (b'{"fps": 25.0, "frames": [[%s, 0.5]]}' % raw,) for raw in _EDGE_TEXTS.values()
]
_READER_IDS = list(_EDGE_TEXTS) + [f"{name}-in-document" for name in _EDGE_TEXTS]


@pytest.mark.parametrize("raw, path", paths_params(_READER_CASES, _READER_IDS))
def test_reader_returns_json_loads_value(tmp_path, monkeypatch, raw, path):
    use_encoder_path(monkeypatch, path)
    _reads_as_json_loads(tmp_path / "in.json", raw)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**66), 2**66) | st.floats()
    | st.text(st.characters(exclude_categories=())),  # lone surrogates included
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@pytest.mark.parametrize("path", ORJSON_PATHS)
@settings(max_examples=150, deadline=None)
@given(value=_JSON_VALUES, ascii_only=st.booleans())
def test_reader_matches_json_loads_on_random_documents(tmp_path_factory, path, value, ascii_only):
    text = json.dumps(value, ensure_ascii=ascii_only)
    file = tmp_path_factory.getbasetemp() / f"random-document-{path}.json"
    with pytest.MonkeyPatch.context() as mp:
        use_encoder_path(mp, path)
        _reads_as_json_loads(file, text.encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize("path", ORJSON_PATHS)
def test_deep_nesting_exits_1_naming_the_file(tmp_path, capsys, monkeypatch, path):
    # json gives up near the interpreter's recursion limit, orjson does not:
    # either way the loader refuses the file by name, and the CLI exits 1
    use_encoder_path(monkeypatch, path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match=re.escape(f"{deep}: ")):
        load_library(deep)
    assert main([str(a) for a in _compile(tmp_path) + ["--library", deep]]) == 1
    err = capsys.readouterr().err
    assert f"{deep}: " in err and "Traceback" not in err


# A document of 20 000 fresh lists, far past the GC's first generation threshold,
# and the errors the decode raises.
_GC_CASES = {
    "value": (b"[" + b",".join([b"[0.5, 1]"] * 20_000) + b"]", None),
    "decode-error": (b"[1, ", json.JSONDecodeError),
    "not-utf-8": (b'["\xff"]', UnicodeDecodeError),
}


@pytest.mark.parametrize("path", ORJSON_PATHS)
@pytest.mark.parametrize("was_enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("case", list(_GC_CASES))
def test_loads_pauses_the_gc_and_leaves_it_as_found(monkeypatch, path, was_enabled, case):
    use_encoder_path(monkeypatch, path)
    raw, error = _GC_CASES[case]
    want = None if error else json.loads(raw)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    (gc.enable if was_enabled else gc.disable)()
    try:
        if error is None:
            got = _loads(raw)
        else:
            with pytest.raises(error):
                _loads(raw)
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable()
        gc.callbacks.remove(record)
    assert collections == []
    if error is None:
        assert got == want


# Per loader: fields whose error message shows the value read.  A value nested
# 100 000 deep is past the depth repr can recurse to, so every such message
# shows a bounded repr.
_ECHOED = {
    "pipeline_config": [("seed",), ("query_weights",)],
    "template_table": [(*_STAGE, "targets", "AU1")],
    "metric_config": [("activation_threshold",)],
    "kto_manifest": [("examples", 0, "id"), ("examples", 0, "desirable")],
    "agent_plan": [("events", 0, "channel_targets", "AU4_L")],
    "library": [("prototypes", 0, "label")],
    "keypoints": [("layout",)],
    "controls_sidecar": [("version",)],
}
_ECHOED_CASES = [(loader, keys) for loader, fields in _ECHOED.items() for keys in fields]
_ECHOED_IDS = [f"{loader}-{'.'.join(map(str, keys))}" for loader, keys in _ECHOED_CASES]


@pytest.mark.parametrize("loader, keys, path", paths_params(_ECHOED_CASES, _ECHOED_IDS))
def test_deeply_nested_value_exits_1(tmp_path, capsys, monkeypatch, loader, keys, path):
    use_encoder_path(monkeypatch, path)
    file = _write(tmp_path, loader, _set(*keys, value="DEEP"))
    file.write_text(file.read_text().replace('"DEEP"', "[" * 100_000 + "]" * 100_000))
    _, _, load, cli_args = LOADERS[loader]
    with pytest.raises(ValueError) as info:
        load(file)
    assert len(str(info.value)) < 500
    if cli_args is None:
        return
    assert main([str(a) for a in cli_args(tmp_path, file)]) == 1
    err = capsys.readouterr().err
    assert file.name in err and "Traceback" not in err
