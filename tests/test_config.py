"""Pipeline config loading, overrides, and validation."""
import json

import pytest

from eyerig.cli import main
from eyerig.config import PipelineConfig, load_pipeline_config
from eyerig.critic import RuleSet
from eyerig.guidance import GuidanceParams
from eyerig.planner import TEMPLATES


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestDefaults:
    def test_default_construction(self):
        cfg = PipelineConfig()
        assert cfg.fps == 25.0
        assert cfg.blend_frames == 3
        assert cfg.query_weights is None
        assert cfg.rules == RuleSet()
        assert cfg.guidance == GuidanceParams()
        assert cfg.template_table is TEMPLATES
        assert cfg.seed is None
        assert cfg.sample_k == 1

    def test_empty_file_is_defaults(self, tmp_path):
        cfg = load_pipeline_config(_write(tmp_path, {}))
        assert cfg == PipelineConfig()


class TestLoading:
    def test_partial_rules_and_guidance(self, tmp_path):
        cfg = load_pipeline_config(
            _write(
                tmp_path,
                {
                    "fps": 30.0,
                    "blend_frames": 5,
                    "rules": {"blink_max_ms": 600.0},
                    "guidance": {"n_steps": 12, "omega_hi": 6.0},
                    "seed": 9,
                    "sample_k": 2,
                },
            )
        )
        assert cfg.fps == 30.0
        assert cfg.rules.blink_max_ms == 600.0
        assert cfg.rules.blink_min_ms == RuleSet().blink_min_ms
        assert cfg.guidance.n_steps == 12
        assert cfg.guidance.omega_lo == GuidanceParams().omega_lo
        assert cfg.seed == 9
        assert cfg.sample_k == 2

    def test_query_weights(self, tmp_path):
        cfg = load_pipeline_config(_write(tmp_path, {"query_weights": [1.0] * 17}))
        assert cfg.query_weights == (1.0,) * 17

    def test_template_table_relative_to_config(self, tmp_path):
        table = {
            "version": 1,
            "categories": {
                "custom": [
                    {"ratio": 1.0, "semantics": "hold", "targets": {"AU5": [0.2, 0.4]}}
                ]
            },
        }
        (tmp_path / "table.json").write_text(json.dumps(table))
        cfg = load_pipeline_config(
            _write(tmp_path, {"template_table_path": "table.json"})
        )
        assert cfg.template_table is not None
        assert "custom" in cfg.template_table
        # the path is the loader's input only; the config keeps the table
        assert not hasattr(cfg, "template_table_path")

    def test_missing_table_fails_at_load(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_pipeline_config(
                _write(tmp_path, {"template_table_path": "absent.json"})
            )


class TestRejection:
    def test_unknown_top_level_field(self, tmp_path):
        with pytest.raises(ValueError, match=r"cfg\.json: \$: unknown keys \['bogus'\]"):
            load_pipeline_config(_write(tmp_path, {"bogus": 1}))

    def test_unknown_rule_field(self, tmp_path):
        with pytest.raises(ValueError, match=r"cfg\.json: rules: unknown keys \['bogus'\]"):
            load_pipeline_config(_write(tmp_path, {"rules": {"bogus": 1}}))

    @pytest.mark.parametrize(
        "rules, field",
        [
            ({"blink_min_ms": "abc"}, "blink_min_ms"),
            ({"event_edge_guard": 2.5}, "event_edge_guard"),
            ({"closure_threshold": None}, "closure_threshold"),
            ({"sustain_ms": 1e400}, "sustain_ms"),
            ({"blink_max_ms": 10**400}, "blink_max_ms"),
            ({"asymmetry_limit": -0.1}, "asymmetry_limit"),
            ({"signature_min": True}, "signature_min"),
            ({"reference_fps": 0}, "reference_fps"),
        ],
    )
    def test_malformed_rule_value(self, tmp_path, rules, field):
        with pytest.raises(ValueError, match=f"rules: {field} must be"):
            load_pipeline_config(_write(tmp_path, {"rules": rules}))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"sample_k": 2.5}, "sample_k must be a finite positive integer"),
            ({"sample_k": True}, "sample_k must be a finite positive integer"),
            ({"blend_frames": 2.5}, "blend_frames must be a finite non-negative integer"),
            ({"blend_frames": True}, "blend_frames must be a finite non-negative integer"),
            ({"query_weights": 5}, "query_weights must be a list of 17 numbers"),
            ({"query_weights": [1.0] * 16 + ["1"]}, "query_weights must be a finite"),
            ({"sample_k": 3, "seed": "abc"}, "seed must be a finite non-negative integer"),
            ({"sample_k": 2, "seed": 1.5}, "seed must be a finite non-negative integer"),
            ({"guidance": {"omega_hi": "abc"}}, "guidance: omega_hi must be a finite number"),
            ({"guidance": {"n_steps": 2.5}}, "guidance: n_steps must be a finite positive integer"),
        ],
    )
    def test_malformed_value_exits_1(self, tmp_path, capsys, payload, message):
        path = _write(tmp_path, payload)
        with pytest.raises(ValueError, match=message):
            load_pipeline_config(path)
        out = tmp_path / "out"
        code = main(["--config", str(path), "compile", "--label", "fear", "--frames", "20",
                     "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_guidance_field(self, tmp_path):
        with pytest.raises(ValueError, match=r"cfg\.json: guidance: unknown keys \['bogus'\]"):
            load_pipeline_config(_write(tmp_path, {"guidance": {"bogus": 1}}))

    def test_bad_fps(self, tmp_path):
        with pytest.raises(ValueError, match="fps"):
            load_pipeline_config(_write(tmp_path, {"fps": 0}))

    def test_bad_blend(self):
        with pytest.raises(ValueError, match="blend_frames"):
            PipelineConfig(blend_frames=-1)

    def test_bad_sample_k(self):
        with pytest.raises(ValueError, match="sample_k"):
            PipelineConfig(sample_k=0)

    def test_short_weights(self):
        with pytest.raises(ValueError, match="17"):
            PipelineConfig(query_weights=(1.0, 2.0))

    def test_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            PipelineConfig(query_weights=(-1.0,) * 17)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_pipeline_config(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1]")
        with pytest.raises(ValueError, match="object"):
            load_pipeline_config(path)
