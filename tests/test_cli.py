"""Command-line behavior: subcommands, exit codes, and file outputs."""
import json

import numpy as np
import pytest

from eyerig import cli
from eyerig.channels import ControlSequence, load_controls_csv, save_controls_csv
from eyerig.cli import main
from eyerig.demo import build_demo_library, demo_records
from eyerig.guidance import load_guidance_ogf1
from eyerig.library import build_library, load_library, save_library
from eyerig.mapper import load_keypoints_json, map_sequence, save_keypoints_json
from eyerig.metrics import au_temp
from eyerig.planner import load_template_table, signature_aus


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def compiled(tmp_path):
    out = tmp_path / "out"
    code = run("compile", "--label", "drowsiness", "--frames", "50", "--out-dir", out)
    assert code == 0
    return out


@pytest.fixture()
def three_d(tmp_path, compiled):
    out = tmp_path / "kp3d.json"
    assert run("map", compiled / "drowsiness.controls.csv", "-o", out, "--three-d") == 0
    return out


class TestCompile:
    def test_demo_library_pass(self, compiled, capsys):
        audit = json.loads((compiled / "drowsiness.audit.json").read_text())
        assert audit["verdict"] == "pass"
        assert audit["frames"] == 50
        assert (compiled / "drowsiness.controls.csv").exists()
        kp = load_keypoints_json(compiled / "drowsiness.keypoints.json", dims=2)
        assert len(kp) == 50

    def test_sample_k_and_seed_reach_refine(self, tmp_path, monkeypatch):
        # a replan recomposes with the config's sample_k and the --seed draw
        seen, real = {}, cli.refine

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "refine", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_k": 3}))
        assert run("--config", cfg, "--seed", "7", "compile", "--label", "anger",
                   "--frames", "50", "--out-dir", tmp_path / "out") == 0
        assert (seen["sample_k"], seen["seed"]) == (3, 7)

    def test_unknown_label_lists_categories(self, tmp_path, capsys):
        code = run("compile", "--label", "nonsense", "--frames", "10",
                   "--out-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown label" in err
        assert "drowsiness" in err and "anger" in err

    def test_duration_seconds(self, tmp_path):
        code = run("compile", "--label", "anger", "--duration-seconds", "1.2",
                   "--out-dir", tmp_path)
        assert code == 0
        audit = json.loads((tmp_path / "anger.audit.json").read_text())
        assert audit["frames"] == 30

    @pytest.mark.parametrize("seconds", ["inf", "-inf", "nan"])
    def test_non_finite_duration_is_usage_error(self, tmp_path, capsys, seconds):
        code = run("compile", "--label", "fear", f"--duration-seconds={seconds}",
                   "--out-dir", tmp_path)
        assert code == 1
        assert "--duration-seconds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fps, config", [("inf", None), ("-inf", None), (None, "1e999")])
    def test_non_finite_fps_is_refused(self, tmp_path, capsys, fps, config):
        if config is None:
            head = [f"--fps={fps}"]
        else:
            path = tmp_path / "config.json"
            path.write_text('{"fps": %s}\n' % config)  # 1e999 parses as inf
            head = ["--config", path]
        out = tmp_path / "out"
        code = run(*head, "compile", "--label", "fear", "--frames", "50", "--out-dir", out)
        assert code == 1
        assert "fps must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_config_fps_beyond_float_range_is_refused(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"fps": 1%s}\n' % ("0" * 400))
        out = tmp_path / "out"
        code = run("--config", path, "compile", "--label", "fear", "--frames", "50",
                   "--out-dir", out)
        assert code == 1
        assert "fps must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_finite_fps_compiles(self, tmp_path):
        # ms-to-frame conversions overflow a float at this rate
        code = run("--fps", "1e308", "compile", "--label", "fear", "--frames", "50",
                   "--out-dir", tmp_path)
        assert code == 0
        assert json.loads((tmp_path / "fear.audit.json").read_text())["fps"] == 1e308

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            assert run("--seed", "3", "compile", "--label", "fear", "--frames", "40",
                       "--out-dir", tmp_path / d) == 0
        for name in ("fear.controls.csv", "fear.keypoints.json", "fear.audit.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_explicit_out_paths(self, tmp_path):
        c = tmp_path / "c.csv"
        k = tmp_path / "k.json"
        a = tmp_path / "a.json"
        code = run("compile", "--label", "sadness", "--frames", "25",
                   "--out-dir", tmp_path, "--out-controls", c,
                   "--out-keypoints", k, "--out-audit", a)
        assert code == 0
        assert c.exists() and k.exists() and a.exists()

    def test_initial_pose_round_trip(self, tmp_path):
        code = run("compile", "--label", "anger", "--frames", "30",
                   "--initial-pose", "10,-5,2", "--out-dir", tmp_path)
        assert code == 0
        from eyerig.channels import load_controls_csv

        seq = load_controls_csv(tmp_path / "anger.controls.csv")
        assert seq.values[0, 14:17] == pytest.approx([10.0, -5.0, 2.0])

    def test_bad_pose_is_usage_error(self, tmp_path, capsys):
        code = run("compile", "--label", "anger", "--frames", "30",
                   "--initial-pose", "10,-5", "--out-dir", tmp_path)
        assert code == 1
        assert "initial-pose" in capsys.readouterr().err

    def test_impossible_rules_exit_2_with_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rules": {"signature_min": 2.0}}))
        out = tmp_path / "out"
        code = run("--config", cfg, "compile", "--label", "anger", "--frames", "30",
                   "--out-dir", out)
        assert code == 2
        audit = json.loads((out / "anger.audit.json").read_text())
        assert audit["verdict"] == "fail"
        assert (out / "anger.controls.csv").exists()

    def test_missing_library_file(self, tmp_path, capsys):
        code = run("compile", "--label", "anger", "--frames", "30",
                   "--library", tmp_path / "absent.json", "--out-dir", tmp_path)
        assert code == 1


class TestValidate:
    def test_all_zero_ok(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        save_controls_csv(ControlSequence(np.zeros((20, 17)), 25.0), path)
        code = run("validate", path)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"ok": True, "violations": []}

    def test_violations_reported(self, tmp_path, capsys):
        v = np.zeros((20, 17))
        v[5:7, 8] = 0.9  # both lids shut for only 80 ms
        v[5:7, 9] = 0.9
        path = tmp_path / "short_blink.csv"
        save_controls_csv(ControlSequence(v, 25.0), path)
        code = run("validate", path)
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        assert report["violations"][0]["rule"] == "blink_duration"

    def test_missing_file(self, tmp_path, capsys):
        assert run("validate", tmp_path / "absent.csv") == 1


class TestMapAndBuildLib:
    def test_map_2d_default(self, tmp_path, compiled):
        out = tmp_path / "kp.json"
        code = run("map", compiled / "drowsiness.controls.csv", "-o", out)
        assert code == 0
        kp = load_keypoints_json(out, dims=2)
        assert kp.frames.shape == (50, 62, 2)

    def test_build_lib_from_three_traces(self, tmp_path, capsys):
        import itertools

        d = tmp_path / "traces"
        d.mkdir()
        for i, (label, controls) in enumerate(itertools.islice(demo_records(), 3)):
            stem = f"{label}__{i:03d}"
            if i < 2:  # third pair exercises the inversion fallback
                save_controls_csv(controls, d / f"{stem}.controls.csv")
            save_keypoints_json(map_sequence(controls)[1], d / f"{stem}.keypoints.json")
        out = tmp_path / "lib.json"
        code = run("build-lib", d, "-o", out)
        assert code == 0
        assert "3 prototypes" in capsys.readouterr().out
        lib = load_library(out)
        assert len(lib) == 3

    def test_build_lib_rejects_2d_keypoints(self, tmp_path, compiled, capsys):
        d = tmp_path / "traces"
        d.mkdir()
        kp2d = load_keypoints_json(compiled / "drowsiness.keypoints.json", dims=2)
        save_keypoints_json(kp2d, d / "drowsiness__000.keypoints.json")
        assert run("build-lib", d, "-o", tmp_path / "lib.json") == 1
        assert "3-D" in capsys.readouterr().err

    def test_compile_against_built_lib(self, tmp_path, compiled):
        d = tmp_path / "traces"
        d.mkdir()
        code = run("map", compiled / "drowsiness.controls.csv", "-o",
                   d / "drowsiness__000.keypoints.json", "--three-d")
        assert code == 0
        lib_path = tmp_path / "lib.json"
        assert run("build-lib", d, "-o", lib_path) == 0
        out = tmp_path / "out2"
        assert run("compile", "--label", "drowsiness", "--frames", "25",
                   "--library", lib_path, "--out-dir", out) in (0, 2)
        assert (out / "drowsiness.audit.json").exists()

    def test_empty_trace_dir(self, tmp_path):
        d = tmp_path / "traces"
        d.mkdir()
        assert run("build-lib", d, "-o", tmp_path / "lib.json") == 1

    def test_stored_keypoints_do_not_change_compiles(self, tmp_path):
        # retrieval reads controls only: the same library with and without
        # 3-D keypoints compiles to the same bytes
        with_kp = tmp_path / "with.json"
        save_library(build_library((label, c, map_sequence(c)[1]) for label, c in demo_records()),
                     with_kp)
        without_kp = tmp_path / "without.json"
        save_library(build_demo_library(), without_kp)
        assert b'"keypoints"' in with_kp.read_bytes()
        assert b'"keypoints"' not in without_kp.read_bytes()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_k": 3}))
        for lib_path in (with_kp, without_kp):
            assert run("--config", cfg, "--seed", "2", "compile", "--label", "fear",
                       "--frames", "60", "--library", lib_path,
                       "--out-dir", tmp_path / lib_path.stem) == 0
        for name in ("fear.controls.csv", "fear.keypoints.json", "fear.audit.json"):
            assert (tmp_path / "with" / name).read_bytes() == (
                tmp_path / "without" / name
            ).read_bytes()


class TestMalformedValues:
    @pytest.mark.parametrize("fps", ["1e999", "true", '"25"'])
    def test_sidecar_fps(self, tmp_path, compiled, capsys, fps):
        csv_path = tmp_path / "x.controls.csv"
        csv_path.write_bytes((compiled / "drowsiness.controls.csv").read_bytes())
        (tmp_path / "x.controls.meta.json").write_text('{"fps": %s, "version": 1}' % fps)
        out = tmp_path / "kp.json"
        assert run("map", csv_path, "-o", out) == 1
        assert "x.controls.meta.json: fps: must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fps", ["1e999", "true", '"25"'])
    def test_keypoints_fps(self, tmp_path, compiled, capsys, fps):
        path = tmp_path / "kp.json"
        text = (compiled / "drowsiness.keypoints.json").read_text()
        path.write_text(text.replace('"fps": 25.0', '"fps": %s' % fps, 1))
        assert run("guidance", path, "-o", tmp_path / "g.ogf") == 1
        assert "kp.json: fps must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"fps": 1e999', "fps must be a finite positive number, got inf"),
            ('"label": ["a"]', "label must be a non-empty string, got ['a']"),
        ],
    )
    def test_library_entry(self, tmp_path, capsys, entry, message):
        path = tmp_path / "lib.json"
        # the bad value comes last, so it wins over the good one of the same key
        path.write_text('{"version": 1, "prototypes": [{"controls": [%s], "fps": 25.0, '
                        '"label": "fear", %s}]}' % (json.dumps([0.0] * 17), entry))
        out = tmp_path / "out"
        assert run("compile", "--label", "fear", "--frames", "30", "--library", path,
                   "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "lib.json: prototypes[0]: " in err and message in err
        assert not out.exists()


class TestGuidance:
    def test_export_round_trip(self, tmp_path, compiled):
        out = tmp_path / "field.ogf"
        code = run("guidance", compiled / "drowsiness.keypoints.json", "-o", out)
        assert code == 0
        field = load_guidance_ogf1(out)
        assert field.values.shape == (40, 64, 64)

    def test_custom_grid(self, tmp_path, compiled):
        out = tmp_path / "field.ogf"
        code = run("guidance", compiled / "drowsiness.keypoints.json", "-o", out,
                   "--grid", "32x16")
        assert code == 0
        assert load_guidance_ogf1(out).values.shape == (40, 32, 16)

    def test_frame_out_of_range(self, tmp_path, compiled, capsys):
        code = run("guidance", compiled / "drowsiness.keypoints.json",
                   "-o", tmp_path / "f.ogf", "--frame", "999")
        assert code == 1

    def test_three_d_file_rejected(self, tmp_path, three_d, capsys):
        out = tmp_path / "f.ogf"
        assert run("guidance", three_d, "-o", out) == 1
        assert "needs 2-D keypoints, found 3-D" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_controls_pair_with_label(self, compiled, capsys):
        path = compiled / "drowsiness.controls.csv"
        code = run("eval", path, path, "--label", "drowsiness")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["au_f1"]["f1"] == 1.0
        assert report["au_temp"] == 1.0
        assert report["eye_lmd"] is None

    def test_keypoints_pair(self, compiled, capsys):
        path = compiled / "drowsiness.keypoints.json"
        code = run("eval", path, path)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eye_lmd"] == 0.0
        assert report["au_f1"] is None

    def test_three_d_keypoints_rejected(self, three_d, capsys):
        assert run("eval", three_d, three_d) == 1
        assert "needs 2-D keypoints, found 3-D" in capsys.readouterr().err

    def test_mixed_kinds_rejected(self, compiled, capsys):
        code = run("eval", compiled / "drowsiness.controls.csv",
                   compiled / "drowsiness.keypoints.json")
        assert code == 1

    def test_metric_config_threshold(self, tmp_path, compiled, capsys):
        mcfg = tmp_path / "m.json"
        mcfg.write_text(json.dumps({"activation_threshold": 0.99}))
        path = compiled / "drowsiness.controls.csv"
        code = run("eval", path, path, "--metric-config", mcfg)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["au_f1"]["f1"] == 1.0  # both silent above 0.99: vacuous match

    def test_metric_config_misspelt_key_exits_1(self, tmp_path, compiled, capsys):
        mcfg = tmp_path / "m.json"
        mcfg.write_text(json.dumps({"activation_treshold": 0.99}))
        path = compiled / "drowsiness.controls.csv"
        assert run("eval", path, path, "--metric-config", mcfg) == 1
        assert "m.json: $: unknown keys ['activation_treshold']" in capsys.readouterr().err

    def _table_config(self, tmp_path, categories):
        (tmp_path / "table.json").write_text(json.dumps({"version": 1, "categories": categories}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"template_table_path": "table.json"}))
        return cfg

    def test_label_from_config_table(self, tmp_path, compiled, capsys):
        cfg = self._table_config(tmp_path, {"calm_focus": [
            {"ratio": 1.0, "semantics": "hold", "targets": {"AU43": [0.2, 0.4]}}
        ]})
        path = compiled / "drowsiness.controls.csv"
        assert run("--config", cfg, "eval", path, path, "--label", "calm_focus") == 0
        assert json.loads(capsys.readouterr().out)["au_temp"] == 1.0

    def test_redefined_label_scored_on_table_signature(self, tmp_path, capsys):
        cfg = self._table_config(tmp_path, {"anger": [
            {"ratio": 1.0, "semantics": "brows raise", "targets": {"AU1": [0.3, 0.6], "AU2": [0.3, 0.6]}}
        ]})
        rng = np.random.default_rng(5)
        paths = []
        for name in ("pred", "ref"):
            values = np.zeros((40, 17))
            values[:, :10] = rng.uniform(0.0, 0.45, (40, 10))  # every AU, below lid conflicts
            paths.append(tmp_path / f"{name}.controls.csv")
            save_controls_csv(ControlSequence(values, 25.0), paths[-1])
        assert run("--config", cfg, "eval", *paths, "--label", "anger") == 0
        pred, ref = (load_controls_csv(p) for p in paths)
        channels = signature_aus("anger", load_template_table(tmp_path / "table.json"))
        assert channels == ("AU1", "AU2_L", "AU2_R")
        want = au_temp(pred, ref, "anger", channels=channels)
        assert json.loads(capsys.readouterr().out)["au_temp"] == want
        assert want != au_temp(pred, ref, "anger")  # the built-in AU4/AU7/AU5 signature


class TestPreview:
    def test_renders_frames_and_sheet(self, tmp_path, compiled, capsys):
        out = tmp_path / "frames"
        code = run("preview", compiled / "drowsiness.keypoints.json",
                   "-o", out, "--every", "10")
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert "contact_sheet.svg" in files
        assert "frame_0001.svg" in files and "frame_0041.svg" in files
        body = (out / "frame_0001.svg").read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_bad_every(self, tmp_path, compiled):
        code = run("preview", compiled / "drowsiness.keypoints.json",
                   "-o", tmp_path / "f", "--every", "0")
        assert code == 1

    def test_three_d_file_rejected(self, tmp_path, three_d, capsys):
        out = tmp_path / "frames"
        assert run("preview", three_d, "-o", out) == 1
        assert "needs 2-D keypoints, found 3-D" in capsys.readouterr().err
        assert not out.exists()


class TestGlobalFlags:
    def test_fps_override(self, tmp_path):
        code = run("--fps", "50", "compile", "--label", "anger",
                   "--duration-seconds", "1", "--out-dir", tmp_path)
        assert code == 0
        audit = json.loads((tmp_path / "anger.audit.json").read_text())
        assert audit["frames"] == 50
        assert audit["fps"] == 50.0

    def test_config_template_table(self, tmp_path):
        table = {
            "version": 1,
            "categories": {
                "custom_nod": [
                    {"ratio": 0.5, "semantics": "settle",
                     "targets": {"AU43": [0.1, 0.25]}},
                    {"ratio": 0.5, "semantics": "nod",
                     "targets": {"pitch": [-9.0, -4.0], "AU43": [0.2, 0.4]}},
                ]
            },
        }
        (tmp_path / "table.json").write_text(json.dumps(table))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"template_table_path": "table.json"}))
        out = tmp_path / "out"
        code = run("--config", cfg, "compile", "--label", "custom_nod",
                   "--frames", "30", "--out-dir", out)
        assert code == 0
        audit = json.loads((out / "custom_nod.audit.json").read_text())
        assert audit["verdict"] == "pass"

    def test_table_redefining_builtin_label_uses_its_signature(self, tmp_path):
        # the table's anger raises brows; the built-in anger's AU7/AU5 are not asked for
        (tmp_path / "table.json").write_text(json.dumps({
            "version": 1,
            "categories": {"anger": [
                {"ratio": 0.3, "semantics": "onset", "targets": {"AU1": [0.2, 0.4]}},
                {"ratio": 0.7, "semantics": "brows raise",
                 "targets": {"AU1": [0.4, 0.7], "AU2": [0.3, 0.6]}},
            ]},
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"template_table_path": "table.json"}))
        code = run("--config", cfg, "compile", "--label", "anger",
                   "--frames", "80", "--out-dir", tmp_path)
        audit = json.loads((tmp_path / "anger.audit.json").read_text())
        assert (code, audit["verdict"], audit["violations"]) == (0, "pass", [])

    def test_table_target_beyond_float_range_is_refused(self, tmp_path, capsys):
        (tmp_path / "table.json").write_text(json.dumps({
            "version": 1,
            "categories": {"turn": [
                {"ratio": 1.0, "semantics": "turn", "targets": {"yaw": [0, 10**400]}}
            ]},
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"template_table_path": "table.json"}))
        out = tmp_path / "out"
        code = run("--config", cfg, "compile", "--label", "turn",
                   "--frames", "30", "--out-dir", out)
        assert code == 1
        err = capsys.readouterr().err
        assert "categories['turn'][0].targets['yaw']: a bound is beyond float range" in err
        assert not out.exists()

    def test_builtin_label_hidden_under_table(self, tmp_path, capsys):
        (tmp_path / "table.json").write_text(json.dumps({
            "version": 1,
            "categories": {"only_this": [
                {"ratio": 1.0, "semantics": "hold", "targets": {"AU5": [0.2, 0.4]}}
            ]},
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"template_table_path": "table.json"}))
        code = run("--config", cfg, "compile", "--label", "anger",
                   "--frames", "30", "--out-dir", tmp_path)
        assert code == 1
        assert "only_this" in capsys.readouterr().err

    def test_bad_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
