"""perfbench's tracer and workload inputs still find every eyerig name they use.

A layer that the package deletes or renames then fails here, not first in a
traced benchmark run (`python3 perfbench/run.py --trace 1`).
"""
import importlib.util
import sys
from pathlib import Path

import eyerig.cli  # noqa: F401  the tracer patches only eyerig modules already loaded

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_imports_resolve():
    assert _load("workloads").FPS > 0


def test_tracer_installs_and_uninstalls_every_layer():
    tracing = _load("tracing")
    originals = {(mod, fn): getattr(sys.modules[f"eyerig.{mod}"], fn) for mod, fn in tracing.LAYERS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(m.__name__, attr) for m, attr, _ in tracer._undo}
        missing = [(mod, fn) for mod, fn in tracing.LAYERS if (f"eyerig.{mod}", fn) not in patched]
        assert missing == []
    finally:
        tracer.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[f"eyerig.{mod}"], fn) is original
