"""Cold start: only inversion imports scipy.

One fresh interpreter imports eyerig and runs the subcommands in turn; after
each one it records which scipy modules are loaded.  `build-lib` over a 3-D
trace with no controls CSV inverts it, which must load scipy on demand.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import eyerig

SRC = Path(eyerig.__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = []
import eyerig
steps.append(("import eyerig", None, scipy_modules()))
import eyerig.cli as cli
steps.append(("import eyerig.cli", None, scipy_modules()))

out = Path(sys.argv[1])
controls, keypoints = out / "fear.controls.csv", out / "fear.keypoints.json"
traces = out / "traces"
commands = [
    ["compile", "--label", "fear", "--frames", "50", "--out-dir", out],
    ["map", controls, "-o", out / "map.keypoints.json"],
    ["map", controls, "-o", traces / "fear__000.keypoints.json", "--three-d"],
    ["validate", controls],
    ["eval", controls, controls, "--label", "fear"],
    ["guidance", keypoints, "-o", out / "guidance.ogf"],
    ["build-lib", traces, "-o", out / "lib.json"],
]
traces.mkdir()
for argv in commands:
    code = cli.main([str(a) for a in argv])
    steps.append((argv[0], code, scipy_modules()))
print(json.dumps(steps))
"""


def test_only_inversion_imports_scipy(tmp_path):
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    *cold, (last, last_code, last_loaded) = steps
    for step, code, loaded in cold:
        assert code in (None, 0), f"{step} exited {code}"
        assert loaded == [], f"{step} imported {loaded}"
    assert (last, last_code) == ("build-lib", 0)
    assert "scipy.optimize" in last_loaded
