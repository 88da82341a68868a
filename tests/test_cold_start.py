"""Cold start: nothing imports scipy, and only JSON reads and array writes
import orjson.

One fresh interpreter imports eyerig and runs the subcommands in turn; after
each one it records which scipy modules are loaded and whether orjson is.
`build-lib` over a 3-D trace with no controls CSV inverts it, through
eyerig's own NNLS solver.  `validate` runs first, on a controls file written
beforehand: its sidecar is the first JSON read, and once a command has read
JSON or written an array file orjson stays loaded.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import eyerig
from eyerig.cli import main

SRC = Path(eyerig.__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
from pathlib import Path

def loaded():
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return scipy, "orjson" in sys.modules

steps = []
import eyerig
steps.append(("import eyerig", None, *loaded()))
import eyerig.cli as cli
steps.append(("import eyerig.cli", None, *loaded()))

out, given = Path(sys.argv[1]), sys.argv[2]
controls, keypoints = out / "fear.controls.csv", out / "fear.keypoints.json"
traces = out / "traces"
commands = [
    ["validate", given],
    ["eval", given, given, "--label", "fear"],
    ["compile", "--label", "fear", "--frames", "50", "--out-dir", out],
    ["map", controls, "-o", out / "map.keypoints.json"],
    ["map", controls, "-o", traces / "fear__000.keypoints.json", "--three-d"],
    ["guidance", keypoints, "-o", out / "guidance.ogf"],
    ["build-lib", traces, "-o", out / "lib.json"],
]
traces.mkdir()
for argv in commands:
    code = cli.main([str(a) for a in argv])
    steps.append((argv[0], code, *loaded()))
print(json.dumps(steps))
"""


def test_no_command_imports_scipy(tmp_path):
    given = tmp_path / "given"
    assert main(["compile", "--label", "fear", "--frames", "50", "--out-dir", str(given)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), str(given / "fear.controls.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    for step, code, loaded, _ in steps:
        assert code in (None, 0), f"{step} exited {code}"
        assert loaded == [], f"{step} imported {loaded}"
    assert steps[-1][0] == "build-lib"
    # nothing before the first JSON read or array write loads orjson; validate's
    # sidecar read does, if it is installed
    installed = importlib.util.find_spec("orjson") is not None
    assert [(step, orjson) for step, _, _, orjson in steps[:5]] == [
        ("import eyerig", False), ("import eyerig.cli", False), ("validate", installed),
        ("eval", installed), ("compile", installed),
    ]
