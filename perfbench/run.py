"""eyerig benchmark: one workload, one seed, a closed loop of CLI operations.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eyerig is imported from ./src. Set-up
makes the workload's inputs from the seed in a child process, then the timed
loop calls `eyerig.cli.main(argv)` in this process, one op after another, in
whole rounds of the same ops (at least two) until S seconds have passed. Every
op's outputs are then checked against the benchmark's own computations, and the
last line of stdout is the JSON result. With --trace 1 the first half of the
time runs untraced and the second half traced, and the result holds the
per-layer metrics. See perfbench/README.md.
"""
import os
import time

_ENTRY = time.perf_counter()


def _since_process_start() -> float:
    """Seconds since this process was created, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            started = int(fh.read().rsplit(")", 1)[1].split()[19])
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


PROCESS_START = _ENTRY - _since_process_start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("compile_short_lib", "compile_long_demo", "build_lib_invert", "eval_temporal")
CHILD_TIMEOUT_S = 150


class Phase:
    """Op times, exit codes and captured output of a run of whole rounds."""

    def __init__(self):
        self.times: list[float] = []
        self.codes: list[list[int]] = []  # per round
        self.texts: list[list[str]] = []  # per round
        self.frames = 0
        self.wall = 0.0


def _import_eyerig():
    src = ROOT / "src"
    if not (src / "eyerig" / "__init__.py").is_file():
        sys.exit(f"error: no eyerig sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import eyerig
    if not Path(eyerig.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported eyerig from {eyerig.__file__}, not from {src}")
    return eyerig


def _run_op(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught program error is a failed op; keep measuring
            traceback.print_exc(file=buf)
            code = -1
    return code, buf.getvalue()


def _fresh_out(work: Path, ops: list[dict]) -> None:
    shutil.rmtree(work / "out", ignore_errors=True)
    for i in range(len(ops)):
        (work / "out" / f"op{i:02d}").mkdir(parents=True)


def _run_rounds(cli, ops, work: Path, seconds: float, min_rounds: int, phase: Phase, on_op=None):
    """Closed loop of whole rounds: at least `min_rounds`, then more while a
    round's end is expected within `seconds` of the start, give or take half
    a round.

    Each round writes into a fresh work/out; the run's first round is kept as
    work/first for the byte-identity check.
    """
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        rounds += 1
        _fresh_out(work, ops)
        codes, texts = [], []
        for op in ops:
            if on_op:
                on_op()
            t = time.perf_counter()
            code, text = _run_op(cli, op["argv"])
            phase.times.append(time.perf_counter() - t)
            codes.append(code)
            texts.append(text)
            phase.frames += op["frames"]
        phase.codes.append(codes)
        phase.texts.append(texts)
        if not (work / "first").exists():
            (work / "out").rename(work / "first")
    phase.wall += time.perf_counter() - start


def _check(oracles, eyerig, ops, work: Path, first: Phase, last: Phase) -> None:
    """Every op's outputs, and the first round against the last, byte for byte."""
    oracles.same_tree(work / "first", work / "out")
    model = eyerig.default_model()
    for i, op in enumerate(ops):
        code, text = first.codes[0][i], first.texts[0][i]
        last_code, last_text = last.codes[-1][i], last.texts[-1][i]
        oracles.require((code, text) == (last_code, last_text),
                        f"op {i}: repeated op gave exit {last_code} and other output")
        if op["kind"] == "compile" and code in (0, 2):
            oracles.check_compile(op, work / "first" / f"op{i:02d}", code, model)
        elif op["kind"] == "build_lib" and code == 0:
            oracles.check_build_lib(op)
        elif op["kind"] == "eval" and code == 0:
            oracles.check_eval(op, text, eyerig.signature_aus(op["label"]))


def _output_bytes(work: Path, ops, phase: Phase) -> float:
    files = sum(p.stat().st_size for p in (work / "first").rglob("*") if p.is_file())
    text = sum(len(t.encode()) for t in phase.texts[0])
    return (files + text) / len(ops)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _make_inputs(workload: str, seed: int, work: Path) -> None:
    _import_eyerig()
    import workloads
    ops = workloads.make_inputs(workload, seed, work)
    (work / "ops.json").write_text(json.dumps(ops))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.make_inputs:
        _make_inputs(args.workload, args.seed, Path(args.make_inputs))
        return 0

    eyerig = _import_eyerig()
    import eyerig.cli as cli
    import oracles
    import tracing

    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--make-inputs", str(work)],
            check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        ops = json.loads((work / "ops.json").read_text())
        setup_s = time.perf_counter() - PROCESS_START

        untraced = Phase()
        if args.trace:
            _run_rounds(cli, ops, work, args.seconds / 2, 1, untraced)
            tracer = tracing.Tracer()
            traced = Phase()

            def on_op():
                tracer.op = len(traced.times)

            tracer.install()
            try:
                _run_rounds(cli, ops, work, args.seconds / 2, 1, traced, on_op)
            finally:
                tracer.uninstall()
            phases = (untraced, traced)
        else:
            _run_rounds(cli, ops, work, args.seconds, 2, untraced)
            phases = (untraced,)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            _check(oracles, eyerig, ops, work, phases[0], phases[-1])
            correct = True
        except (oracles.CheckError, OSError, KeyError, ValueError) as exc:
            print(f"check failed: {exc!r}", file=sys.stderr)
            correct = False

        attempted = sum(len(p.times) for p in phases)
        failed = sum(code != 0 for p in phases for codes in p.codes for code in codes)
        op_ms_p50 = statistics.median(untraced.times) * 1000.0
        if args.trace:
            values = tracer.metrics(len(traced.times))
            values["bench.op_ms_p50.untraced"] = op_ms_p50
            values["bench.op_ms_p50.traced"] = statistics.median(traced.times) * 1000.0
            metrics = {name: _metric(values[name], unit) for name, unit, _ in tracing.metric_specs()}
            tracer.write_spans(STATE / f"{args.workload}-seed{args.seed}.trace.jsonl")
        else:
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "op_ms_p50": _metric(op_ms_p50, "ms"),
                "frames_per_s": _metric(untraced.frames / untraced.wall, "frames/s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "output_bytes": _metric(_output_bytes(work, ops, untraced), "bytes"),
            }
        rounds = "+".join(str(len(p.codes)) for p in phases)
        print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
              f"{failed} failed, checks {'passed' if correct else 'FAILED'}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
