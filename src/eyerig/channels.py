"""Fixed 17-channel control space: activation units, gaze magnitudes, head pose."""
from __future__ import annotations

import csv
import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "AU_NAMES",
    "GAZE_NAMES",
    "HEAD_NAMES",
    "CHANNEL_NAMES",
    "N_AU",
    "N_GAZE",
    "N_HEAD",
    "N_CHANNELS",
    "AU_SLICE",
    "GAZE_SLICE",
    "HEAD_SLICE",
    "DEFAULT_HEAD_RANGES",
    "CHANNEL_RANGES",
    "DIRECTIONS",
    "OPPOSING_GAZE_PAIRS",
    "LID_CONFLICT_PAIRS",
    "ControlSequence",
    "Violation",
    "ValidationReport",
    "channel_index",
    "opposing_gaze",
    "validate_control_state",
    "validate_sequence",
    "resample_sequence",
    "enforce_state_invariants",
    "mirror_control_vector",
    "save_controls_csv",
    "load_controls_csv",
]

# Channel roster. Order is part of the file format; never reorder.
AU_NAMES: tuple[str, ...] = (
    "AU1",
    "AU2_L",
    "AU2_R",
    "AU4_L",
    "AU4_R",
    "AU5_L",
    "AU5_R",
    "AU7",
    "AU43_L",
    "AU43_R",
)
GAZE_NAMES: tuple[str, ...] = ("gaze_left", "gaze_right", "gaze_up", "gaze_down")
HEAD_NAMES: tuple[str, ...] = ("yaw", "pitch", "roll")
CHANNEL_NAMES: tuple[str, ...] = AU_NAMES + GAZE_NAMES + HEAD_NAMES

N_AU = len(AU_NAMES)
N_GAZE = len(GAZE_NAMES)
N_HEAD = len(HEAD_NAMES)
N_CHANNELS = len(CHANNEL_NAMES)

AU_SLICE = slice(0, N_AU)
GAZE_SLICE = slice(N_AU, N_AU + N_GAZE)
HEAD_SLICE = slice(N_AU + N_GAZE, N_CHANNELS)

# Head angles are degrees; everything else is unitless intensity in [0, 1].
DEFAULT_HEAD_RANGES: dict[str, tuple[float, float]] = {
    "yaw": (-90.0, 90.0),
    "pitch": (-60.0, 60.0),
    "roll": (-45.0, 45.0),
}

# Legal (lo, hi) of every channel, in channel order; the one range table.
CHANNEL_RANGES: dict[str, tuple[float, float]] = {
    name: DEFAULT_HEAD_RANGES.get(name, (0.0, 1.0)) for name in CHANNEL_NAMES
}
_RANGE_LO = np.array([lo for lo, _ in CHANNEL_RANGES.values()])
_RANGE_HI = np.array([hi for _, hi in CHANNEL_RANGES.values()])

# Antagonist gaze channels: at most one of each pair may be active per frame.
OPPOSING_GAZE_PAIRS: tuple[tuple[str, str], ...] = (
    ("gaze_left", "gaze_right"),
    ("gaze_up", "gaze_down"),
)

# Instructed directions, in this order: (gaze channel, head channel, sign of
# that head angle when the head turns this way).
DIRECTIONS: dict[str, tuple[str, str, float]] = {
    "left": ("gaze_left", "yaw", -1.0),
    "right": ("gaze_right", "yaw", 1.0),
    "up": ("gaze_up", "pitch", 1.0),
    "down": ("gaze_down", "pitch", -1.0),
}

# Upper-lid raise and lid closure on the same side cannot both exceed this.
LID_CONFLICT_PAIRS: tuple[tuple[str, str], ...] = (("AU5_L", "AU43_L"), ("AU5_R", "AU43_R"))
LID_CONFLICT_LIMIT = 0.5

_INDEX: dict[str, int] = {name: i for i, name in enumerate(CHANNEL_NAMES)}

# L/R channel swaps under a bilateral mirror; yaw and roll flip sign, pitch is even.
_MIRROR_SWAPS: tuple[tuple[str, str], ...] = (
    ("AU2_L", "AU2_R"),
    ("AU4_L", "AU4_R"),
    ("AU5_L", "AU5_R"),
    ("AU43_L", "AU43_R"),
    ("gaze_left", "gaze_right"),
)
_MIRROR_NEGATE: tuple[str, ...] = ("yaw", "roll")

CSV_HEADER: tuple[str, ...] = ("frame",) + CHANNEL_NAMES
CSV_FORMAT_VERSION = 1


def channel_index(name: str) -> int:
    """Position of a channel in the 17-vector; raises KeyError for unknown names."""
    return _INDEX[name]


def opposing_gaze(name: str) -> str:
    """The antagonist of a gaze channel under OPPOSING_GAZE_PAIRS."""
    for a, b in OPPOSING_GAZE_PAIRS:
        if name in (a, b):
            return b if name == a else a
    raise KeyError(name)


def _number_problem(x, sign: str = "", integer: bool = False) -> str:
    """What is wrong with a number field; empty if nothing.

    The one number-field rule: a real number that is not a bool, an int when
    `integer`, finite, and above its lower bound: none for sign "", 0 for
    "non-negative" (inclusive) or "positive" (exclusive).  Bounds are compared,
    not converted, so NaN and an int beyond float range both fail.
    """
    low = 0 if sign else -sys.float_info.max
    if (
        not isinstance(x, bool)
        and isinstance(x, numbers.Integral if integer else numbers.Real)
        and low <= x <= sys.float_info.max
        and not (sign == "positive" and x == 0)
    ):
        return ""
    what = " ".join(w for w in ("finite", sign, "integer" if integer else "number") if w)
    return f"must be a {what}, got {x!r}"


def _orjson():
    """The orjson module, or None when it does not import.

    The one "orjson if installed" rule, for the array encoder and the JSON
    reader alike.  It is imported on the first call, so a command that writes
    no array and reads no JSON never loads it.
    """
    try:
        import orjson
    except ImportError:
        return None
    return orjson


# Maps every digit to "0", "." to itself and every other byte to a space, so a
# run of 19 or more digits not after a "." (an integer that may be outside
# orjson's [-2**63, 2**64)) shows as _LONG_INT in the translated text.  It
# never shows in eyerig's own files: repr writes at most 16 digits before a ".".
_DIGITS_ONLY = bytes(48 if 48 <= b <= 57 else b if b == 46 else 32 for b in range(256))
_LONG_INT = b" " + b"0" * 19


def _loads(raw: bytes):
    """`json.loads(raw.decode("utf-8"))`'s value, type for type and bit for bit.

    orjson, when it imports, decodes the bytes.  Where its value could differ
    from json's, the text goes to `json.loads` instead: orjson raises on NaN,
    Infinity, floats beyond float range (json reads inf) and lone surrogates,
    and it returns a float for an integer outside [-2**63, 2**64), so text
    with 19 or more digits in a row outside a fraction skips it.  Raises
    what the json path raises: UnicodeDecodeError, json.JSONDecodeError, or
    RecursionError for arrays or objects nested about a thousand deep, which
    orjson reads.
    """
    orjson = _orjson()
    if orjson is not None and _LONG_INT not in (b" " + raw).translate(_DIGITS_ONLY):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(raw.decode("utf-8"))


def _read_json(path):
    """The one JSON file read, `_loads` of its bytes; text that is not UTF-8,
    does not parse or nests too deep for json is a ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


_KINDS = {"object": dict, "list": list, "string": str}


def _fields(obj, spec: dict, where: str, required=()) -> dict:
    """The one object rule for JSON input: refuse a non-object, an unknown key,
    a missing `required` key and a present value of the wrong kind; return `obj`.

    `spec` maps each known key to "object", "list", "string", or None where a
    constructor checks the value.  `where` is `<file>: <json.path>` (top level
    `$`), or the bare path when there is no file.  No list is walked, so the
    cost is per key, not per array item.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: must be an object")
    unknown = obj.keys() - spec.keys()
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    for key, kind in spec.items():
        if kind is not None and key in obj and not isinstance(obj[key], _KINDS[kind]):
            child = where[:-1] + key if where.endswith("$") else f"{where}.{key}"
            raise ValueError(f"{child}: must be {'an' if kind == 'object' else 'a'} {kind}")
    return obj


def _dumps_floats(arr: np.ndarray) -> str:
    """`json.dumps(arr.tolist())` for a finite float64 array, byte for byte.

    orjson, when it imports (`_orjson`), encodes the array.  Its text equals
    `repr`'s for 0 and for magnitudes below 1e-9 or in [1e-4, 1e16).  Elsewhere
    it writes fixed notation, an unpadded exponent or one without its sign
    (`0.000015`, `1.5e-6`, `1e16`), so those values alone are re-encoded with
    `json.dumps`.  Values are picked one by one, not per array: every 3-D
    keypoint frame holds float dust (6.9e-18), and most blocks hold no odd value.
    """
    orjson = _orjson()
    if orjson is None:
        return json.dumps(arr.tolist())
    arr = np.ascontiguousarray(arr)
    raw = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)
    flat = arr.ravel()
    mag = np.abs(flat)
    odd = np.flatnonzero(((mag >= 1e-9) & (mag < 1e-4)) | (mag >= 1e16))
    if odd.size == 0:
        return raw.decode().replace(",", ", ")
    # Value i, with its brackets, is the text between commas i - 1 and i.  Only
    # the odd values' pieces are cut out, so no list of every number is built.
    commas = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord(","))
    parts, pos = [], 0
    for i in odd.tolist():
        start = int(commas[i - 1]) + 1 if i else 0
        end = int(commas[i]) if i < len(commas) else len(raw)
        piece = raw[start:end].decode()
        parts += [raw[pos:start].decode().replace(",", ", "),
                  piece.replace(piece.strip("[]"), json.dumps(float(flat[i])))]
        pos = end
    parts.append(raw[pos:].decode().replace(",", ", "))
    return "".join(parts)


def _check_version(payload: dict, expected: int, what: str, path) -> None:
    """The one file-format version rule: exactly the int `expected`, not true or 1.0."""
    version = payload.get("version")
    if type(version) is not int or version != expected:
        raise ValueError(f"unsupported {what} version {version!r} in {path}")


@dataclass(frozen=True)
class ControlSequence:
    """A fixed-rate sequence of control vectors, shape (frames, 17)."""

    values: np.ndarray
    fps: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != N_CHANNELS:
            raise ValueError(f"control sequence must have shape (T, {N_CHANNELS}), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("control sequence must contain at least one frame")
        if not np.all(np.isfinite(arr)):
            raise ValueError("control sequence contains non-finite values")
        problem = _number_problem(self.fps, "positive")
        if problem:
            raise ValueError(f"fps {problem}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "fps", float(self.fps))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def duration_seconds(self) -> float:
        return len(self) / self.fps

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, channel_index(name)]


@dataclass(frozen=True)
class Violation:
    """One rule failure: where, which channel, which rule, human-readable why."""

    rule: str
    channel: str
    message: str
    frame: int | None = None


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _validate_rows(values: np.ndarray, frames: Sequence[int | None]) -> ValidationReport:
    """Masked checks of every rule over (T, 17) values; frames[t] labels row t.

    Violations come out frame by frame, and within a frame in rule order:
    au_range, gaze_range, head_range (channel order), then gaze_opposition
    and lid_conflict (pair order).  Messages are formatted for hits only.
    """
    opposing = [(channel_index(a), channel_index(b)) for a, b in OPPOSING_GAZE_PAIRS]
    lids = [(channel_index(a), channel_index(b)) for a, b in LID_CONFLICT_PAIRS]
    # written as not-inside so that NaN counts as out of range
    hits = np.concatenate(
        [~((_RANGE_LO <= values) & (values <= _RANGE_HI))]
        + [((values[:, a] > 0.0) & (values[:, b] > 0.0))[:, None] for a, b in opposing]
        + [
            ((values[:, a] > LID_CONFLICT_LIMIT) & (values[:, b] > LID_CONFLICT_LIMIT))[:, None]
            for a, b in lids
        ],
        axis=1,
    )
    report = ValidationReport()
    for t, k in zip(*np.nonzero(hits)):
        row, frame = values[t], frames[t]
        if k < N_CHANNELS:
            name, v = CHANNEL_NAMES[k], row[k]
            lo, hi = CHANNEL_RANGES[name]
            family = "au" if k < N_AU else "gaze" if k < N_AU + N_GAZE else "head"
            unit = " deg" if family == "head" else ""
            violation = Violation(
                f"{family}_range", name, f"{name}={v:.4g} outside [{lo:g}, {hi:g}]{unit}", frame
            )
        elif k < N_CHANNELS + len(opposing):
            a, b = OPPOSING_GAZE_PAIRS[k - N_CHANNELS]
            va, vb = row[channel_index(a)], row[channel_index(b)]
            violation = Violation(
                "gaze_opposition",
                a,
                f"opposing gaze channels {a}={va:.4g} and {b}={vb:.4g} both active",
                frame,
            )
        else:
            raise_name, close_name = LID_CONFLICT_PAIRS[k - N_CHANNELS - len(opposing)]
            vr, vc = row[channel_index(raise_name)], row[channel_index(close_name)]
            violation = Violation(
                "lid_conflict",
                raise_name,
                f"{raise_name}={vr:.4g} and {close_name}={vc:.4g} both exceed {LID_CONFLICT_LIMIT}",
                frame,
            )
        report.violations.append(violation)
    return report


def validate_control_state(
    vec: np.ndarray | Sequence[float], frame: int | None = None
) -> ValidationReport:
    """Check one (17,) control vector against range and co-activation constraints.

    Rules reported: au_range, gaze_range, head_range, gaze_opposition,
    lid_conflict.  The report lists every failure, not just the first.
    This is `validate_sequence`'s check on a single frame; a vector of the
    wrong shape or with non-finite values raises ValueError.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (N_CHANNELS,):
        raise ValueError(f"control vector must have shape ({N_CHANNELS},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("control vector contains non-finite values")
    return _validate_rows(v[None], [frame])


def validate_sequence(seq: ControlSequence) -> ValidationReport:
    """Check every frame at once with masked array checks; frames are 1-based.

    The violations are the same, in the same frame-major order, as calling
    `validate_control_state` on each frame in turn.
    """
    return _validate_rows(seq.values, range(1, len(seq) + 1))


def resample_sequence(seq: ControlSequence, target_len: int) -> ControlSequence:
    """Linearly resample to target_len frames, preserving both endpoints.

    AU and gaze channels are clamped back into [0, 1] after interpolation;
    head angles are interpolated untouched.  Resampling to the same length
    returns the sequence unchanged.
    """
    if target_len < 1:
        raise ValueError(f"target_len must be >= 1, got {target_len}")
    n = len(seq)
    if target_len == n:
        return seq
    if n == 1:
        values = np.repeat(seq.values, target_len, axis=0)
        return ControlSequence(values, seq.fps)
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, target_len)
    out = np.empty((target_len, N_CHANNELS))
    for j in range(N_CHANNELS):
        out[:, j] = np.interp(dst, src, seq.values[:, j])
    unit = slice(0, N_AU + N_GAZE)
    out[:, unit] = np.clip(out[:, unit], _RANGE_LO[unit], _RANGE_HI[unit])
    return ControlSequence(out, seq.fps)


def enforce_state_invariants(values: np.ndarray) -> np.ndarray:
    """Project raw (T, 17) values onto the valid set; returns a new array.

    Clamps ranges, resolves opposing-gaze co-activation by keeping the net
    direction, and caps the weaker side of an AU5/AU43 conflict at 0.5.
    Already-valid input comes back unchanged (idempotent).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != N_CHANNELS:
        raise ValueError(f"expected (T, {N_CHANNELS}) values, got {values.shape}")
    out = np.clip(values, _RANGE_LO, _RANGE_HI)
    for a, b in OPPOSING_GAZE_PAIRS:
        ja, jb = channel_index(a), channel_index(b)
        both = (out[:, ja] > 0.0) & (out[:, jb] > 0.0)
        if np.any(both):
            net = out[both, ja] - out[both, jb]
            out[both, ja] = np.maximum(net, 0.0)
            out[both, jb] = np.maximum(-net, 0.0)
    for raise_name, close_name in LID_CONFLICT_PAIRS:
        jr, jc = channel_index(raise_name), channel_index(close_name)
        both = (out[:, jr] > LID_CONFLICT_LIMIT) & (out[:, jc] > LID_CONFLICT_LIMIT)
        if np.any(both):
            # closure wins ties: the raise channel is the one capped
            cap_raise = out[both, jr] <= out[both, jc]
            rows = np.where(both)[0]
            out[rows[cap_raise], jr] = LID_CONFLICT_LIMIT
            out[rows[~cap_raise], jc] = LID_CONFLICT_LIMIT
    return out


def mirror_control_vector(vec: np.ndarray) -> np.ndarray:
    """Bilateral mirror of a control vector or (T, 17) array.

    Swaps L/R channel pairs, swaps gaze_left/gaze_right, negates yaw and roll.
    """
    arr = np.asarray(vec, dtype=np.float64)
    out = arr.copy()
    for a, b in _MIRROR_SWAPS:
        ia, ib = channel_index(a), channel_index(b)
        out[..., ia], out[..., ib] = arr[..., ib].copy(), arr[..., ia].copy()
    for name in _MIRROR_NEGATE:
        out[..., channel_index(name)] = -out[..., channel_index(name)]
    return out


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".meta.json") if path.suffix == ".csv" else Path(str(path) + ".meta.json")


def save_controls_csv(seq: ControlSequence, path: str | Path) -> None:
    """Write one row per frame plus a sidecar metadata JSON carrying fps.

    Values are written as `repr` writes them, so they read back bit-exact.
    """
    path = Path(path)
    rows = _dumps_floats(seq.values)[2:-2].replace(", ", ",").split("],[")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(CSV_HEADER)
        fh.writelines(f"{t},{row}\r\n" for t, row in enumerate(rows, start=1))
    meta = {"fps": float(seq.fps), "version": CSV_FORMAT_VERSION}
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def load_controls_csv(path: str | Path, fps: float | None = None) -> ControlSequence:
    """Read a control CSV; fps comes from the sidecar unless overridden."""
    path = Path(path)
    if fps is None:
        sidecar = _sidecar_path(path)
        if not sidecar.exists():
            raise FileNotFoundError(
                f"missing sidecar {sidecar.name} next to {path.name} (pass fps explicitly to override)"
            )
        meta = _fields(_read_json(sidecar), {"fps": None, "version": None}, f"{sidecar}: $",
                       required=("fps",))
        _check_version(meta, CSV_FORMAT_VERSION, "controls format", sidecar)
        fps = meta["fps"]
        problem = _number_problem(fps, "positive")
        if problem:
            raise ValueError(f"{sidecar}: fps: {problem}")
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty controls file") from None
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no frames")
    try:
        return ControlSequence(np.asarray(rows), fps)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
