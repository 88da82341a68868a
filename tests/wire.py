"""Shared cases for the wire-format tests: both orjson paths, the edges of repr's notation.

Every float-array writer goes through one encoder, and every JSON input
through one reader, that use orjson when it imports and `json` otherwise, so
each wire test runs twice: as installed, and with orjson hidden.
"""
import sys

import numpy as np
import pytest

# repr writes fixed notation for magnitudes in [1e-4, 1e16) and an exponent
# outside it, padded to two digits; these sit on both sides of those edges and
# of 1e-9, where the padding ends, plus the float64 extremes and the float
# dust that 3-D keypoints carry.
_EDGES = (
    0.0, 5e-324, 6.938893903907228e-18, 9.999999999999999e-10, 1e-9, 1.5e-5,
    9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, 1.7976931348623157e308,
)
EDGE_VALUES = _EDGES + tuple(-x for x in _EDGES)  # -0.0 included

ORJSON_PATHS = ("installed", "without-orjson")


def use_encoder_path(monkeypatch, path: str) -> None:
    """Hide orjson from the encoder and the reader when `path` is "without-orjson"."""
    if path == "without-orjson":
        monkeypatch.setitem(sys.modules, "orjson", None)


def with_edges(arr: np.ndarray) -> np.ndarray:
    """A copy of `arr` whose first cells, in ravel order, hold EDGE_VALUES."""
    out = np.array(arr, dtype=np.float64)
    out.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    return out


def paths_params(cases, ids):
    """`pytest.param`s of each case on both encoder paths.

    The installed path keeps the case's own id, so parametrizing a test over
    the paths does not rename its existing cases.
    """
    return [
        pytest.param(*case, path, id=case_id if path == "installed" else f"{case_id}-{path}")
        for path in ORJSON_PATHS
        for case, case_id in zip(cases, ids)
    ]
