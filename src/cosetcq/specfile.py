"""Strict JSON serialization of channels.

A channel file is either an explicit listing::

    {
      "input_sizes": [2, 2, 2],
      "output_dims": [2, 2, 2],
      "costs": [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
      "states": {"0,0,0": {"re": [[...]], "im": [[...]]}, ...}
    }

or a named shortcut::

    {"example": 2, "delta1": 0.01, "delta": 0.1}

Unknown keys are rejected with their path.  Matrices are written row-major
as separate real and imaginary parts; floats use shortest round-tripping
decimal text, so a serialize/parse cycle reproduces every entry exactly.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .channels import CqChannel, example1_channel, example2_channel
from .errors import SpecFileError
from .linalg import DensityOperator

__all__ = ["parse_channel", "parse_channel_file", "serialize_channel", "write_channel_file"]

_EXPLICIT_KEYS = {"input_sizes", "output_dims", "costs", "states"}
_SHORTCUT_KEYS = {"example", "delta1", "delta"}


def _fail(path: str, message: str):
    raise SpecFileError(f"{path}: {message}")


def _expect_int_list(obj, length: int, path: str) -> tuple:
    if not isinstance(obj, list) or len(obj) != length:
        _fail(path, f"expected a list of {length} integers")
    for i, v in enumerate(obj):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            _fail(f"{path}[{i}]", "expected a positive integer")
    return tuple(obj)


def _expect_matrix(obj, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        _fail(path, f"expected {rows} rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"{path}[{i}]", f"expected {cols} entries")
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                _fail(f"{path}[{i}][{j}]", "expected a number")
    return np.array(obj, dtype=float).reshape(rows, cols)


def parse_channel(doc: dict) -> CqChannel:
    """Build a channel from a parsed JSON document (strict schema)."""
    if not isinstance(doc, dict):
        raise SpecFileError("top level: expected a JSON object")
    keys = set(doc)
    if keys <= _SHORTCUT_KEYS and "example" in keys:
        missing = _SHORTCUT_KEYS - keys
        if missing:
            _fail("top level", f"shortcut form is missing keys {sorted(missing)}")
        example = doc["example"]
        if example not in (1, 2):
            _fail("example", f"must be 1 or 2, got {example!r}")
        for key in ("delta1", "delta"):
            if not isinstance(doc[key], (int, float)) or isinstance(doc[key], bool):
                _fail(key, "expected a number")
        factory = example1_channel if example == 1 else example2_channel
        try:
            return factory(float(doc["delta1"]), float(doc["delta"]))
        except ValueError as exc:
            raise SpecFileError(f"example parameters: {exc}") from exc
    unknown = keys - _EXPLICIT_KEYS
    if unknown:
        _fail("top level", f"unknown keys {sorted(unknown)}")
    missing = _EXPLICIT_KEYS - keys
    if missing:
        _fail("top level", f"missing keys {sorted(missing)}")
    sizes = _expect_int_list(doc["input_sizes"], 3, "input_sizes")
    dims = _expect_int_list(doc["output_dims"], 3, "output_dims")
    total = int(np.prod(dims))
    costs = []
    if not isinstance(doc["costs"], list) or len(doc["costs"]) != 3:
        _fail("costs", "expected three cost tables")
    for j, table in enumerate(doc["costs"]):
        mat = _expect_matrix([table], 1, sizes[j], f"costs[{j}]")
        costs.append(mat[0])
    if not isinstance(doc["states"], dict):
        _fail("states", "expected an object keyed by input triples")
    inputs = {",".join(map(str, x)): x for x in itertools.product(*map(range, sizes))}
    states = {}
    for key, x in inputs.items():
        if key not in doc["states"]:
            _fail("states", f"missing entry for input {key!r}")
        entry = doc["states"][key]
        if not isinstance(entry, dict) or set(entry) != {"re", "im"}:
            _fail(f"states[{key!r}]", "expected exactly the keys 're' and 'im'")
        re = _expect_matrix(entry["re"], total, total, f"states[{key!r}].re")
        im = _expect_matrix(entry["im"], total, total, f"states[{key!r}].im")
        try:
            states[x] = DensityOperator(re + 1j * im)
        except ValueError as exc:
            raise SpecFileError(f"states[{key!r}]: {exc}") from exc
    extra = set(doc["states"]) - set(inputs)
    if extra:
        _fail("states", f"unknown input triples {sorted(extra)}")
    try:
        return CqChannel(sizes, dims, states, tuple(costs))
    except ValueError as exc:
        raise SpecFileError(f"channel: {exc}") from exc


def parse_channel_file(path: str) -> CqChannel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_channel(doc)


def serialize_channel(channel: CqChannel) -> dict:
    """Explicit-form document for a channel (floats kept exactly)."""
    states = {}
    for x in channel.inputs():
        mat = channel.states[x].matrix
        states[",".join(str(v) for v in x)] = {
            "re": [[float(v) for v in row] for row in mat.real],
            "im": [[float(v) for v in row] for row in mat.imag],
        }
    return {
        "input_sizes": list(channel.input_sizes),
        "output_dims": list(channel.output_dims),
        "costs": [[float(v) for v in table] for table in channel.costs],
        "states": states,
    }


def write_channel_file(channel: CqChannel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_channel(channel), fh, indent=1)
        fh.write("\n")
