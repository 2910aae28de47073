"""Versioned JSON checkpoints, exact and read or written a parameter at a time.

A version 2 file is one JSON document laid out one parameter per line:

    {"format": "cavlab-checkpoint", "version": 2, "architecture": {...}, "extra": {...}, "params": [
    {"name": "actor.encoder.W", "shape": [6, 64], "data": "<base64>"},
    ...
    {"name": "critic_head.b", "shape": [1], "data": "<base64>"}
    ]}

The first line is the header; each parameter line ends in a comma but the
last; the closing line `]}` ends the document, so `json.load` reads the
whole file and a file cut short has none. `data` holds the values as
float64 little-endian bytes in base64: they decode to the saved bits with
no decimal round trip, in about half the bytes of their decimal text.
`save_checkpoint` and `load_checkpoint` hold one parameter's text and values
at a time.

Version 1 files (one line: `params` an object of {shape, data} with the
values as JSON numbers) still load. Either reader takes only finite values
and raises IncompatibleCheckpoint naming the file, and the parameter where
there is one, for anything else.
"""
from __future__ import annotations

import base64
import json
import math

import numpy as np

from .errors import IncompatibleCheckpoint
from .tensor import Tensor

FORMAT = "cavlab-checkpoint"
VERSION = 2
LEGACY_VERSION = 1
HEADER_END = ', "params": [\n'
CLOSING = "]}\n"


def save_checkpoint(path, params: dict[str, Tensor], architecture: dict,
                    extra: dict | None = None) -> None:
    """Write a version 2 checkpoint (see the module doc), one line at a time."""
    head = json.dumps({"format": FORMAT, "version": VERSION, "architecture": architecture,
                       "extra": extra or {}})
    with open(path, "w") as fh:
        fh.write(head[:-1] + HEADER_END)
        sep = ""
        for name, p in params.items():
            data = base64.b64encode(np.asarray(p.data, dtype="<f8").tobytes()).decode("ascii")
            # base64 needs no JSON escape, so the values skip json.dumps's scan
            fh.write(f'{sep}{{"name": {json.dumps(name)}, '
                     f'"shape": {json.dumps(list(p.data.shape))}, "data": "{data}"}}')
            sep = ",\n"
        fh.write(("\n" if params else "") + CLOSING)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict, dict]:
    """Returns (params, architecture, extra) of a version 2 or a version 1
    file; anything else, a cut-short file, a parameter named twice, a
    malformed header or parameter, or a value that is not a finite number,
    raises IncompatibleCheckpoint naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            head = fh.readline()
            if head.endswith(HEADER_END):
                header = _json(head[:-len(HEADER_END)] + "}", f"{path}: its header")
                _check_header(path, header, VERSION)
                params = _read_lines(path, fh)
            else:   # one document: version 1
                header = _json(head + fh.read(), str(path))
                _check_header(path, header, LEGACY_VERSION)
                params = _read_legacy(path, header.get("params"))
    except UnicodeDecodeError as exc:
        raise IncompatibleCheckpoint(f"{path} is not JSON text: {exc}") from None
    return params, header["architecture"], header.get("extra", {})


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise IncompatibleCheckpoint(f"{what} is not JSON: {exc}") from None


def _check_header(path, header, version: int) -> None:
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise IncompatibleCheckpoint(f"{path} is not a {FORMAT} file")
    if header.get("version") != version:
        layout = "one parameter per line" if version == VERSION else "one document"
        raise IncompatibleCheckpoint(
            f"{path}: checkpoint version {header.get('version')!r} != {version} ({layout})")
    if not isinstance(header.get("architecture"), dict):
        raise IncompatibleCheckpoint(f"{path} holds no architecture object")
    if not isinstance(header.get("extra", {}), dict):
        raise IncompatibleCheckpoint(f"{path} holds no extra object")


def _read_lines(path, fh) -> dict[str, np.ndarray]:
    """The parameter lines and the closing line of a version 2 file."""
    params, name, last = {}, None, False
    for line in fh:
        if line == CLOSING and (last or not params):
            if fh.read():
                raise IncompatibleCheckpoint(f"{path} holds more after its closing line")
            return params
        if not line.endswith("\n"):   # cut short inside a line
            break
        where = f"the line after parameter {name!r}" if params else "the first parameter line"
        if last:
            raise IncompatibleCheckpoint(f"{path}: {where} is not the closing line")
        last = not line.endswith(",\n")
        record = _json(line[:-1] if last else line[:-2], f"{path}: {where}")
        if not (isinstance(record, dict) and set(record) == {"name", "shape", "data"}
                and isinstance(record["name"], str)):
            raise IncompatibleCheckpoint(
                f"{path}: {where} is not a parameter's name, shape and data")
        name = record["name"]
        if name in params:
            raise IncompatibleCheckpoint(f"{path}: parameter {name!r} is named twice")
        params[name] = _decode(path, name, record["shape"], record["data"])
    raise IncompatibleCheckpoint(
        f"{path} is cut short after {f'parameter {name!r}' if params else 'its header'}: "
        "no closing line")


def _decode(path, name: str, shape, data) -> np.ndarray:
    """A version 2 parameter: `data` in strict base64, exactly prod(shape)
    finite float64 values."""
    _check_shape(path, name, shape)
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:   # not a string, not ASCII, not base64
        raise IncompatibleCheckpoint(
            f"{path}: parameter {name!r} data is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise IncompatibleCheckpoint(
            f"{path}: parameter {name!r} data does not hold the {math.prod(shape)} "
            f"float64 values of shape {shape!r}")
    return _finite(path, name, np.frombuffer(raw, dtype="<f8").astype(np.float64)
                   .reshape(shape))


def _read_legacy(path, entries) -> dict[str, np.ndarray]:
    """The `params` object of a version 1 file: each entry's `data` a flat
    list of exactly prod(shape) finite JSON numbers."""
    if not isinstance(entries, dict):
        raise IncompatibleCheckpoint(f"{path} holds no params object")
    params = {}
    for name, entry in entries.items():
        if not (isinstance(entry, dict) and "shape" in entry and "data" in entry):
            raise IncompatibleCheckpoint(f"{path}: parameter {name!r} has no shape and data")
        shape, data = entry["shape"], entry["data"]
        _check_shape(path, name, shape)
        if not (isinstance(data, list) and all(type(x) in (float, int) for x in data)):
            raise IncompatibleCheckpoint(
                f"{path}: parameter {name!r} data is not a list of numbers")
        if len(data) != math.prod(shape):
            raise IncompatibleCheckpoint(
                f"{path}: parameter {name!r} does not read as shape {shape!r}: "
                f"{len(data)} values")
        try:
            values = np.array(data, dtype=np.float64).reshape(shape)
        except OverflowError:   # an integer beyond float64
            raise IncompatibleCheckpoint(
                f"{path}: parameter {name!r} holds a value beyond float64") from None
        params[name] = _finite(path, name, values)
    return params


def _check_shape(path, name: str, shape) -> None:
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise IncompatibleCheckpoint(
            f"{path}: parameter {name!r} shape {shape!r} is not a list of sizes")


def _finite(path, name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise IncompatibleCheckpoint(f"{path}: parameter {name!r} holds a non-finite value")
    return values


def restore_params(target: dict[str, Tensor], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into live parameters; names and shapes must match."""
    missing = set(target) - set(loaded)
    surplus = set(loaded) - set(target)
    if missing or surplus:
        raise IncompatibleCheckpoint(
            f"parameter name mismatch: missing={sorted(missing)} surplus={sorted(surplus)}")
    for name, p in target.items():
        if tuple(loaded[name].shape) != p.data.shape:
            raise IncompatibleCheckpoint(
                f"shape mismatch for {name}: {loaded[name].shape} != {p.data.shape}")
        p.data = loaded[name].copy()
