"""Versioned JSON checkpoints with exact float round-trip.

Values are serialized through Python float repr, so save -> load -> forward
reproduces bit-identical outputs.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import IncompatibleCheckpoint
from .tensor import Tensor

FORMAT = "cavlab-checkpoint"
VERSION = 1


def save_checkpoint(path, params: dict[str, Tensor], architecture: dict,
                    extra: dict | None = None) -> None:
    """Write `json.dumps` of {format, version, architecture, params: {name:
    {shape, data}}, extra (when given)}, the same bytes, one parameter at a
    time: a save holds one parameter's floats and text, not all of them
    (json.dump would write the same bytes in many small writes)."""
    head = json.dumps({"format": FORMAT, "version": VERSION, "architecture": architecture})
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "params": {')
        for i, (name, p) in enumerate(params.items()):
            entry = {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
            fh.write(f'{", " if i else ""}{json.dumps(name)}: {json.dumps(entry)}')
        fh.write("}" + (f', "extra": {json.dumps(extra)}' if extra else "") + "}")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict, dict]:
    """Returns (params, architecture, extra). A file that is not a
    checkpoint of this format and version, or whose architecture or
    parameters are missing or malformed, raises IncompatibleCheckpoint
    naming it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:   # not JSON, or not text
            raise IncompatibleCheckpoint(f"{path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise IncompatibleCheckpoint(f"{path} is not a {FORMAT} file")
    if payload.get("version") != VERSION:
        raise IncompatibleCheckpoint(
            f"{path}: checkpoint version {payload.get('version')} != {VERSION}")
    architecture, entries = payload.get("architecture"), payload.get("params")
    for key, value in (("architecture", architecture), ("params", entries)):
        if not isinstance(value, dict):
            raise IncompatibleCheckpoint(f"{path} holds no {key} object")
    params = {}
    for name, entry in entries.items():
        if not (isinstance(entry, dict) and "shape" in entry and "data" in entry):
            raise IncompatibleCheckpoint(f"{path}: parameter {name!r} has no shape and data")
        try:
            params[name] = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise IncompatibleCheckpoint(
                f"{path}: parameter {name!r} does not read as shape {entry['shape']!r}: "
                f"{exc}") from None
    return params, architecture, payload.get("extra", {})


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
