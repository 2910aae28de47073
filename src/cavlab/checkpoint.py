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
    """Returns (params, architecture, extra)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != FORMAT:
        raise IncompatibleCheckpoint(f"{path} is not a {FORMAT} file")
    if payload.get("version") != VERSION:
        raise IncompatibleCheckpoint(
            f"checkpoint version {payload.get('version')} != {VERSION}")
    params = {
        name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    return params, payload["architecture"], payload.get("extra", {})


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
