"""Serialization helpers: complex arrays in JSON, atomic file output.

Complex numbers are stored as ``[re, im]`` pairs everywhere so containers
stay valid JSON; arrays become nested lists with the pair innermost. Files
are written to a temporary sibling and renamed into place so readers never
observe a half-written result.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .reconstruct import ReconstructionAnsatz


def complex_to_pairs(arr: np.ndarray):
    """Nested lists mirroring ``arr``'s shape, complex entries as [re, im]."""
    a = np.asarray(arr, dtype=complex)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data, name: str = "array") -> np.ndarray:
    try:
        stacked = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r} is not a numeric [re, im] nest: {exc}") from None
    if stacked.ndim < 1 or stacked.shape[-1] != 2:
        raise ValueError(f"field {name!r} must have [re, im] pairs innermost")
    return stacked[..., 0] + 1j * stacked[..., 1]


def _positive_int(data: dict, key: str) -> int:
    """A dimension field: a JSON integer of at least one, never a bool."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"field {key!r} must be a positive integer, got {value!r}")
    return value


def ansatz_to_dict(ansatz: ReconstructionAnsatz) -> dict:
    return {
        "d": ansatz.d,
        "D": ansatz.D,
        "R": ansatz.R,
        "a_bar": complex_to_pairs(ansatz.a_bar),
        "psi0": complex_to_pairs(ansatz.psi0),
    }


def channel_from_dict(data: dict) -> np.ndarray:
    """The Kraus stack ``(R, d, D, d, D)`` of a channel container: at least
    one and at most ``(d*D)**2`` operators, each ``(d*D, d*D)``. Trace
    preservation is left to ``ProcessTensorMPDO``, which every target built
    from the stack passes through."""
    for key in ("d", "D", "kraus"):
        if key not in data:
            raise ValueError(f"channel container is missing field {key!r}")
    d, dd = _positive_int(data, "d"), _positive_int(data, "D")
    if not isinstance(data["kraus"], list):
        raise ValueError(f"field 'kraus' must be a list of operators, got {data['kraus']!r}")
    ops = [pairs_to_complex(op, f"kraus[{t}]") for t, op in enumerate(data["kraus"])]
    m = d * dd
    for t, op in enumerate(ops):
        if op.shape != (m, m):
            raise ValueError(f"field 'kraus[{t}]' has shape {op.shape}, expected {(m, m)}")
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    if len(ops) > m * m:
        raise ValueError(f"{len(ops)} Kraus operators exceed the maximum {m * m}")
    return np.stack(ops).reshape(-1, d, dd, d, dd)


def write_json_atomic(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str) -> dict:
    """A JSON file whose top level is an object, as a dict."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(data).__name__}")
    return data


def format_float(value: float) -> str:
    return "%.12g" % (value + 0.0)  # +0.0 folds -0.0 into 0


def write_csv_atomic(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV with floats at 12 significant digits (deterministic output)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                format_float(c) if isinstance(c, float) else str(c) for c in row
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
