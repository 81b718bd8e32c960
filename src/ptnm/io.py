"""Serialization helpers: complex arrays in JSON, atomic file output.

Complex numbers are stored as ``[re, im]`` pairs everywhere so containers
stay valid JSON; arrays become nested lists with the pair innermost. Files
are written to a temporary sibling and renamed into place so readers never
observe a half-written result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .channels import KrausChannel
from .reconstruct import FitReport, ReconstructionAnsatz


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


def ansatz_from_dict(data: dict) -> ReconstructionAnsatz:
    for key in ("d", "D", "R", "a_bar", "psi0"):
        if key not in data:
            raise ValueError(f"ansatz container is missing field {key!r}")
    r, d, dd = (_positive_int(data, key) for key in ("R", "d", "D"))
    a_bar = pairs_to_complex(data["a_bar"], "a_bar")
    psi0 = pairs_to_complex(data["psi0"], "psi0")
    expected = (r, d, dd, d, dd)
    if a_bar.shape != expected:
        raise ValueError(f"field 'a_bar' has shape {a_bar.shape}, expected {expected}")
    return ReconstructionAnsatz(a_bar, psi0)


def channel_to_dict(channel: KrausChannel) -> dict:
    return {
        "d": channel.d,
        "D": channel.D,
        "kraus": [complex_to_pairs(op) for op in channel.kraus],
    }


def channel_from_dict(data: dict) -> KrausChannel:
    for key in ("d", "D", "kraus"):
        if key not in data:
            raise ValueError(f"channel container is missing field {key!r}")
    d, dd = _positive_int(data, "d"), _positive_int(data, "D")
    ops = tuple(
        pairs_to_complex(op, f"kraus[{t}]") for t, op in enumerate(data["kraus"])
    )
    for t, op in enumerate(ops):
        if op.shape != (d * dd, d * dd):
            raise ValueError(
                f"field 'kraus[{t}]' has shape {op.shape}, expected {(d * dd, d * dd)}"
            )
    return KrausChannel(ops, d, dd)


def fit_report_to_dict(report: FitReport) -> dict:
    return {
        "final_loss": report.final_loss,
        "loss_history": list(report.loss_history),
        "k_schedule": list(report.k_schedule),
        "normalization_residual": report.normalization_residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "stages": [dataclasses.asdict(stage) for stage in report.stages],
    }


def write_json_atomic(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None


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
