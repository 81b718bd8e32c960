"""Experiment driver: canonical runs behind a small command-line interface.

Every run resolves to one frozen config (defaults <- config file <- flags),
and every emitted file is a pure function of that config: seeds are derived
from ``seed`` through named sequences, floats are printed at 12 significant
digits, and files are written atomically. CSV tables get a ``.meta.json``
sidecar carrying the config echo, its hash, and the library version; JSON
outputs inline the same block. Wall time is reported on stdout only, so
repeated runs with one config are byte-identical.

Exit codes: 0 success, 2 config error, 3 file error, 4 refusal to
materialize a dense tensor past the size guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import random_cptp_channel, site_tensor
from .io import (
    ansatz_to_dict,
    channel_from_dict,
    complex_to_pairs,
    format_float,
    load_json,
    pairs_to_complex,
    write_csv_atomic,
    write_json_atomic,
)
from .measures import measure_series, nm_ee  # noqa: F401 -- nm_ee: a name bench/tracing.py hooks
from .models import UQDMParams, XXChainParams, ruqdm_channel, uqdm_memory_series, xx_chain_model
from .process_tensor import (
    MaterializationLimitError,
    ProcessTensorMPDO,
    _as_matrix,
    build,
    materialize,
    norm_sq,
)
from .reconstruct import FitReport, ReconstructionAnsatz, fit, predict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FILE = 3
EXIT_GUARD = 4

MODELS = ("xx_chain", "ruqdm", "random")

# |0><0| on the system: reconstruction targets need a pure initial state to
# be exactly representable by the pure-state ansatz (see README).
_PURE0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    gammas: tuple[float, ...]
    n: float
    delta: float
    coupling: float
    g: float
    k: int
    j_max: int
    grid_points: int
    D: int
    R: int
    k_schedule: tuple[int, ...]
    restarts: int
    max_iter: int
    seed: int
    output_dir: str
    output_format: str
    model: str
    env_dim: int
    kraus_rank: int
    channel_file: str | None
    paper_scale: bool


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_DEFAULT_GAMMAS = {
    "fig2a": (0.0, 1.0, 5.0),
    "fig2b": (5.0, 10.0, 20.0),
    "fig3": (0.5, 1.0, 2.0),
}

# flag -> config field; argparse has already typed each flag's value
_FLAG_KEYS = {"gamma": "gammas", "n": "n", "delta": "delta", "k": "k", "seed": "seed",
              "out": "output_dir", "format": "output_format", "env_dim": "env_dim",
              "kraus_rank": "kraus_rank"}


def _to_int(key: str, value) -> int:
    """An integer, or an integral float such as ``12.0``; never a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value)


def _to_float(key: str, value) -> float:
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # a non-number, or an int beyond float range
        finite = False
    if not finite:
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _to_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _to_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def _to_gammas(key: str, value) -> tuple[float, ...]:
    """A comma-separated string (the ``--gamma`` form), a list, or one number."""
    if isinstance(value, str):
        try:
            value = [float(p) for p in value.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"gamma list {value!r} is not numeric") from None
    parts = list(value) if isinstance(value, (list, tuple)) else [value]
    if not parts:
        raise ConfigError("gamma list is empty")
    return tuple(_to_float("gamma", p) for p in parts)


def _to_ints(key: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty list, got {value!r}")
    return tuple(_to_int(key, v) for v in value)


# one coercion per ExperimentConfig field, keyed by its annotation
_COERCE = {
    "str": _to_str,
    "str | None": lambda key, value: None if value is None else _to_str(key, value),
    "int": _to_int,
    "float": _to_float,
    "bool": _to_bool,
    "tuple[float, ...]": _to_gammas,
    "tuple[int, ...]": _to_ints,
}
_FIELDS = dataclasses.fields(ExperimentConfig)
_FILE_KEYS = {f.name for f in _FIELDS} - {"experiment"} | {"gamma"}
_POSITIVE_INTS = [f.name for f in _FIELDS if f.type == "int" and f.name != "seed"]


def resolve_config(experiment: str, file_cfg: dict, args: argparse.Namespace) -> ExperimentConfig:
    unknown = set(file_cfg) - _FILE_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if {"gamma", "gammas"} <= file_cfg.keys():
        raise ConfigError("config keys 'gamma' and 'gammas' name the same setting; give one")

    paper = _to_bool("paper_scale", file_cfg.get("paper_scale", False))
    paper = paper or getattr(args, "paper_scale", False)
    values = {
        "experiment": experiment,
        "gammas": _DEFAULT_GAMMAS.get(experiment, (5.0,)),
        "n": 0.5 if experiment == "fig2b" else 0.0,
        "delta": None,  # model-dependent, resolved below
        "coupling": 1.0,
        "g": 1.0,
        "k": 3 if experiment == "build" else (51 if paper else 20),
        "j_max": 200,
        "grid_points": 5000 if paper else 500,
        "D": 2,
        "R": 16,
        "k_schedule": (2, 3, 4, 5, 6),
        "restarts": 5 if paper else 2,
        "max_iter": 10000 if paper else 5000,
        "seed": 0,
        "output_dir": "results",
        "output_format": "csv",
        "model": "xx_chain",
        "env_dim": 2,
        "kraus_rank": 4,
        "channel_file": None,
        "paper_scale": paper,
    }
    for key, value in file_cfg.items():
        if key != "paper_scale":
            values["gammas" if key == "gamma" else key] = value
    for flag, key in _FLAG_KEYS.items():
        raw = getattr(args, flag, None)
        if raw is not None:
            values[key] = raw
    if values["delta"] is None:
        uqdm_like = experiment == "fig3" or values["model"] == "ruqdm"
        values["delta"] = 0.1 if uqdm_like else 0.3

    cfg = ExperimentConfig(**{f.name: _COERCE[f.type](f.name, values[f.name]) for f in _FIELDS})

    for key in _POSITIVE_INTS:
        value = getattr(cfg, key)
        if value < 1:
            raise ConfigError(f"config key {key!r} must be positive, got {value}")
        if value > sys.maxsize:  # past the index range, counts overflow as sequence lengths
            raise ConfigError(f"config key {key!r} must be at most {sys.maxsize}, got {value}")
    if min(cfg.k_schedule) < 1:
        raise ConfigError(f"k_schedule entries must be positive, got {list(cfg.k_schedule)}")
    if cfg.seed < 0:
        raise ConfigError(f"config key 'seed' must be nonnegative, got {cfg.seed}")
    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"output_format must be 'csv' or 'json', got {cfg.output_format!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg.model!r}")
    if cfg.experiment in ("fig2a", "fig2b") and cfg.k < 10:
        raise ConfigError(f"{cfg.experiment} needs k >= 10, got {cfg.k}")
    if cfg.experiment in ("fig2a", "fig2b", "reconstruct") and max(cfg.k_schedule) > cfg.k:
        raise ConfigError(
            f"k_schedule peaks at {max(cfg.k_schedule)} but the target has only k={cfg.k} steps"
        )
    if any(g < 0 for g in cfg.gammas):
        raise ConfigError("gamma values must be nonnegative")
    if not 0.0 <= cfg.n <= 1.0:
        raise ConfigError(f"n must lie in [0, 1], got {cfg.n}")
    if cfg.delta <= 0:
        raise ConfigError(f"delta must be positive, got {cfg.delta}")
    return cfg


# ---------------------------------------------------------------------------
# Result bundle
# ---------------------------------------------------------------------------


@dataclass
class ResultBundle:
    """Everything one run produced: metadata, series tables, fit reports.

    Nothing in it depends on the clock, so outputs stay byte-identical across
    repeated runs.
    """

    metadata: dict
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]]
    reports: dict[str, dict]

    def write(self, out_dir: str, fmt: str) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        written: list[str] = []
        for name, (header, rows) in self.tables.items():
            if fmt == "csv":
                path = os.path.join(out_dir, f"{name}.csv")
                write_csv_atomic(path, header, rows)
                sidecar = os.path.join(out_dir, f"{name}.meta.json")
                write_json_atomic(sidecar, self.metadata)
                written += [path, sidecar]
            else:
                path = os.path.join(out_dir, f"{name}.json")
                write_json_atomic(
                    path,
                    {
                        "metadata": self.metadata,
                        "header": list(header),
                        "rows": [[_json_number(c) for c in row] for row in rows],
                    },
                )
                written.append(path)
        for name, report in self.reports.items():
            path = os.path.join(out_dir, f"{name}.json")
            write_json_atomic(path, {"metadata": self.metadata, **report})
            written.append(path)
        return written


def _json_number(value):
    if isinstance(value, float):
        return float(format_float(value))
    return value


# ---------------------------------------------------------------------------
# Model -> target plumbing
# ---------------------------------------------------------------------------


def _seed_seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), *[int(x) for x in key]])


def _xx_target(cfg: ExperimentConfig, gamma: float, k: int, pure_system: bool) -> ProcessTensorMPDO:
    params = XXChainParams(
        gamma=gamma,
        n=cfg.n,
        delta=cfg.delta,
        coupling=cfg.coupling,
        rho0_system=_PURE0 if pure_system else None,
    )
    w, rho0 = xx_chain_model(params)
    return build(w, rho0, k)


def _pure0_joint(dim: int) -> np.ndarray:
    """|0><0| on the joint system-environment space of dimension ``dim``."""
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    return rho0


def _model_process_tensor(cfg: ExperimentConfig, pure_system: bool) -> ProcessTensorMPDO:
    if cfg.channel_file is not None:
        return _target_from_file(cfg)
    if cfg.model == "xx_chain":
        return _xx_target(cfg, cfg.gammas[0], cfg.k, pure_system)
    if cfg.model == "ruqdm":
        w = ruqdm_channel(cfg.gammas[0], cfg.delta)
        return build(w, np.eye(2, dtype=complex) / 2.0, cfg.k)
    rng = np.random.default_rng(_seed_seq(cfg.seed, 71))
    kraus = random_cptp_channel(2, cfg.env_dim, cfg.kraus_rank, rng)
    return build(site_tensor(kraus), _pure0_joint(2 * cfg.env_dim), cfg.k)


def _target_from_file(cfg: ExperimentConfig) -> ProcessTensorMPDO:
    data = load_json(cfg.channel_file)
    kraus = channel_from_dict(data)
    dim = kraus.shape[1] * kraus.shape[2]
    if "rho0" in data:
        rho0 = pairs_to_complex(data["rho0"], "rho0")
        if rho0.shape != (dim, dim):
            raise ValueError(f"field 'rho0' has shape {rho0.shape}, expected {(dim, dim)}")
    else:
        rho0 = _pure0_joint(dim)
    return build(site_tensor(kraus), rho0, cfg.k)


# ---------------------------------------------------------------------------
# Measure helpers
# ---------------------------------------------------------------------------


def _measure_rows(pt: ProcessTensorMPDO) -> list[tuple]:
    """Rows (j, N^osee_j, N^ee_j, boundary_flag) for j = 1..k-1.

    A drifting environment trace raises ``ValueError`` at its first bad step
    (see ``ptnm.process_tensor._env_states``).
    """
    osee = measure_series(pt, "osee")
    ee = measure_series(pt, "ee")  # steps 1..k; zip drops step k
    return [
        (j, osee_j, ee_j, 1 if j in osee.boundary_flagged else 0)
        for j, osee_j, ee_j in zip(osee.steps, osee.values, ee.values)
    ]


def _mid_entropy(ansatz: ReconstructionAnsatz, k: int) -> float:
    """Largest fitted environment entropy over the mid-range band of steps
    (clear of the initial transient and the right boundary), from one series."""
    band = sorted({max(1, round(f * k)) for f in (0.4, 0.55, 0.7)})
    series = measure_series(predict(ansatz, band[-1]), "ee")
    return max(series.value_at(j) for j in band)


def _fit_selected(
    target: ProcessTensorMPDO,
    cfg: ExperimentConfig,
    curve_index: int,
) -> tuple[ReconstructionAnsatz, FitReport, int]:
    """Fit with ``cfg.restarts`` starts, which differ only in their seed, and
    pick the candidate with the least environment use among (near-)ties in
    loss.

    The loss alone does not identify the model: representations far apart in
    environment entropy can reproduce the same process. Reconstruction is
    after the smallest environment consistent with the data, so among
    candidates converged to ``FTOL`` -- or, when nothing converges, within a
    factor 2 of the best achieved loss -- the one with the smallest mid-range
    environment entropy wins.
    """
    candidates = []
    for r in range(cfg.restarts):
        ansatz, report = fit(
            target,
            D=cfg.D,
            R=cfg.R,
            k_schedule=cfg.k_schedule,
            max_iter=cfg.max_iter,
            seed=_seed_seq(cfg.seed, curve_index, r),
        )
        candidates.append((ansatz, report, r))
    tied = [(ans, rep, r) for ans, rep, r in candidates if rep.converged]
    if not tied:
        best_loss = min(rep.final_loss for _, rep, _ in candidates)
        tied = [(ans, rep, r) for ans, rep, r in candidates if rep.final_loss <= 2.0 * best_loss]
    scored = [
        (_mid_entropy(ans, target.k), rep.final_loss, r, ans, rep) for ans, rep, r in tied
    ]
    scored.sort(key=lambda t: (t[0], t[1], t[2]))
    _, _, r, ansatz, report = scored[0]
    return ansatz, report, r


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def run_fig2(cfg: ExperimentConfig) -> ResultBundle:
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}
    reports: dict[str, dict] = {}
    non_converged: list[float] = []
    for idx, gamma in enumerate(cfg.gammas):
        target = _xx_target(cfg, gamma, cfg.k, pure_system=True)
        ansatz, report, chosen = _fit_selected(target, cfg, idx)
        if not report.converged:
            non_converged.append(gamma)
        fitted = predict(ansatz, cfg.k)
        name = f"{cfg.experiment}_gamma{gamma:g}"
        tables[name] = (("j", "nm_osee", "nm_ee", "boundary_flag"), _measure_rows(fitted))
        reports[f"{name}_fit"] = {
            "gamma": gamma,
            "n": cfg.n,
            "selected_restart": chosen,
            **dataclasses.asdict(report),
        }
    metadata = _metadata(cfg)
    metadata["non_converged_gammas"] = non_converged
    return ResultBundle(metadata, tables, reports)


def run_fig3(cfg: ExperimentConfig) -> ResultBundle:
    rows: list[tuple] = []
    for gamma in cfg.gammas:
        params = UQDMParams(
            gamma=gamma, delta=cfg.delta, g=cfg.g, grid_points=cfg.grid_points
        )
        series = uqdm_memory_series(params, cfg.j_max)
        rows.append((gamma, 0, 0.0))  # pure initial environment
        rows += [(gamma, j, value) for j, value in zip(series.steps, series.values)]
    return ResultBundle(_metadata(cfg), {"fig3": (("gamma", "j", "memory_complexity"), rows)}, {})


def run_measure(cfg: ExperimentConfig) -> ResultBundle:
    pt = _model_process_tensor(cfg, pure_system=False)
    rows = _measure_rows(pt)
    return ResultBundle(
        _metadata(cfg), {"measure": (("j", "nm_osee", "nm_ee", "boundary_flag"), rows)}, {}
    )


def run_reconstruct(cfg: ExperimentConfig) -> ResultBundle:
    target = _model_process_tensor(cfg, pure_system=True)
    ansatz, report, chosen = _fit_selected(target, cfg, 0)
    fitted = predict(ansatz, cfg.k)
    metadata = _metadata(cfg)
    metadata["non_converged"] = not report.converged
    rows = _measure_rows(fitted)
    tables = {"reconstruct_measures": (("j", "nm_osee", "nm_ee", "boundary_flag"), rows)}
    reports = {
        "reconstruct_ansatz": ansatz_to_dict(ansatz),
        "reconstruct_fit": {"selected_restart": chosen, **dataclasses.asdict(report)},
    }
    return ResultBundle(metadata, tables, reports)


def run_build(cfg: ExperimentConfig) -> ResultBundle:
    pt = _model_process_tensor(cfg, pure_system=False)
    dense = materialize(pt)
    report = {
        "d": pt.d,
        "D": pt.D,
        "k": pt.k,
        "norm_sq": float(format_float(norm_sq(pt))),
        "upsilon": complex_to_pairs(_as_matrix(dense)),
    }
    return ResultBundle(_metadata(cfg), {}, {"build": report})


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "version": __version__,
    }


_RUNNERS = {
    "fig2a": run_fig2,
    "fig2b": run_fig2,
    "fig3": run_fig3,
    "reconstruct": run_reconstruct,
    "measure": run_measure,
    "build": run_build,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once on first use."""
    parser = argparse.ArgumentParser(
        prog="ptnm",
        description="Process-tensor non-Markovianity experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default: results)")
        p.add_argument("--format", choices=("csv", "json"), help="table output format")
        p.add_argument("--seed", type=int, help="master seed (default: 0)")
        p.add_argument("--paper-scale", action="store_true",
                       help="full-size run: k=51, 5000 grid points, 5 restarts")
        p.add_argument("--k", type=int, help="number of process-tensor steps")
        p.add_argument("--gamma", help="comma-separated dissipation rate(s)")
        p.add_argument("--n", type=float, help="dissipator excitation parameter in [0, 1]")
        p.add_argument("--delta", type=float, help="time-step length")
        p.add_argument("--env-dim", dest="env_dim", type=int,
                       help="environment dimension for model=random")
        p.add_argument("--kraus-rank", dest="kraus_rank", type=int,
                       help="Kraus rank for model=random")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_cfg = load_json(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    try:
        cfg = resolve_config(args.experiment, file_cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    t0 = time.perf_counter()
    try:
        bundle = _RUNNERS[cfg.experiment](cfg)
    except MaterializationLimitError as exc:
        print(f"materialization refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except ValueError as exc:
        kind, code = (
            ("file", EXIT_FILE) if cfg.channel_file is not None else ("config", EXIT_CONFIG)
        )
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code
    wall_time = time.perf_counter() - t0
    try:
        written = bundle.write(cfg.output_dir, cfg.output_format)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    for path in written:
        print(path)
    if bundle.metadata.get("non_converged_gammas"):
        flagged = ", ".join(f"{g:g}" for g in bundle.metadata["non_converged_gammas"])
        print(f"note: fit did not converge for gamma = {flagged}")
    print(f"done in {wall_time:.1f}s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
