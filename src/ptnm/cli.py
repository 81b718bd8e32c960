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
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import kraus_to_w, random_cptp_channel
from .io import (
    ansatz_to_dict,
    channel_from_dict,
    complex_to_pairs,
    fit_report_to_dict,
    format_float,
    load_json,
    pairs_to_complex,
    write_csv_atomic,
    write_json_atomic,
)
from .measures import TRACE_TOL, _entropy_of_state, measure_series, nm_ee
from .models import UQDMParams, XXChainParams, ruqdm_channel, uqdm_memory_series, xx_chain_model
from .process_tensor import (
    MaterializationLimitError,
    ProcessTensorMPDO,
    _as_matrix,
    _env_states,
    build,
    materialize,
    norm_sq,
)
from .reconstruct import FTOL, FitReport, ReconstructionAnsatz, fit, predict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FILE = 3
EXIT_GUARD = 4

MATERIALIZE_GUARD = 4  # build refuses dense contraction past this many steps

EXPERIMENTS = ("fig2a", "fig2b", "fig3", "reconstruct", "measure", "build")
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

    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["gammas"] = list(self.gammas)
        data["k_schedule"] = list(self.k_schedule)
        return data


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.as_dict(), sort_keys=True)
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
        if getattr(cfg, key) < 1:
            raise ConfigError(f"config key {key!r} must be positive, got {getattr(cfg, key)}")
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

    ``metadata`` includes wall time for the caller; the file writer drops it
    so outputs stay byte-identical across repeated runs.
    """

    metadata: dict
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]]
    reports: dict[str, dict]

    def file_metadata(self) -> dict:
        return {k: v for k, v in self.metadata.items() if k != "wall_time_s"}

    def write(self, out_dir: str, fmt: str) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        meta = self.file_metadata()
        written: list[str] = []
        for name, (header, rows) in self.tables.items():
            if fmt == "csv":
                path = os.path.join(out_dir, f"{name}.csv")
                write_csv_atomic(path, header, rows)
                sidecar = os.path.join(out_dir, f"{name}.meta.json")
                write_json_atomic(sidecar, meta)
                written += [path, sidecar]
            else:
                path = os.path.join(out_dir, f"{name}.json")
                write_json_atomic(
                    path,
                    {
                        "metadata": meta,
                        "header": list(header),
                        "rows": [[_json_number(c) for c in row] for row in rows],
                    },
                )
                written.append(path)
        for name, report in self.reports.items():
            path = os.path.join(out_dir, f"{name}.json")
            write_json_atomic(path, {"metadata": meta, **report})
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
    channel, rho0 = xx_chain_model(params)
    return build(channel, rho0, k)


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
        channel = ruqdm_channel(cfg.gammas[0], cfg.delta)
        return build(channel, np.eye(2, dtype=complex) / 2.0, cfg.k)
    rng = np.random.default_rng(_seed_seq(cfg.seed, 71))
    channel = random_cptp_channel(2, cfg.env_dim, cfg.kraus_rank, rng)
    return build(kraus_to_w(channel), _pure0_joint(2 * cfg.env_dim), cfg.k)


def _target_from_file(cfg: ExperimentConfig) -> ProcessTensorMPDO:
    data = load_json(cfg.channel_file)
    channel = channel_from_dict(data)
    dim = channel.d * channel.D
    if "rho0" in data:
        rho0 = pairs_to_complex(data["rho0"], "rho0")
        if rho0.shape != (dim, dim):
            raise ValueError(f"field 'rho0' has shape {rho0.shape}, expected {(dim, dim)}")
    else:
        rho0 = _pure0_joint(dim)
    return build(kraus_to_w(channel), rho0, cfg.k)


# ---------------------------------------------------------------------------
# Measure helpers
# ---------------------------------------------------------------------------


def _measure_rows(pt: ProcessTensorMPDO, trace_tol: float) -> tuple[list[tuple], str | None]:
    """Rows (j, N^osee_j, N^ee_j, boundary_flag) for j = 1..k-1, and why any
    ``nm_ee`` entry is NaN (``None`` when none is).

    The ``nm_ee`` column comes from one environment recursion. A recursion
    failure (an environment trace drifting past ``trace_tol``) yields NaN
    entries from the failing step on rather than aborting the run.
    """
    series = measure_series(pt, "osee")
    ee: list[float] = []
    note = None
    try:
        for env in itertools.islice(_env_states(pt, trace_tol), 1, pt.k):
            ee.append(_entropy_of_state(env))
    except ValueError as exc:
        steps = f"{len(series.steps) - len(ee)} of {len(series.steps)} steps"
        note = f"nm_ee is NaN at {steps} from j = {len(ee) + 1}: {exc}"
    ee += [math.nan] * (len(series.steps) - len(ee))
    rows = [
        (j, osee_j, ee_j, 1 if j in series.boundary_flagged else 0)
        for j, osee_j, ee_j in zip(series.steps, series.values, ee)
    ]
    return rows, note


def _mid_entropy(ansatz: ReconstructionAnsatz, k: int) -> float:
    """Largest fitted environment entropy over the mid-range band of steps
    (clear of the initial transient and the right boundary)."""
    fitted = predict(ansatz, k)
    band = sorted({max(1, round(f * k)) for f in (0.4, 0.55, 0.7)})
    return max(nm_ee(fitted, j) for j in band)


def _fit_selected(
    target: ProcessTensorMPDO,
    cfg: ExperimentConfig,
    curve_index: int,
) -> tuple[ReconstructionAnsatz, FitReport, int]:
    """Fit with ``cfg.restarts`` independent starts and pick the candidate
    with the least environment use among (near-)ties in loss.

    The loss alone does not identify the model: representations far apart in
    environment entropy can reproduce the same process. Reconstruction is
    after the smallest environment consistent with the data, so among
    candidates converged to ``FTOL`` -- or, when nothing converges, within a
    factor 2 of the best achieved loss -- the one with the smallest mid-range
    environment entropy wins. Starts alternate between a perturbed memoryless
    model and a generic Gaussian draw. Every candidate is trace preserving
    by construction, so its entropies are evaluated at the measures' own
    ``TRACE_TOL``.
    """
    candidates = []
    for r in range(cfg.restarts):
        init = "decoupled" if r % 2 == 0 else "gaussian"
        ansatz, report = fit(
            target,
            D=cfg.D,
            R=cfg.R,
            k_schedule=cfg.k_schedule,
            max_iter=cfg.max_iter,
            seed=_seed_seq(cfg.seed, curve_index, r),
            init=init,
        )
        candidates.append((ansatz, report, r))
    best_loss = min(rep.final_loss for _, rep, _ in candidates)
    tied = [
        (ans, rep, r)
        for ans, rep, r in candidates
        if rep.final_loss < FTOL or rep.final_loss <= 2.0 * best_loss
    ]
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
    t0 = time.perf_counter()
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}
    reports: dict[str, dict] = {}
    non_converged: list[float] = []
    nan_notes: dict[str, str] = {}
    for idx, gamma in enumerate(cfg.gammas):
        target = _xx_target(cfg, gamma, cfg.k, pure_system=True)
        ansatz, report, chosen = _fit_selected(target, cfg, idx)
        if not report.converged:
            non_converged.append(gamma)
        fitted = predict(ansatz, cfg.k)
        name = f"{cfg.experiment}_gamma{gamma:g}"
        rows, note = _measure_rows(fitted, TRACE_TOL)
        tables[name] = (("j", "nm_osee", "nm_ee", "boundary_flag"), rows)
        if note:
            nan_notes[name] = note
        reports[f"{name}_fit"] = {
            "gamma": gamma,
            "n": cfg.n,
            "selected_restart": chosen,
            **fit_report_to_dict(report),
        }
    metadata = _metadata(cfg)
    metadata["non_converged_gammas"] = non_converged
    if nan_notes:
        metadata["nan_measure_rows"] = nan_notes
    metadata["wall_time_s"] = time.perf_counter() - t0
    return ResultBundle(metadata, tables, reports)


def run_fig3(cfg: ExperimentConfig) -> ResultBundle:
    t0 = time.perf_counter()
    rows: list[tuple] = []
    for gamma in cfg.gammas:
        params = UQDMParams(
            gamma=gamma, delta=cfg.delta, g=cfg.g, grid_points=cfg.grid_points
        )
        series = uqdm_memory_series(params, cfg.j_max)
        rows.append((gamma, 0, 0.0))  # pure initial environment
        rows += [(gamma, j, series.value_at(j)) for j in series.steps]
    metadata = _metadata(cfg)
    metadata["wall_time_s"] = time.perf_counter() - t0
    return ResultBundle(metadata, {"fig3": (("gamma", "j", "memory_complexity"), rows)}, {})


def run_measure(cfg: ExperimentConfig) -> ResultBundle:
    t0 = time.perf_counter()
    pt = _model_process_tensor(cfg, pure_system=False)
    rows, note = _measure_rows(pt, 0.1)
    metadata = _metadata(cfg)
    if note:
        metadata["nan_measure_rows"] = {"measure": note}
    metadata["wall_time_s"] = time.perf_counter() - t0
    return ResultBundle(
        metadata, {"measure": (("j", "nm_osee", "nm_ee", "boundary_flag"), rows)}, {}
    )


def run_reconstruct(cfg: ExperimentConfig) -> ResultBundle:
    t0 = time.perf_counter()
    target = _model_process_tensor(cfg, pure_system=True)
    ansatz, report, chosen = _fit_selected(target, cfg, 0)
    fitted = predict(ansatz, cfg.k)
    metadata = _metadata(cfg)
    metadata["non_converged"] = not report.converged
    rows, note = _measure_rows(fitted, TRACE_TOL)
    if note:
        metadata["nan_measure_rows"] = {"reconstruct_measures": note}
    tables = {"reconstruct_measures": (("j", "nm_osee", "nm_ee", "boundary_flag"), rows)}
    reports = {
        "reconstruct_ansatz": ansatz_to_dict(ansatz),
        "reconstruct_fit": {"selected_restart": chosen, **fit_report_to_dict(report)},
    }
    metadata["wall_time_s"] = time.perf_counter() - t0
    return ResultBundle(metadata, tables, reports)


def run_build(cfg: ExperimentConfig) -> ResultBundle:
    t0 = time.perf_counter()
    pt = _model_process_tensor(cfg, pure_system=False)
    dense = materialize(pt, k_max=MATERIALIZE_GUARD)
    metadata = _metadata(cfg)
    report = {
        "d": pt.d,
        "D": pt.D,
        "k": pt.k,
        "norm_sq": float(format_float(norm_sq(pt))),
        "upsilon": complex_to_pairs(_as_matrix(dense)),
    }
    metadata["wall_time_s"] = time.perf_counter() - t0
    return ResultBundle(metadata, {}, {"build": report})


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "config": cfg.as_dict(),
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
    for name in EXPERIMENTS:
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
    written = bundle.write(cfg.output_dir, cfg.output_format)
    for path in written:
        print(path)
    if bundle.metadata.get("non_converged_gammas"):
        flagged = ", ".join(f"{g:g}" for g in bundle.metadata["non_converged_gammas"])
        print(f"note: fit did not converge for gamma = {flagged}")
    for name, note in bundle.metadata.get("nan_measure_rows", {}).items():
        print(f"note: {name}: {note}")
    print(f"done in {bundle.metadata['wall_time_s']:.1f}s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
