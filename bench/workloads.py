"""Workloads: CLI inputs generated from the benchmark seed, and their checks.

A workload turns the seed into a list of operations, each one call of
``ptnm.cli.main`` with a generated argv (and config file). One pass runs
every operation once; the timed loop repeats passes. Checks read the files
an operation wrote and compare them with references computed from the exact
models; they run outside the timed region and never abort the run.

A check raises :class:`OpFailed` when the operation did not reach its result
and the program reported that itself (a fit flagged as not converged), and
:class:`WrongOutput` when the written output contradicts a reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ptnm.measures import measure_series, memory_complexity
from ptnm.models import XXChainParams, xx_chain_model, xx_chain_unitary
from ptnm.process_tensor import build

# The CLI's own convergence threshold for a fit (``ftol`` in _fit_selected).
CONVERGED_LOSS = 1e-8
# Converged fits (loss < 1e-8) reproduce the exact mid-range nm_osee to
# 5e-7 or better on seeds 0..11; a wrong fit misses by about 0.1.
OSEE_TOL = 1e-5
# Both measures vanish identically on a memoryless model.
ZERO_TOL = 1e-10
# nm_ee of a unitary model against the raw-matrix memory_complexity oracle.
ORACLE_TOL = 1e-9
# Slack for round-off in the fig3 monotonicity and log2(j+1) bound.
SERIES_TOL = 1e-9

MEASURE_K = 101
PURE0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


class OpFailed(Exception):
    """The operation did not produce its result, and the program said so."""


class WrongOutput(Exception):
    """The operation's output contradicts a reference or an earlier run."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    out_dir: str
    check: Callable[[str], None]


def _write_json(path: str, obj) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """Evaluate a reference on first use, so it stays out of set-up time."""
    box: list = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# fit-chain: converged reconstructions of the gamma=1 chain
# ---------------------------------------------------------------------------
#
# Reconstruction is the hot path: the objective plus scipy's BFGS take all
# but a fraction of a percent of the run; measures, predict and writes are
# the rest.
# The iteration count to convergence, and with it the fit time, varies by
# about 8% between fit seeds. Two fits per pass, at fit seeds 2s and 2s+1 of
# benchmark seed s, halve that variance in wall_s; distinct benchmark seeds
# never share a fit seed.


def _fit_chain(seed: int, work: str) -> tuple[list[Op], list[Op]]:
    k = 20  # the fig2a default target length
    exact = _once(lambda: _exact_chain_osee(k))

    def check(out: str) -> None:
        with open(os.path.join(out, "fig2a_gamma1_fit.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        if not report["converged"] or report["final_loss"] >= CONVERGED_LOSS:
            raise OpFailed(f"fit not converged: final loss {report['final_loss']:.3e}")
        reference = exact()
        band = range(round(0.4 * k), round(0.7 * k) + 1)
        rows = {int(r["j"]): float(r["nm_osee"]) for r in _read_rows(os.path.join(out, "fig2a_gamma1.csv"))}
        worst = max(abs(rows[j] - reference.value_at(j)) for j in band)
        if not worst <= OSEE_TOL:
            raise WrongOutput(f"converged fit misses the exact mid-range nm_osee by {worst:.3e}")

    cfg = _write_json(os.path.join(work, "fit-chain.json"), {"restarts": 1})
    ops = []
    for fit_seed in (2 * seed, 2 * seed + 1):
        out = os.path.join(work, "fit-chain", f"seed{fit_seed}")
        argv = ("fig2a", "--gamma", "1", "--config", cfg, "--seed", str(fit_seed), "--out", out)
        ops.append(Op(f"fig2a-gamma1-seed{fit_seed}", argv, out, check))
    # Warm-up: the same code path cut to two short stages.
    warm_cfg = _write_json(os.path.join(work, "warm", "fit-chain.json"),
                           {"restarts": 1, "max_iter": 2, "k_schedule": [2, 3]})
    warm_out = os.path.join(work, "warm", "fit-chain")
    warm = Op("warm-up", ("fig2a", "--gamma", "1", "--config", warm_cfg, "--seed", str(seed),
                          "--out", warm_out), warm_out, lambda out: None)
    return ops, [warm]


def _exact_chain_osee(k: int):
    params = XXChainParams(gamma=1.0, n=0.0, rho0_system=PURE0)
    channel, rho0 = xx_chain_model(params)
    return measure_series(build(channel, rho0, k), "osee")


# ---------------------------------------------------------------------------
# measure-sweep: both measures at k=101 on exact models
# ---------------------------------------------------------------------------
#
# The measures layer does almost all the work and reconstruct none. Exact
# trace-preserving tensors at long k complement fit-chain, which uses the same
# layers on a fitted non-TP tensor at k=20. gamma=0 is always included for the
# raw-matrix oracle; the ruqdm operation is memoryless by construction.


def _measure_sweep(seed: int, work: str) -> tuple[list[Op], list[Op]]:
    rng = np.random.default_rng([seed, 2])
    gammas = [0.0] + sorted(round(float(g), 6) for g in rng.uniform(0.5, 20.0, 3))
    ops = []
    for i, gamma in enumerate(gammas):
        for n in (0.0, 0.5):
            label = f"xx-gamma{gamma:g}-n{n:g}"
            out = os.path.join(work, "measure-sweep", f"xx{i}-n{n:g}")
            argv = ("measure", "--k", str(MEASURE_K), "--gamma", repr(gamma), "--n", repr(n), "--out", out)
            ops.append(Op(label, argv, out, _xx_measure_check(gamma, n)))
    ruqdm_gamma = round(float(rng.uniform(0.5, 20.0)), 6)
    cfg = _write_json(os.path.join(work, "ruqdm.json"), {"model": "ruqdm"})
    out = os.path.join(work, "measure-sweep", "ruqdm")
    argv = ("measure", "--k", str(MEASURE_K), "--gamma", repr(ruqdm_gamma), "--config", cfg, "--out", out)
    ops.append(Op(f"ruqdm-gamma{ruqdm_gamma:g}", argv, out, _ruqdm_check))
    warm_out = os.path.join(work, "warm", "measure-sweep")
    warm = Op("warm-up", ("measure", "--k", "5", "--gamma", "1", "--out", warm_out), warm_out, lambda out: None)
    return ops, [warm]


def _measure_table(out: str) -> list[tuple[int, float, float]]:
    rows = [(int(r["j"]), float(r["nm_osee"]), float(r["nm_ee"]))
            for r in _read_rows(os.path.join(out, "measure.csv"))]
    if [j for j, _, _ in rows] != list(range(1, MEASURE_K)):
        raise WrongOutput(f"measure table has steps {rows[0][0]}..{rows[-1][0]}, expected 1..{MEASURE_K - 1}")
    bad = [j for j, osee, ee in rows if not (math.isfinite(osee) and math.isfinite(ee))]
    if bad:
        raise WrongOutput(f"non-finite measure at steps {bad[:5]}")
    return rows


def _xx_measure_check(gamma: float, n: float) -> Callable[[str], None]:
    if gamma != 0.0:
        return _measure_table

    def oracle():
        params = XXChainParams(gamma=0.0, n=n)
        rho0 = np.kron(params.system_state(), params.environment_state())
        u = xx_chain_unitary(params)
        return {j: memory_complexity(u, rho0, 2, 2, j) for j in range(1, MEASURE_K)}

    reference = _once(oracle)

    def check(out: str) -> None:
        rows = _measure_table(out)
        worst = max(abs(ee - reference()[j]) for j, _, ee in rows)
        if not worst <= ORACLE_TOL:
            raise WrongOutput(f"nm_ee differs from memory_complexity by {worst:.3e}")

    return check


def _ruqdm_check(out: str) -> None:
    worst = max(max(abs(osee), abs(ee)) for _, osee, ee in _measure_table(out))
    if not worst <= ZERO_TOL:
        raise WrongOutput(f"memoryless model shows memory {worst:.3e}")


# ---------------------------------------------------------------------------
# fig3-paper: dephasing-model memory complexity at paper scale
# ---------------------------------------------------------------------------
#
# Touches only models (overlaps plus Toeplitz eigensolves) and io: the bypass
# workload, where a change to the tensor-network layers should show nothing.


def _fig3_paper(seed: int, work: str) -> tuple[list[Op], list[Op]]:
    rng = np.random.default_rng([seed, 3])
    gammas = sorted(round(float(g), 6) for g in rng.uniform(0.5, 2.0, 3))
    out = os.path.join(work, "fig3-paper")
    argv = ("fig3", "--paper-scale", "--gamma", ",".join(repr(g) for g in gammas), "--out", out)
    warm_out = os.path.join(work, "warm", "fig3-paper")
    warm = Op("warm-up", argv[:-1] + (warm_out,), warm_out, lambda out: None)
    return [Op("fig3-paper", argv, out, _fig3_check)], [warm]


def _fig3_check(out: str) -> None:
    series: dict[str, list[tuple[int, float]]] = {}
    for r in _read_rows(os.path.join(out, "fig3.csv")):
        series.setdefault(r["gamma"], []).append((int(r["j"]), float(r["memory_complexity"])))
    if len(series) != 3:
        raise WrongOutput(f"expected 3 series, found {len(series)}")
    for gamma, points in series.items():
        if [j for j, _ in points] != list(range(0, 201)):
            raise WrongOutput(f"series gamma={gamma} does not cover j = 0..200")
        for (_, prev), (j, value) in zip(points, points[1:]):
            if value < prev - SERIES_TOL:
                raise WrongOutput(f"series gamma={gamma} decreases at j={j}: {prev!r} -> {value!r}")
            if value > math.log2(j + 1) + SERIES_TOL:
                raise WrongOutput(f"series gamma={gamma} exceeds log2(j+1) at j={j}: {value!r}")


# name -> (seed, work dir) -> (operations of one pass, warm-up operations)
WORKLOADS: dict[str, Callable[[int, str], tuple[list[Op], list[Op]]]] = {
    "fit-chain": _fit_chain,
    "measure-sweep": _measure_sweep,
    "fig3-paper": _fig3_paper,
}
