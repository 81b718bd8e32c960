"""End-to-end acceptance checks, one test per headline requirement.

Each test prints a single ``[PASS]``/``[FAIL]`` line carrying the measured
numbers next to the required thresholds (run with ``-s`` to see the lines of
passing tests too), then asserts. Wall-clock budgets assume a single
desk-class core; the two reconstruction-based checks dominate the runtime.
"""

import argparse
import time

import numpy as np
import pytest

from ptnm import cli
from ptnm.channels import KrausChannel, kraus_to_w, random_cptp_channel
from ptnm.measures import env_state, measure_series, memory_complexity, nm_ee, osee
from ptnm.models import (
    UQDMParams,
    XXChainParams,
    ruqdm_channel,
    uqdm_coherence,
    uqdm_model,
    xx_chain_model,
    xx_chain_unitary,
)
from ptnm.process_tensor import build, check_containment, inner_product, materialize
from ptnm.reconstruct import (
    ReconstructionAnsatz,
    _initial_point,
    _Objective,
    fit,
    predict,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _flags(**kwargs) -> argparse.Namespace:
    return argparse.Namespace(**kwargs)


def _random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _random_pt(rng, k, kraus_rank=3):
    channel = kraus_to_w(random_cptp_channel(2, 2, kraus_rank, rng))
    return build(channel, _random_density(rng, 4), k)


def _mid_band(rows, column):
    return [row[column] for row in rows if 8 <= row[0] <= 14]


def test_markovian_model_measures_vanish_identically():
    """A memoryless dephasing channel must score exactly zero on both
    measures at every step, for any rate and step size."""
    t0 = time.perf_counter()
    worst = 0.0
    for gamma, delta in ((0.7, 0.1), (2.5, 0.3), (0.05, 1.0)):
        pt = build(ruqdm_channel(gamma, delta), PLUS, 20)
        for kind in ("osee", "ee"):
            series = measure_series(pt, kind)
            worst = max(worst, max(abs(series.value_at(j)) for j in series.steps))
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 1.0
    _verdict(
        "markovian-limit",
        ok,
        f"max |measure| {worst:.2e} over three (gamma, delta) pairs at k=20 "
        f"(tol 1e-10); wall {wall:.2f}s (< 1 s)",
    )


@pytest.mark.slow
def test_dissipative_chain_limits_at_zero_filling():
    """Reconstructed two-spin chain at k=20, n=0: the undamped chain keeps
    both mid-range measures near one bit, strong damping pushes both
    toward zero."""
    t0 = time.perf_counter()
    cfg = cli.resolve_config("fig2a", {}, _flags(gamma="0, 5"))
    bundle = cli.run_fig2(cfg)
    wall = time.perf_counter() - t0
    rows0 = bundle.tables["fig2a_gamma0"][1]
    rows5 = bundle.tables["fig2a_gamma5"][1]
    free = _mid_band(rows0, 1) + _mid_band(rows0, 2)
    damped = _mid_band(rows5, 1) + _mid_band(rows5, 2)
    ok_free = all(0.9 <= v <= 1.05 for v in free)
    ok_damped = all(v < 0.1 for v in damped)
    ok = ok_free and ok_damped and wall < 600.0
    _verdict(
        "chain-asymptotes",
        ok,
        f"gamma=0 mid-range osee/ee span [{min(free):.4f}, {max(free):.4f}] "
        f"(need [0.9, 1.05]); gamma=5 osee max {max(_mid_band(rows5, 1)):.4f}, "
        f"ee max {max(_mid_band(rows5, 2)):.4f} (need both < 0.1); "
        f"wall {wall:.0f}s (< 600 s, 2 restarts)",
    )


@pytest.mark.slow
def test_dissipative_chain_ordering_at_half_filling():
    """At n=0.5 the chain approaches a Markovian limit as damping grows:
    mid-range measures must order gamma=20 < gamma=10 < gamma=5 and stay
    small, and fits that stall must be reported, not hidden."""
    t0 = time.perf_counter()
    cfg = cli.resolve_config("fig2b", {}, _flags())
    bundle = cli.run_fig2(cfg)
    wall = time.perf_counter() - t0
    stats = {}
    for gamma in (5, 10, 20):
        rows = bundle.tables[f"fig2b_gamma{gamma}"][1]
        stats[gamma] = (
            float(np.mean(_mid_band(rows, 1))),
            float(np.mean(_mid_band(rows, 2))),
        )
    ordered = all(stats[20][i] < stats[10][i] < stats[5][i] for i in (0, 1))
    small = all(v < 0.5 for pair in stats.values() for v in pair)
    reported = "non_converged_gammas" in bundle.metadata
    ok = ordered and small and reported
    _verdict(
        "chain-ordering",
        ok,
        "mid-range mean osee/ee: "
        + ", ".join(f"gamma={g} {s[0]:.4f}/{s[1]:.4f}" for g, s in sorted(stats.items()))
        + f"; ordering gamma=20 < gamma=10 < gamma=5 {'holds' if ordered else 'violated'}"
        + f"; all < 0.5 {'holds' if small else 'violated'}"
        + f"; stalled fits reported: {sorted(bundle.metadata.get('non_converged_gammas', []))}"
        + f"; wall {wall:.0f}s",
    )


def test_memory_complexity_grows_logarithmically():
    """Dephasing-model memory complexity: nondecreasing, bounded by the
    environment rank, close to log j over two decades, and monotone in the
    coupling strength."""
    t0 = time.perf_counter()
    cfg = cli.resolve_config("fig3", {}, _flags())
    bundle = cli.run_fig3(cfg)
    wall = time.perf_counter() - t0
    curves: dict[float, dict[int, float]] = {}
    for gamma, j, value in bundle.tables["fig3"][1]:
        curves.setdefault(gamma, {})[j] = value
    min_step = np.inf
    max_excess = -np.inf
    r_squared = {}
    for gamma, curve in curves.items():
        js = sorted(curve)
        values = np.array([curve[j] for j in js])
        min_step = min(min_step, float(np.diff(values).min()))
        max_excess = max(max_excess, max(curve[j] - np.log2(j + 1) for j in js))
        window = [j for j in js if 10 <= j <= 200]
        fit_r = np.corrcoef(np.log(window), [curve[j] for j in window])[0, 1]
        r_squared[gamma] = float(fit_r**2)
    weak, strong = curves[0.5], curves[2.0]
    pointwise = min(strong[j] - weak[j] for j in sorted(weak))
    ok = (
        min_step >= -1e-10
        and max_excess <= 0.0
        and all(r2 > 0.95 for r2 in r_squared.values())
        and pointwise >= -1e-10
        and wall < 120.0
    )
    _verdict(
        "memory-complexity-growth",
        ok,
        f"min step {min_step:.2e} (nondecreasing); max C_j - log2(j+1) "
        f"{max_excess:.2e} (<= 0); R^2 vs log j on [10, 200]: "
        + ", ".join(f"gamma={g} {r2:.4f}" for g, r2 in sorted(r_squared.items()))
        + f" (> 0.95); min (strong - weak) {pointwise:.2e} (pointwise >= 0); "
        f"wall {wall:.1f}s (< 120 s)",
    )


def test_dephasing_echo_and_free_decay():
    """A bit flip halfway through the evolution refocuses the coherence to
    its initial magnitude; without it the decay follows the analytic
    Lorentzian-overlap factor."""
    t0 = time.perf_counter()
    model = uqdm_model(UQDMParams(gamma=1.0, delta=0.1, g=1.0, grid_points=500))
    echo_err = abs(abs(uqdm_coherence(model, 20, flip_at=10)) - 0.5)
    free = abs(uqdm_coherence(model, 20))
    analytic = 0.5 * np.exp(-1.0 * 1.0 * 20 * 0.1)
    free_err = abs(free - analytic)
    wall = time.perf_counter() - t0
    ok = echo_err < 1e-3 and free_err < 1e-3 and wall < 10.0
    _verdict(
        "dephasing-echo",
        ok,
        f"echo restores |rho01| to 0.5 within {echo_err:.2e} (tol 1e-3); "
        f"free decay |rho01|={free:.6f} vs analytic {analytic:.6f}, "
        f"error {free_err:.2e} (tol 1e-3); wall {wall:.2f}s (< 10 s)",
    )


def test_streaming_oracles_agree_with_dense_references():
    """Five independent cross-checks of the streaming tensor algebra against
    raw-matrix and dense-materialization references."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    parts: list[tuple[str, float, float]] = []

    # Environment recursion vs step-by-step raw-matrix propagation.
    worst = 0.0
    for _ in range(3):
        channel = random_cptp_channel(2, 2, 4, rng)
        rho0 = _random_density(rng, 4)
        pt = build(kraus_to_w(channel), rho0, 4)
        env = np.einsum("sesE->eE", rho0.reshape(2, 2, 2, 2))
        for j in range(1, 5):
            joint = np.kron(np.eye(2) / 2.0, env)
            out = sum(a @ joint @ a.conj().T for a in channel.kraus)
            env = np.einsum("sesE->eE", out.reshape(2, 2, 2, 2))
            env = (env + env.conj().T) / (2.0 * np.trace(env).real)
            worst = max(worst, float(np.abs(env_state(pt, j) - env).max()))
    parts.append(("env recursion", worst, 1e-10))

    # Streaming inner product and entanglement entropy vs dense tensors.
    worst_ip, worst_osee = 0.0, 0.0
    for k in (2, 3):
        a, b = _random_pt(rng, k), _random_pt(rng, k)
        da = materialize(a, k_max=3).ravel()
        db = materialize(b, k_max=3).ravel()
        dense_ip = complex(np.vdot(da, db))
        worst_ip = max(worst_ip, abs(inner_product(a, b) - dense_ip) / abs(dense_ip))
        vec = da / np.linalg.norm(da)
        for j in range(1, k):
            s = np.linalg.svd(vec.reshape(2 ** (2 + 4 * j), -1), compute_uv=False)
            p = s**2
            p = p[p > 1e-300]
            dense_val = float(-(p * np.log2(p)).sum()) / 2.0
            worst_osee = max(worst_osee, abs(osee(a, j) - dense_val) / dense_val)
    parts.append(("inner product", worst_ip, 1e-9))
    parts.append(("bond entropy", worst_osee, 1e-9))

    # Containment: dropping the last step recovers the shorter tensor.
    worst = 0.0
    models = [
        build(*xx_chain_model(XXChainParams(gamma=0.0, delta=0.3)), 4),
        build(*xx_chain_model(XXChainParams(gamma=3.0, n=0.4, delta=0.3)), 4),
        build(ruqdm_channel(0.8, 0.25), PLUS, 4),
        _random_pt(rng, 4),
    ]
    for pt in models:
        worst = max(worst, check_containment(pt).residual)
    parts.append(("containment", worst, 1e-9))

    # Unitary models: environment measure equals raw memory complexity.
    worst = 0.0
    params = XXChainParams(gamma=0.0, delta=0.3)
    channel, rho0 = xx_chain_model(params)
    cases = [(xx_chain_unitary(params), channel, rho0)]
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q = np.linalg.qr(g)[0]
    cases.append(
        (q, kraus_to_w(KrausChannel((q,), 2, 2)), np.kron(PLUS, np.diag([0.7, 0.3])))
    )
    for u, chan, rho in cases:
        pt = build(chan, rho, 4)
        for j in range(1, 5):
            worst = max(worst, abs(nm_ee(pt, j) - memory_complexity(u, rho, 2, 2, j)))
    parts.append(("unitary memory", worst, 1e-9))

    # Analytic gradient vs central finite differences, full coordinate sweep;
    # the random Kraus stacks lie off the isometries, so this covers the
    # pullback through the polar factor.
    worst = 0.0
    rng_fd = np.random.default_rng(108)
    h = 1e-6
    for _ in range(20):
        chan = random_cptp_channel(2, 2, 3, rng_fd)
        psi = rng_fd.normal(size=4) + 1j * rng_fd.normal(size=4)
        psi /= np.linalg.norm(psi)
        target = build(kraus_to_w(chan), np.outer(psi, psi.conj()), 2)
        obj = _Objective(target, 2, 2, 2, 3)
        a_bar = rng_fd.normal(size=(3, 2, 2, 2, 2)) + 1j * rng_fd.normal(
            size=(3, 2, 2, 2, 2)
        )
        phi = rng_fd.normal(size=4) + 1j * rng_fd.normal(size=4)
        x = obj.pack(a_bar, phi)
        grad = obj.value_and_grad(x)[1]
        fd = np.empty_like(grad)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (obj.value_and_grad(xp)[0] - obj.value_and_grad(xm)[0]) / (2 * h)
        worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)))
    parts.append(("gradient", worst, 1e-5))

    wall = time.perf_counter() - t0
    ok = all(value < tol for _, value, tol in parts) and wall < 60.0
    _verdict(
        "oracle-equivalences",
        ok,
        "; ".join(f"{name} {value:.2e} (tol {tol:g})" for name, value, tol in parts)
        + f"; wall {wall:.1f}s (< 60 s)",
    )


def test_random_model_is_recovered_by_reconstruction():
    """A process generated by a random two-level ansatz with a two-level
    environment must be recovered to numerical precision by most seeded
    restarts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    a_bar, psi = _initial_point(rng, 2, 2, 4)
    psi = psi / np.linalg.norm(psi)
    truth = ReconstructionAnsatz(a_bar, psi)
    target = predict(truth, 4)
    dense3 = materialize(predict(truth, 3), k_max=3)
    outcomes = []
    for restart in range(5):
        ansatz, report = fit(
            target, D=2, R=4, k_schedule=(2, 4), seed=900 + restart
        )
        frob = float(
            np.linalg.norm(materialize(predict(ansatz, 3), k_max=3) - dense3)
        )
        outcomes.append((report.final_loss, frob))
    wins = sum(1 for loss, frob in outcomes if loss < 1e-8 and frob < 1e-6)
    wall = time.perf_counter() - t0
    ok = wins >= 4
    _verdict(
        "self-recovery",
        ok,
        f"{wins}/5 restarts recovered (loss < 1e-8 and k=3 Frobenius < 1e-6): "
        + ", ".join(f"loss {l:.1e}/frob {f:.1e}" for l, f in outcomes)
        + f"; wall {wall:.0f}s",
    )
