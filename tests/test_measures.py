"""Tests for the two memory measures and their series sweeps.

The environment measure is cross-checked against a raw-matrix recursion and
against the unitary-model entropy computed without site tensors; the
operational measure is cross-checked against a dense Schmidt decomposition of
the vectorized process tensor.
"""

import warnings

import numpy as np
import pytest

from ptnm.channels import _tp_residual, random_cptp_channel, site_tensor
from ptnm.measures import (
    _cut_spectrum,
    env_state,
    measure_series,
    memory_complexity,
    nm_ee,
    osee,
)
from ptnm.models import XXChainParams, ruqdm_channel, xx_chain_model, xx_chain_unitary
from ptnm.process_tensor import (
    SITE_TOL,
    ProcessTensorMPDO,
    _env_states,
    _grams,
    _sweep,
    _tt_core,
    build,
    materialize,
)
from ptnm.tensorops import von_neumann_entropy

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pt(rng, k, kraus_rank=3):
    channel = site_tensor(random_cptp_channel(2, 2, kraus_rank, rng))
    return build(channel, random_density(rng, 4), k)


def xx_pt(gamma, k, n=0.0):
    channel, rho0 = xx_chain_model(XXChainParams(gamma=gamma, n=n))
    return build(channel, rho0, k)


def entropy_bits(rho):
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    w = w[w > 1e-14]
    return float(-(w * np.log2(w)).sum())


# ---------------------------------------------------------------------------
# Effective environment state
# ---------------------------------------------------------------------------


def test_env_state_step_zero_is_initial_marginal():
    rng = np.random.default_rng(61)
    rho0 = random_density(rng, 4)
    pt = build(site_tensor(random_cptp_channel(2, 2, 3, rng)), rho0, 2)
    expected = np.einsum("sesE->eE", rho0.reshape(2, 2, 2, 2))
    np.testing.assert_allclose(env_state(pt, 0), expected, atol=1e-12)


def test_env_state_matches_raw_matrix_recursion():
    """Feed the maximally mixed system through the channel step by step with
    plain matrices and compare against the site-tensor recursion."""
    rng = np.random.default_rng(62)
    for _ in range(4):
        channel = random_cptp_channel(2, 2, 4, rng)
        rho0 = random_density(rng, 4)
        pt = build(site_tensor(channel), rho0, 4)
        env = np.einsum("sesE->eE", rho0.reshape(2, 2, 2, 2))
        for j in range(1, 5):
            joint = np.kron(np.eye(2) / 2.0, env)
            out = sum(a @ joint @ a.conj().T for a in channel.reshape(-1, 4, 4))
            env = np.einsum("sesE->eE", out.reshape(2, 2, 2, 2))
            env = (env + env.conj().T) / (2.0 * np.trace(env).real)
            np.testing.assert_allclose(env_state(pt, j), env, atol=1e-10)


def test_env_state_validates_step_range():
    pt = xx_pt(1.0, 2)
    with pytest.raises(ValueError):
        env_state(pt, 3)
    with pytest.raises(ValueError):
        env_state(pt, -1)


def test_env_state_flags_drifting_traces():
    from ptnm.process_tensor import ProcessTensorMPDO

    pt = xx_pt(1.0, 3)
    scaled = ProcessTensorMPDO(pt.rho0, pt.site * 1.2, pt.k, site_tol=None)
    with pytest.raises(ValueError):
        env_state(scaled, 2)


def _env_states_reference(pt):
    """The recursion step by step: one einsum of the site with the last
    state, divided by d, then its Hermitian part over its trace."""
    env = np.einsum("ooaA->aA", pt.rho0)
    states = [(env + env.conj().T) / 2.0]
    for _ in range(pt.k):
        env = np.einsum("iiooaAbB,aA->bB", pt.site, states[-1]) / pt.d
        states.append((env + env.conj().T) / (2.0 * np.trace(env).real))
    return np.stack(states)


def _recursion_cases():
    rng = np.random.default_rng(64)
    for D in (1, 2, 3):
        yield build(site_tensor(random_cptp_channel(2, D, 3, rng)), random_density(rng, 2 * D), 40)
    yield xx_pt(5.0, 40, n=0.5)


def test_env_states_match_the_per_step_renormalized_recursion():
    for pt in _recursion_cases():
        states = _env_states(pt.rho0, pt.site, pt.k)
        assert states.shape == (pt.k + 1, pt.D, pt.D)
        np.testing.assert_allclose(states, _env_states_reference(pt), rtol=0, atol=1e-13)


def test_env_states_of_fewer_steps_are_a_prefix_to_the_last_bit():
    """So env_state, which runs only the steps up to its own, is the series'
    state at its step; step 0 runs none."""
    for pt in _recursion_cases():
        states = _env_states(pt.rho0, pt.site, pt.k)
        for j in range(pt.k + 1):
            assert np.array_equal(_env_states(pt.rho0, pt.site, j), states[: j + 1])
            assert np.array_equal(env_state(pt, j), states[j])


def test_env_state_checks_the_steps_up_to_its_own():
    """Identity on the system; the environment goes |0><0| -> |1><1| ->
    1.5 |1><1|: only the second step moves the trace."""
    env = np.zeros((2, 2, 2, 2))
    env[0, 0, 1, 1], env[1, 1, 1, 1] = 1.0, 1.5
    w = np.einsum("io,IO,aAbB->iIoOaAbB", np.eye(2), np.eye(2), env)
    rho0 = np.einsum("oO,aA->oOaA", np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    pt = ProcessTensorMPDO(rho0, w, 3, site_tol=None)
    np.testing.assert_array_equal(env_state(pt, 1), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="drifted to 1.5 at step 2;"):
        env_state(pt, 2)


@pytest.mark.parametrize("scale, trace", [(1.5, 1.5), (0.0, 0.0)])
def test_ee_series_rejects_a_scaled_site_at_step_one_without_a_warning(scale, trace):
    """Unnormalized, the trace of a site scaled by 1.5 reaches 1.5**2000,
    past float64's range, and a zeroed site's ratios after step 1 are 0/0;
    neither may warn, and both name step 1."""
    pt = xx_pt(5.0, 2000, n=0.5)
    scaled = ProcessTensorMPDO(pt.rho0, pt.site * scale, pt.k, site_tol=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at step 1;") as excinfo:
            measure_series(scaled, "ee")
    assert float(str(excinfo.value).split("drifted to ")[1].split(" ")[0]) == pytest.approx(trace)


# ---------------------------------------------------------------------------
# Environment-entropy measure
# ---------------------------------------------------------------------------


def test_nm_ee_vanishes_for_trivial_environment():
    pt = build(ruqdm_channel(1.0, 0.1), PLUS, 6)
    for j in range(1, 7):
        assert nm_ee(pt, j) == 0.0


def test_nm_ee_bounded_by_environment_size():
    rng = np.random.default_rng(63)
    pt = random_pt(rng, 5)
    for j in range(1, 6):
        assert 0.0 <= nm_ee(pt, j) <= 1.0 + 1e-12  # log2(D) with D = 2


def test_nm_ee_approaches_one_for_undamped_exchange():
    """Without damping the exchange coupling drives the environment spin to
    the maximally mixed state."""
    pt = xx_pt(0.0, 12)
    values = [nm_ee(pt, j) for j in range(6, 13)]
    assert min(values) > 0.9


def test_nm_ee_validates_range():
    pt = xx_pt(1.0, 3)
    with pytest.raises(ValueError):
        nm_ee(pt, 0)
    with pytest.raises(ValueError):
        nm_ee(pt, 4)


def test_nm_ee_matches_unitary_memory_complexity():
    """For unitary system-environment models the measure must agree with the
    entropy computed from the bare unitary, with no site tensors involved."""
    rng = np.random.default_rng(64)
    u_xx = xx_chain_unitary(XXChainParams(gamma=0.0))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    for u in (u_xx, q):
        rho0 = np.kron(random_density(rng, 2), random_density(rng, 2))
        pt = build(site_tensor(u.reshape(1, 2, 2, 2, 2)), rho0, 4)
        for j in range(1, 5):
            a = nm_ee(pt, j)
            b = memory_complexity(u, rho0, 2, 2, j)
            assert abs(a - b) < 1e-9


def test_memory_complexity_rejects_non_unitary():
    with pytest.raises(ValueError):
        memory_complexity(np.eye(4) * 1.1, np.eye(4) / 4.0, 2, 2, 2)


def test_memory_complexity_rejects_a_negative_step():
    # used to return the step-0 entropy
    with pytest.raises(ValueError, match="j must be nonnegative"):
        memory_complexity(np.eye(4), np.eye(4) / 4.0, 2, 2, -1)


# ---------------------------------------------------------------------------
# Operational entanglement measure
# ---------------------------------------------------------------------------


def test_osee_vanishes_for_trivial_environment():
    pt = build(ruqdm_channel(0.5, 0.3), PLUS, 5)
    for j in range(1, 5):
        assert osee(pt, j) < 1e-12


def test_osee_matches_dense_schmidt_spectrum():
    """Vectorize the dense tensor and split it at the bond after step j; the
    streaming Gram computation must reproduce that entropy."""
    rng = np.random.default_rng(65)
    for _ in range(3):
        pt = random_pt(rng, 3)
        t = materialize(pt)  # (o0,o0',i0,i0',o1,o1',i1,i1',...)
        vec = t.reshape(-1)
        vec = vec / np.linalg.norm(vec)
        for j in (1, 2):
            # slots up to and including o_j stay left: 2 + 4j axes of size 2
            left_axes = 2 + 4 * j
            mat = vec.reshape(2**left_axes, -1)
            s = np.linalg.svd(mat, compute_uv=False)
            p = s**2
            p = p[p > 1e-16]
            dense_half = float(-(p * np.log2(p)).sum()) / 2.0
            np.testing.assert_allclose(osee(pt, j), dense_half, atol=1e-8)


def test_osee_bounded_by_bond_capacity():
    rng = np.random.default_rng(66)
    pt = random_pt(rng, 4)
    for j in range(1, 4):
        assert osee(pt, j) <= np.log2(pt.D) + 1e-12


def test_osee_bond_cut_validates_range():
    pt = xx_pt(1.0, 3)
    with pytest.raises(ValueError):
        osee(pt, 0)
    with pytest.raises(ValueError):
        osee(pt, 3)


def test_osee_renyi_orders_against_von_neumann():
    """Renyi entropies decrease in alpha, pinning the von Neumann value
    between the alpha = 1/2 and alpha = 2 members."""
    pt = xx_pt(0.0, 6)
    for j in (2, 3):
        s_half = osee(pt, j, alpha=0.5)
        s_one = osee(pt, j)
        s_two = osee(pt, j, alpha=2.0)
        assert s_half + 1e-12 >= s_one >= s_two - 1e-12


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_osee_rejects_a_non_finite_renyi_order(alpha):
    # used to return NaN
    with pytest.raises(ValueError, match="Renyi order"):
        osee(xx_pt(0.0, 4), 2, alpha=alpha)


# ---------------------------------------------------------------------------
# Gauge invariance
# ---------------------------------------------------------------------------


def test_measures_are_gauge_invariant():
    rng = np.random.default_rng(67)
    pt = random_pt(rng, 4)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    # conjugate every environment bond by u; nothing observable may change
    rho0 = np.einsum("xa,yb,oOab->oOxy", u, u.conj(), pt.rho0)
    w = np.einsum("xa,yA,zb,wB,iIoOaAbB->iIoOxyzw", u.conj(), u, u, u.conj(), pt.site)
    moved = ProcessTensorMPDO(rho0, w, pt.k)
    for j in range(1, 4):
        assert abs(osee(pt, j) - osee(moved, j)) < 1e-10
        assert abs(nm_ee(pt, j) - nm_ee(moved, j)) < 1e-10


# ---------------------------------------------------------------------------
# Series sweeps
# ---------------------------------------------------------------------------


def test_measure_series_osee_flags_right_boundary():
    pt = xx_pt(0.0, 10)
    series = measure_series(pt, "osee")
    assert series.steps == tuple(range(1, 10))
    # default margin is k/5 = 2: steps 8 and 9 sit within it
    assert series.boundary_flagged == (8, 9)
    np.testing.assert_allclose(series.value_at(5), osee(pt, 5), atol=1e-13)


def test_measure_series_ee_covers_all_steps():
    pt = xx_pt(1.0, 6)
    series = measure_series(pt, "ee")
    assert series.steps == tuple(range(1, 7))
    assert series.boundary_flagged == ()
    # one recursion pass does what each nm_ee call does, to the last bit
    assert series.values == tuple(nm_ee(pt, j) for j in series.steps)


def _per_cut_osee_reference(pt):
    """The osee series as an O(k^2) loop: for every cut, a left sweep over
    the steps before it and a right sweep rebuilt from the final trace."""
    first = pt.rho0.reshape(pt.d**2, -1)
    trace = np.eye(pt.D).reshape(1, -1)
    core = _tt_core(pt.site)
    back = core.transpose(2, 1, 0)
    values = []
    for j in range(1, pt.k):
        l = _sweep(first, core, first, core, j)[-1]
        r = _sweep(trace, back, trace, back, pt.k - j)[-1]
        values.append(von_neumann_entropy(_cut_spectrum(l, r)) / 2.0)
    return tuple(values)


def test_osee_series_equals_per_cut_reference_exactly():
    """One left and one right sweep do the per-cut loop's arithmetic, so the
    values agree to the last bit."""
    pt = xx_pt(5.0, 40, n=0.5)
    series = measure_series(pt, "osee")
    assert series.values == _per_cut_osee_reference(pt)
    assert [osee(pt, j) for j in (1, 20, 39)] == [series.value_at(j) for j in (1, 20, 39)]


def test_series_equal_the_per_step_measures_on_a_random_site():
    """Each series takes its spectra in one batched eigensolve; every value is
    the one the single-step measure gives, to the last bit."""
    pt = random_pt(np.random.default_rng(68), 9)
    assert measure_series(pt, "osee").values == tuple(osee(pt, j) for j in range(1, 9))
    assert measure_series(pt, "ee").values == tuple(nm_ee(pt, j) for j in range(1, 10))
    assert measure_series(pt.truncated(1), "osee").values == ()  # a stack of no cuts


def test_zero_norm_cut_names_its_step():
    pt = xx_pt(1.0, 10)
    # a zero site: every cut has zero norm
    zeroed = ProcessTensorMPDO(pt.rho0, np.zeros_like(pt.site), pt.k, site_tol=None)
    with pytest.raises(ValueError, match="zero norm across the cut at step 7$"):
        osee(zeroed, 7)
    with pytest.raises(ValueError, match="zero norm across the cut at step 1$"):
        measure_series(zeroed, "osee")


def test_osee_past_the_float64_range_names_its_cut_without_a_warning(tmp_path, capsys):
    """At k=700 the undamped chain's norm overflows float64: the series' Grams
    do at its first cut, and at the middle cut two finite 350-step Grams
    overflow in their product. No eigensolver may see either, and nothing
    may warn."""
    from ptnm.cli import EXIT_CONFIG, main

    pt = xx_pt(0.0, 700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm past the float64 range across the cut at step 1$"):
            measure_series(pt, "osee")
        lefts, rights = _grams(pt.rho0, pt.site, pt.k, 350, 350)
        assert np.isfinite(lefts[-1]).all() and np.isfinite(rights[0]).all()
        with pytest.raises(ValueError, match="norm past the float64 range across the cut at step 350$"):
            osee(pt, 350)
        code = main(["measure", "--k", "700", "--gamma", "0", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: process tensor has a norm past the float64 range across the cut at step 1" in (
        capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_ee_series_raises_on_trace_drift():
    pt = xx_pt(1.0, 10)
    drifting = ProcessTensorMPDO(pt.rho0, pt.site * 1.5, pt.k, site_tol=None)
    with pytest.raises(ValueError, match="at step 1;") as excinfo:
        measure_series(drifting, "ee")
    trace = float(str(excinfo.value).split("drifted to ")[1].split(" ")[0])
    assert trace == pytest.approx(1.5)


def test_ee_series_accepts_a_drift_the_site_check_allows():
    """A site within SITE_TOL of trace preservation can move a unit-trace
    environment's trace by up to D * SITE_TOL: here by 1.8e-9 per step, on an
    environment held at |+><+|. The recursion's bound is derived from the
    checks the tensor passed, so it does not reject what they accepted."""
    w = site_tensor(np.eye(4).reshape(1, 2, 2, 2, 2)).copy()
    eps = 0.9 * SITE_TOL
    for i in range(2):  # residual eps on every (i, i, a, a') entry
        w[i, i, 0, 0, :, :, 0, 0] += eps
    assert SITE_TOL / 2 < _tp_residual(w) < SITE_TOL
    rho0 = np.kron(np.diag([1.0, 0.0]), PLUS).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    pt = ProcessTensorMPDO(rho0, w, 6)  # passes the default site check
    env = np.einsum("ooaA->aA", pt.rho0)
    drift = abs(np.einsum("iiooaAbb,aA->", w, env) / 2 - 1.0)
    assert 1e-9 < drift < pt.D * SITE_TOL
    series = measure_series(pt, "ee")
    assert series.steps == (1, 2, 3, 4, 5, 6)
    assert max(series.values) < 1e-6


def test_measure_series_rejects_unknown_kind():
    with pytest.raises(ValueError):
        measure_series(xx_pt(1.0, 3), "entropy")


def test_osee_midrange_is_stable_in_k():
    """Away from the right boundary the operational measure must not depend
    on how many later steps the tensor carries."""
    a = xx_pt(0.0, 12)
    b = xx_pt(0.0, 16)
    for j in (4, 5, 6):
        assert abs(osee(a, j) - osee(b, j)) < 0.02
