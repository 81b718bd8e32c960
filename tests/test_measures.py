"""Tests for the two memory measures and their series sweeps.

The environment measure is cross-checked against a raw-matrix recursion and
against the unitary-model entropy computed without site tensors; the
operational measure is cross-checked against a dense Schmidt decomposition of
the vectorized process tensor.
"""

import numpy as np
import pytest

from ptnm.channels import KrausChannel, kraus_to_w, random_cptp_channel
from ptnm.measures import (
    _cut_spectrum,
    env_state,
    measure_series,
    memory_complexity,
    nm_ee,
    osee,
)
from ptnm.models import XXChainParams, ruqdm_channel, xx_chain_model, xx_chain_unitary
from ptnm.process_tensor import ProcessTensorMPDO, build, materialize
from ptnm.tensorops import Spectrum, von_neumann_entropy

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pt(rng, k, kraus_rank=3):
    channel = kraus_to_w(random_cptp_channel(2, 2, kraus_rank, rng))
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
    pt = build(kraus_to_w(random_cptp_channel(2, 2, 3, rng)), rho0, 2)
    expected = np.einsum("sesE->eE", rho0.reshape(2, 2, 2, 2))
    np.testing.assert_allclose(env_state(pt, 0), expected, atol=1e-12)


def test_env_state_matches_raw_matrix_recursion():
    """Feed the maximally mixed system through the channel step by step with
    plain matrices and compare against the site-tensor recursion."""
    rng = np.random.default_rng(62)
    for _ in range(4):
        channel = random_cptp_channel(2, 2, 4, rng)
        rho0 = random_density(rng, 4)
        pt = build(kraus_to_w(channel), rho0, 4)
        env = np.einsum("sesE->eE", rho0.reshape(2, 2, 2, 2))
        for j in range(1, 5):
            joint = np.kron(np.eye(2) / 2.0, env)
            out = sum(a @ joint @ a.conj().T for a in channel.kraus)
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
    scaled = ProcessTensorMPDO(pt.rho0, tuple(w * 1.2 for w in pt.sites), site_tol=None)
    with pytest.raises(ValueError):
        env_state(scaled, 2)
    # a loose tolerance turns the guard off
    env_state(scaled, 2, trace_tol=0.5)


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
        pt = build(kraus_to_w(KrausChannel((u,), 2, 2)), rho0, 4)
        for j in range(1, 5):
            a = nm_ee(pt, j)
            b = memory_complexity(u, rho0, 2, 2, j)
            assert abs(a - b) < 1e-9


def test_memory_complexity_rejects_non_unitary():
    with pytest.raises(ValueError):
        memory_complexity(np.eye(4) * 1.1, np.eye(4) / 4.0, 2, 2, 2)


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
    w = np.einsum("xa,yA,zb,wB,iIoOaAbB->iIoOxyzw", u.conj(), u, u, u.conj(), pt.sites[0])
    moved = ProcessTensorMPDO(rho0, (w,) * pt.k)
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
    """The osee series as an O(k^2) loop: left Grams grown step by step, and
    the right Gram rebuilt from the final trace for every cut."""
    D = pt.D
    l = np.einsum("oOxX,oOyY->xXyY", pt.rho0.conj(), pt.rho0)
    values = []
    for j in range(1, pt.k):
        w = pt.sites[j - 1]
        tmp = np.einsum("xXyY,iIoOyYbB->xXiIoObB", l, w)
        l = np.einsum("xXiIoObB,iIoOxXcC->cCbB", tmp, w.conj())
        r = np.einsum("xX,yY->xXyY", np.eye(D), np.eye(D)).astype(complex)
        for m in range(pt.k - 1, j - 1, -1):
            w = pt.sites[m]
            tmp = np.einsum("iIoOyYqQ,pPqQ->iIoOyYpP", w, r)
            r = np.einsum("iIoOxXpP,iIoOyYpP->xXyY", w.conj(), tmp)
        values.append(von_neumann_entropy(Spectrum.from_values(_cut_spectrum(l, r))) / 2.0)
    return tuple(values)


def test_osee_series_equals_per_cut_reference_exactly():
    """One left and one right sweep do the per-cut loop's arithmetic, so the
    values agree to the last bit."""
    pt = xx_pt(5.0, 40, n=0.5)
    series = measure_series(pt, "osee")
    assert series.values == _per_cut_osee_reference(pt)
    assert [osee(pt, j) for j in (1, 20, 39)] == [series.value_at(j) for j in (1, 20, 39)]


def test_ee_series_raises_on_trace_drift():
    pt = xx_pt(1.0, 10)
    sites = list(pt.sites)
    sites[6] = sites[6] * 1.5  # the step-7 site
    drifting = ProcessTensorMPDO(pt.rho0, tuple(sites), site_tol=None)
    with pytest.raises(ValueError, match="at step 7") as excinfo:
        measure_series(drifting, "ee")
    trace = float(str(excinfo.value).split("drifted to ")[1].split(" ")[0])
    assert trace == pytest.approx(1.5)


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
