"""Tests for the MPDO process tensor: construction, interventions threaded
through the dense tensor, containment, and inner products."""

import numpy as np
import pytest
import scipy.linalg

import ptnm.process_tensor
from ptnm.channels import _tp_residual, random_cptp_channel, site_tensor
from ptnm.models import (
    XXChainParams,
    ruqdm_channel,
    xx_chain_liouvillian,
    xx_chain_model,
)
from ptnm.process_tensor import (
    MaterializationLimitError,
    ProcessTensorMPDO,
    _as_matrix,
    _rights,
    _sweep,
    _tt_core,
    build,
    check_containment,
    inner_product,
    materialize,
    norm_sq,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
# an intervention [i, i', o, o'] maps the system output pair (o, o') of one
# step to the input pair (i, i') of the next
IDENTITY_MAP = np.einsum("io,IO->iIoO", np.eye(2), np.eye(2)).astype(complex)


def measure_prepare_map(measurement, preparation):
    """``rho -> tr(measurement rho) * preparation`` as an intervention."""
    return np.einsum("iI,Oo->iIoO", preparation, measurement)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pt(rng, k, kraus_rank=3):
    channel = site_tensor(random_cptp_channel(2, 2, kraus_rank, rng))
    return build(channel, random_density(rng, 4), k)


def random_steps_pt(rng, k, kraus_rank=3):
    """A process tensor with a different random channel at every step."""
    sites = tuple(
        site_tensor(random_cptp_channel(2, 2, kraus_rank, rng)) for _ in range(k)
    )
    rho0 = random_density(rng, 4).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    return ProcessTensorMPDO(rho0, sites)


def xx_pt(gamma, k, n=0.0, rho0_system=None):
    params = XXChainParams(gamma=gamma, n=n, rho0_system=rho0_system)
    channel, rho0 = xx_chain_model(params)
    return build(channel, rho0, k)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_shapes_and_step_count():
    pt = xx_pt(1.0, 3)
    assert pt.d == 2 and pt.D == 2 and pt.k == 3
    assert pt.rho0.shape == (2, 2, 2, 2)
    for w in pt.sites:
        assert w.shape == (2, 2, 2, 2, 2, 2, 2, 2)
        assert _tp_residual(w) < 1e-10


def test_build_rejects_bad_inputs():
    channel, rho0 = xx_chain_model(XXChainParams(gamma=1.0))
    with pytest.raises(ValueError):
        build(channel, rho0, 0)
    with pytest.raises(ValueError):
        build(channel, np.eye(2) / 2.0, 3)
    with pytest.raises(ValueError):
        build(channel, np.eye(4), 3)  # trace 4, not a state
    with pytest.raises(ValueError, match="eight indices"):
        build(channel.reshape(16, 16), rho0, 3)  # a matrix, not a site tensor


def test_process_tensor_rejects_non_trace_preserving_site():
    pt = xx_pt(1.0, 2)
    bad = pt.sites[0] * 1.01
    with pytest.raises(ValueError):
        ProcessTensorMPDO(pt.rho0, (bad,))
    # the variational carrier skips that check on request
    ProcessTensorMPDO(pt.rho0, (bad,), site_tol=None)


def test_site_checks_name_the_first_step_of_a_bad_object():
    pt = xx_pt(1.0, 2)
    good = pt.sites[0]
    bad = good * 1.01
    # each distinct object is checked once, but the error still names the
    # first step it appears at
    with pytest.raises(ValueError, match="site 3 breaks trace preservation"):
        ProcessTensorMPDO(pt.rho0, (good,) * 3 + (bad,) * 4 + (good,))
    skewed = good.copy()
    skewed[0, 1, 0, 0, 0, 0, 0, 0] += 1e-3
    with pytest.raises(ValueError, match="site 1 breaks prime-swap Hermiticity"):
        ProcessTensorMPDO(pt.rho0, (good, skewed, skewed), site_tol=None)


# ---------------------------------------------------------------------------
# Interventions against direct evolution
# ---------------------------------------------------------------------------


def test_apply_identity_interventions_matches_superop_evolution():
    params = XXChainParams(gamma=2.0, n=0.3)
    k = 4
    pt = xx_pt(2.0, k, n=0.3)
    # slots (o0, o0', i0, i0', ..., i3, i3', o4, o4'): an identity map on
    # every (o_m, i_m) pair leaves the final system state
    t = materialize(pt)
    out = np.einsum("aAbBcCdDeEfFgGhHxX,bBaA,dDcC,fFeE,hHgG->xX", t, *[IDENTITY_MAP] * k)

    step = scipy.linalg.expm(xx_chain_liouvillian(params) * params.delta)
    vec = np.kron(params.system_state(), params.environment_state()).reshape(-1)
    for _ in range(k):
        vec = step @ vec
    expected = np.trace(vec.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    np.testing.assert_allclose(out, expected, atol=1e-11)


def test_apply_threads_a_preparation_through():
    """A measure-and-prepare intervention resets the system, so the final
    state only sees the channel applied to the prepared state."""
    k = 2
    pt = xx_pt(1.5, k)
    prep = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    reset = measure_prepare_map(np.eye(2), prep)
    out = np.einsum("aAbBcCdDxX,bBaA,dDcC->xX", materialize(pt), IDENTITY_MAP, reset)

    params = XXChainParams(gamma=1.5)
    step = scipy.linalg.expm(xx_chain_liouvillian(params) * params.delta)
    vec = np.kron(params.system_state(), params.environment_state()).reshape(-1)
    vec = step @ vec
    joint = vec.reshape(2, 2, 2, 2)
    env = np.einsum("sesE->eE", joint)  # trace out the system, keep its env
    vec2 = np.einsum("sS,eE->seSE", prep, env).reshape(-1)
    vec2 = step @ vec2
    expected = np.trace(vec2.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    np.testing.assert_allclose(out, expected, atol=1e-11)


def test_ruqdm_chain_composes_exactly():
    gamma, delta, k = 0.7, 0.25, 6
    pt = build(ruqdm_channel(gamma, delta), PLUS, k)
    # k is past the dense guard, so thread the identity maps through the sites
    state = pt.rho0
    for w in pt.sites:
        state = np.einsum("iIoOaAbB,iIaA->oObB", w, state)
    out = np.einsum("oOaa->oO", state)
    np.testing.assert_allclose(out[0, 1], 0.5 * np.exp(-2.0 * gamma * delta * k), atol=1e-13)
    np.testing.assert_allclose(out[0, 0], 0.5, atol=1e-13)


# ---------------------------------------------------------------------------
# Dense materialization
# ---------------------------------------------------------------------------


def test_materialize_single_step_identity_channel():
    """For one identity step on a trivial environment the dense tensor is the
    initial state tensored with a perfect input-output correlator."""
    rho0 = PLUS
    pt = build(site_tensor(np.eye(2).reshape(1, 2, 1, 2, 1)), rho0, 1)
    t = materialize(pt)  # (o0, o0', i0, i0', o1, o1')
    assert t.shape == (2, 2, 2, 2, 2, 2)
    # the step copies its input: T[o0,o0',i0,i0',o1,o1'] =
    # rho0[o0,o0'] delta[i0,o1] delta[i0',o1']
    build_expected = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    for o in range(2):
        for O in range(2):
            for i in range(2):
                for I in range(2):
                    build_expected[o, O, i, I, i, I] = rho0[o, O]
    np.testing.assert_allclose(t, build_expected, atol=1e-13)


def test_materialize_is_positive_and_hermitian():
    rng = np.random.default_rng(53)
    mat = _as_matrix(materialize(random_pt(rng, 3)))
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-11)
    assert np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min() > -1e-10


def test_materialize_refuses_large_k():
    with pytest.raises(MaterializationLimitError):
        materialize(build(ruqdm_channel(1.0, 0.1), PLUS, 5))
    # an explicit limit overrides the default, shown where it is cheap
    pt = build(ruqdm_channel(1.0, 0.1), PLUS, 3)
    with pytest.raises(MaterializationLimitError):
        materialize(pt, k_max=2)
    materialize(pt, k_max=3)


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------


def test_containment_holds_for_built_models():
    rng = np.random.default_rng(54)
    for k in (2, 3, 4):
        report = check_containment(random_pt(rng, k))
        assert report.passed
        assert report.residual < 1e-9


def test_containment_fails_for_non_trace_preserving_final_site():
    pt = xx_pt(1.0, 3)
    sites = list(pt.sites)
    sites[-1] = sites[-1] * 1.001  # stays positive, loses trace preservation
    tampered = ProcessTensorMPDO(pt.rho0, tuple(sites), site_tol=None)
    report = check_containment(tampered)
    assert not report.passed
    assert report.residual > 1e-4


def test_containment_needs_two_steps():
    with pytest.raises(ValueError):
        check_containment(xx_pt(1.0, 1))


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------


def test_inner_product_matches_dense_contraction():
    rng = np.random.default_rng(55)
    for k in (1, 2, 3):
        a = random_pt(rng, k)
        b = random_pt(rng, k)
        dense_a = materialize(a)
        dense_b = materialize(b)
        expected = np.vdot(dense_a, dense_b)
        np.testing.assert_allclose(inner_product(a, b), expected, rtol=1e-11, atol=1e-12)
    # bond dimensions that differ: the boundaries are rectangular
    for k in (1, 2, 3):
        a = build(site_tensor(random_cptp_channel(2, 1, 2, rng)), random_density(rng, 2), k)
        b = build(site_tensor(random_cptp_channel(2, 2, 3, rng)), random_density(rng, 4), k)
        for bra, ket in ((a, b), (b, a)):
            expected = np.vdot(materialize(bra), materialize(ket))
            np.testing.assert_allclose(inner_product(bra, ket), expected, rtol=1e-11, atol=1e-12)
    # both sweep directions: with a different site at every step, the left
    # and right boundaries meet at every cut j = 0..k in the same number
    for k in (1, 2, 3):
        a = random_steps_pt(rng, k)
        b = random_steps_pt(rng, k)
        expected = np.vdot(materialize(a), materialize(b))
        cores_a = [_tt_core(w) for w in a.sites]
        cores_b = [_tt_core(w) for w in b.sites]
        lefts = _sweep(a.rho0.reshape(4, -1), cores_a, b.rho0.reshape(4, -1), cores_b)
        trace = np.eye(2).reshape(1, -1)
        back_a = [c.transpose(2, 1, 0) for c in reversed(cores_a)]
        back_b = [c.transpose(2, 1, 0) for c in reversed(cores_b)]
        rights = _sweep(trace, back_a, trace, back_b)[::-1]
        assert len(lefts) == len(rights) == k + 1
        for l, r in zip(lefts, rights):
            np.testing.assert_allclose(np.sum(l * r), expected, rtol=1e-11, atol=1e-12)
        # _rights lays the reversed cores out itself
        by_hand = np.stack(_sweep(trace, back_a, trace, back_a)[::-1])
        np.testing.assert_allclose(_rights(trace, cores_a, trace, cores_a), by_hand, rtol=1e-12, atol=0)


def test_sweep_builds_a_transfer_matrix_only_where_it_fits_in_its_cores(monkeypatch):
    # a step's transfer matrix has (bond_bra * bond_ket)**2 entries: at D=8
    # that is 64**4, 256 MiB, against 2 MiB for the two cores it contracts
    rng = np.random.default_rng(58)
    built = []
    transfer = ptnm.process_tensor._transfer
    monkeypatch.setattr(ptnm.process_tensor, "_transfer", lambda cb, ck: built.append(1) or transfer(cb, ck))
    for env_a, env_b, expected_built in ((2, 2, 1), (1, 3, 1), (3, 3, 0), (8, 8, 0)):
        a = build(site_tensor(random_cptp_channel(2, env_a, 2, rng)), random_density(rng, 2 * env_a), 2)
        b = build(site_tensor(random_cptp_channel(2, env_b, 2, rng)), random_density(rng, 2 * env_b), 2)
        built.clear()
        expected = np.vdot(materialize(a), materialize(b))
        np.testing.assert_allclose(inner_product(a, b), expected, rtol=1e-11, atol=1e-12)
        # build repeats one site object, so a fitting pair is built once
        assert len(built) == expected_built, (env_a, env_b)


def test_inner_product_conjugate_symmetry_and_positivity():
    rng = np.random.default_rng(56)
    a = random_pt(rng, 3)
    b = random_pt(rng, 3)
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    np.testing.assert_allclose(ab, np.conj(ba), atol=1e-12)
    assert norm_sq(a) > 0


def test_inner_product_rejects_mismatched_tensors():
    rng = np.random.default_rng(57)
    with pytest.raises(ValueError):
        inner_product(random_pt(rng, 2), random_pt(rng, 3))
