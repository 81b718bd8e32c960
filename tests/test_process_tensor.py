"""Tests for the MPDO process tensor: construction, interventions, dense
cross-checks, containment, and gauge moves."""

import numpy as np
import pytest
import scipy.linalg

from ptnm.channels import identity_channel, kraus_to_w, random_cptp_channel
from ptnm.models import (
    SIGMA_X,
    SIGMA_Z,
    XXChainParams,
    ruqdm_channel,
    xx_chain_liouvillian,
    xx_chain_model,
)
from ptnm.process_tensor import (
    MaterializationLimitError,
    OperationSequence,
    ProcessTensorMPDO,
    _as_matrix,
    apply,
    build,
    check_containment,
    expectation,
    expectation_do_nothing,
    gauge_transform_env,
    identity_superop,
    inner_product,
    local_expectation_averaged,
    materialize,
    measure_prepare_superop,
    norm_sq,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pt(rng, k, kraus_rank=3):
    channel = kraus_to_w(random_cptp_channel(2, 2, kraus_rank, rng))
    return build(channel, random_density(rng, 4), k)


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
    assert pt.site_normalization_residual() < 1e-10


def test_build_rejects_bad_inputs():
    channel, rho0 = xx_chain_model(XXChainParams(gamma=1.0))
    with pytest.raises(ValueError):
        build(channel, rho0, 0)
    with pytest.raises(ValueError):
        build(channel, np.eye(2) / 2.0, 3)
    with pytest.raises(ValueError):
        build(channel, np.eye(4), 3)  # trace 4, not a state


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


def test_rho0_matrix_round_trip():
    pt = xx_pt(0.5, 1)
    m = pt.rho0_matrix()
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    np.testing.assert_allclose(np.trace(m), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Interventions against direct evolution
# ---------------------------------------------------------------------------


def test_apply_identity_interventions_matches_superop_evolution():
    params = XXChainParams(gamma=2.0, n=0.3)
    k = 4
    pt = xx_pt(2.0, k, n=0.3)
    seq = OperationSequence(tuple(identity_superop(2) for _ in range(k)))
    out = apply(pt, seq)

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
    ops = (identity_superop(2), measure_prepare_superop(np.eye(2), prep))
    out = apply(pt, OperationSequence(ops))

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


def test_apply_validates_sequence_length_and_dimension():
    pt = xx_pt(1.0, 2)
    with pytest.raises(ValueError):
        apply(pt, OperationSequence((identity_superop(2),)))
    with pytest.raises(ValueError):
        apply(pt, OperationSequence(tuple(identity_superop(3) for _ in range(2)), d=3))


def test_ruqdm_chain_composes_exactly():
    gamma, delta, k = 0.7, 0.25, 6
    pt = build(ruqdm_channel(gamma, delta), PLUS, k)
    seq = OperationSequence(tuple(identity_superop(2) for _ in range(k)))
    out = apply(pt, seq)
    np.testing.assert_allclose(out[0, 1], 0.5 * np.exp(-2.0 * gamma * delta * k), atol=1e-13)
    np.testing.assert_allclose(out[0, 0], 0.5, atol=1e-13)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------


def test_expectation_with_no_steps_reads_initial_state():
    pt = xx_pt(1.0, 3, rho0_system=PLUS)
    seq = OperationSequence((), final_measurement=SIGMA_X)
    np.testing.assert_allclose(expectation(pt, seq), 1.0, atol=1e-12)
    seq_id = OperationSequence((), final_measurement=np.eye(2))
    np.testing.assert_allclose(expectation(pt, seq_id), 1.0, atol=1e-12)


def test_expectation_uses_only_leading_sites():
    """Containment in action: a j-step sequence gives the same value on a
    k-step tensor as on its truncation."""
    rng = np.random.default_rng(51)
    pt = random_pt(rng, 4)
    seq = OperationSequence(
        tuple(identity_superop(2) for _ in range(2)), final_measurement=SIGMA_Z
    )
    full = expectation(pt, seq)
    short = expectation(pt.truncated(2), seq)
    np.testing.assert_allclose(full, short, atol=1e-12)


def test_expectation_matches_dense_contraction():
    rng = np.random.default_rng(52)
    pt = random_pt(rng, 2)
    ops = []
    for _ in range(2):
        channel = random_cptp_channel(2, 1, 2, rng)
        ops.append(sum(np.kron(a, a.conj()) for a in channel.kraus))
    m = SIGMA_Z + 0.3 * SIGMA_X
    seq = OperationSequence(tuple(ops), final_measurement=m)
    value = expectation(pt, seq)

    t = materialize(pt)  # (o0,o0',i1,i1',o1,o1',i2,i2',o2,o2')
    l0 = ops[0].reshape(2, 2, 2, 2)
    l1 = ops[1].reshape(2, 2, 2, 2)
    dense = np.einsum("aAbBcCdDeE,bBaA,dDcC,Ee->", t, l0, l1, m)
    np.testing.assert_allclose(value, dense.real, atol=1e-11)


def test_expectation_requires_measurement_and_fitting_length():
    pt = xx_pt(1.0, 2)
    with pytest.raises(ValueError):
        expectation(pt, OperationSequence((identity_superop(2),)))
    too_long = OperationSequence(
        tuple(identity_superop(2) for _ in range(3)), final_measurement=SIGMA_Z
    )
    with pytest.raises(ValueError):
        expectation(pt, too_long)


def test_local_expectation_averaged_matches_raw_recursion():
    """The averaged reading contracts the history into the effective
    environment state; redo that bookkeeping with raw matrices."""
    rng = np.random.default_rng(59)
    m_op = SIGMA_Z + 0.2 * SIGMA_X
    for _ in range(3):
        channel = random_cptp_channel(2, 2, 3, rng)
        rho0 = random_density(rng, 4)
        pt = build(kraus_to_w(channel), rho0, 4)
        env = np.einsum("sesE->eE", rho0.reshape(2, 2, 2, 2))
        for j in range(1, 5):
            joint = np.kron(np.eye(2), env)
            out = sum(a @ joint @ a.conj().T for a in channel.kraus)
            rho_s = np.einsum("seSe->sS", out.reshape(2, 2, 2, 2))
            expected = float(np.trace(m_op @ rho_s).real)
            np.testing.assert_allclose(
                local_expectation_averaged(pt, m_op, j), expected, atol=1e-11
            )
            # feed the averaged system forward for the next round
            mixed = np.kron(np.eye(2) / 2.0, env)
            stepped = sum(a @ mixed @ a.conj().T for a in channel.kraus)
            env = np.einsum("sesE->eE", stepped.reshape(2, 2, 2, 2))
            env = (env + env.conj().T) / (2.0 * np.trace(env).real)


def test_do_nothing_differs_from_averaged_with_memory():
    """Identity slots keep system-environment coherence alive; averaging the
    history destroys it, and the undamped exchange model sees the gap."""
    pt = xx_pt(0.0, 4, rho0_system=PLUS)
    gaps = [
        abs(
            expectation_do_nothing(pt, SIGMA_X, j)
            - local_expectation_averaged(pt, SIGMA_X, j)
        )
        for j in range(1, 5)
    ]
    assert max(gaps) > 1e-3


def test_expectation_do_nothing_validates_range():
    pt = xx_pt(1.0, 2)
    with pytest.raises(ValueError):
        expectation_do_nothing(pt, SIGMA_Z, 3)
    with pytest.raises(ValueError):
        expectation_do_nothing(pt, np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


# ---------------------------------------------------------------------------
# Dense materialization
# ---------------------------------------------------------------------------


def test_materialize_single_step_identity_channel():
    """For one identity step on a trivial environment the dense tensor is the
    initial state tensored with a perfect input-output correlator."""
    rho0 = PLUS
    pt = build(kraus_to_w(identity_channel(2, 1)), rho0, 1)
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
    pt = build(ruqdm_channel(1.0, 0.1), PLUS, 5)
    with pytest.raises(MaterializationLimitError):
        materialize(pt)
    materialize(pt, k_max=5)  # explicit override works


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


# ---------------------------------------------------------------------------
# Environment gauge moves
# ---------------------------------------------------------------------------


def test_gauge_transform_identity_is_noop():
    pt = xx_pt(1.0, 3)
    out = gauge_transform_env(pt, np.eye(2))
    np.testing.assert_allclose(out.rho0, pt.rho0, atol=1e-14)


def test_gauge_transform_preserves_observable_content():
    rng = np.random.default_rng(58)
    pt = random_pt(rng, 3)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    moved = gauge_transform_env(pt, u)
    np.testing.assert_allclose(
        materialize(moved), materialize(pt), atol=1e-11
    )


def test_gauge_transform_requires_unitary_of_bond_size():
    pt = xx_pt(1.0, 2)
    with pytest.raises(ValueError):
        gauge_transform_env(pt, np.eye(2) * 1.1)
    with pytest.raises(ValueError):
        gauge_transform_env(pt, np.eye(3))
