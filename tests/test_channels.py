"""Tests for channel representations and the Lindblad step construction."""

import numpy as np
import pytest
import scipy.linalg

from ptnm.channels import (
    ChannelTensor,
    KrausChannel,
    LindbladSpec,
    _tp_residual,
    kraus_to_w,
    lindblad_superoperator,
    random_cptp_channel,
    superop_to_kraus,
)
from ptnm.models import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def superop_of(channel: KrausChannel) -> np.ndarray:
    return sum(np.kron(a, a.conj()) for a in channel.kraus)


# ---------------------------------------------------------------------------
# Kraus form
# ---------------------------------------------------------------------------


def test_kraus_channel_rejects_non_trace_preserving_set():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.9,), 2, 1)


def test_kraus_channel_rejects_operator_shape_mismatch():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2),), 2, 2)


def test_kraus_channel_rejects_oversized_set():
    ops = tuple(np.eye(2) / np.sqrt(5.0) for _ in range(5))
    with pytest.raises(ValueError):
        KrausChannel(ops, 2, 1)


def test_kraus_to_w_identity_channel_is_delta_pattern():
    ct = kraus_to_w(KrausChannel((np.eye(4),), 2, 2))
    expected = np.einsum(
        "oi,OI,ba,BA->iIoOaAbB", np.eye(2), np.eye(2), np.eye(2), np.eye(2)
    ).astype(complex)
    np.testing.assert_allclose(ct.w, expected, atol=1e-14)


def test_channel_tensor_invariants_hold_for_random_channels():
    rng = np.random.default_rng(31)
    for _ in range(5):
        ct = kraus_to_w(random_cptp_channel(2, 2, 4, rng))
        w = ct.w
        swap = w.transpose(1, 0, 3, 2, 5, 4, 7, 6)
        np.testing.assert_allclose(w.conj(), swap, atol=1e-12)
        assert _tp_residual(w) < 1e-12
        # read over the (o, b, i, a) pairing, W is the channel's Choi operator
        choi = w.transpose(2, 6, 0, 4, 3, 7, 1, 5).reshape(16, 16)
        assert np.linalg.eigvalsh(choi).min() > -1e-12


def test_channel_tensor_rejects_broken_hermiticity():
    ct = kraus_to_w(KrausChannel((np.eye(2),), 2, 1))
    w = ct.w.copy()
    w[0, 0, 0, 1] += 0.01
    with pytest.raises(ValueError):
        ChannelTensor(w)


# ---------------------------------------------------------------------------
# Lindblad construction
# ---------------------------------------------------------------------------


def test_lindblad_superoperator_is_zero_for_trivial_spec():
    sup = lindblad_superoperator(LindbladSpec(np.zeros((2, 2))))
    np.testing.assert_allclose(sup, np.zeros((4, 4)), atol=1e-14)


def test_lindblad_dephasing_rate_convention():
    """A sigma_z jump at rate r damps coherences at 4r under the doubled
    convention, so realizing a plain (sigma_z rho sigma_z - rho) dissipator
    of strength gamma means passing rate gamma/2."""
    rate = 0.1
    sup = lindblad_superoperator(LindbladSpec(np.zeros((2, 2)), ((SIGMA_Z, rate),)))
    drho = (sup @ PLUS.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(drho[0, 1], -4.0 * rate * PLUS[0, 1], atol=1e-12)


def test_lindblad_dephasing_step_factor():
    gamma, delta = 1.0, 0.1
    sup = lindblad_superoperator(LindbladSpec(np.zeros((2, 2)), ((SIGMA_Z, gamma / 2.0),)))
    step = scipy.linalg.expm(sup * delta)
    out = (step @ PLUS.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(out[0, 1], np.exp(-2.0 * gamma * delta) * PLUS[0, 1], atol=1e-12)


def test_lindblad_preserves_trace():
    rng = np.random.default_rng(33)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = g + g.conj().T
    jump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sup = lindblad_superoperator(LindbladSpec(h, ((jump, 0.7),)))
    # tr(L(rho)) = 0 for every rho means vec(I) is a left null vector
    left = np.eye(4).reshape(-1) @ sup
    np.testing.assert_allclose(left, np.zeros(16), atol=1e-10)


def test_lindblad_damping_targets_steady_state():
    """Driving one qubit with raise/lower jumps at rates (1-n, n) relaxes it
    to diag(1-n, n) regardless of the starting point."""
    n = 0.3
    spec = LindbladSpec(
        np.zeros((2, 2)),
        ((SIGMA_MINUS, 1.0 - n), (SIGMA_PLUS, n)),
    )
    prop = scipy.linalg.expm(lindblad_superoperator(spec) * 50.0)
    rng = np.random.default_rng(34)
    rho = random_density(rng, 2)
    out = (prop @ rho.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(out, np.diag([1.0 - n, n]), atol=1e-10)


def test_lindblad_rejects_negative_rate_and_shape_mismatch():
    with pytest.raises(ValueError):
        LindbladSpec(np.zeros((2, 2)), ((SIGMA_Z, -1.0),))
    with pytest.raises(ValueError):
        LindbladSpec(np.zeros((2, 2)), ((np.eye(4), 1.0),))


def test_exp_of_zero_generator_is_identity_superop():
    sup = lindblad_superoperator(LindbladSpec(np.zeros((2, 2))))
    np.testing.assert_allclose(scipy.linalg.expm(sup), np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# Superoperator to Kraus extraction
# ---------------------------------------------------------------------------


def test_superop_to_kraus_identity():
    channel = superop_to_kraus(np.eye(4), 2, 1)
    assert len(channel.kraus) == 1
    rng = np.random.default_rng(35)
    rho = random_density(rng, 2)
    a = channel.kraus[0]
    np.testing.assert_allclose(a @ rho @ a.conj().T, rho, atol=1e-12)


def test_superop_to_kraus_dephasing_has_two_operators():
    gamma, delta = 1.0, 0.1
    sup = lindblad_superoperator(LindbladSpec(np.zeros((2, 2)), ((SIGMA_Z, gamma / 2.0),)))
    channel = superop_to_kraus(scipy.linalg.expm(sup * delta), 2, 1)
    assert len(channel.kraus) == 2
    out = sum(a @ PLUS @ a.conj().T for a in channel.kraus)
    np.testing.assert_allclose(out[0, 1], np.exp(-0.2) * 0.5, atol=1e-12)


def test_superop_to_kraus_unitary_round_trip():
    rng = np.random.default_rng(36)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    channel = superop_to_kraus(np.kron(q, q.conj()), 2, 2)
    assert len(channel.kraus) == 1
    rho = random_density(rng, 4)
    out = channel.kraus[0] @ rho @ channel.kraus[0].conj().T
    np.testing.assert_allclose(out, q @ rho @ q.conj().T, atol=1e-11)


def test_superop_to_kraus_round_trips_random_channel_action():
    rng = np.random.default_rng(37)
    original = random_cptp_channel(2, 2, 5, rng)
    recovered = superop_to_kraus(superop_of(original), 2, 2)
    for _ in range(10):
        rho = random_density(rng, 4)
        out_a = sum(a @ rho @ a.conj().T for a in original.kraus)
        out_b = sum(b @ rho @ b.conj().T for b in recovered.kraus)
        np.testing.assert_allclose(out_a, out_b, atol=1e-8)


def test_superop_to_kraus_rejects_non_cp_map():
    # transposition is positive but not completely positive
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    with pytest.raises(ValueError):
        superop_to_kraus(swap, 2, 1)


def test_superop_to_kraus_rejects_wrong_shape():
    with pytest.raises(ValueError):
        superop_to_kraus(np.eye(4), 2, 2)


# ---------------------------------------------------------------------------
# Random channels
# ---------------------------------------------------------------------------


def test_random_cptp_channel_is_deterministic_in_the_seed():
    a = random_cptp_channel(2, 2, 4, np.random.default_rng(41))
    b = random_cptp_channel(2, 2, 4, np.random.default_rng(41))
    for x, y in zip(a.kraus, b.kraus):
        np.testing.assert_allclose(x, y, atol=0)


def test_random_cptp_channel_respects_rank_and_validates():
    rng = np.random.default_rng(42)
    assert len(random_cptp_channel(2, 2, 7, rng).kraus) == 7
    with pytest.raises(ValueError):
        random_cptp_channel(2, 2, 17, rng)
    with pytest.raises(ValueError):
        random_cptp_channel(2, 2, 0, rng)
