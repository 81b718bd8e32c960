"""Tests for channel representations and the Lindblad step construction."""

import numpy as np
import pytest
import scipy.linalg

from ptnm.channels import (
    _tp_residual,
    lindblad_superoperator,
    random_cptp_channel,
    site_tensor,
    superop_to_kraus,
)
from ptnm.io import channel_from_dict, complex_to_pairs
from ptnm.models import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z
from ptnm.process_tensor import ProcessTensorMPDO, build

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def operators(kraus: np.ndarray) -> np.ndarray:
    """The joint-space operators ``(R, d*D, d*D)`` of a Kraus stack."""
    m = kraus.shape[1] * kraus.shape[2]
    return kraus.reshape(-1, m, m)


def superop_of(kraus: np.ndarray) -> np.ndarray:
    return sum(np.kron(a, a.conj()) for a in operators(kraus))


# ---------------------------------------------------------------------------
# Kraus form
# ---------------------------------------------------------------------------


def test_kraus_channel_rejects_non_trace_preserving_set():
    # trace preservation is checked where every site enters a process tensor
    w = site_tensor((np.eye(2) * 0.9).reshape(1, 2, 1, 2, 1))
    with pytest.raises(ValueError, match="site breaks trace preservation"):
        build(w, np.eye(2) / 2.0, 1)


def _channel_file(ops, d, D):
    return {"d": d, "D": D, "kraus": [complex_to_pairs(op) for op in ops]}


def test_kraus_channel_rejects_operator_shape_mismatch():
    with pytest.raises(ValueError, match="expected"):
        channel_from_dict(_channel_file([np.eye(2)], 2, 2))


def test_kraus_channel_rejects_oversized_set():
    ops = [np.eye(2) / np.sqrt(5.0) for _ in range(5)]
    with pytest.raises(ValueError, match="exceed the maximum 4"):
        channel_from_dict(_channel_file(ops, 2, 1))
    with pytest.raises(ValueError, match="at least one"):
        channel_from_dict(_channel_file([], 2, 1))


def test_site_tensor_identity_channel_is_delta_pattern():
    ct = site_tensor(np.eye(4, dtype=complex).reshape(1, 2, 2, 2, 2))
    expected = np.einsum(
        "oi,OI,ba,BA->iIoOaAbB", np.eye(2), np.eye(2), np.eye(2), np.eye(2)
    ).astype(complex)
    np.testing.assert_allclose(ct, expected, atol=1e-14)


def test_channel_tensor_invariants_hold_for_random_channels():
    rng = np.random.default_rng(31)
    for _ in range(5):
        ct = site_tensor(random_cptp_channel(2, 2, 4, rng))
        w = ct
        swap = w.transpose(1, 0, 3, 2, 5, 4, 7, 6)
        np.testing.assert_allclose(w.conj(), swap, atol=1e-12)
        assert _tp_residual(w) < 1e-12
        # read over the (o, b, i, a) pairing, W is the channel's Choi operator
        choi = w.transpose(2, 6, 0, 4, 3, 7, 1, 5).reshape(16, 16)
        assert np.linalg.eigvalsh(choi).min() > -1e-12


def test_channel_tensor_rejects_broken_hermiticity():
    w = site_tensor(np.eye(2, dtype=complex).reshape(1, 2, 1, 2, 1)).copy()
    w[0, 0, 0, 1] += 0.01
    with pytest.raises(ValueError, match="Hermiticity"):
        ProcessTensorMPDO(np.eye(2).reshape(2, 2, 1, 1) / 2.0, w, 1)


# ---------------------------------------------------------------------------
# Lindblad construction
# ---------------------------------------------------------------------------


def test_lindblad_superoperator_is_zero_for_trivial_spec():
    sup = lindblad_superoperator(np.zeros((2, 2)), ())
    np.testing.assert_allclose(sup, np.zeros((4, 4)), atol=1e-14)


def test_lindblad_dephasing_rate_convention():
    """A sigma_z jump at rate r damps coherences at 4r under the doubled
    convention, so realizing a plain (sigma_z rho sigma_z - rho) dissipator
    of strength gamma means passing rate gamma/2."""
    rate = 0.1
    sup = lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_Z, rate)])
    drho = (sup @ PLUS.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(drho[0, 1], -4.0 * rate * PLUS[0, 1], atol=1e-12)


def test_lindblad_dephasing_step_factor():
    gamma, delta = 1.0, 0.1
    sup = lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_Z, gamma / 2.0)])
    step = scipy.linalg.expm(sup * delta)
    out = (step @ PLUS.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(out[0, 1], np.exp(-2.0 * gamma * delta) * PLUS[0, 1], atol=1e-12)


def test_lindblad_preserves_trace():
    rng = np.random.default_rng(33)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = g + g.conj().T
    jump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sup = lindblad_superoperator(h, [(jump, 0.7)])
    # tr(L(rho)) = 0 for every rho means vec(I) is a left null vector
    left = np.eye(4).reshape(-1) @ sup
    np.testing.assert_allclose(left, np.zeros(16), atol=1e-10)


def test_lindblad_damping_targets_steady_state():
    """Driving one qubit with raise/lower jumps at rates (1-n, n) relaxes it
    to diag(1-n, n) regardless of the starting point."""
    n = 0.3
    sup = lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_MINUS, 1.0 - n), (SIGMA_PLUS, n)])
    prop = scipy.linalg.expm(sup * 50.0)
    rng = np.random.default_rng(34)
    rho = random_density(rng, 2)
    out = (prop @ rho.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(out, np.diag([1.0 - n, n]), atol=1e-10)


def test_exp_of_zero_generator_is_identity_superop():
    sup = lindblad_superoperator(np.zeros((2, 2)), ())
    np.testing.assert_allclose(scipy.linalg.expm(sup), np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# Superoperator to Kraus extraction
# ---------------------------------------------------------------------------


def test_superop_to_kraus_identity():
    kraus = superop_to_kraus(np.eye(4), 2, 1)
    assert kraus.shape == (1, 2, 1, 2, 1)
    rng = np.random.default_rng(35)
    rho = random_density(rng, 2)
    a = operators(kraus)[0]
    np.testing.assert_allclose(a @ rho @ a.conj().T, rho, atol=1e-12)


def test_superop_to_kraus_dephasing_has_two_operators():
    gamma, delta = 1.0, 0.1
    sup = lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_Z, gamma / 2.0)])
    kraus = superop_to_kraus(scipy.linalg.expm(sup * delta), 2, 1)
    assert len(kraus) == 2
    out = sum(a @ PLUS @ a.conj().T for a in operators(kraus))
    np.testing.assert_allclose(out[0, 1], np.exp(-0.2) * 0.5, atol=1e-12)


def test_superop_to_kraus_unitary_round_trip():
    rng = np.random.default_rng(36)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    (a,) = operators(superop_to_kraus(np.kron(q, q.conj()), 2, 2))
    rho = random_density(rng, 4)
    out = a @ rho @ a.conj().T
    np.testing.assert_allclose(out, q @ rho @ q.conj().T, atol=1e-11)


def test_superop_to_kraus_round_trips_random_channel_action():
    rng = np.random.default_rng(37)
    original = random_cptp_channel(2, 2, 5, rng)
    recovered = superop_to_kraus(superop_of(original), 2, 2)
    for _ in range(10):
        rho = random_density(rng, 4)
        out_a = sum(a @ rho @ a.conj().T for a in operators(original))
        out_b = sum(b @ rho @ b.conj().T for b in operators(recovered))
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
    np.testing.assert_allclose(a, b, atol=0)


def test_random_cptp_channel_respects_rank_and_validates():
    rng = np.random.default_rng(42)
    assert random_cptp_channel(2, 2, 7, rng).shape == (7, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        random_cptp_channel(2, 2, 17, rng)
    with pytest.raises(ValueError):
        random_cptp_channel(2, 2, 0, rng)
