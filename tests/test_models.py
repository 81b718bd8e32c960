"""Tests for the two physical models: the damped exchange pair and the
continuous-mode dephasing qubit.

The exchange-pair channel is checked against direct superoperator evolution
and exact stationary states; the dephasing model against its analytic
coherence decay, the rank bound on the mode entropy and the entropy of the
averaged mode state.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from ptnm import models
from ptnm.models import (
    TAIL_MASS,
    UQDMParams,
    XXChainParams,
    _binomial_log_weights,
    _gram_spectra,
    _kept_log_weights,
    ruqdm_channel,
    uqdm_coherence,
    uqdm_env_entropy,
    uqdm_memory_series,
    uqdm_model,
    uqdm_overlaps,
    xx_chain_liouvillian,
    xx_chain_model,
    xx_chain_unitary,
)
from ptnm.tensorops import von_neumann_entropy

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def channel_action(ct, rho):
    """Evolve a joint 4x4 state through the channel's site-ready tensor."""
    r = rho.reshape(2, 2, 2, 2)
    out = np.einsum("iIoOaAbB,iaIA->obOB", ct, r)
    return out.reshape(4, 4)


# ---------------------------------------------------------------------------
# Exchange pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": -1.0},
        {"gamma": 1.0, "n": -0.1},
        {"gamma": 1.0, "n": 1.1},
        {"gamma": 1.0, "delta": 0.0},
        # NaN fails every range check
        {"gamma": math.nan},
        {"gamma": 1.0, "n": math.nan},
        {"gamma": 1.0, "delta": math.nan},
        {"gamma": 1.0, "coupling": math.nan},
    ],
)
def test_xx_params_validation(kwargs):
    with pytest.raises(ValueError):
        XXChainParams(**kwargs)


def test_xx_params_rejects_non_density_initial_state():
    with pytest.raises(ValueError):
        XXChainParams(gamma=1.0, rho0_system=np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_xx_params_states():
    p = XXChainParams(gamma=1.0, n=0.25)
    np.testing.assert_allclose(p.system_state(), np.eye(2) / 2.0)
    np.testing.assert_allclose(p.environment_state(), np.diag([0.75, 0.25]))


def test_xx_liouvillian_is_trace_null():
    vec_id = np.eye(4, dtype=complex).reshape(-1)
    for n in (0.0, 0.3, 1.0):
        sup = xx_chain_liouvillian(XXChainParams(gamma=2.0, n=n))
        assert np.max(np.abs(vec_id @ sup)) < 1e-12


def test_xx_undamped_channel_is_the_unitary_conjugation():
    rng = np.random.default_rng(81)
    p = XXChainParams(gamma=0.0, delta=0.7)
    channel, _ = xx_chain_model(p)
    u = xx_chain_unitary(p)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    for _ in range(3):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(
            channel_action(channel, rho), u @ rho @ u.conj().T, atol=1e-12
        )


def test_xx_channel_matches_superoperator_step():
    rng = np.random.default_rng(82)
    p = XXChainParams(gamma=3.0, n=0.4, delta=0.2)
    channel, _ = xx_chain_model(p)
    step = scipy.linalg.expm(xx_chain_liouvillian(p) * p.delta)
    for _ in range(3):
        rho = random_density(rng, 4)
        expected = (step @ rho.reshape(-1)).reshape(4, 4)
        np.testing.assert_allclose(channel_action(channel, rho), expected, atol=1e-10)


def test_xx_initial_state_is_product_with_stationary_environment():
    p = XXChainParams(gamma=1.0, n=0.3, rho0_system=PLUS)
    _, rho0 = xx_chain_model(p)
    np.testing.assert_allclose(rho0, np.kron(PLUS, np.diag([0.7, 0.3])), atol=1e-14)


def test_xx_maximally_mixed_is_stationary_at_half_filling():
    sup = xx_chain_liouvillian(XXChainParams(gamma=4.0, n=0.5))
    np.testing.assert_allclose(sup @ np.eye(4).reshape(-1) / 4.0, 0.0, atol=1e-12)


def test_xx_decoupled_damping_relaxes_environment_exactly():
    # with the exchange switched off the environment relaxes to diag(1-n, n)
    # and the system is untouched
    rng = np.random.default_rng(83)
    p = XXChainParams(gamma=2.0, n=0.2, coupling=0.0)
    sup = xx_chain_liouvillian(p)
    rho_s = random_density(rng, 2)
    joint = np.kron(rho_s, random_density(rng, 2))
    out = (scipy.linalg.expm(sup * 10.0) @ joint.reshape(-1)).reshape(4, 4)
    np.testing.assert_allclose(out, np.kron(rho_s, np.diag([0.8, 0.2])), atol=1e-8)


# ---------------------------------------------------------------------------
# Random-unitary dephasing
# ---------------------------------------------------------------------------


def test_ruqdm_step_damps_coherence():
    gamma, delta = 0.8, 0.25
    ct = ruqdm_channel(gamma, delta)
    out = channel_action_on_system(ct, PLUS)
    assert abs(out[0, 1] - 0.5 * math.exp(-2.0 * gamma * delta)) < 1e-14
    assert abs(out[0, 0] - 0.5) < 1e-14


def channel_action_on_system(ct, rho):
    # trivial environment: single env level on both bond axes
    out = np.einsum("iIoOaAbB,iI->oOaAbB", ct, rho)
    return out[:, :, 0, 0, 0, 0]


def test_ruqdm_zero_rate_is_identity():
    ct = ruqdm_channel(0.0, 0.5)
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    np.testing.assert_allclose(channel_action_on_system(ct, rho), rho, atol=1e-14)


@pytest.mark.parametrize(
    "gamma,delta", [(-0.1, 0.1), (1.0, 0.0), (1.0, -0.2), (math.nan, 0.1), (1.0, math.nan)]
)
def test_ruqdm_validation(gamma, delta):
    with pytest.raises(ValueError):
        ruqdm_channel(gamma, delta)


# ---------------------------------------------------------------------------
# Continuous-mode dephasing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"gamma": 1.0, "delta": 0.0},
        {"gamma": 1.0, "g": 0.0},
        {"gamma": 1.0, "grid_points": 1},
        {"gamma": math.nan},
        {"gamma": 1.0, "delta": math.nan},
        {"gamma": 1.0, "g": math.nan},
    ],
)
def test_uqdm_params_validation(kwargs):
    with pytest.raises(ValueError):
        UQDMParams(**kwargs)


def test_uqdm_packet_is_normalized():
    model = uqdm_model(UQDMParams(gamma=0.5, grid_points=500))
    assert abs(np.linalg.norm(model.psi) - 1.0) < 1e-12


def test_uqdm_overlaps_start_at_one_and_stay_contractive():
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    c = uqdm_overlaps(model, 40)
    assert abs(c[0] - 1.0) < 1e-12
    assert np.all(np.abs(c) <= 1.0 + 1e-12)
    # dephasing: overlap magnitudes fall off with the power
    assert abs(c[40]) < abs(c[4]) < abs(c[0])


def complex_overlaps(model, max_power):
    """The overlap recursion kept in complex arithmetic, imaginary part and
    all."""
    out = np.empty(max_power + 1, dtype=complex)
    cur = (np.abs(model.psi) ** 2).astype(complex)
    for m in range(max_power + 1):
        out[m] = cur.sum()
        cur = cur * model.phases
    return out


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_uqdm_overlaps_are_the_real_part_and_drop_only_rounding(gamma):
    # paper scale: the imaginary part the float overlaps leave out is the
    # recursion's rounding error, since |psi|^2 is even on the grid
    model = uqdm_model(UQDMParams(gamma=gamma, grid_points=5000))
    full = complex_overlaps(model, 400)
    c = uqdm_overlaps(model, 400)
    assert c.dtype == np.float64
    assert np.array_equal(c, full.real)
    assert np.abs(full.imag).max() <= 1e-12


@pytest.mark.parametrize("gamma", [0.7, 5.0])
def test_uqdm_split_spectrum_matches_the_complex_gram_matrix(gamma):
    """The even and odd blocks carry the spectrum of the full Hermitian
    Gram matrix built from the complex overlaps."""
    model = uqdm_model(UQDMParams(gamma=gamma, grid_points=500))
    full = complex_overlaps(model, 80)
    c = uqdm_overlaps(model, 80)
    spectra = _gram_spectra(c, [_binomial_log_weights(j) for j in range(1, 41)], 41)
    for j, row in zip(range(1, 41), spectra):
        c2 = full[0 : 2 * j + 1 : 2]
        w = np.exp(_binomial_log_weights(j))
        gram = scipy.linalg.toeplitz(c2.conj(), c2) * np.sqrt(np.outer(w, w))
        expected = np.linalg.eigvalsh(gram)
        split = np.sort(row[: j + 1])
        np.testing.assert_allclose(split, expected, rtol=0, atol=1e-13 * expected[-1])
        assert not row[j + 1 :].any()  # zero padded


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_uqdm_truncated_series_matches_the_full_complex_gram_matrix(gamma):
    """Past the onset of the tail cut, the paper-scale series against the
    entropy of the full (j+1) x (j+1) Hermitian Gram matrix from the complex
    overlaps: the cut moves it by at most about 1.4e-14 bits."""
    p = UQDMParams(gamma=gamma, grid_points=5000)
    full = complex_overlaps(uqdm_model(p), 400)
    series = uqdm_memory_series(p, 200)
    for j in (54, 60, 100, 150, 200):
        c2 = full[0 : 2 * j + 1 : 2]
        w = np.exp(_binomial_log_weights(j))
        gram = scipy.linalg.toeplitz(c2.conj(), c2) * np.sqrt(np.outer(w, w))
        expected = von_neumann_entropy(np.linalg.eigvalsh(gram))
        assert abs(series.value_at(j) - expected) < 1e-13


def test_tail_cut_drops_the_most_pairs_within_the_tail_mass():
    """The kept span against exact integer binomials: the dropped pairs of
    tails weigh less than TAIL_MASS = 2^-52 together, one pair more would
    not. The cut starts at j = 54 (at j = 53 the outer pair weighs exactly
    2^-52) and keeps 113 of the 201 indices at j = 200."""
    assert TAIL_MASS == 2.0**-52
    for j in range(401):
        kept = _kept_log_weights(j)
        lo = (j + 1 - len(kept)) // 2
        assert len(kept) == j + 1 - 2 * lo
        np.testing.assert_array_equal(kept, _binomial_log_weights(j)[lo : j + 1 - lo])
        # 2 * sum_{t < lo} C(j, t) / 2^j < 2^-52, in integers
        dropped = 2 * sum(math.comb(j, t) for t in range(lo))
        assert dropped * 2**52 < 2**j
        assert (dropped + 2 * math.comb(j, lo)) * 2**52 >= 2**j
        assert (lo > 0) == (j >= 54)
    assert len(_kept_log_weights(200)) == 113


def test_uqdm_env_entropy_of_one_step_is_the_series_value(monkeypatch):
    """One step and the whole series run the same code: the values are equal
    to the last bit on both sides of the tail cut's onset, and a sequence of
    steps gives the series' values. The series computes its overlaps once,
    up to the largest kept span's power: 2 * 113 at j_max = 200, where
    j = 199 keeps 114 indices (not 2 * 200)."""
    p = UQDMParams(gamma=1.5, grid_points=500)
    model = uqdm_model(p)
    powers = []

    def recorded(m, max_power):
        powers.append(max_power)
        return uqdm_overlaps(m, max_power)

    monkeypatch.setattr(models, "uqdm_overlaps", recorded)
    series = uqdm_memory_series(p, 200)
    assert powers == [226]
    for j in (1, 2, 30, 52, 53, 54, 55, 56, 100, 199, 200):
        assert uqdm_env_entropy(model, j) == series.value_at(j)
    steps = [200, 54, 1, 53]
    values = uqdm_env_entropy(model, steps)
    assert values.shape == (4,)
    assert values.tolist() == [series.value_at(j) for j in steps]
    assert uqdm_env_entropy(model, []).shape == (0,)


@pytest.mark.parametrize("j", [-1, [3, -2], 2.5, [[1, 2]]])
def test_uqdm_entropy_rejects_bad_steps(j):
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    with pytest.raises(ValueError, match="j must be"):
        uqdm_env_entropy(model, j)


def test_binomial_weights_match_exact_integer_binomials():
    """The log-space weights against ``C(j, t) / 2^j`` in exact integer
    arithmetic, correctly rounded, out to j = 400 (fig3 at paper scale needs
    j <= 200)."""
    for j in range(401):
        exact = np.array([math.comb(j, t) / 2**j for t in range(j + 1)])
        np.testing.assert_allclose(np.exp(_binomial_log_weights(j)), exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_uqdm_entropy_matches_the_averaged_mode_state(gamma):
    """Independent of the Gram matrix: averaging over interventions leaves
    the mode in rho_E(j) = (psi psi^H) * cos^j(g delta (x - x') / 2) on the
    grid, whose spectrum gives the entropy directly."""
    p = UQDMParams(gamma=gamma, grid_points=300)
    model = uqdm_model(p)
    outer = np.outer(model.psi, model.psi.conj())
    kernel = np.cos(p.g * p.delta * np.subtract.outer(model.x, model.x) / 2.0)
    for j in [*range(31), 60, 100, 200]:  # both parities of j + 1; cut past 53
        rho = outer * kernel**j
        expected = von_neumann_entropy(np.linalg.eigvalsh(rho))
        assert abs(uqdm_env_entropy(model, j) - expected) < 1e-10


def test_uqdm_entropy_zero_at_step_zero():
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    s0 = uqdm_env_entropy(model, 0)
    assert s0 == 0.0 and math.copysign(1.0, s0) == 1.0  # not -0.0


def test_uqdm_entropy_rank_bound_and_monotonicity():
    # the mode after j steps lives in a (j+1)-dimensional subspace
    series = uqdm_memory_series(UQDMParams(gamma=2.0, grid_points=500), 40)
    values = np.asarray(series.values)
    for j, v in zip(series.steps, values):
        assert v <= math.log2(j + 1) + 1e-12
    assert np.all(np.diff(values) >= -1e-10)
    assert values[0] > 0.01  # one step already writes into the mode


def test_uqdm_entropy_stable_under_grid_refinement():
    coarse = uqdm_model(UQDMParams(gamma=2.0, grid_points=500))
    fine = uqdm_model(UQDMParams(gamma=2.0, grid_points=1000))
    for j in (1, 5, 20, 50):
        assert abs(uqdm_env_entropy(coarse, j) - uqdm_env_entropy(fine, j)) < 1e-3


def test_uqdm_entropy_grows_with_linewidth():
    slow = uqdm_memory_series(UQDMParams(gamma=0.5, grid_points=500), 30)
    fast = uqdm_memory_series(UQDMParams(gamma=2.0, grid_points=500), 30)
    assert all(f >= s - 1e-12 for f, s in zip(fast.values, slow.values))


def test_uqdm_memory_series_structure():
    series = uqdm_memory_series(UQDMParams(gamma=1.0, grid_points=500), 6)
    assert series.kind == "memory"
    assert series.steps == tuple(range(1, 7))
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    np.testing.assert_allclose(series.value_at(4), uqdm_env_entropy(model, 4), atol=1e-12)


def test_uqdm_free_coherence_matches_lorentzian_decay():
    """The Fourier transform of the Lorentzian packet gives the analytic
    decay exp(-gamma*g*delta*j) for the coherence magnitude.

    The window is widened beyond the default so that the truncated tail mass
    (folded back in by renormalization) stays below the tolerance even at
    j=1, where the coherence is still large.
    """
    p = UQDMParams(gamma=1.0, delta=0.1, g=1.0, grid_points=20000, halfwidth_factor=400.0)
    model = uqdm_model(p)
    for j in (1, 5, 10, 20):
        expected = 0.5 * math.exp(-p.gamma * p.g * p.delta * j)
        assert abs(abs(uqdm_coherence(model, j)) - expected) < 1e-3


def test_uqdm_default_grid_decay_error_at_late_steps():
    # on the default grid the truncation bias is proportional to the decayed
    # magnitude, so by j=20 it sits well inside 1e-3
    p = UQDMParams(gamma=1.0, delta=0.1, g=1.0)
    model = uqdm_model(p)
    expected = 0.5 * math.exp(-2.0)
    assert abs(abs(uqdm_coherence(model, 20)) - expected) < 1e-3


def test_uqdm_initial_coherence_is_half():
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    assert abs(uqdm_coherence(model, 0) - 0.5) < 1e-14


def test_uqdm_echo_refocuses_exactly_on_the_grid():
    """A flip halfway reverses the accumulated phases exactly, point by grid
    point, so the restored magnitude carries no discretization error."""
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    for half in (3, 8):
        restored = uqdm_coherence(model, 2 * half, flip_at=half)
        assert abs(abs(restored) - 0.5) < 1e-12


def test_uqdm_off_center_flip_does_not_refocus():
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    assert abs(abs(uqdm_coherence(model, 10, flip_at=2)) - 0.5) > 1e-3


def test_uqdm_coherence_validation():
    model = uqdm_model(UQDMParams(gamma=1.0, grid_points=500))
    with pytest.raises(ValueError):
        uqdm_coherence(model, -1)
    with pytest.raises(ValueError):
        uqdm_coherence(model, 4, flip_at=5)
    with pytest.raises(ValueError):
        uqdm_coherence(model, 4, flip_at=-1)
