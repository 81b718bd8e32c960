"""Tests for the hidden-model ansatz, its objective, and the fitter.

The analytic gradient is validated against central finite differences on
random instances, which is the load-bearing check for everything the
optimizer does; recovery of a known random model closes the loop.
"""

import numpy as np
import pytest

from ptnm.channels import KrausChannel, kraus_to_w, random_cptp_channel
from ptnm.process_tensor import build, inner_product, norm_sq
from ptnm.reconstruct import (
    FitReport,
    ReconstructionAnsatz,
    _decoupled_initial_point,
    _initial_point,
    _Objective,
    ansatz_from_model,
    fit,
    normalization_residual,
    predict,
)


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_target(rng, k, kraus_rank=3):
    channel = random_cptp_channel(2, 2, kraus_rank, rng)
    psi = random_state(rng, 4)
    return build(kraus_to_w(channel), np.outer(psi, psi.conj()), k)


def model_pair(rng, kraus_rank=2):
    channel = random_cptp_channel(2, 2, kraus_rank, rng)
    psi = random_state(rng, 4)
    return channel, psi


# ---------------------------------------------------------------------------
# Ansatz container
# ---------------------------------------------------------------------------


def test_ansatz_shape_properties():
    rng = np.random.default_rng(100)
    channel, psi = model_pair(rng, kraus_rank=3)
    ansatz = ansatz_from_model(channel, psi)
    assert (ansatz.R, ansatz.d, ansatz.D) == (3, 2, 2)


@pytest.mark.parametrize(
    "a_shape",
    [(3, 2, 2, 2), (3, 2, 2, 3, 2), (3, 2, 2, 2, 3), (17, 2, 2, 2, 2)],
)
def test_ansatz_rejects_bad_step_tensor(a_shape):
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError):
        ReconstructionAnsatz(np.zeros(a_shape, dtype=complex), psi)


def test_ansatz_rejects_bad_initial_state():
    a = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        ReconstructionAnsatz(a, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        ReconstructionAnsatz(a, np.full(4, 0.6, dtype=complex))


def test_predict_rejects_nonpositive_steps():
    rng = np.random.default_rng(101)
    ansatz = ansatz_from_model(*model_pair(rng))
    with pytest.raises(ValueError):
        predict(ansatz, 0)


# ---------------------------------------------------------------------------
# Embedding a known model
# ---------------------------------------------------------------------------


def test_predicted_tensor_matches_direct_build():
    rng = np.random.default_rng(102)
    for _ in range(3):
        channel, psi = model_pair(rng, kraus_rank=3)
        ansatz = ansatz_from_model(channel, psi)
        direct = build(kraus_to_w(channel), np.outer(psi, psi.conj()), 3)
        predicted = predict(ansatz, 3)
        dist_sq = (
            norm_sq(direct)
            + norm_sq(predicted)
            - 2.0 * inner_product(direct, predicted).real
        )
        assert abs(dist_sq) < 1e-18 * norm_sq(direct)


def test_normalization_residual_zero_for_proper_channel():
    rng = np.random.default_rng(103)
    ansatz = ansatz_from_model(*model_pair(rng, kraus_rank=4))
    assert normalization_residual(ansatz) < 1e-12


def test_normalization_residual_detects_scaling():
    rng = np.random.default_rng(104)
    channel, psi = model_pair(rng)
    scaled = ReconstructionAnsatz(
        np.stack([op.reshape(2, 2, 2, 2) for op in channel.kraus]) * 1.05, psi
    )
    assert normalization_residual(scaled) > 0.05


# ---------------------------------------------------------------------------
# Loss and gradient
# ---------------------------------------------------------------------------


def value_and_grad_at(ansatz, target, k):
    """The objective's loss and packed gradient at an ansatz."""
    obj = _Objective(target, k, ansatz.d, ansatz.D, ansatz.R)
    return obj.value_and_grad(obj.pack(ansatz.a_bar, ansatz.psi0))


def test_loss_vanishes_at_the_generating_model():
    rng = np.random.default_rng(105)
    channel, psi = model_pair(rng, kraus_rank=3)
    target = build(kraus_to_w(channel), np.outer(psi, psi.conj()), 4)
    ansatz = ansatz_from_model(channel, psi)
    value, _ = value_and_grad_at(ansatz, target, 4)
    assert value < 1e-16 * norm_sq(target)


def test_gradient_vanishes_at_the_generating_model():
    rng = np.random.default_rng(106)
    channel, psi = model_pair(rng, kraus_rank=3)
    target = build(kraus_to_w(channel), np.outer(psi, psi.conj()), 3)
    _, grad = value_and_grad_at(ansatz_from_model(channel, psi), target, 3)
    assert np.max(np.abs(grad)) < 1e-10 * norm_sq(target)


def test_loss_decreases_toward_the_truth():
    # walking from a perturbed model toward the truth must lower the loss
    rng = np.random.default_rng(107)
    channel, psi = model_pair(rng, kraus_rank=2)
    target = build(kraus_to_w(channel), np.outer(psi, psi.conj()), 3)
    a_true = np.stack([op.reshape(2, 2, 2, 2) for op in channel.kraus])
    noise = rng.normal(size=a_true.shape) + 1j * rng.normal(size=a_true.shape)
    losses = []
    for t in (1.0, 0.5, 0.1, 0.0):
        ansatz = ReconstructionAnsatz(a_true + 0.2 * t * noise, psi)
        losses.append(value_and_grad_at(ansatz, target, 3)[0])
    assert losses[0] > losses[1] > losses[2] > losses[3]


def test_analytic_gradient_matches_finite_differences():
    """Twenty random instances, full coordinate sweep with central
    differences; a subset runs with the normalization penalty switched on."""
    rng = np.random.default_rng(108)
    h = 1e-6
    for case in range(20):
        penalty = 0.0 if case % 2 == 0 else 1.7
        target = random_target(rng, 2)
        obj = _Objective(target, 2, 2, 2, 3, penalty=penalty)
        a_bar = rng.normal(size=(3, 2, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2, 2))
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        x = obj.pack(a_bar, phi)
        _, grad = obj.value_and_grad(x)
        fd = np.empty_like(grad)
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = h
            f_plus, _ = obj.value_and_grad(x + step)
            f_minus, _ = obj.value_and_grad(x - step)
            fd[i] = (f_plus - f_minus) / (2.0 * h)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-5, f"instance {case}: relative gradient error {rel:.2e}"


# ---------------------------------------------------------------------------
# Starting points
# ---------------------------------------------------------------------------


def test_gaussian_start_is_sane():
    rng = np.random.default_rng(110)
    a_bar, phi = _initial_point(rng, 2, 2, 16)
    assert a_bar.shape == (16, 2, 2, 2, 2)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12


def test_decoupled_start_is_trace_preserving_at_zero_noise():
    rng = np.random.default_rng(111)
    a_bar, phi = _decoupled_initial_point(rng, 2, 2, 16, eps=0.0)
    ansatz = ReconstructionAnsatz(a_bar, phi)
    assert normalization_residual(ansatz) < 1e-12
    # memoryless: the predicted tensor carries no environment correlations
    from ptnm.measures import nm_ee

    pt = predict(ansatz, 3)
    for j in (1, 2, 3):
        assert nm_ee(pt, j) < 1e-10


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_a_random_hidden_model():
    rng = np.random.default_rng(112)
    a_bar, phi = _initial_point(rng, 2, 2, 4)
    # make it a proper normalized model by projecting onto trace preservation:
    # scale is enough here since we only need a well-formed target
    truth = ReconstructionAnsatz(a_bar, phi / np.linalg.norm(phi))
    target = predict(truth, 4)
    ansatz, report = fit(
        target,
        D=2,
        R=4,
        k_schedule=(2, 3),
        restarts=2,
        seed=7,
        max_iter=2000,
    )
    assert report.final_loss < 1e-6 * norm_sq(target)
    fitted = predict(ansatz, 3)
    direct = predict(truth, 3)
    dist_sq = (
        norm_sq(direct) + norm_sq(fitted) - 2.0 * inner_product(direct, fitted).real
    )
    assert abs(dist_sq) < 1e-8 * norm_sq(direct)


def test_fit_report_fields_are_consistent():
    rng = np.random.default_rng(113)
    target = random_target(rng, 3)
    _, report = fit(target, R=4, k_schedule=(2, 3), restarts=1, seed=3, max_iter=500)
    assert report.k_schedule == (2, 3)
    assert report.converged == (report.final_loss < 1e-8)
    assert report.iterations > 0
    assert len(report.loss_history) > 0
    # the stall callback records one loss per iteration, over every stage
    assert len(report.loss_history) == report.iterations
    assert report.normalization_residual >= 0.0


def test_fit_validates_arguments():
    rng = np.random.default_rng(114)
    target = random_target(rng, 3)
    with pytest.raises(ValueError):
        fit(target, k_schedule=())
    with pytest.raises(ValueError):
        fit(target, k_schedule=(2, 5))  # target too short
    with pytest.raises(ValueError):
        fit(target, k_schedule=(2,), init="warm")


def test_fit_report_rejects_negative_loss():
    with pytest.raises(ValueError):
        FitReport(
            final_loss=-1.0,
            loss_history=(),
            k_schedule=(2,),
            normalization_residual=0.0,
            iterations=1,
            converged=False,
        )
