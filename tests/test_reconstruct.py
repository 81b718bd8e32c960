"""Tests for the hidden-model ansatz, its objective, and the fitter.

The analytic gradient is validated against central finite differences on
random instances, which is the load-bearing check for everything the
optimizer does; recovery of a known random model closes the loop.
"""

import numpy as np
import pytest
import scipy.optimize

from ptnm.channels import KrausChannel, kraus_to_w, random_cptp_channel
from ptnm.models import XXChainParams, xx_chain_model
from ptnm.process_tensor import (
    ProcessTensorMPDO,
    _sweep,
    _tt_core,
    build,
    inner_product,
    materialize,
    norm_sq,
)
from ptnm.reconstruct import (
    FTOL,
    GTOL,
    LM_FLOOR,
    STALL_WINDOW,
    FitReport,
    ReconstructionAnsatz,
    _anchored,
    _decoupled_initial_point,
    _initial_point,
    _Objective,
    _rank_two_update,
    _site_tensor,
    _stage,
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
    # the distance of the dense tensors: the expanded form from inner
    # products has a rounding floor of about 1e-16 |Y|^2
    rng = np.random.default_rng(102)
    for _ in range(3):
        channel, psi = model_pair(rng, kraus_rank=3)
        ansatz = ansatz_from_model(channel, psi)
        direct = build(kraus_to_w(channel), np.outer(psi, psi.conj()), 3)
        predicted = predict(ansatz, 3)
        dist_sq = np.linalg.norm(materialize(direct) - materialize(predicted)) ** 2
        assert dist_sq < 1e-18 * norm_sq(direct)


@pytest.mark.parametrize("r", [1, 3, 16])
def test_site_tensor_matches_its_einsum_definition(r):
    # W[i,i',o,o',a,a',b,b'] = sum_s A[s,o,b,i,a] conj(A[s,o',b',i',a']) at a
    # Kraus stack off the isometries, and the same site as a train core
    rng = np.random.default_rng(120 + r)
    a_bar = rng.normal(size=(r, 2, 2, 2, 2)) + 1j * rng.normal(size=(r, 2, 2, 2, 2))
    reference = np.einsum("sobia,spcje->ijopaebc", a_bar, a_bar.conj())
    scale = np.abs(reference).max()
    np.testing.assert_allclose(_site_tensor(a_bar), reference, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(
        _tt_core(_site_tensor(a_bar)), _tt_core(reference), rtol=0, atol=1e-14 * scale
    )


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
    with pytest.raises(ValueError, match="trace preservation"):
        predict(scaled, 2)


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


def test_loss_matches_the_expanded_form_away_from_the_fit():
    # far from the fit the three terms do not cancel, so the expanded form
    # from the process-tensor inner products is an exact reference
    rng = np.random.default_rng(118)
    for k in (1, 3):
        target = random_target(rng, k)
        a_bar, phi = _initial_point(rng, 2, 2, 3)
        ansatz = ReconstructionAnsatz(a_bar, phi)
        fitted = predict(ansatz, k)
        expanded = norm_sq(fitted) - 2.0 * inner_product(fitted, target).real + norm_sq(target)
        value, _ = value_and_grad_at(ansatz, target, k)
        assert value == pytest.approx(expanded, rel=1e-12)


def test_loss_resolves_a_fit_far_below_the_rounding_of_its_terms():
    # loss(eps) = q eps^2 + O(eps^3) near the generating model; subtracting
    # the three O(|Y|^2) terms would bury eps = 1e-9 (a loss near 1e-18) in
    # rounding of order 1e-16 |Y|^2
    rng = np.random.default_rng(119)
    channel, psi = model_pair(rng, kraus_rank=3)
    target = build(kraus_to_w(channel), np.outer(psi, psi.conj()), 4)
    truth = ansatz_from_model(channel, psi)
    noise = rng.normal(size=truth.a_bar.shape) + 1j * rng.normal(size=truth.a_bar.shape)
    ratios = []
    for eps in (1e-6, 1e-7, 1e-8, 1e-9):
        ansatz = ReconstructionAnsatz(truth.a_bar + eps * noise, psi)
        ratios.append(value_and_grad_at(ansatz, target, 4)[0] / eps**2)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-4)


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


def finite_difference_error(rng, k):
    """Relative error of the analytic gradient against central differences
    (step 1e-6, full coordinate sweep) at a random target and point. The
    random Kraus stack lies off the isometries, so the check covers the
    pullback through the polar factor."""
    h = 1e-6
    target = random_target(rng, k)
    obj = _Objective(target, k, 2, 2, 3)
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
    return np.linalg.norm(grad - fd) / np.linalg.norm(fd)


def test_analytic_gradient_matches_finite_differences():
    """Twenty random instances, full coordinate sweep with central
    differences."""
    rng = np.random.default_rng(108)
    for case in range(20):
        rel = finite_difference_error(rng, 2)
        assert rel < 1e-5, f"instance {case}: relative gradient error {rel:.2e}"


@pytest.mark.parametrize("k", [1, 3])
def test_gradient_matches_finite_differences_at_short_and_odd_k(k):
    """The summed environment has one term at k=1 and three at k=3; the step
    and tolerance are those of the acceptance suite's gradient oracle."""
    rng = np.random.default_rng(109 + k)
    for case in range(3):
        rel = finite_difference_error(rng, k)
        assert rel < 1e-5, f"instance {case}: relative gradient error {rel:.2e}"


def test_loss_factors_give_the_left_boundaries_of_the_train():
    # R_m^H R_m against the two-layer sweep of the same train, at a random
    # first tensor and core in place of the difference train's
    rng = np.random.default_rng(121)
    k = 6
    obj = _Objective(random_target(rng, k), k, 2, 2, 3)
    core = obj.diff_core
    core[...] = rng.normal(size=core.shape) + 1j * rng.normal(size=core.shape)
    first = rng.normal(size=(4, core.shape[0])) + 1j * rng.normal(size=(4, core.shape[0]))
    value, factors = obj._loss(first)
    lefts = _sweep(first, [core] * k, first, [core] * k)
    assert len(factors) == k
    for m in range(k):
        gram = factors[m].conj().T @ factors[m]
        assert np.linalg.norm(gram - lefts[m]) <= 1e-12 * np.linalg.norm(lefts[m])
    trace = obj.diff_trace
    assert value == pytest.approx((trace @ lefts[k] @ trace).real, rel=1e-12)


def fig2a_target(k):
    """The fig2a gamma=1 chain: a pure system start, zero filling."""
    pure = np.diag([1.0, 0.0]).astype(complex)
    channel, rho0 = xx_chain_model(XXChainParams(gamma=1.0, rho0_system=pure))
    return build(channel, rho0, k)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["fig2a", "random"])
def test_gauss_newton_matrix_matches_a_finite_difference_jacobian(kind, k):
    """``2 Re(J^H J)`` against J from central differences (step 1e-6) of the
    dense predicted tensor over every packed coordinate, at an anchored
    random point; k=3 has holes two sites apart."""
    rng = np.random.default_rng(123 + k)
    target = fig2a_target(k) if kind == "fig2a" else random_target(rng, k)
    obj = _Objective(target, k, 2, 2, 3)
    x = obj.pack(*_initial_point(rng, 2, 2, 3))
    h = 1e-6
    columns = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        plus = materialize(predict(_anchored(*obj.unpack(x + step)), k))
        minus = materialize(predict(_anchored(*obj.unpack(x - step)), k))
        columns.append(((plus - minus) / (2.0 * h)).ravel())
    jac = np.array(columns).T
    dense = 2.0 * (jac.conj().T @ jac).real
    gn = obj.gauss_newton(x)
    assert np.linalg.norm(gn - dense) <= 1e-6 * np.linalg.norm(dense)


def test_levenberg_marquardt_reaches_ftol_from_a_perturbed_truth():
    # a zero-residual target, where Gauss-Newton converges quadratically (3
    # steps here); switch=inf puts the whole stage in the LM phase
    rng = np.random.default_rng(124)
    channel, psi = model_pair(rng, kraus_rank=3)
    truth = ansatz_from_model(channel, psi)
    target = predict(truth, 3)
    obj = _Objective(target, 3, 2, 2, 3)
    noise = rng.normal(size=2 * truth.a_bar.size + 2 * psi.size)
    x0 = obj.anchor(obj.pack(truth.a_bar, psi) + 1e-2 * noise)
    assert obj.value_and_grad(x0)[0] > 1e3 * FTOL
    res = scipy.optimize.minimize(
        obj.value_and_grad, x0, jac=True, hess=obj.gauss_newton, method=_stage,
        options={"maxiter": 20, "gtol": GTOL, "switch": np.inf, "anchor": obj.anchor},
    )
    assert res.reason in ("ftol", "gtol")
    assert res.lm_steps == res.nit == len(res.loss_history) <= 5
    assert res.fun <= LM_FLOOR < FTOL


def test_objective_rejects_a_target_with_distinct_sites():
    rng = np.random.default_rng(115)
    w1, w2 = (kraus_to_w(random_cptp_channel(2, 2, 2, rng)).w for _ in range(2))
    psi = random_state(rng, 4)
    rho0 = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    target = ProcessTensorMPDO(rho0, (w1, w2))
    with pytest.raises(ValueError, match="one repeated tensor"):
        _Objective(target, 2, 2, 2, 3)
    _Objective(target, 1, 2, 2, 3)  # a single step is one tensor


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_rank_two_update_matches_the_dense_bfgs_formula():
    # the update keeps the symmetric inverse Hessian in its upper triangle
    rng = np.random.default_rng(116)
    n = 30
    m = rng.normal(size=(n, n))
    h = np.asfortranarray(m @ m.T + n * np.eye(n))
    s, y = rng.normal(size=n), rng.normal(size=n)
    rho = 1.0 / (y @ s)
    eye = np.eye(n)
    dense = (eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s)
    _rank_two_update(h, s, y)
    np.testing.assert_allclose(
        np.triu(h), np.triu(dense), rtol=0, atol=1e-12 * np.abs(dense).max()
    )


def test_rank_two_update_rejects_an_array_blas_would_copy():
    # BLAS would update a Fortran-ordered copy of a C-ordered h and return it
    rng = np.random.default_rng(122)
    h = np.ascontiguousarray(rng.normal(size=(4, 3)).T @ rng.normal(size=(4, 3)) + np.eye(3))
    before = h.copy()
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _rank_two_update(h, rng.normal(size=3), rng.normal(size=3))
    np.testing.assert_array_equal(h, before)


# a stage that never switches to Levenberg-Marquardt
BFGS_ONLY = {"switch": -np.inf, "anchor": None}


def test_bfgs_reaches_gtol_on_a_convex_quadratic():
    rng = np.random.default_rng(117)
    m = rng.normal(size=(10, 10))
    a = m @ m.T + np.eye(10)
    b = rng.normal(size=10)

    def fun(x):
        return 0.5 * x @ a @ x - b @ x, a @ x - b

    res = scipy.optimize.minimize(fun, np.zeros(10), jac=True, method=_stage,
                                  options={**BFGS_ONLY, "maxiter": 1000, "gtol": 1e-8})
    assert res.reason == "gtol" and res.success
    assert 0 < res.nit == len(res.loss_history)
    assert res.lm_steps == 0
    assert res.nfev >= res.nit
    assert np.max(np.abs(res.jac)) <= 1e-8
    np.testing.assert_allclose(res.x, np.linalg.solve(a, b), atol=1e-7)


def test_bfgs_ends_a_plateau_on_the_stall_rule():
    # the whole loss range lies below the stall tolerance
    def fun(x):
        return 1e-12 * np.sum(x**4), 4e-12 * x**3

    res = scipy.optimize.minimize(fun, np.ones(3), jac=True, method=_stage,
                                  options={**BFGS_ONLY, "maxiter": 1000, "gtol": 0.0})
    assert res.reason == "stall"
    assert len(res.loss_history) == res.nit == STALL_WINDOW + 1


def test_bfgs_honours_maxiter():
    def fun(x):
        return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)

    res = scipy.optimize.minimize(fun, np.full(4, -1.0), jac=True, method=_stage,
                                  options={**BFGS_ONLY, "maxiter": 3, "gtol": 1e-8})
    assert res.reason == "maxiter" and not res.success
    assert res.nit == len(res.loss_history) == 3


# ---------------------------------------------------------------------------
# Starting points
# ---------------------------------------------------------------------------


def test_gaussian_start_is_sane():
    rng = np.random.default_rng(110)
    a_bar, phi = _initial_point(rng, 2, 2, 16)
    assert a_bar.shape == (16, 2, 2, 2, 2)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
    # the polar factor of the draw: a trace-preserving step
    assert normalization_residual(ReconstructionAnsatz(a_bar, phi)) < 1e-12


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
    # the Gaussian start is the polar factor of a random Kraus stack, so the
    # truth is a trace-preserving model inside the fitted class
    truth = ReconstructionAnsatz(a_bar, phi / np.linalg.norm(phi))
    target = predict(truth, 4)
    # two starts drawn in turn from one generator; the first wins a tie
    rng = np.random.default_rng(7)
    ansatz, report = fit(target, D=2, R=4, k_schedule=(2, 3), seed=rng, max_iter=2000)
    second = fit(target, D=2, R=4, k_schedule=(2, 3), seed=rng, max_iter=2000)
    if second[1].final_loss < report.final_loss:
        ansatz, report = second
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
    for init in ("gaussian", "decoupled"):
        _, report = fit(target, R=4, k_schedule=(2, 3), seed=3, max_iter=500, init=init)
        assert report.k_schedule == (2, 3)
        assert report.converged == (report.final_loss < 1e-8)
        assert report.iterations > 0
        assert len(report.loss_history) > 0
        # the optimizer records one loss per iteration, over every stage
        assert len(report.loss_history) == report.iterations
        # trace preservation holds by construction
        assert report.normalization_residual < 1e-12
        # one record per stage, in schedule order, adding up to the totals
        assert [stage.k for stage in report.stages] == [2, 3]
        assert sum(stage.iterations for stage in report.stages) == report.iterations
        assert report.stages[-1].final_loss == report.final_loss
        for stage in report.stages:
            assert stage.reason in ("gtol", "ftol", "stall", "line_search", "maxiter")
            assert 0 <= stage.lm_steps <= stage.iterations
            assert stage.evaluations >= stage.iterations > 0
            assert stage.max_abs_grad >= 0.0
            t0 = norm_sq(target.truncated(stage.k))
            assert stage.relative_loss == pytest.approx(stage.final_loss / t0, rel=1e-12)
            if stage.reason == "gtol":
                assert stage.max_abs_grad <= 1e-8


def test_fit_validates_arguments(monkeypatch):
    rng = np.random.default_rng(114)
    target = random_target(rng, 3)
    with pytest.raises(ValueError):
        fit(target, k_schedule=())
    with pytest.raises(ValueError):
        fit(target, k_schedule=(2, 5))  # target too short
    with pytest.raises(ValueError):
        fit(target, k_schedule=(2,), init="warm")

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the Kraus rank was checked")

    monkeypatch.setattr(scipy.optimize, "minimize", no_stage)
    for init in ("gaussian", "decoupled"):
        with pytest.raises(ValueError, match="Kraus rank 17 exceeds"):
            fit(target, D=2, R=17, k_schedule=(2,), init=init)


def test_fit_report_rejects_negative_loss():
    with pytest.raises(ValueError):
        FitReport(
            final_loss=-1.0,
            loss_history=(),
            k_schedule=(2,),
            normalization_residual=0.0,
            iterations=1,
            converged=False,
            stages=(),
        )
