"""Tests for the hidden-model ansatz, its objective, and the fitter.

The analytic gradient is validated against central finite differences on
random instances, which is the load-bearing check for everything the
optimizer does; recovery of a known random model closes the loop.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from ptnm.channels import random_cptp_channel, site_tensor
from ptnm.models import XXChainParams, xx_chain_model
from ptnm.process_tensor import (
    ProcessTensorMPDO,
    _as_matrix,
    _rights,
    _sweep,
    _tt_core,
    build,
    inner_product,
    materialize,
    norm_sq,
)
from ptnm.reconstruct import (
    CERTIFY_K,
    FTOL,
    GTOL,
    LM_DAMPING,
    LM_FLOOR,
    LM_WINDOW,
    STALL_WINDOW,
    FitReport,
    ReconstructionAnsatz,
    _anchored,
    _certified,
    _choi_spectrum,
    _decoupled_initial_point,
    _descend,
    _initial_point,
    _Objective,
    _rank_two_update,
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
    return build(site_tensor(channel), np.outer(psi, psi.conj()), k)


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
        direct = build(site_tensor(channel), np.outer(psi, psi.conj()), 3)
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
    np.testing.assert_allclose(site_tensor(a_bar), reference, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(
        _tt_core(site_tensor(a_bar)), _tt_core(reference), rtol=0, atol=1e-14 * scale
    )


def test_normalization_residual_zero_for_proper_channel():
    rng = np.random.default_rng(103)
    ansatz = ansatz_from_model(*model_pair(rng, kraus_rank=4))
    assert normalization_residual(ansatz) < 1e-12


def test_normalization_residual_detects_scaling():
    rng = np.random.default_rng(104)
    channel, psi = model_pair(rng)
    scaled = ReconstructionAnsatz(
        channel * 1.05, psi
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
    target = build(site_tensor(channel), np.outer(psi, psi.conj()), 4)
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
    target = build(site_tensor(channel), np.outer(psi, psi.conj()), 4)
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
    target = build(site_tensor(channel), np.outer(psi, psi.conj()), 3)
    _, grad = value_and_grad_at(ansatz_from_model(channel, psi), target, 3)
    assert np.max(np.abs(grad)) < 1e-10 * norm_sq(target)


def test_loss_decreases_toward_the_truth():
    # walking from a perturbed model toward the truth must lower the loss
    rng = np.random.default_rng(107)
    channel, psi = model_pair(rng, kraus_rank=2)
    target = build(site_tensor(channel), np.outer(psi, psi.conj()), 3)
    a_true = channel
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


def test_sweeps_build_one_transfer_per_core_pair_and_the_objective_reads_its_fitted_bonds():
    rng = np.random.default_rng(122)
    k, nf = 6, 4
    obj = _Objective(random_target(rng, k), k, 2, 2, 3)
    core = obj.diff_core
    fitted = rng.normal(size=(nf, 16, nf)) + 1j * rng.normal(size=(nf, 16, nf))
    core[:nf, :, :nf] = fitted
    # a difference train whose target block alternates between two objects,
    # so the ket cores pair with the one bra core in two ways
    other = core.copy()
    other[nf:, :, nf:] *= 0.5
    bra, ket = [fitted] * k, [core, other] * (k // 2)
    first = rng.normal(size=(4, nf)) + 1j * rng.normal(size=(4, nf))
    first_diff = rng.normal(size=(4, core.shape[0])) + 1j * rng.normal(size=(4, core.shape[0]))
    bra_trace, trace = np.eye(2).reshape(1, -1), obj.diff_trace[None, :]
    # each core pair's transfer matrix is built once per call, keyed by
    # object id: the cache changes nothing but the work, to the last bit
    copies = [c.copy() for c in bra], [c.copy() for c in ket]
    shared = _sweep(first, bra, first_diff, ket)
    copied = _sweep(first, copies[0], first_diff, copies[1])
    assert all(np.array_equal(a, b) for a, b in zip(shared, copied, strict=True))
    rights = _rights(bra_trace, bra, trace, ket)
    assert np.array_equal(rights, _rights(bra_trace, copies[0], trace, copies[1]))
    # value_and_grad's right sweep, with the fitted train as bra, gives the
    # fitted bra rows of the whole difference train's right boundaries
    full = _rights(trace, ket, trace, ket)[:, :nf]
    assert rights.shape == full.shape
    for r, expected in zip(rights, full):
        assert np.linalg.norm(r - expected) <= 1e-13 * np.linalg.norm(expected)


def fig2a_target(k):
    """The fig2a gamma=1 chain: a pure system start, zero filling."""
    pure = np.diag([1.0, 0.0]).astype(complex)
    channel, rho0 = xx_chain_model(XXChainParams(gamma=1.0, rho0_system=pure))
    return build(channel, rho0, k)


def dense_batch(ansatze, k):
    """The dense predicted tensors of many ansatze, one flattened row each:
    the contraction ``materialize`` runs, with a leading axis over the
    ansatze, the last site's environment output traced before it joins."""
    w = np.stack([site_tensor(a.a_bar) for a in ansatze])
    psi = np.stack([a.psi0 for a in ansatze])
    b, d, dd = w.shape[0], w.shape[1], w.shape[5]
    rho = psi[:, :, None] * psi[:, None, :].conj()
    # (o0, o0', a, a'), then every site with its environment input pair first
    t = rho.reshape(b, d, dd, d, dd).transpose(0, 1, 3, 2, 4).reshape(b, d * d, dd * dd)
    site = w.transpose(0, 5, 6, 1, 2, 3, 4, 7, 8).reshape(b, dd * dd, -1)
    last = np.trace(w, axis1=7, axis2=8).transpose(0, 5, 6, 1, 2, 3, 4).reshape(b, dd * dd, -1)
    for _ in range(k - 1):
        t = (t @ site).reshape(b, -1, dd * dd)
    return (t @ last).reshape(b, -1)


# Kraus ranks 1, 2, 3 and 4 at k = 1, 2, 3, and the cap 16 at k = 1, 2; the
# ids name the rank where it is not 3
GN_CASES = [(r, k) for r in (1, 2, 3, 4) for k in (1, 2, 3)] + [(16, 1), (16, 2)]


@pytest.mark.parametrize(("r", "k"), GN_CASES, ids=[f"{k}" if r == 3 else f"{k}-R{r}" for r, k in GN_CASES])
@pytest.mark.parametrize("kind", ["fig2a", "random"])
def test_gauss_newton_matrix_matches_a_finite_difference_jacobian(kind, r, k):
    """``2 Re(J^H J)`` against J from central differences (step 1e-6) of the
    dense predicted tensor over every packed coordinate, at an anchored
    random point of Kraus rank r; k=3 has holes two sites apart. The
    perturbed tensors are contracted in one batch, which at the point itself
    agrees with ``materialize``."""
    rng = np.random.default_rng(123 + k)
    target = fig2a_target(k) if kind == "fig2a" else random_target(rng, k)
    obj = _Objective(target, k, 2, 2, r)
    x = obj.pack(*_initial_point(rng, 2, 2, r))
    at_x = _anchored(*obj.unpack(x))
    np.testing.assert_allclose(
        dense_batch([at_x], k)[0], materialize(predict(at_x, k)).ravel(), rtol=0, atol=1e-13
    )
    h = 1e-6
    steps = h * np.eye(x.size)
    plus = dense_batch([_anchored(*obj.unpack(x + step)) for step in steps], k)
    minus = dense_batch([_anchored(*obj.unpack(x - step)) for step in steps], k)
    jac = ((plus - minus) / (2.0 * h)).T
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
    w1, w2 = (site_tensor(random_cptp_channel(2, 2, 2, rng)) for _ in range(2))
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


def test_levenberg_marquardt_hands_a_crawl_back_to_bfgs():
    # an overdetermined least-squares loss with a nonzero minimum and a
    # Gauss-Newton matrix far too stiff: LM starts at once (switch=inf),
    # crawls, gives the stage back after LM_WINDOW + 1 steps, and BFGS
    # finishes it at the least-squares solution
    rng = np.random.default_rng(125)
    a, b = rng.normal(size=(8, 4)), rng.normal(size=8)
    solution = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.sum((a @ solution - b) ** 2) > 0.1

    def fun(x):
        r = a @ x - b
        return r @ r, 2 * a.T @ r

    res = scipy.optimize.minimize(
        fun, np.zeros(4), jac=True, hess=lambda x: 1e6 * np.eye(4), method=_stage,
        options={"maxiter": 1000, "gtol": 1e-8, "switch": np.inf, "anchor": lambda x: x},
    )
    assert res.reason == "gtol"
    assert res.lm_steps == LM_WINDOW + 1
    assert res.nit > res.lm_steps
    np.testing.assert_allclose(res.x, solution, rtol=0, atol=1e-9)


def test_levenberg_marquardt_assembles_once_per_point():
    # a Gauss-Newton matrix 50 times too soft makes the first LM steps
    # overshoot: each rejection raises mu and solves again at the same point
    # from the matrix assembled there, which must come back undamped
    rng = np.random.default_rng(126)
    a = rng.normal(size=(6, 3))
    b = a @ rng.normal(size=3)
    soft = 0.04 * a.T @ a

    def fun(x):
        r = a @ x - b
        return r @ r, 2 * a.T @ r

    points = []

    def hess(x):
        points.append(x.copy())
        h = soft.copy()
        h.flags.writeable = False  # damping the kept matrix in place raises
        return h

    res = scipy.optimize.minimize(
        fun, np.zeros(3), jac=True, hess=hess, method=_stage,
        options={"maxiter": 200, "gtol": 1e-12, "switch": np.inf, "anchor": lambda x: x},
    )
    assert res.reason == "ftol" and res.lm_steps == res.nit
    assert len({p.tobytes() for p in points}) == len(points) < res.lm_steps
    # the first accepted step solves with the undamped matrix plus the mu
    # that the rejections before it raised, as an assembly at every
    # rejection would
    f0, g0 = fun(np.zeros(3))
    rejected = next(i for i, f in enumerate(res.loss_history) if f != f0)
    assert rejected >= 1
    mu, nu = LM_DAMPING * np.max(np.diag(soft)), 2.0
    for _ in range(rejected):
        mu, nu = mu * nu, nu * 2.0
    np.testing.assert_allclose(points[1], np.linalg.solve(soft + mu * np.eye(3), -g0), rtol=1e-12)


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
    # _initial_point draws the polar factor of a random Kraus stack, so the
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
    _, report = fit(target, R=4, k_schedule=(2, 3), seed=3, max_iter=500)
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
    # the stages are the returned rung's; the abandoned rungs sit below
    # it on the ladder 1, 2, 4, each stopped at a stage with loss >= FTOL,
    # or ruled out by the rank certificate before its first stage ran
    assert report.rank in (1, 2, 4)
    assert [rung.rank for rung in report.rungs] == [r for r in (1, 2) if r < report.rank]
    assert report.converged or report.rank == 4
    for rung in report.rungs:
        assert rung.stages[-1].k in (2, 3)
        assert rung.final_loss == rung.stages[-1].final_loss >= FTOL
        assert not rung.converged and rung.rungs == () and rung.loss_history == ()
        assert rung.iterations == sum(stage.iterations for stage in rung.stages)
        if rung.stages[-1].reason == "rank_bound":
            assert len(rung.stages) == 1 and rung.stages[0].k == 2
            assert rung.iterations == rung.stages[0].evaluations == rung.stages[0].lm_steps == 0
            assert rung.loss_history == () and rung.normalization_residual is None
            t0 = norm_sq(target.truncated(2))
            assert rung.stages[0].relative_loss == pytest.approx(rung.final_loss / t0, rel=1e-12)
        else:
            assert rung.iterations > 0
            assert rung.stages[-1].reason in ("gtol", "ftol", "stall", "line_search", "maxiter")
    for stage in report.stages:
        assert stage.reason in ("gtol", "ftol", "stall", "line_search", "maxiter")
        assert 0 <= stage.lm_steps <= stage.iterations
        assert stage.evaluations >= stage.iterations > 0
        assert stage.max_abs_grad >= 0.0
        t0 = norm_sq(target.truncated(stage.k))
        assert stage.relative_loss == pytest.approx(stage.final_loss / t0, rel=1e-12)
        if stage.reason == "gtol":
            assert stage.max_abs_grad <= 1e-8


def test_fit_returns_the_smallest_rank_that_reaches_ftol():
    # a rank-2 truth under the cap R=16: rank 1 cannot reproduce it, so the
    # ladder abandons it and returns the rank-2 rung
    rng = np.random.default_rng(115)
    truth = ReconstructionAnsatz(*_initial_point(rng, 2, 2, 2))
    target = predict(truth, 3)
    ansatz, report = fit(target, D=2, R=16, k_schedule=(2, 3), seed=1, max_iter=2000)
    assert report.converged and report.final_loss < FTOL
    assert report.rank == ansatz.R <= 2
    assert [rung.rank for rung in report.rungs] == list(range(1, report.rank))


def test_fit_falls_back_to_the_cap_when_no_rank_converges():
    # a memoryless model (D=1) cannot reproduce a target with memory at any
    # rank, so every rung below the cap is abandoned at its first stage
    target = random_target(np.random.default_rng(113), 3)
    rng = np.random.default_rng(0)
    ansatz, report = fit(target, D=1, R=4, k_schedule=(2, 3), seed=rng, max_iter=500)
    assert not report.converged
    assert report.rank == ansatz.R == 4
    assert [(rung.rank, rung.stages[-1].k) for rung in report.rungs] == [(1, 2), (2, 2)]
    assert all(rung.final_loss >= FTOL for rung in report.rungs)
    # the cap rung starts where a fit at the cap alone would, and the
    # generator advances by that one draw
    replay = np.random.default_rng(0)
    start = _anchored(*_decoupled_initial_point(replay, 2, 1, 4))
    assert rng.bit_generator.state == replay.bit_generator.state
    _, cap = _descend(target, start, (2, 3), 500, abandon=False)
    assert report == replace(cap, rungs=report.rungs)
    # the rank certificate rules the rungs below the cap out, and it is
    # sound: a fit at rank 1 alone ends its first stage at or above the
    # bound recorded for that rung
    single = fit(target, D=1, R=1, k_schedule=(2,), seed=0, max_iter=500)[1]
    assert single.rank == 1 and single.rungs == ()
    assert single.stages[0].final_loss >= report.rungs[0].final_loss >= FTOL


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_rank_bound_is_below_the_loss_of_random_rank_r_models(r, k):
    """Eckart-Young on dense tensors: a rank-r model's k-step Choi matrix has
    rank at most D r^k, so its squared distance to the target is at least
    the target's squared singular values past that rank."""
    rng = np.random.default_rng(130 + 10 * r + k)
    target = random_target(rng, k)
    dense = _as_matrix(materialize(target))
    spectrum = _choi_spectrum(target, k)
    assert np.allclose(spectrum, np.linalg.svd(dense, compute_uv=False) ** 2, rtol=0, atol=1e-12)
    bound = float(np.sum(spectrum[2 * r**k :]))
    assert bound > 1e-4
    for _ in range(5):
        model = _as_matrix(materialize(predict(ReconstructionAnsatz(*_initial_point(rng, 2, 2, r)), k)))
        singular = np.linalg.svd(model, compute_uv=False)
        assert np.all(singular[2 * r**k :] <= 1e-12 * singular[0])
        assert np.linalg.norm(model - dense) ** 2 >= bound


@pytest.mark.parametrize("kind", ["fig2a", "random"])
def test_rank_certificate_is_below_the_loss_of_the_rung_it_skips(kind):
    # each rung the fit skips, run from the start it would have drawn,
    # ends its first stage at or above the bound recorded for it
    target = fig2a_target(3) if kind == "fig2a" else random_target(np.random.default_rng(117), 3)
    _, report = fit(target, D=2, R=4, k_schedule=(2, 3), seed=5, max_iter=500)
    skipped = [rung for rung in report.rungs if rung.stages[0].reason == "rank_bound"]
    assert [rung.rank for rung in skipped] == ([1] if kind == "fig2a" else [1, 2])
    for rung in skipped:
        start = _anchored(*_decoupled_initial_point(np.random.default_rng(5), 2, 2, rung.rank))
        _, run = _descend(target, start, (2, 3), 500, abandon=True)
        assert [stage.k for stage in run.stages] == [2]
        assert run.stages[0].final_loss >= rung.final_loss >= FTOL


def test_rank_certificate_runs_a_rank_that_can_fit():
    # a rank-2 truth: its Choi matrix has rank D 2^k, so rank 2 is not
    # ruled out, rank 1 is, and the fit still returns rank 2 or less
    rng = np.random.default_rng(116)
    target = predict(ReconstructionAnsatz(*_initial_point(rng, 2, 2, 2)), 3)
    spectrum = _choi_spectrum(target, 2)
    assert float(np.sum(spectrum[2 * 2**2 :])) < FTOL
    assert _certified(spectrum, 2, 2, (2, 3)) is None
    assert _certified(spectrum, 2, 1, (2, 3)) is not None
    ansatz, report = fit(target, D=2, R=16, k_schedule=(2, 3), seed=2, max_iter=2000)
    assert report.converged and report.rank == ansatz.R <= 2
    assert [rung.stages[0].reason for rung in report.rungs] == ["rank_bound"] * (report.rank - 1)


def test_rank_certificate_needs_a_short_first_stage():
    # past CERTIFY_K steps the target is not contracted densely: every rung
    # below the cap runs its first stage
    target = random_target(np.random.default_rng(113), CERTIFY_K + 1)
    _, report = fit(target, D=1, R=2, k_schedule=(CERTIFY_K + 1,), seed=0, max_iter=200)
    assert [rung.rank for rung in report.rungs] == [1]
    assert report.rungs[0].iterations > 0 and report.rungs[0].stages[0].reason != "rank_bound"
    # a rung that ran keeps its stages but not its loss after every iteration
    assert report.rungs[0].loss_history == () and len(report.loss_history) == report.iterations
    short = random_target(np.random.default_rng(113), CERTIFY_K)
    _, report = fit(short, D=1, R=2, k_schedule=(CERTIFY_K,), seed=0, max_iter=200)
    assert report.rungs[0].stages[0].reason == "rank_bound"


@pytest.mark.parametrize("seed", [3, 10, 14])
def test_fitted_nm_ee_is_reproducible_under_a_one_ulp_target_change(seed):
    # a fit at the leanest converged rank is a function of the target: one
    # ulp on the target site leaves the fitted nm_ee series in place
    from ptnm import cli

    cfg = cli.resolve_config("fig2a", {"gammas": [1.0], "restarts": 1, "seed": seed}, None)
    target = cli._xx_target(cfg, 1.0, cfg.k, pure_system=True)
    nudged = ProcessTensorMPDO(target.rho0, tuple(site * (1 + 2**-52) for site in target.sites))
    series = []
    for t in (target, nudged):
        ansatz, report, _ = cli._fit_selected(t, cfg, 0)
        assert report.converged
        series.append(np.array([row[2] for row in cli._measure_rows(predict(ansatz, cfg.k))]))
    assert np.max(np.abs(series[0] - series[1])) <= 1e-12


def test_fit_validates_arguments(monkeypatch):
    rng = np.random.default_rng(114)
    target = random_target(rng, 3)
    with pytest.raises(ValueError):
        fit(target, k_schedule=())
    with pytest.raises(ValueError):
        fit(target, k_schedule=(2, 5))  # target too short

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the Kraus rank was checked")

    monkeypatch.setattr(scipy.optimize, "minimize", no_stage)
    with pytest.raises(ValueError, match="Kraus rank 17 exceeds"):
        fit(target, D=2, R=17, k_schedule=(2,))


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
            rank=1,
        )
