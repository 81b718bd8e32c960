"""Variational reconstruction of a hidden Markovian model from a process tensor.

The model class is a single Kraus-like tensor ``A_bar[s, o, beta, i, alpha]``
applied at every step plus a pure joint initial state, so a candidate process
tensor is ``predict(ansatz, k)`` and fitting minimizes the squared distance

    loss = <Y_fit - Y_target, Y_fit - Y_target>
         = <Y_fit, Y_fit> - 2 Re <Y_fit, Y_target> + <Y_target, Y_target>,

evaluated without materializing Y. The three terms are of order
``<Y_target, Y_target>`` (about 1e3 at k=6 on the chain) while their sum
falls below 1e-8 in a converged fit, so the value is not taken from them:
``Y_fit - Y_target`` is one tensor train (bond space fit (+) target,
block-diagonal sites, the minus sign on the initial tensor), and a QR sweep
along it gives the norm with an absolute error of order eps*|Y|*|Y_fit -
Y_target| instead of eps*|Y|^2.

The gradient is assembled analytically from the cached left/right boundaries
of the two variable terms. Every fitted site is the same tensor W and every
target site the same tensor T, so the k site environments sum to one
contraction: ``G = sum_m l_m (x) r_{m+1}`` is a single matmul of the stacked
boundaries, contracted once with T (cross term) or W (self term), and the
result is chained onto A_bar once per appearance of conj(A_bar) in W. Trace
preservation of the fitted tensor is not enforced during optimization; it is
monitored through ``normalization_residual`` and can be nudged with an
optional quadratic penalty.

Gradient conventions: for a real loss L of complex parameters x, the reported
arrays are d L / d re(x) = 2 Re(dL/d conj x) and d L / d im(x) =
2 Im(dL/d conj x). The initial-state parameters are unconstrained; the state
is normalized inside the objective, which projects its gradient onto the
sphere's tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .channels import KrausChannel, _tp_residual, random_cptp_channel
from .process_tensor import ProcessTensorMPDO, _left_sweep, _right_sweep, norm_sq

PSI_NORM_TOL = 1e-10

# BFGS stage stopping rule: the inf-norm gradient test at GTOL, or a stall of
# less than STALL_TOL loss improvement over STALL_WINDOW iterations; a fit
# whose final loss is below FTOL counts as converged.
GTOL = 1e-8
FTOL = 1e-8
STALL_WINDOW = 50
STALL_TOL = 1e-10


@dataclass(frozen=True)
class ReconstructionAnsatz:
    """Hidden-model parameters: step tensor ``a_bar`` and pure initial state.

    ``a_bar`` has shape (R, d, D, d, D) with index order (s, o, beta, i,
    alpha): s enumerates Kraus terms, (i, alpha) are the incoming system/bond
    indices and (o, beta) the outgoing ones. ``psi0`` is the joint initial
    state vector of length d*D (system index slow).
    """

    a_bar: np.ndarray
    psi0: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_bar, dtype=complex)
        psi = np.asarray(self.psi0, dtype=complex)
        if a.ndim != 5 or a.shape[1] != a.shape[3] or a.shape[2] != a.shape[4]:
            raise ValueError(f"a_bar must have shape (R, d, D, d, D), got {a.shape}")
        r, d, dd = a.shape[0], a.shape[1], a.shape[2]
        if r > (d * dd) ** 2:
            raise ValueError(f"Kraus rank {r} exceeds (d*D)^2 = {(d * dd) ** 2}")
        if psi.shape != (d * dd,):
            raise ValueError(f"psi0 must have length d*D = {d * dd}, got {psi.shape}")
        if abs(np.linalg.norm(psi) - 1.0) > PSI_NORM_TOL:
            raise ValueError(f"psi0 must be unit norm, |psi| = {np.linalg.norm(psi)}")
        object.__setattr__(self, "a_bar", a)
        object.__setattr__(self, "psi0", psi)

    @property
    def R(self) -> int:
        return self.a_bar.shape[0]

    @property
    def d(self) -> int:
        return self.a_bar.shape[1]

    @property
    def D(self) -> int:
        return self.a_bar.shape[2]


@dataclass(frozen=True)
class FitStage:
    """One BFGS stage of a fit: the stage's step count ``k``, its iteration
    and objective-evaluation counts, its final loss (absolute and relative to
    the target's squared norm at ``k``), the final gradient's largest entry,
    and why it stopped: ``gtol``, ``stall``, ``line_search`` or ``maxiter``."""

    k: int
    iterations: int
    evaluations: int
    final_loss: float
    relative_loss: float
    max_abs_grad: float
    reason: str


@dataclass(frozen=True)
class FitReport:
    final_loss: float
    loss_history: tuple[float, ...]
    k_schedule: tuple[int, ...]
    normalization_residual: float
    iterations: int
    converged: bool
    stages: tuple[FitStage, ...]

    def __post_init__(self):
        if self.final_loss < 0:
            raise ValueError("final_loss must be nonnegative")


def _site_tensor(a_bar: np.ndarray) -> np.ndarray:
    # W[i,i',o,o',a,a',b,b'] = sum_s A[s,o,b,i,a] conj(A[s,o',b',i',a'])
    return np.einsum("sobia,spcje->ijopaebc", a_bar, a_bar.conj())


def _rho0_tensor(psi: np.ndarray, d: int, dd: int) -> np.ndarray:
    return np.outer(psi, psi.conj()).reshape(d, dd, d, dd).transpose(0, 2, 1, 3)


def predict(ansatz: ReconstructionAnsatz, k: int) -> ProcessTensorMPDO:
    """Process tensor of the hidden model; trace preservation is deliberately
    left unchecked since fitted tensors carry it only approximately."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = _site_tensor(ansatz.a_bar)
    rho0 = _rho0_tensor(ansatz.psi0, ansatz.d, ansatz.D)
    return ProcessTensorMPDO(rho0, (w,) * k, site_tol=None)


def ansatz_from_model(channel: KrausChannel, psi0: np.ndarray) -> ReconstructionAnsatz:
    """Embed a known model: Kraus operators become the slices of ``a_bar``."""
    d, dd = channel.d, channel.D
    a_bar = np.stack([op.reshape(d, dd, d, dd) for op in channel.kraus])
    return ReconstructionAnsatz(a_bar, np.asarray(psi0, dtype=complex))


def normalization_residual(ansatz: ReconstructionAnsatz) -> float:
    """Largest deviation of the fitted site tensor from trace preservation."""
    return _tp_residual(_site_tensor(ansatz.a_bar))


# ---------------------------------------------------------------------------
# Loss and gradient networks
# ---------------------------------------------------------------------------
#
# All two-layer contractions put the (conjugated) bra layer's bond pair first
# and the ket layer's second, matching inner_product. Left caches l[m] hold
# the network left of site m; right caches r[m] hold everything from site m
# rightward including the final double trace (the process_tensor sweeps).


def _tt_core(w):
    # a site as a tensor-train core: (incoming bond pair, system legs,
    # outgoing bond pair)
    dd = w.shape[4]
    return w.transpose(4, 5, 0, 1, 2, 3, 6, 7).reshape(dd * dd, -1, dd * dd)


def _chain1(env, a_bar):
    # remove conj(A) from the unprimed slot of a bra site
    return np.einsum("iIoOaAbB,sOBIA->sobia", env, a_bar)


def _chain2(env, a_bar):
    # remove conj(A) from the primed slot of a ket site
    return np.einsum("iIoOaAbB,sobia->sOBIA", env, a_bar)


def _summed_env(l, r):
    # G[xXyY, cCbB] = sum_m l[m][xXyY] r[m+1][cCbB], one matmul of the stacks
    k = len(l)
    g = np.stack(l).reshape(k, -1).T @ np.stack(r[1:]).reshape(k, -1)
    return g.reshape(l[0].shape + r[0].shape)


def _rho_envs(rho_bra, rho_ket, r0, want_bra, want_ket):
    env_bra = env_ket = None
    if want_bra:
        env_bra = np.einsum("oOyY,xXyY->oOxX", rho_ket, r0)
    if want_ket:
        env_ket = np.einsum("oOxX,xXyY->oOyY", rho_bra.conj(), r0)
    return env_bra, env_ket


def _penalty_terms(w, d, dd, a_bar):
    marginal = np.einsum("ijooaebb->ijae", w)
    dev = marginal - np.einsum(
        "ij,ae->ijae", np.eye(d, dtype=complex), np.eye(dd, dtype=complex)
    )
    value = float(np.sum(np.abs(dev) ** 2))
    # the W and conj(W) appearances in |dev|^2 see conjugate environments,
    # spread over the traced (o, b) diagonals
    env_w = np.einsum("ijae,oO,bB->ijoOaebB", dev.conj(), np.eye(d), np.eye(dd))
    env_wbar = np.einsum("ijae,oO,bB->ijoOaebB", dev, np.eye(d), np.eye(dd))
    grad = _chain2(env_w, a_bar) + _chain1(env_wbar, a_bar)
    return value, grad


class _Objective:
    """Loss and analytic gradient over real-split raw parameters.

    The state parameters are unconstrained; the state used by the network is
    the normalized one, and the state gradient is projected accordingly.
    """

    def __init__(self, target: ProcessTensorMPDO, k: int, d: int, dd: int, r: int,
                 penalty: float = 0.0):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if target.k < k:
            raise ValueError(f"target has {target.k} steps, loss needs {k}")
        if target.d != d:
            raise ValueError(f"target system dimension {target.d} != ansatz {d}")
        self.k = k
        self.d = d
        self.dd = dd
        self.r = r
        self.penalty = penalty
        self.t_rho0 = target.rho0
        self.t_sites = target.sites[:k]
        if any(not np.array_equal(t, self.t_sites[0]) for t in self.t_sites[1:]):
            raise ValueError("the target's sites must be one repeated tensor")
        self.t0 = norm_sq(target.truncated(k))
        self.n_a = r * d * dd * d * dd
        # the difference tensor train: its target block and final trace are
        # fixed, value_and_grad writes the fitted block
        nf, nt = dd * dd, target.D ** 2
        self.diff_core = np.zeros((nf + nt, d**4, nf + nt), dtype=complex)
        self.diff_core[nf:, :, nf:] = _tt_core(self.t_sites[0])
        self.diff_trace = np.concatenate([np.eye(dd).ravel(), np.eye(target.D).ravel()])

    def pack(self, a_bar: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [a_bar.real.ravel(), a_bar.imag.ravel(), phi.real, phi.imag]
        )

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_a
        shape = (self.r, self.d, self.dd, self.d, self.dd)
        a_bar = (x[:n] + 1j * x[n : 2 * n]).reshape(shape)
        phi = x[2 * n : 2 * n + self.d * self.dd] + 1j * x[2 * n + self.d * self.dd :]
        return a_bar, phi

    def _loss(self, rho0: np.ndarray, w: np.ndarray) -> float:
        """``<Y_fit - Y_target, Y_fit - Y_target>`` by a QR sweep along the
        difference tensor train: only the triangular factor travels, so no
        two large terms are ever subtracted."""
        nf = self.dd * self.dd
        b = self.diff_core.shape[0]
        self.diff_core[:nf, :, :nf] = _tt_core(w)
        core = self.diff_core.reshape(b, -1)
        first = np.concatenate(
            [rho0.reshape(self.d**2, nf), -self.t_rho0.reshape(self.d**2, -1)], axis=1
        )
        r = np.linalg.qr(first, mode="r")
        for _ in range(self.k):
            r = np.linalg.qr((r @ core).reshape(-1, b), mode="r")
        v = r @ self.diff_trace
        return float(np.vdot(v, v).real)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        a_bar, phi = self.unpack(x)
        phi_norm = np.linalg.norm(phi)
        if phi_norm == 0:
            raise ValueError("initial-state parameters collapsed to zero")
        psi = phi / phi_norm
        w = _site_tensor(a_bar)
        rho0 = _rho0_tensor(psi, self.d, self.dd)
        sites = [w] * self.k

        value = self._loss(rho0, w)

        # boundaries of the cross term C = <Y_fit, Y_target> and the self
        # term T1 = <Y_fit, Y_fit>; the left ones stop before the last site
        lc = _left_sweep(rho0, sites[:-1], self.t_rho0, self.t_sites[:-1])
        rc = _right_sweep(sites, self.t_sites)
        ls = _left_sweep(rho0, sites[:-1], rho0, sites[:-1])
        rs = _right_sweep(sites, sites)

        # the environments of W at every step, summed: the fitted sites are
        # all w and the target sites all t, so only the boundaries vary
        g_c = _summed_env(lc, rc)
        g_s = _summed_env(ls, rs)
        env_c = np.einsum("xXyYcCbB,iIoOyYbB->iIoOxXcC", g_c, self.t_sites[0])
        env_s_bra = np.einsum("xXyYcCbB,iIoOyYbB->iIoOxXcC", g_s, w)
        env_s_ket = np.einsum("xXyYcCbB,iIoOxXcC->iIoOyYbB", g_s, w.conj())
        # d/d conj(A): T1 contributes from both layers; the cross term
        # contributes via its bra layer plus the conjugate of its own
        # A-derivative (from -C - conj(C))
        g_a = _chain1(env_s_bra, a_bar) + _chain2(env_s_ket, a_bar)
        g_a -= _chain1(env_c, a_bar) + _chain2(env_c, a_bar.conj()).conj()

        envr_c, _ = _rho_envs(rho0, self.t_rho0, rc[0], True, False)
        envr_s_bra, envr_s_ket = _rho_envs(rho0, rho0, rs[0], True, True)
        psi2 = psi.reshape(self.d, self.dd)
        g_psi = np.einsum("OX,oOxX->ox", psi2, envr_s_bra)
        g_psi += np.einsum("oy,oOyY->OY", psi2, envr_s_ket)
        g_psi -= np.einsum("OX,oOxX->ox", psi2, envr_c)
        g_psi -= np.einsum("ox,oOxX->OX", psi2.conj(), envr_c).conj()
        g_psi = g_psi.ravel()

        if self.penalty > 0:
            p_val, p_grad = _penalty_terms(w, self.d, self.dd, a_bar)
            value += self.penalty * p_val
            g_a += self.penalty * p_grad

        # normalization chain rule: psi = phi/|phi| keeps only the tangential
        # part of the state gradient
        g_phi = (g_psi - psi * np.real(np.vdot(psi, g_psi))) / phi_norm
        grad = np.concatenate(
            [2 * g_a.real.ravel(), 2 * g_a.imag.ravel(), 2 * g_phi.real, 2 * g_phi.imag]
        )
        return value, grad


# ---------------------------------------------------------------------------
# Optimization driver
# ---------------------------------------------------------------------------


def _rank_two_update(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """BFGS inverse-Hessian update ``(I - rho s y^T) H (I - rho y s^T) +
    rho s s^T`` of a symmetric ``h``, in place and in O(n^2)."""
    ys = y @ s
    rho = 1000.0 if ys == 0.0 else 1.0 / ys  # scipy's guard against y^T s = 0
    hy = h @ y
    c = rho * rho * (y @ hy) + rho
    h += np.stack([s, hy], axis=1) @ np.stack([c * s - rho * hy, -rho * s])


def _bfgs(fun, x0, jac, maxiter, gtol, **_):
    """One BFGS stage, a custom ``method`` for ``scipy.optimize.minimize``
    with the options ``maxiter`` and ``gtol``.

    Step for step scipy's own BFGS (``_minimize_bfgs`` of scipy 1.17): the
    identity as the first inverse Hessian, its initial step guess, its Wolfe
    line search and its inf-norm gradient test. Two things differ: the
    inverse-Hessian update is the O(n^2) rank-two form, and the stall rule
    ends the stage. The result carries the loss after every iteration
    (``loss_history``) and why the stage stopped (``reason``: ``gtol``,
    ``stall``, ``line_search`` or ``maxiter``). ``callback``, ``args`` and the
    other arguments ``minimize`` hands every custom method are ignored.
    """
    # private, but the step-length search of scipy's own BFGS; imported here
    # so that a scipy which moves it breaks only fitting (the pin is <1.18)
    from scipy.optimize._optimize import _line_search_wolfe12, _LineSearchError

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    x = np.asarray(x0, dtype=float).flatten()
    fval = f(x)
    g = jac(x)
    h = np.eye(x.size)
    old_old_fval = fval + np.linalg.norm(g) / 2  # a first step of about 1
    history: list[float] = []
    reason = "gtol" if np.max(np.abs(g)) <= gtol else None
    while reason is None and len(history) < maxiter:
        p = -(h @ g)
        try:
            alpha, _, _, fval, old_old_fval, g_next = _line_search_wolfe12(
                f, jac, x, p, g, fval, old_old_fval, amin=1e-100, amax=1e100
            )
        except _LineSearchError:
            reason = "line_search"
            break
        s = alpha * p
        x = x + s
        if g_next is None:
            g_next = jac(x)
        y = g_next - g
        g = g_next
        history.append(fval)
        if len(history) > STALL_WINDOW and history[-STALL_WINDOW - 1] - fval < STALL_TOL:
            reason = "stall"
        elif np.max(np.abs(g)) <= gtol:
            reason = "gtol"
        elif not np.isfinite(fval):
            reason = "line_search"  # scipy reports a non-finite loss the same way
        else:
            _rank_two_update(h, s, y)
    reason = reason or "maxiter"
    return scipy.optimize.OptimizeResult(
        x=x, fun=fval, jac=g, nit=len(history), nfev=nfev, success=reason == "gtol",
        reason=reason, loss_history=history,
    )


def _initial_point(rng: np.random.Generator, d: int, dd: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    shape = (r, d, dd, d, dd)
    a_bar = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # scale so the candidate site tensor starts at the size of a proper
    # channel's: |W_identity|_F = sqrt(d^2 * D^2)
    w_norm = np.linalg.norm(_site_tensor(a_bar))
    a_bar *= (d * dd / w_norm) ** 0.5
    phi = rng.standard_normal(d * dd) + 1j * rng.standard_normal(d * dd)
    return a_bar, phi / np.linalg.norm(phi)


def _decoupled_initial_point(
    rng: np.random.Generator, d: int, dd: int, r: int, eps: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Start from a memoryless model: a random system-only channel tensored
    with an environment reset, plus a small random perturbation.

    The optimizer then couples the environment only as far as the target
    demands, which biases converged representations toward carrying as
    little memory as the data requires.
    """
    system = random_cptp_channel(d, 1, min(r, d * d), rng)
    a_bar = np.zeros((r, d, dd, d, dd), dtype=complex)
    reset = np.zeros(dd)
    reset[0] = 1.0
    t = 0
    for op in system.kraus:
        for e_in in range(dd):
            if t >= r:
                break
            a_bar[t] = np.einsum("oi,b,e->obie", op, reset, np.eye(dd)[e_in])
            t += 1
    a_bar += eps * (rng.standard_normal(a_bar.shape) + 1j * rng.standard_normal(a_bar.shape))
    phi = np.zeros(d * dd, dtype=complex)
    phi[0] = 1.0
    phi = phi + eps * (rng.standard_normal(d * dd) + 1j * rng.standard_normal(d * dd))
    return a_bar, phi / np.linalg.norm(phi)


def fit(
    target: ProcessTensorMPDO,
    D: int = 2,
    R: int = 16,
    k_schedule: tuple[int, ...] = (2, 3, 4, 5, 6),
    max_iter: int = 10000,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    penalty: float = 0.0,
    init: str = "gaussian",
) -> tuple[ReconstructionAnsatz, FitReport]:
    """Fit a hidden Markovian model to ``target`` from one random start.

    The start is drawn from ``seed``; a BFGS stage then runs per entry of
    ``k_schedule``, warm-starting from the previous stage. Restarts are the
    caller's business (the command line runs them in ``cli._fit_selected``).
    Non-convergence is reported through ``converged``, never raised: some
    targets genuinely cannot be descended to ``FTOL``.

    ``init`` selects the starting-point family: ``"gaussian"`` (generic) or
    ``"decoupled"`` (perturbed memoryless model; converges to representations
    that use the environment sparingly, which is what the reconstruction is
    for in the first place).
    """
    if not k_schedule:
        raise ValueError("k_schedule must be nonempty")
    if target.k < max(k_schedule):
        raise ValueError(
            f"target has {target.k} steps but the schedule needs {max(k_schedule)}"
        )
    if init not in ("gaussian", "decoupled"):
        raise ValueError(f"unknown init {init!r}; expected 'gaussian' or 'decoupled'")
    draw = _initial_point if init == "gaussian" else _decoupled_initial_point
    d = target.d
    a_bar, phi = draw(np.random.default_rng(seed), d, D, R)
    x = None
    history: tuple[float, ...] = ()
    stages = []
    for k in k_schedule:
        obj = _Objective(target, k, d, D, R, penalty=penalty)
        if x is None:
            x = obj.pack(a_bar, phi)
        res = scipy.optimize.minimize(
            obj.value_and_grad,
            x,
            jac=True,
            method=_bfgs,
            options={"maxiter": max_iter, "gtol": GTOL},
        )
        x = res.x
        history += tuple(res.loss_history)
        loss = max(float(res.fun), 0.0)
        stages.append(FitStage(
            k=k,
            iterations=res.nit,
            evaluations=res.nfev,
            final_loss=loss,
            relative_loss=loss / obj.t0,
            max_abs_grad=float(np.max(np.abs(res.jac))),
            reason=res.reason,
        ))

    a_bar, phi = obj.unpack(x)
    ansatz = ReconstructionAnsatz(a_bar, phi / np.linalg.norm(phi))
    report = FitReport(
        final_loss=loss,
        loss_history=history,
        k_schedule=tuple(k_schedule),
        normalization_residual=normalization_residual(ansatz),
        iterations=sum(stage.iterations for stage in stages),
        converged=loss < FTOL,
        stages=tuple(stages),
    )
    return ansatz, report
