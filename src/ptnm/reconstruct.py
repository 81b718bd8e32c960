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

The gradient comes from the same train: one left and one right boundary
sweep of it give the environment of every fitted site. Every fitted site is
the same tensor W and every target site the same tensor T, so the k site
environments sum to one contraction: ``G = sum_m l_m (x) r_{m+1}`` over the
fitted bra bonds is a single matmul of the stacked boundaries, contracted
once with the train's core to give the environment of conj(W), and the
result is chained onto A_bar once: conjugating while swapping primed and
unprimed slots leaves W, T and the train unchanged, so W's appearances add
what conj(W)'s do. The state's environment is the first tensor contracted
with the first right boundary.

Trace preservation holds by construction: the step is trace preserving
exactly when the R Kraus blocks of A_bar, stacked into a ``(R*d*D, d*D)``
matrix, form an isometry. The optimizer moves an unconstrained stack x and
the objective reads its polar factor ``x (x^H x)^(-1/2)`` (``_polar``), as it
reads the state ``phi/|phi|``, the one-column case. The loss does not see the
positive factor of x, so ``fit`` resets it to the identity at every stage.

Gradient conventions: for a real loss L of complex parameters x, the reported
arrays are d L / d re(x) = 2 Re(dL/d conj x) and d L / d im(x) =
2 Im(dL/d conj x).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .channels import KrausChannel, _tp_residual, random_cptp_channel
from .process_tensor import ProcessTensorMPDO, _sweep, _tt_core, norm_sq

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
    """Process tensor of the hidden model; raises ``ValueError`` unless the
    step is trace preserving within the default site tolerance."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = _site_tensor(ansatz.a_bar)
    rho0 = _rho0_tensor(ansatz.psi0, ansatz.d, ansatz.D)
    return ProcessTensorMPDO(rho0, (w,) * k)


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


def _chain1(env, a_bar):
    # remove conj(A) from the unprimed slot of conj(W), given the
    # environment of conj(W)
    return np.einsum("iIoOaAbB,sOBIA->sobia", env, a_bar)


def _polar(x: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The polar factor ``q = x m``, ``m = (x^H x)^(-1/2)``, of a full-rank
    ``x``, and the map pulling ``E = dL/d conj(q)`` back to ``dL/d conj(x)``:
    ``E m + x (C + C^H)``, with ``C = U (K o U^H E^H x U) U^H`` the
    Daleckii-Krein form over ``x^H x = U diag(r^2) U^H``, ``K_ij =
    -1 / (r_i r_j (r_i + r_j))``."""
    lam, u = np.linalg.eigh(x.conj().T @ x)
    if lam[0] <= 0:
        raise ValueError("the Kraus stack lost full column rank")
    r = np.sqrt(lam)
    m = (u / r) @ u.conj().T
    kernel = -1.0 / (np.outer(r, r) * np.add.outer(r, r))

    def pullback(e: np.ndarray) -> np.ndarray:
        c = u @ (kernel * (u.conj().T @ (e.conj().T @ x) @ u)) @ u.conj().T
        return e @ m + x @ (c + c.conj().T)

    return x @ m, pullback


def _anchored(a_bar: np.ndarray, phi: np.ndarray) -> ReconstructionAnsatz:
    """The model a raw point stands for: the polar factor of its Kraus stack
    and its normalized state."""
    q, _ = _polar(a_bar.reshape(-1, a_bar.shape[3] * a_bar.shape[4]))
    return ReconstructionAnsatz(q.reshape(a_bar.shape), phi / np.linalg.norm(phi))


class _Objective:
    """Loss and analytic gradient over real-split raw parameters.

    The raw Kraus stack and state are unconstrained. The network sees their
    polar factors, a trace-preserving step and a unit state, and the
    gradient is pulled back through both maps.
    """

    def __init__(self, target: ProcessTensorMPDO, k: int, d: int, dd: int, r: int):
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

    def _loss(self, first: np.ndarray) -> float:
        """``<Y_fit - Y_target, Y_fit - Y_target>`` by a QR sweep along the
        difference tensor train: only the triangular factor travels, so no
        two large terms are ever subtracted."""
        b = self.diff_core.shape[0]
        core = self.diff_core.reshape(b, -1)
        r = np.linalg.qr(first, mode="r")
        for _ in range(self.k):
            r = np.linalg.qr((r @ core).reshape(-1, b), mode="r")
        v = r @ self.diff_trace
        return float(np.vdot(v, v).real)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x_a, phi = self.unpack(x)
        d, dd, k, nf = self.d, self.dd, self.k, self.dd * self.dd
        q, pullback = _polar(x_a.reshape(-1, d * dd))
        a_bar = q.reshape(x_a.shape)
        phi_norm = np.linalg.norm(phi)
        if phi_norm == 0:
            raise ValueError("initial-state parameters collapsed to zero")
        psi = phi / phi_norm
        w = _site_tensor(a_bar)
        rho0 = _rho0_tensor(psi, self.d, self.dd)

        # the difference train: first tensor [rho0 | -t_rho0], then k copies
        # of the block-diagonal core
        core = self.diff_core
        core[:nf, :, :nf] = _tt_core(w)
        first = np.concatenate(
            [rho0.reshape(d * d, nf), -self.t_rho0.reshape(d * d, -1)], axis=1
        )
        value = self._loss(first)

        # its left and right boundaries; the left ones stop before the last
        # site, the right ones start from the final trace
        lefts = _sweep(first, [core] * (k - 1), first, [core] * (k - 1))
        back = [np.ascontiguousarray(core.transpose(2, 1, 0))] * k
        trace = self.diff_trace[None, :]
        rights = _sweep(trace, back, trace, back)[::-1]

        # the environment of conj(W) summed over the k steps: every site is
        # the same core, so only the boundaries vary, and G = sum_m l_m (x)
        # r_{m+1} over the fitted bra bonds is one matmul of the stacks
        b = core.shape[0]
        g = np.stack(lefts)[:, :nf].reshape(k, -1).T @ np.stack(rights[1:])[:, :nf].reshape(k, -1)
        env = np.tensordot(g.reshape(nf, b, nf, b), core, axes=([1, 3], [0, 2]))
        env = env.reshape((dd,) * 4 + (d,) * 4).transpose(4, 5, 6, 7, 0, 1, 2, 3)
        # W and conj(W) see conjugate environments, and the loss and W are
        # symmetric under swapping primed and unprimed slots, so the two
        # appearances of conj(A) contribute equally; likewise for conj(psi)
        g_a = pullback(2 * _chain1(env, a_bar).reshape(q.shape))
        env_rho = (first @ rights[0].T)[:, :nf].reshape(d, d, dd, dd)
        g_psi = 2 * np.einsum("OX,oOxX->ox", psi.reshape(d, dd), env_rho).ravel()

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
    phi = rng.standard_normal(d * dd) + 1j * rng.standard_normal(d * dd)
    ansatz = _anchored(a_bar, phi)
    return ansatz.a_bar, ansatz.psi0


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
    init: str = "gaussian",
) -> tuple[ReconstructionAnsatz, FitReport]:
    """Fit a hidden Markovian model to ``target`` from one random start.

    The start is drawn from ``seed``; a BFGS stage then runs per entry of
    ``k_schedule``, warm-starting from the polar factor of the previous
    stage's last point. Restarts are the caller's business (the command line
    runs them in ``cli._fit_selected``). Non-convergence is reported through
    ``converged``, never raised: some targets genuinely cannot be descended
    to ``FTOL``.

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
    # rejects an impossible Kraus rank before any stage
    ansatz = _anchored(*draw(np.random.default_rng(seed), d, D, R))
    history: tuple[float, ...] = ()
    stages = []
    for k in k_schedule:
        obj = _Objective(target, k, d, D, R)
        res = scipy.optimize.minimize(
            obj.value_and_grad,
            obj.pack(ansatz.a_bar, ansatz.psi0),
            jac=True,
            method=_bfgs,
            options={"maxiter": max_iter, "gtol": GTOL},
        )
        ansatz = _anchored(*obj.unpack(res.x))
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
