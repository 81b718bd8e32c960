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

The gradient comes from the same train. Its left boundaries are already in
the loss's QR sweep: the triangular factor R_m kept after m steps gives
``l_m = R_m^H R_m``, so only the right boundaries take a sweep of their own.
Every fitted site is the same tensor W and every target site the same tensor
T, so the k site environments sum to one contraction: ``G = sum_m l_m (x)
r_{m+1}`` over the fitted bra bonds is a single matmul of the stacked
boundaries, contracted once with the train's core to give the environment E
of conj(W). W itself is the Gram matrix ``P = M^T conj(M)`` of the Kraus
matrix ``M = A_bar.reshape(R, -1)`` with its axes permuted, so E, permuted
back to P's axes, chains onto A_bar as the one matmul ``M E^T``:
conjugating while swapping primed and unprimed slots leaves W, T and the
train unchanged, so W's appearances add what conj(W)'s do. The state's
environment is the first tensor contracted with the first right boundary.

Trace preservation holds by construction: the step is trace preserving
exactly when the R Kraus blocks of A_bar, stacked into a ``(R*d*D, d*D)``
matrix, form an isometry. The optimizer moves an unconstrained stack x and
the objective reads its polar factor ``x (x^H x)^(-1/2)`` (``_polar``), as it
reads the state ``phi/|phi|``, the one-column case. The loss does not see the
positive factor of x, so ``fit`` resets it to the identity at every stage.

A rung's first stage runs BFGS until the loss falls to ``LM_SWITCH`` times
the target's squared norm, then Levenberg-Marquardt; a later stage
warm-started from one that converged starts in LM at once, and one after an
unconverged stage (at the cap) starts in BFGS. The loss is a
least-squares norm whose residual vanishes on a representable target, and
there the Gauss-Newton matrix ``2 Re(J^H J)`` of the Jacobian J of
``Y_fit`` is the Hessian's limit. It is assembled from the two-hole
environments of ``<Y_fit, Y_fit>`` without J, and without their form over
the train's entries: the ket's holes are chained onto the Kraus matrix and
the state as they close, the bra's in one pass at the end
(``_Objective.gauss_newton``). Each LM step is one Cholesky solve of ``(2
Re(J^H J) + mu I) step = -grad`` from a point re-anchored to its polar
factor, where the polar factor's tangent map is a projector. The stage ends
once the loss is down to ``LM_FLOOR``, a hundredth of ``FTOL``, or on
BFGS's own rules.

``fit`` returns the smallest Kraus rank on a ladder 1, 2, 4, ... under the
cap R whose stages all converge. At the cap most of the Kraus stack is gauge
(a fig2a fit at R=16 uses about two of its sixteen Kraus directions), the
Gauss-Newton matrix is 520x520 and LM converges only linearly along a
curved valley; at rank 2 the matrix is 72x72 and LM finishes a stage in a
few steps.

A rung the target rules out is not run. A model of Kraus rank r, bond D
and a pure joint state purifies on D*r^k dimensions, so its k-step Choi
matrix (unprimed slots against primed) has rank at most D*r^k, and by
Eckart-Young the stage loss at k is at least the sum of the target Choi
matrix's squared singular values past that rank. Where that tail, at the
first stage's k, is at or above ``FTOL``, the rung would be abandoned at its
first stage, so ``fit`` records the bound and moves on.

Parameter layout: the optimizer's point is ``z = [vec(A_bar), phi]``, the
raw parameters, packed as ``[Re z, Im z]``; the gradient of the real loss L
is ``[2 Re(dL/d conj z), 2 Im(dL/d conj z)]``, one complex gradient's halves.

scipy is imported only inside the functions that fit, so importing this
module loads numpy alone, and a scipy that moves the private line search of
its BFGS (the pin is <1.18) breaks only fitting.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .channels import _tp_residual, random_cptp_channel, site_tensor
from .process_tensor import (
    ProcessTensorMPDO, _as_matrix, _dense, _grams, _joint_state, _rights, _transfer, _tt_core, build, norm_sq,
)

PSI_NORM_TOL = 1e-10

# Stage stopping rule: the inf-norm gradient test at GTOL, or a stall of
# less than STALL_TOL loss improvement over STALL_WINDOW iterations; a fit
# whose final loss is below FTOL counts as converged.
GTOL = 1e-8
FTOL = 1e-8
STALL_WINDOW = 50
STALL_TOL = 1e-10
# A stage in BFGS hands over to Levenberg-Marquardt once its loss falls to
# LM_SWITCH times the target's squared norm; LM's damping starts at
# LM_DAMPING times the Gauss-Newton matrix's largest diagonal entry, and the
# LM phase ends once the loss is down to LM_FLOOR (ftol), or hands the stage
# back to BFGS once LM_WINDOW iterations gain less than LM_GAIN of the loss.
LM_SWITCH = 1e-5
LM_DAMPING = 1e-6
LM_FLOOR = 1e-2 * FTOL
LM_WINDOW = 10
LM_GAIN = 1e-2
# The rank certificate contracts the target densely over the first stage's
# k steps, a d**(2k+1)-square matrix; a schedule that starts at a larger k
# runs every rung.
CERTIFY_K = 3


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
        if not abs(np.linalg.norm(psi) - 1.0) <= PSI_NORM_TOL:
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
    """One stage of a fit: the stage's step count ``k``, its iteration count
    (BFGS and Levenberg-Marquardt together) and how many of those were LM
    steps, its objective-evaluation count, its final loss (absolute and
    relative to the target's squared norm at ``k``), the final gradient's
    largest entry, and why it stopped: ``ftol`` (the loss fell to
    ``LM_FLOOR``), ``gtol`` (the gradient's largest entry fell to
    ``GTOL``), ``stall`` (less than ``STALL_TOL`` gained over
    ``STALL_WINDOW`` iterations), ``line_search`` (no step decreased the
    loss: BFGS's Wolfe search failed, or LM's damping grew until the step
    no longer moved the point) or ``maxiter``. A stage the target rules out
    (``rank_bound``) never ran: its iteration, LM-step and evaluation counts
    are 0, ``final_loss`` is the Eckart-Young lower bound on its loss,
    ``relative_loss`` that bound over the target's squared norm, and
    ``max_abs_grad`` is ``None``."""

    k: int
    iterations: int
    lm_steps: int
    evaluations: int
    final_loss: float
    relative_loss: float
    max_abs_grad: float | None
    reason: str


@dataclass(frozen=True)
class FitReport:
    """A fit at one Kraus rank ``rank``: its stage records, the loss after
    every iteration over them and their totals. The report ``fit`` returns
    is the returned rung's, and ``rungs`` holds the reports of the ranks
    abandoned below it, in ladder order, each with its stages and totals but
    its own ``rungs`` and ``loss_history`` empty. A rung the target's rank
    certificate rules out holds one ``rank_bound`` stage and no iterations,
    and, having no fitted point, a ``normalization_residual`` of ``None``."""

    final_loss: float
    loss_history: tuple[float, ...]
    k_schedule: tuple[int, ...]
    normalization_residual: float | None
    iterations: int
    converged: bool
    stages: tuple[FitStage, ...]
    rank: int
    rungs: tuple[FitReport, ...] = ()

    def __post_init__(self):
        if self.final_loss < 0:
            raise ValueError("final_loss must be nonnegative")


def predict(ansatz: ReconstructionAnsatz, k: int) -> ProcessTensorMPDO:
    """Process tensor of the hidden model by ``build``; raises ``ValueError``
    unless the step is trace preserving within the default site tolerance."""
    return build(site_tensor(ansatz.a_bar), np.outer(ansatz.psi0, ansatz.psi0.conj()), k)


def ansatz_from_model(kraus: np.ndarray, psi0: np.ndarray) -> ReconstructionAnsatz:
    """Embed a known model: its Kraus stack becomes ``a_bar``."""
    return ReconstructionAnsatz(kraus, psi0)


def normalization_residual(ansatz: ReconstructionAnsatz) -> float:
    """Largest deviation of the fitted site tensor from trace preservation."""
    return _tp_residual(site_tensor(ansatz.a_bar))


# ---------------------------------------------------------------------------
# Loss and gradient networks
# ---------------------------------------------------------------------------


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
    """Loss and analytic gradient over the packed raw parameters.

    The raw Kraus stack and state are unconstrained. The network sees their
    polar factors, a trace-preserving step and a unit state, and the
    gradient is pulled back through both maps.
    """

    def __init__(self, target: ProcessTensorMPDO, k: int, dd: int, r: int):
        self.k = k
        self.d = d = target.d
        self.dd = dd
        self.r = r
        self.t_rho0 = target.rho0
        self.t0 = norm_sq(target.truncated(k))  # truncated checks 1 <= k <= target.k
        self.n_a = r * d * dd * d * dd
        # the difference tensor train: its target block and final trace are
        # fixed, value_and_grad writes the fitted block
        nf, nt = dd * dd, target.D ** 2
        self.diff_core = np.zeros((nf + nt, d**4, nf + nt), dtype=complex)
        self.diff_core[nf:, :, nf:] = _tt_core(target.site)
        self.diff_trace = np.concatenate([np.eye(dd).ravel(), np.eye(target.D).ravel()])
        # masks R out of the packed QR factorization LAPACK returns
        self.upper = np.triu(np.ones((nf + nt, nf + nt)))
        # gauss_newton's work arrays, kept across calls (fresh arrays of a few
        # MB at the cap cost more in page faults than the arithmetic): the
        # chained core holes in hole order, all holes in P's order, U and V
        u, n = d * dd * d * dd, self.n_a + d * dd
        self.gn_work = (np.empty((u * u, n), complex), np.empty(((d * dd) ** 2 + u * u, n), complex),
                        np.empty((2, n, n), complex))
        # an orthonormal basis of the Hermitian (d D) x (d D) matrices
        unit = np.eye(d * dd)
        pairs = [(i, j) for i in range(d * dd) for j in range(i + 1, d * dd)]
        self.hermitian = np.array(
            [np.outer(e, e) for e in unit]
            + [(np.outer(unit[i], unit[j]) + np.outer(unit[j], unit[i])) / np.sqrt(2) for i, j in pairs]
            + [1j * (np.outer(unit[i], unit[j]) - np.outer(unit[j], unit[i])) / np.sqrt(2) for i, j in pairs]
        )

    def pack(self, a_bar: np.ndarray, phi: np.ndarray) -> np.ndarray:
        z = np.concatenate([a_bar.ravel(), phi])
        return np.concatenate([z.real, z.imag])

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = x[: len(x) // 2] + 1j * x[len(x) // 2 :]
        return z[: self.n_a].reshape(self.r, self.d, self.dd, self.d, self.dd), z[self.n_a :]

    def _loss(self, first: np.ndarray) -> tuple[float, np.ndarray]:
        """``<Y_fit - Y_target, Y_fit - Y_target>`` by a QR sweep along the
        difference tensor train: only the triangular factor travels, so no
        two large terms are ever subtracted. Also returns the factors
        ``R_0, ..., R_{k-1}`` the sweep passes, zero-padded to square:
        ``R_m^H R_m`` is the train's left boundary after m sites."""
        from scipy.linalg.lapack import zgeqrf

        b = self.diff_core.shape[0]
        core = self.diff_core.reshape(b, -1)
        factors = np.zeros((self.k + 1, b, b), dtype=complex)
        x = first
        for m, r in enumerate(factors):
            qr = zgeqrf(x)[0]
            n = min(qr.shape)
            r[:n] = qr[:n] * self.upper[:n]
            if m < self.k:
                x = (r[:n] @ core).reshape(-1, b)
        v = factors[-1] @ self.diff_trace
        return float(np.vdot(v, v).real), factors[:-1]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x_a, phi = self.unpack(x)
        d, dd, k, nf = self.d, self.dd, self.k, self.dd * self.dd
        q, pullback = _polar(x_a.reshape(-1, d * dd))
        phi_norm = np.linalg.norm(phi)
        if phi_norm == 0:
            raise ValueError("initial-state parameters collapsed to zero")
        psi = phi / phi_norm
        rho0 = _joint_state(np.outer(psi, psi.conj()), d, dd).reshape(d * d, nf)

        # the difference train: first tensor [rho0 | -t_rho0], then k copies
        # of the block-diagonal core
        core = self.diff_core
        fitted = _tt_core(site_tensor(q.reshape(x_a.shape)))
        core[:nf, :, :nf] = fitted
        first = np.concatenate([rho0, -self.t_rho0.reshape(d * d, -1)], axis=1)
        value, factors = self._loss(first)

        # its left boundaries before each site, from the loss's factors, and
        # its right ones from the final trace, both over the fitted bra bonds
        lefts = factors[:, :, :nf].conj().transpose(0, 2, 1) @ factors
        rights = _rights(self.diff_trace[None, :nf], fitted, self.diff_trace[None, :], core, k)

        # the environment of conj(W) summed over the k steps: every site is
        # the same core, so only the boundaries vary, and G = sum_m l_m (x)
        # r_{m+1} over the fitted bra bonds is one matmul of the stacks
        b = core.shape[0]
        g = lefts.reshape(k, -1).T @ rights[1:].reshape(k, -1)
        env = np.tensordot(g.reshape(nf, b, nf, b), core, axes=([1, 3], [0, 2]))
        # from (a, a', b, b', i, i', o, o') to P's axes (o, b, i, a | o', b', i', a')
        env = env.reshape((dd,) * 4 + (d,) * 4).transpose(6, 2, 4, 0, 7, 3, 5, 1)
        # W and conj(W) see conjugate environments, and the loss and W are
        # symmetric under swapping primed and unprimed slots, so the two
        # appearances of conj(A) contribute equally; likewise for conj(psi)
        m = q.reshape(self.r, -1)
        g_a = pullback(2 * (m @ env.reshape(m.shape[1], -1).T).reshape(q.shape))
        env_rho = (first @ rights[0].T).reshape(d, d, dd, dd)
        g_psi = 2 * np.einsum("OX,oOxX->ox", psi.reshape(d, dd), env_rho).ravel()

        # normalization chain rule: psi = phi/|phi| keeps only the tangential
        # part of the state gradient
        g_phi = (g_psi - psi * np.real(np.vdot(psi, g_psi))) / phi_norm
        grad = 2 * np.concatenate([g_a.ravel(), g_phi])
        return value, np.concatenate([grad.real, grad.imag])

    def anchor(self, x: np.ndarray) -> np.ndarray:
        """The packed anchored point: the polar factor of the Kraus stack and
        the normalized state, at the same loss."""
        ansatz = _anchored(*self.unpack(x))
        return self.pack(ansatz.a_bar, ansatz.psi0)

    def gauss_newton(self, x: np.ndarray) -> np.ndarray:
        """The Gauss-Newton matrix ``2 Re(J^H J)`` of the loss over the packed
        parameters at an anchored point (an isometric Kraus stack and a unit
        state), J the Jacobian of ``Y_fit``; the residual does not enter.

        Over the first tensor F and the core C of the fitted train, ``J^H J``
        is the two-hole form ``N = X + X^H + D`` of ``<Y_fit, Y_fit>``: D for
        both holes at one site m, ``l_m (x) r_{m+1}`` times the identity on
        the physical legs, X for the bra's hole at an earlier site (F's is
        before site 0). N is never built. Each ket hole passes at once through
        ``K1: dM -> dM^T conj(M)`` (``dpsi psi^H`` for F), is closed with the
        bra's core and ``r_{m+1}`` and carried back through the transfer
        matrix; one matmul with the bra's open holes gives ``X K1``, and with
        ``D K1 / 2`` added ``Y = (X + D/2) K1``, rows in the order of the Gram
        factors ``P = M^T conj(M)`` and ``rho0 = psi psi^H``. P's tangent map
        is ``K1 + K2 conj``, ``K2 = S conj(K1)`` with S the swap of P's two
        indices, and ``S N S = conj(N)``, so the row pass ``U, V = 4 (K1 +-
        K2)^H Y`` (M on either index of P) gives the matrix: its blocks over
        the real and imaginary parts are ``Re(U + U^T)``, ``Im(V^T - U)``,
        ``Im(V - U^T)`` and ``Re(V + V^T)``. The tangent maps of the polar
        factor and of ``phi/|phi|``, orthogonal projectors at an anchored
        point, follow.
        """
        x_a, psi = self.unpack(x)
        d, dd, k, nf, r = self.d, self.dd, self.k, self.dd * self.dd, self.r
        u, na, n, nr = d * dd * d * dd, self.n_a, self.n_a + d * dd, (d * dd) ** 2
        raw, y, work = self.gn_work
        site, rho0 = site_tensor(x_a), _joint_state(np.outer(psi, psi.conj()), d, dd)
        lefts, rights = _grams(rho0, site, k, k, 0)
        core, first = _tt_core(site), rho0.reshape(d * d, nf)

        # the ket's hole at site m, closed with the bra's core and r_{m+1},
        # with conj(M) on its primed legs: over (m, bra bond g, i, o, b, s, a')
        closing = np.matmul(core.conj().reshape(-1, nf), rights[1:]).reshape(k, nf, d, d, d, d, dd, dd)
        closing = np.tensordot(closing, x_a.conj(), axes=([3, 5, 7], [3, 1, 2]))
        # z[m]: the holes closed at sites m' >= m carried back to site m, over
        # the boundary (ket bond (a, a'), bra bond g) and the parameters, Kraus
        # entries (s, o, b, i, a) then the state's; K1 keeps the ket's bond a
        z = np.zeros((k, dd, dd, nf, n), dtype=complex)
        view = np.einsum("maAgsobia->maAgsobi", z[..., :na].reshape(k, dd, dd, nf, r, d, dd, d, dd))
        view += closing.transpose(0, 6, 1, 5, 3, 4, 2)[:, None]
        z = z.reshape(k, nf * nf, n)
        transfer = _transfer(core, core).conj()  # z's boundary is laid out ket first
        for m in range(k - 2, -1, -1):
            z[m] += transfer @ z[m + 1]
        # a bra hole at site m opens l_m C with its outgoing bond as the
        # boundary's bra bond, which z[m + 1] closes; F's opens rho0 before
        # site 0. Y's rows then go to P's order (o, b, i, a | o', b', i', a')
        # and rho0's (o, a | o', a')
        holes = np.matmul(lefts[: k - 1], core.reshape(nf, -1)).reshape(k - 1, nf * d**4, nf)
        np.matmul(holes.transpose(1, 0, 2).reshape(nf * d**4, -1), z[1:].reshape(-1, nf * n),
                  out=raw.reshape(nf * d**4, -1))
        np.copyto(y[nr:].reshape((d, dd) * 4 + (n,)),
                  raw.reshape((dd, dd) + (d,) * 4 + (dd, dd, n)).transpose(4, 6, 2, 0, 5, 7, 3, 1, 8))
        np.copyto(y[:nr].reshape(d, dd, d, dd, n),
                  (first @ z[0].reshape(nf, -1)).reshape(d, d, dd, dd, n).transpose(0, 2, 1, 3, 4))
        # D K1 / 2: g = sum_m l_m (x) r_{m+1} with conj(M) on the ket's
        # primed bonds, over (b1, a1, b1', a1', b, a | s, o', i'), placed where
        # the ket's unprimed (o, i) equal the bra's; F's has r_0 and conj(psi)
        g = (lefts.reshape(k + 1, -1)[:k].T @ rights[1:].reshape(k, -1)).reshape((dd,) * 8)
        g = g.transpose(4, 0, 5, 1, 6, 2, 7, 3).reshape(-1, nf)
        same = (g @ x_a.conj().transpose(2, 4, 0, 1, 3).reshape(nf, -1)).reshape((dd,) * 6 + (r, d, d))
        view = np.einsum("pyqxOYIXspbqa->pyqxOYIXsba", y[nr:, :na].reshape((d, dd) * 4 + (r, d, dd, d, dd)))
        view += same.transpose(0, 1, 7, 2, 8, 3, 6, 4, 5)[None, :, None] / 2
        view = np.einsum("pxOXpa->pxOXa", y[:nr, na:].reshape(d, dd, d, dd, d, dd))
        view += np.einsum("xXaA,OA->xOXa", rights[0].reshape(dd, dd, dd, dd), psi.reshape(d, dd).conj()) / 2

        # the row pass over each factor's rows into its parameters' rows of
        # U and V, (s, w) for the Kraus matrix: 4 K2^H contracts conj(M) with
        # Y's first index, 4 K1^H contracts M with its second
        for mat, rows, (p, q) in ((x_a.reshape(r, u), y[nr:], work[:, :na]),
                                  (psi[None, :], y[:nr], work[:, na:])):
            side, mat = mat.shape[1], 4 * mat
            rows = rows.reshape(side, side, n)
            np.matmul(mat.conj(), rows.reshape(side, -1), out=q.reshape(len(mat), -1))
            np.matmul(mat, rows, out=p.reshape(len(mat), side, n).swapaxes(0, 1))
            p += q  # U
            q *= -2
            q += p  # V
        # h from a = U and b = V, over the parameters' real parts, then their imaginary parts
        (a, b), h = work, np.empty((2 * n, 2 * n))
        np.add(a.real, a.real.T, out=h[:n, :n])
        np.subtract(b.imag.T, a.imag, out=h[:n, n:])
        np.subtract(b.imag, a.imag.T, out=h[n:, :n])
        np.add(b.real, b.real.T, out=h[n:, n:])
        self._project(x, h)
        return h

    def _project(self, x: np.ndarray, h: np.ndarray) -> None:
        """Overwrites a symmetric ``h`` with ``Pi h Pi``, Pi the orthogonal
        projector on the tangent space at an anchored point: the tangent map
        there of the polar factor and of ``phi/|phi|``. Its complement has
        the orthonormal basis ``X S_j`` (S_j the Hermitian basis, X the
        stack) and psi, so ``Pi h Pi = h - B^T C - C^T B`` with ``C = B h -
        (B h B^T) B / 2``, one BLAS update of ``h`` in place."""
        from scipy.linalg.blas import dgemm

        q, psi = self.unpack(x)
        normal = (q.reshape(-1, self.d * self.dd) @ self.hermitian).reshape(len(self.hermitian), -1)
        b = np.zeros((len(normal) + 1, len(x) // 2), dtype=complex)
        b[:-1, : self.n_a] = normal
        b[-1, self.n_a :] = psi
        b = np.concatenate([b.real, b.imag], axis=1)
        c = b @ h
        c -= (c @ b.T) @ b / 2
        # the update is symmetric, so dgemm may apply it to the transpose of
        # h, which is Fortran-ordered and so updated in place
        dgemm(-1.0, np.concatenate([b, c]), np.concatenate([c, b]), beta=1.0, c=h.T,
              trans_a=1, overwrite_c=1)


# ---------------------------------------------------------------------------
# Optimization driver
# ---------------------------------------------------------------------------


def _rank_two_update(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """BFGS inverse-Hessian update ``(I - rho s y^T) H (I - rho y s^T) +
    rho s s^T`` of a symmetric ``h`` kept in its upper triangle, in place and
    in O(n^2): with ``Hy`` from BLAS ``dsymv``, the update is the symmetric
    rank-two ``s v^T + v s^T``, ``v = (c/2) s - rho Hy``, of one ``dsyr2``.
    ``h`` must be a Fortran-ordered float array, the one layout BLAS updates
    in place; given any other, the wrapper would update a copy."""
    from scipy.linalg.blas import dsymv, dsyr2

    if not h.flags.f_contiguous or h.dtype != np.float64:
        raise ValueError("h must be a Fortran-ordered float64 array")
    ys = y @ s
    rho = 1000.0 if ys == 0.0 else 1.0 / ys  # scipy's guard against y^T s = 0
    hy = dsymv(1.0, h, y)
    c = rho * rho * (y @ hy) + rho
    dsyr2(1.0, s, 0.5 * c * s - rho * hy, a=h, overwrite_a=True)


def _stage(fun, x0, jac, hess, maxiter, gtol, switch, anchor, **_):
    """One fit stage, a custom ``method`` for ``scipy.optimize.minimize``: BFGS
    until the loss falls to ``switch``, then Levenberg-Marquardt on the
    Gauss-Newton matrix ``hess``, with the options ``maxiter``, ``gtol``,
    ``switch`` and ``anchor`` (the map of a point to its anchored twin).
    ``x0`` must be anchored, as every start ``_descend`` hands in is: where
    BFGS took no step (``switch`` at or above the first loss), LM starts
    from ``x0`` and its one evaluation, with no re-anchoring.

    The BFGS phase is step for step scipy's own BFGS (``_minimize_bfgs`` of
    scipy 1.17): the identity as the first inverse Hessian, its initial step
    guess, its Wolfe line search and its inf-norm gradient test. Two things
    differ: the inverse Hessian lives in the upper triangle of a
    Fortran-ordered array, read by BLAS ``dsymv`` for the search direction
    and updated by the O(n^2) rank-two form (``_rank_two_update``), and the
    stall rule ends the stage. The result carries the loss after every
    iteration of either phase (``loss_history``), the number of LM
    iterations (``lm_steps``) and why the stage stopped (``reason``: ``ftol``,
    ``gtol``, ``stall``, ``line_search`` or ``maxiter``; see ``FitStage``).
    ``callback``, ``args`` and the other arguments ``minimize`` hands every
    custom method are ignored.
    """
    import scipy.optimize

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    x = np.asarray(x0, dtype=float).flatten()
    fval = f(x)
    g = jac(x)
    history: list[float] = []
    reason = "gtol" if np.max(np.abs(g)) <= gtol else None
    if reason is None:
        x, fval, g, reason = _quasi_newton(f, jac, x, fval, g, history, maxiter, gtol, switch)
    bfgs_steps = len(history)
    if reason is None and len(history) < maxiter:
        if bfgs_steps:  # x0 is anchored already
            x = anchor(x)
            fval = f(x)
            g = jac(x)
        x, fval, g, reason = _levenberg_marquardt(f, jac, hess, anchor, x, fval, g, history, maxiter, gtol)
    lm_steps = len(history) - bfgs_steps
    if reason is None and len(history) < maxiter:
        x, fval, g, reason = _quasi_newton(f, jac, x, fval, g, history, maxiter, gtol, -np.inf)
    reason = reason or "maxiter"
    return scipy.optimize.OptimizeResult(
        x=x, fun=fval, jac=g, nit=len(history), nfev=nfev, success=reason in ("gtol", "ftol"),
        reason=reason, loss_history=history, lm_steps=lm_steps,
    )


def _quasi_newton(f, jac, x, fval, g, history, maxiter, gtol, switch):
    """BFGS iterations from x until a stopping rule fires or the loss falls to
    ``switch``; returns the last point, its loss and gradient, and the stop
    reason (``None`` at ``switch`` or ``maxiter``)."""
    from scipy.linalg.blas import dsymv
    from scipy.optimize._optimize import _line_search_wolfe12, _LineSearchError

    h = np.eye(x.size, order="F")
    old_old_fval = fval + np.linalg.norm(g) / 2  # a first step of about 1
    while len(history) < maxiter and fval > switch:
        p = -dsymv(1.0, h, g)
        try:
            alpha, _, _, fval, old_old_fval, g_next = _line_search_wolfe12(
                f, jac, x, p, g, fval, old_old_fval, amin=1e-100, amax=1e100
            )
        except _LineSearchError:
            return x, fval, g, "line_search"
        s = alpha * p
        x = x + s
        if g_next is None:
            g_next = jac(x)
        y = g_next - g
        g = g_next
        history.append(fval)
        reason = _stopped(history, g, gtol)
        if reason is None and not np.isfinite(fval):
            reason = "line_search"  # scipy reports a non-finite loss the same way
        if reason is not None:
            return x, fval, g, reason
        _rank_two_update(h, s, y)
    return x, fval, g, None


def _stopped(history: list[float], g: np.ndarray, gtol: float) -> str | None:
    """The stage's stopping rule after an iteration, ``None`` to go on."""
    if len(history) > STALL_WINDOW and history[-STALL_WINDOW - 1] - history[-1] < STALL_TOL:
        return "stall"
    if np.max(np.abs(g)) <= gtol:
        return "gtol"
    return None


def _levenberg_marquardt(f, jac, hess, anchor, x, fval, g, history, maxiter, gtol):
    """The LM phase of a stage from an anchored point. Each iteration
    solves ``(H + mu I) step = -g`` for the Gauss-Newton matrix H by one
    Cholesky factorization of a damped copy and tries the anchored
    ``x + step``; H is assembled once per point, so a rejected step reuses it.
    An accepted step rescales ``mu`` by Nielsen's rule on the ratio of the
    actual to the model's decrease; a rejected one raises it, and once the
    step no longer moves ``x`` the search has failed (``line_search``). The
    phase ends once the loss is down to ``LM_FLOOR`` (``ftol``) or on the
    stage's gtol and stall rules. Where the residual does not vanish,
    Gauss-Newton converges slowly: once ``LM_WINDOW`` iterations gain less
    than ``LM_GAIN`` of the loss, the phase hands the stage back to BFGS.
    Returns the last point, its loss and gradient, and the stop reason
    (``None`` at ``maxiter`` or on handing back)."""
    import scipy.linalg

    start, mu, nu, h = len(history), None, 2.0, None
    while len(history) < maxiter:
        if h is None:  # kept across rejected steps, which leave x where it is
            h = hess(x)
        if mu is None:
            mu = LM_DAMPING * np.max(np.diag(h))
        damped = h.copy()
        damped.flat[:: x.size + 1] += mu
        try:  # damped is symmetric: its transpose is the Fortran-ordered matrix LAPACK factors in place
            step = -scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(damped.T, overwrite_a=True, check_finite=False), g,
                check_finite=False,
            )
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.array_equal(x + step, x):
            return x, fval, g, "line_search"
        trial = None if step is None else anchor(x + step)
        f_trial = np.inf if trial is None else f(trial)
        if f_trial < fval:
            # the model's decrease -g.step - step.H.step/2, as (H + mu I) step = -g
            predicted = 0.5 * (mu * (step @ step) - g @ step)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * (fval - f_trial) / predicted - 1.0) ** 3)
            nu = 2.0
            x, fval, g, h = trial, f_trial, jac(trial), None
            history.append(fval)
            reason = "ftol" if fval <= LM_FLOOR else _stopped(history, g, gtol)
            if reason is not None:
                return x, fval, g, reason
            if len(history) - start > LM_WINDOW and history[-LM_WINDOW - 1] - fval < LM_GAIN * fval:
                return x, fval, g, None  # a crawl: BFGS takes the stage back
        else:
            mu *= nu
            nu *= 2.0
            history.append(fval)
    return x, fval, g, None


def _initial_point(rng: np.random.Generator, d: int, dd: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """A random hidden model, the polar factor of a Gaussian Kraus stack and
    a unit Gaussian state: the truths and points the tests draw. No fit
    starts from it."""
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

    Against the Gaussian start it replaced, fits from it converged at lower
    Kraus rank and faster. It does not steer a fit to the realization with
    the least memory: converged fig2a fits at gamma=5 land in either of two
    classes of band ``ee``, 0.1342 or 0.4798 bits.
    """
    system = random_cptp_channel(d, 1, min(r, d * d), rng)[:, :, 0, :, 0]
    a_bar = np.zeros((r, d, dd, d, dd), dtype=complex)
    reset = np.zeros(dd)
    reset[0] = 1.0
    t = 0
    for op in system:
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


def _descend(
    target: ProcessTensorMPDO,
    ansatz: ReconstructionAnsatz,
    k_schedule: tuple[int, ...],
    max_iter: int,
    abandon: bool,
) -> tuple[ReconstructionAnsatz, FitReport]:
    """Runs the stages of ``k_schedule`` from ``ansatz``, each warm-started
    from the polar factor of the previous stage's last point; with
    ``abandon``, stops after the first stage whose loss ends at or above
    ``FTOL``. A stage after one that ended below ``FTOL`` starts near a zero
    residual and so in LM; any other switches at ``LM_SWITCH`` times its
    target's squared norm. Returns the last point and the report of this
    rank (``_report`` over the stages run)."""
    import scipy.optimize

    history: tuple[float, ...] = ()
    stages = []
    loss = np.inf
    for k in k_schedule:
        obj = _Objective(target, k, ansatz.D, ansatz.R)
        res = scipy.optimize.minimize(
            obj.value_and_grad,
            obj.pack(ansatz.a_bar, ansatz.psi0),
            jac=True,
            hess=obj.gauss_newton,
            method=_stage,
            options={"maxiter": max_iter, "gtol": GTOL, "anchor": obj.anchor,
                     "switch": np.inf if loss < FTOL else LM_SWITCH * obj.t0},
        )
        ansatz = _anchored(*obj.unpack(res.x))
        history += tuple(res.loss_history)
        loss = res.fun
        stages.append(FitStage(
            k=k,
            iterations=res.nit,
            lm_steps=res.lm_steps,
            evaluations=res.nfev,
            final_loss=loss,
            relative_loss=loss / obj.t0,
            max_abs_grad=float(np.max(np.abs(res.jac))),
            reason=res.reason,
        ))
        if abandon and loss >= FTOL:
            break
    return ansatz, _report(stages, ansatz.R, k_schedule, history, normalization_residual(ansatz))


def _report(stages: list[FitStage], rank: int, k_schedule: tuple[int, ...],
            history: tuple[float, ...] = (), residual: float | None = None) -> FitReport:
    """A rung's report from its stage records: the final loss is the last
    stage's, the iterations are their sum, and the rung converged if that
    loss is below ``FTOL``. A certified rung has no ``history`` or
    ``residual``."""
    loss = stages[-1].final_loss
    return FitReport(
        final_loss=loss, loss_history=history, k_schedule=k_schedule, normalization_residual=residual,
        iterations=sum(stage.iterations for stage in stages), converged=loss < FTOL,
        stages=tuple(stages), rank=rank,
    )


def _choi_spectrum(target: ProcessTensorMPDO, k: int) -> np.ndarray:
    """Squared singular values, largest first, of the target's dense k-step
    Choi matrix, unprimed slots against primed as ``materialize`` groups
    them. They sum to the target's squared norm at k. It calls ``_dense``
    without ``materialize``'s Hermiticity and positivity checks: the rank
    bound needs neither, and a target ``fit`` accepts stays accepted."""
    s = np.linalg.svd(_as_matrix(_dense(target.rho0, target.site, k)), compute_uv=False)
    return s * s


def _certified(
    spectrum: np.ndarray, D: int, rank: int, k_schedule: tuple[int, ...]
) -> FitReport | None:
    """The report of a rung the target rules out, or ``None`` to run it.
    ``spectrum`` is ``_choi_spectrum`` at the first stage's k. A rank-``rank``
    model's k-step Choi matrix has rank at most ``D * rank**k``, so its stage
    loss at k is at least the target's squared singular values past that
    rank (Eckart-Young), and a bound at or above ``FTOL`` means the rung
    would be abandoned at that stage. The report is ``_report`` over the
    one ``rank_bound`` stage built here."""
    k = k_schedule[0]
    bound = float(np.sum(spectrum[D * rank**k :]))
    if bound < FTOL:
        return None
    stage = FitStage(
        k=k, iterations=0, lm_steps=0, evaluations=0, final_loss=bound,
        relative_loss=bound / float(np.sum(spectrum)), max_abs_grad=None, reason="rank_bound",
    )
    return _report([stage], rank, k_schedule)


def fit(
    target: ProcessTensorMPDO,
    D: int = 2,
    R: int = 16,
    k_schedule: tuple[int, ...] = (2, 3, 4, 5, 6),
    max_iter: int = 10000,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> tuple[ReconstructionAnsatz, FitReport]:
    """Fit a hidden Markovian model to ``target`` from one random start, at
    the smallest Kraus rank on a ladder under the cap ``R`` that converges.

    The rungs are the Kraus ranks 1, 2, 4, ... below ``R``, then ``R``.
    Each rung draws its start from ``seed`` alone and runs a stage per entry
    of ``k_schedule``, warm-starting from the polar factor of the previous
    stage's last point. A rung below the cap is abandoned as soon as one of
    its stages ends with a loss at or above ``FTOL``; the first rung whose
    stages all end below ``FTOL`` is returned, and when none does, the cap
    rung's fit is, its report carrying the abandoned rungs' reports in
    ``rungs``. A rung below the cap whose first stage the target's rank
    certificate (``_certified``, for a first stage at most ``CERTIFY_K``
    steps long) bounds at or above ``FTOL`` is recorded with that bound and
    not run. The cap's start is the one a fit at ``R`` alone would
    draw, and a ``Generator`` seed advances by that one draw whichever rung
    is returned: the rungs below the cap draw from copies of it, so a
    skipped rung moves no other rung's start.

    Restarts are the caller's business (the command line runs them in
    ``cli._fit_selected``). Non-convergence is reported through
    ``converged``, never raised: some targets genuinely cannot be descended
    to ``FTOL``.
    """
    if not k_schedule:
        raise ValueError("k_schedule must be nonempty")
    if target.k < max(k_schedule):
        raise ValueError(
            f"target has {target.k} steps but the schedule needs {max(k_schedule)}"
        )
    d = target.d
    rng = np.random.default_rng(seed)
    fresh = copy.deepcopy(rng)
    # the cap's start, drawn first: it rejects an impossible Kraus rank
    # before any stage
    cap_start = _anchored(*_decoupled_initial_point(rng, d, D, R))
    # the target's rank certificate over the first stage; an empty spectrum
    # certifies no rung
    k = k_schedule[0]
    spectrum = _choi_spectrum(target, k) if k <= CERTIFY_K else np.zeros(0)
    rungs = []
    for rank in [2**i for i in range(int(R).bit_length()) if 2**i < R] + [R]:
        skipped = None if rank == R else _certified(spectrum, D, rank, tuple(k_schedule))
        if skipped is not None:
            rungs.append(skipped)
            continue
        start = (
            cap_start if rank == R
            else _anchored(*_decoupled_initial_point(copy.deepcopy(fresh), d, D, rank))
        )
        ansatz, report = _descend(target, start, tuple(k_schedule), max_iter, rank < R)
        if rank == R or report.converged:
            break
        rungs.append(replace(report, loss_history=()))
    return ansatz, replace(report, rungs=tuple(rungs))
