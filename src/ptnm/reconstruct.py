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

Each stage runs BFGS until the loss falls to ``LM_SWITCH`` times the
target's squared norm, then Levenberg-Marquardt: the loss is a
least-squares norm whose residual vanishes on a representable target, and
there the Gauss-Newton matrix ``2 Re(J^H J)`` of the Jacobian J of
``Y_fit`` is the Hessian's limit. It is assembled without J, from the
two-hole environments of ``<Y_fit, Y_fit>`` (``_Objective.gauss_newton``),
and each LM step is one Cholesky solve of ``(2 Re(J^H J) + mu I) step =
-grad`` from a point re-anchored to its polar factor, where the polar
factor's tangent map is a projector. The stage ends once the loss is down
to ``LM_FLOOR``, a hundredth of ``FTOL``, or on BFGS's own rules.

Gradient conventions: for a real loss L of complex parameters x, the reported
arrays are d L / d re(x) = 2 Re(dL/d conj x) and d L / d im(x) =
2 Im(dL/d conj x).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.linalg.blas import dgemm, dsymv, dsyr2
from scipy.linalg.lapack import zgeqrf

from .channels import KrausChannel, _tp_residual, random_cptp_channel
from .process_tensor import ProcessTensorMPDO, _sweep, _tt_core, norm_sq

PSI_NORM_TOL = 1e-10

# Stage stopping rule: the inf-norm gradient test at GTOL, or a stall of
# less than STALL_TOL loss improvement over STALL_WINDOW iterations; a fit
# whose final loss is below FTOL counts as converged.
GTOL = 1e-8
FTOL = 1e-8
STALL_WINDOW = 50
STALL_TOL = 1e-10
# A stage hands over from BFGS to Levenberg-Marquardt once its loss falls to
# LM_SWITCH times the target's squared norm; LM's damping starts at
# LM_DAMPING times the Gauss-Newton matrix's largest diagonal entry, and the
# LM phase ends once the loss is down to LM_FLOOR (ftol), or hands the stage
# back to BFGS once LM_WINDOW iterations gain less than LM_GAIN of the loss.
LM_SWITCH = 1e-5
LM_DAMPING = 1e-6
LM_FLOOR = 1e-2 * FTOL
LM_WINDOW = 10
LM_GAIN = 1e-2
# columns of P_y per pass of _gram_chain, which bounds its scratch memory
_GRAM_COLUMNS = 4


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
    """One stage of a fit: the stage's step count ``k``, its iteration count
    (BFGS and Levenberg-Marquardt together) and how many of those were LM
    steps, its objective-evaluation count, its final loss (absolute and
    relative to the target's squared norm at ``k``), the final gradient's
    largest entry, and why it stopped: ``ftol`` (the loss fell to
    ``LM_FLOOR``), ``gtol`` (the gradient's largest entry fell to
    ``GTOL``), ``stall`` (less than ``STALL_TOL`` gained over
    ``STALL_WINDOW`` iterations), ``line_search`` (no step decreased the
    loss: BFGS's Wolfe search failed, or LM's damping grew until the step
    no longer moved the point) or ``maxiter``."""

    k: int
    iterations: int
    lm_steps: int
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
    # W[i,i',o,o',a,a',b,b'] = sum_s A[s,o,b,i,a] conj(A[s,o',b',i',a']), the
    # Gram matrix P = M^T conj(M) of the Kraus matrix M with its axes permuted
    m = a_bar.reshape(a_bar.shape[0], -1)
    p = (m.T @ m.conj()).reshape(a_bar.shape[1:] * 2)
    return p.transpose(2, 6, 0, 4, 3, 7, 1, 5)


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
        # masks R out of the packed QR factorization LAPACK returns
        self.upper = np.triu(np.ones((nf + nt, nf + nt)))
        # the Gauss-Newton matrix's hole coordinates in the Gram factors'
        # order: F's (o, o', a, a') as rho0's (o, a | o', a'), then the core's
        # (a, a', i, i', o, o', b, b') as P's (o, b, i, a | o', b', i', a')
        state = np.arange(d * d * nf).reshape(d, d, dd, dd).transpose(0, 2, 1, 3)
        site = np.arange(nf * d**4 * nf).reshape((dd, dd) + (d,) * 4 + (dd, dd))
        site = site.transpose(4, 6, 2, 0, 5, 7, 3, 1)
        self.gram_order = np.concatenate([state.ravel(), d * d * nf + site.ravel()])
        # an orthonormal basis of the Hermitian (d D) x (d D) matrices
        unit = np.eye(d * dd)
        pairs = [(i, j) for i in range(d * dd) for j in range(i + 1, d * dd)]
        self.hermitian = np.array(
            [np.outer(e, e) for e in unit]
            + [(np.outer(unit[i], unit[j]) + np.outer(unit[j], unit[i])) / np.sqrt(2) for i, j in pairs]
            + [1j * (np.outer(unit[i], unit[j]) - np.outer(unit[j], unit[i])) / np.sqrt(2) for i, j in pairs]
        )

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

    def _loss(self, first: np.ndarray) -> tuple[float, np.ndarray]:
        """``<Y_fit - Y_target, Y_fit - Y_target>`` by a QR sweep along the
        difference tensor train: only the triangular factor travels, so no
        two large terms are ever subtracted. Also returns the factors
        ``R_0, ..., R_{k-1}`` the sweep passes, zero-padded to square:
        ``R_m^H R_m`` is the train's left boundary after m sites."""
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
        rho0 = _rho0_tensor(psi, self.d, self.dd)

        # the difference train: first tensor [rho0 | -t_rho0], then k copies
        # of the block-diagonal core
        core = self.diff_core
        core[:nf, :, :nf] = _tt_core(_site_tensor(q.reshape(x_a.shape)))
        first = np.concatenate(
            [rho0.reshape(d * d, nf), -self.t_rho0.reshape(d * d, -1)], axis=1
        )
        value, factors = self._loss(first)

        # its left boundaries before each site, over the fitted bra bonds,
        # from the loss's factors; the right ones start from the final trace
        lefts = factors[:, :, :nf].conj().transpose(0, 2, 1) @ factors
        back = [np.ascontiguousarray(core.transpose(2, 1, 0))] * k
        trace = self.diff_trace[None, :]
        rights = _sweep(trace, back, trace, back)[::-1]

        # the environment of conj(W) summed over the k steps: every site is
        # the same core, so only the boundaries vary, and G = sum_m l_m (x)
        # r_{m+1} over the fitted bra bonds is one matmul of the stacks
        b = core.shape[0]
        g = lefts.reshape(k, -1).T @ np.stack(rights[1:])[:, :nf].reshape(k, -1)
        env = np.tensordot(g.reshape(nf, b, nf, b), core, axes=([1, 3], [0, 2]))
        # from (a, a', b, b', i, i', o, o') to P's axes (o, b, i, a | o', b', i', a')
        env = env.reshape((dd,) * 4 + (d,) * 4).transpose(6, 2, 4, 0, 7, 3, 5, 1)
        # W and conj(W) see conjugate environments, and the loss and W are
        # symmetric under swapping primed and unprimed slots, so the two
        # appearances of conj(A) contribute equally; likewise for conj(psi)
        m = q.reshape(self.r, -1)
        g_a = pullback(2 * (m @ env.reshape(m.shape[1], -1).T).reshape(q.shape))
        env_rho = (first @ rights[0].T)[:, :nf].reshape(d, d, dd, dd)
        g_psi = 2 * np.einsum("OX,oOxX->ox", psi.reshape(d, dd), env_rho).ravel()

        # normalization chain rule: psi = phi/|phi| keeps only the tangential
        # part of the state gradient
        g_phi = (g_psi - psi * np.real(np.vdot(psi, g_psi))) / phi_norm
        grad = np.concatenate(
            [2 * g_a.real.ravel(), 2 * g_a.imag.ravel(), 2 * g_phi.real, 2 * g_phi.imag]
        )
        return value, grad

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
        is the sum of the two-hole environments of ``<Y_fit, Y_fit>``: for
        both holes at one site m, ``l_m (x) r_{m+1}`` times the identity on
        the physical legs; for holes at sites m < m', the bra's hole opens a
        boundary that runs through the transfer matrix to m', and since every
        core is C all these boundaries sum in one running boundary. A hole in
        F is a hole before site 0. The matrix is chained to the Gram factors
        ``P = M^T conj(M)`` and ``rho0 = psi psi^H`` (``_gram_chain``) and
        then through the tangent maps of the polar factor and of
        ``phi/|phi|``, which at an anchored point are orthogonal projectors.
        """
        x_a, psi = self.unpack(x)
        d, dd, k, nf = self.d, self.dd, self.k, self.dd * self.dd
        core = _tt_core(_site_tensor(x_a))
        first = _rho0_tensor(psi, d, dd).reshape(d * d, nf)
        lefts = _sweep(first, [core] * k, first, [core] * k)
        back = [np.ascontiguousarray(core.transpose(2, 1, 0))] * k
        trace = np.eye(dd).ravel()[None, :]
        rights = _sweep(trace, back, trace, back)[::-1]

        # the running boundary: one row per open bra hole (F's then C's), its
        # columns the (bra, ket) bond pair it has reached
        nr, nw, eye = first.size, core.size, np.eye(nf)
        transfer = np.tensordot(core.conj(), core, axes=(1, 1)).transpose(0, 2, 1, 3)
        transfer = transfer.reshape(nf * nf, nf * nf)
        opened = np.zeros((k, nr + nw, nf, nf), dtype=complex)
        opened[0, :nr] = (first[:, None, None, :] * eye[:, :, None]).reshape(nr, nf, nf)
        for m in range(1, k):
            hole = (lefts[m - 1] @ core.reshape(nf, -1)).reshape(-1, 1, 1, nf)
            opened[m] = (opened[m - 1].reshape(-1, nf * nf) @ transfer).reshape(-1, nf, nf)
            opened[m, nr:] += (hole * eye[:, :, None]).reshape(nw, nf, nf)
        # the ket's hole at site m' closes the boundary reached there with the
        # bra's core and r_{m'+1}: one matmul over (m', bra bond), which sums
        # the holes at m < m' and F's hole
        closing = np.einsum("gqd,mde->mgqe", core.conj(), np.stack(rights[1:]))
        cross = opened.transpose(1, 3, 0, 2).reshape((nr + nw) * nf, -1) @ closing.reshape(k * nf, -1)
        cross = cross.reshape(nr + nw, nw)
        opened = None
        n = np.empty((nr + nw, nr + nw), dtype=complex)
        n[:nr, :nr] = np.kron(np.eye(d * d), rights[0])
        n[:nr, nr:] = cross[:nr]
        n[nr:, :nr] = cross[:nr].conj().T
        # the site block and its Hermitian completion, without a temporary
        ww = n[nr:, nr:]
        np.conjugate(cross[nr:].T, out=ww)
        ww += cross[nr:]
        # both holes at one site: sum_m l_m (x) r_{m+1}, diagonal in p
        g = np.einsum("mac,mbd->abcd", np.stack(lefts[:k]), np.stack(rights[1:]))
        diag = n[nr:, nr:].reshape(nf, -1, nf, nf, nw // (nf * nf), nf)
        for p in range(diag.shape[1]):
            diag[:, p, :, :, p, :] += g
        cross = ww = diag = None  # the views would keep the unpermuted n alive

        n = n[np.ix_(self.gram_order, self.gram_order)]
        m, state, na = x_a.reshape(self.r, -1), psi[None, :], 2 * self.n_a
        h = np.empty((na + 2 * psi.size,) * 2)
        _gram_chain(n[nr:, nr:], m, m, h[:na, :na])
        _gram_chain(n[nr:, :nr], m, state, h[:na, na:])
        _gram_chain(n[:nr, nr:], state, m, h[na:, :na])
        _gram_chain(n[:nr, :nr], state, state, h[na:, na:])
        self._project(x, h)
        return h

    def _project(self, x: np.ndarray, h: np.ndarray) -> None:
        """Overwrites a symmetric ``h`` with ``Pi h Pi``, Pi the orthogonal
        projector on the tangent space at an anchored point: the tangent map
        there of the polar factor and of ``phi/|phi|``. Its complement has
        the orthonormal basis ``X S_j`` (S_j the Hermitian basis, X the
        stack) and psi, so ``Pi h Pi = h - B^T C - C^T B`` with ``C = B h -
        (B h B^T) B / 2``, one BLAS update of ``h`` in place."""
        q, psi = self.unpack(x)
        normal = (q.reshape(-1, self.d * self.dd) @ self.hermitian).reshape(len(self.hermitian), -1)
        b = np.zeros((len(normal) + 1, h.shape[0]))
        b[:-1, : self.n_a] = normal.real
        b[:-1, self.n_a : 2 * self.n_a] = normal.imag
        b[-1, 2 * self.n_a :] = np.concatenate([psi.real, psi.imag])
        c = b @ h
        c -= (c @ b.T) @ b / 2
        # the update is symmetric, so dgemm may apply it to the transpose of
        # h, which is Fortran-ordered and so updated in place
        dgemm(-1.0, np.concatenate([b, c]), np.concatenate([c, b]), beta=1.0, c=h.T,
              trans_a=1, overwrite_c=1)


def _gram_chain(n: np.ndarray, mx: np.ndarray, my: np.ndarray, out: np.ndarray) -> None:
    """Writes ``2 Re(K_x^H n K_y)`` over the real and imaginary parts of
    ``M_x`` (rows) and ``M_y`` into ``out``, where ``K: dM -> dM^T conj(M) +
    M^T conj(dM)`` is the tangent map of the Gram matrix ``P = M^T conj(M)``
    and ``n`` a form over the entries of ``P_x`` (rows) and ``P_y``.

    Writing ``K = K1 + K2 conj``, ``K2 = S conj(K1)`` with S the swap of P's
    two indices, and n is a Gram form of a network that conjugation with
    that swap leaves unchanged: ``S n S = conj(n)``. So ``K2^H n K2`` and
    ``K2^H n K1`` are the conjugates of ``K1^H n K1`` and ``K1^H n K2``, and
    ``n K1`` contracted with M two ways gives all four."""
    (rx, ux), (ry, uy) = mx.shape, my.shape
    n = n.reshape(ux, ux, uy, uy)
    a, b = out.shape[0] // 2, out.shape[1] // 2
    # out's four blocks over (s, u | t, w)
    rr, ri, ir, ii = (
        out[rows, cols].reshape(rx, ux, ry, uy)
        for rows in (slice(a), slice(a, None)) for cols in (slice(b), slice(b, None))
    )
    for w in range(0, uy, _GRAM_COLUMNS):  # a few columns w at a time, to bound memory
        cols = slice(w, w + _GRAM_COLUMNS)
        # n K1 over (u, v | w, t), times 4: the 2 of 2 Re(.) and the 2 of
        # each conjugate pair below
        right = np.tensordot(n[:, :, cols], 4 * my.conj(), axes=(3, 1))
        # K1^H n K1 and K1^H n K2 = conj(K1^H n K1 with u and v swapped)
        q11 = np.matmul(mx, right.reshape(ux, ux, -1)).reshape(ux, rx, -1, ry).transpose(1, 0, 3, 2)
        q12 = (mx.conj() @ right.reshape(ux, -1)).reshape(rx, ux, -1, ry).transpose(0, 1, 3, 2)
        np.conjugate(q12, out=q12)
        np.add(q11.real, q12.real, out=rr[..., cols])
        np.subtract(q12.imag, q11.imag, out=ri[..., cols])
        np.add(q11.imag, q12.imag, out=ir[..., cols])
        np.subtract(q11.real, q12.real, out=ii[..., cols])


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
    # private, but the step-length search of scipy's own BFGS; imported here
    # so that a scipy which moves it breaks only fitting (the pin is <1.18)
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
    assembles the Gauss-Newton matrix H, solves ``(H + mu I) step = -g`` by
    one Cholesky factorization in place and tries the anchored ``x + step``.
    An accepted step rescales ``mu`` by Nielsen's rule on the ratio of the
    actual to the model's decrease; a rejected one raises it, and once the
    step no longer moves ``x`` the search has failed (``line_search``). The
    phase ends once the loss is down to ``LM_FLOOR`` (``ftol``) or on the
    stage's gtol and stall rules. Where the residual does not vanish,
    Gauss-Newton converges slowly: once ``LM_WINDOW`` iterations gain less
    than ``LM_GAIN`` of the loss, the phase hands the stage back to BFGS.
    Returns the last point, its loss and gradient, and the stop reason
    (``None`` at ``maxiter`` or on handing back)."""
    start, mu, nu = len(history), None, 2.0
    while len(history) < maxiter:
        h = hess(x)
        if mu is None:
            mu = LM_DAMPING * np.max(np.diag(h))
        h.flat[:: x.size + 1] += mu
        try:  # h is symmetric: its transpose is the Fortran-ordered matrix LAPACK factors in place
            step = -scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(h.T, overwrite_a=True, check_finite=False), g,
                check_finite=False,
            )
        except np.linalg.LinAlgError:
            step = None
        h = None  # one n x n matrix at a time: a rejected step assembles it again
        if step is not None and np.array_equal(x + step, x):
            return x, fval, g, "line_search"
        trial = None if step is None else anchor(x + step)
        f_trial = np.inf if trial is None else f(trial)
        if f_trial < fval:
            # the model's decrease -g.step - step.H.step/2, as (H + mu I) step = -g
            predicted = 0.5 * (mu * (step @ step) - g @ step)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * (fval - f_trial) / predicted - 1.0) ** 3)
            nu = 2.0
            x, fval, g = trial, f_trial, jac(trial)
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
            hess=obj.gauss_newton,
            method=_stage,
            options={"maxiter": max_iter, "gtol": GTOL, "switch": LM_SWITCH * obj.t0,
                     "anchor": obj.anchor},
        )
        ansatz = _anchored(*obj.unpack(res.x))
        history += tuple(res.loss_history)
        loss = max(float(res.fun), 0.0)
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
