"""Multi-time process tensors in matrix-product density-operator form.

A process tensor over ``k`` steps is stored as the initial joint state
``rho0[o0, o0', a0, a0']``, one eight-index site tensor in the axis order of
:data:`ptnm.channels.W_LABELS` applied at every step, and ``k``; the
environment pair of the final step is traced only when a quantity is
actually evaluated, so the object itself stays a network, never a dense
``(2k+1)``-slot tensor, unless :func:`materialize` is explicitly asked for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .channels import _tp_residual
from .tensorops import check_density_matrix, check_hermitian

SITE_TOL = 1e-9


class MaterializationLimitError(RuntimeError):
    """Raised when a dense contraction would exceed the configured step limit."""


@dataclass(frozen=True)
class ProcessTensorMPDO:
    """Process tensor as an MPDO: initial tensor plus one site tensor applied
    at each of ``k`` steps.

    ``rho0`` has axes ``(o0, o0', a0, a0')`` and must be a valid joint density
    matrix; ``site`` follows the :data:`~ptnm.channels.W_LABELS` axis order.
    This is the one place a site is checked. ``site_tol=None`` skips its
    trace-preservation check, which is how tests carry deliberately broken
    sites.
    """

    rho0: np.ndarray
    site: np.ndarray
    k: int
    site_tol: float | None = SITE_TOL

    def __post_init__(self):
        try:
            k = operator.index(self.k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {self.k!r}") from None
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        rho0 = np.asarray(self.rho0, dtype=complex)
        w = np.asarray(self.site, dtype=complex)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "site", w)
        object.__setattr__(self, "k", k)
        if rho0.ndim != 4 or rho0.shape[0] != rho0.shape[1] or rho0.shape[2] != rho0.shape[3]:
            raise ValueError(f"rho0 has shape {rho0.shape}, expected (d, d, D, D)")
        d, D = rho0.shape[0], rho0.shape[2]
        check_density_matrix(
            rho0.transpose(0, 2, 1, 3).reshape(d * D, d * D), name="initial joint state"
        )
        if w.shape != (d, d, d, d, D, D, D, D):
            raise ValueError(f"site has shape {w.shape}, expected {(d, d, d, d, D, D, D, D)}")
        # swapping every unprimed index with its primed partner must conjugate W
        herm = np.abs(w.conj() - w.transpose(1, 0, 3, 2, 5, 4, 7, 6)).max()
        if not herm <= SITE_TOL:
            raise ValueError(f"site breaks prime-swap Hermiticity: {herm:.3e}")
        if self.site_tol is not None:
            residual = _tp_residual(w)
            if not residual <= self.site_tol:
                raise ValueError(f"site breaks trace preservation: residual {residual:.3e}")

    @property
    def d(self) -> int:
        return self.rho0.shape[0]

    @property
    def D(self) -> int:
        return self.rho0.shape[2]

    def truncated(self, k: int) -> "ProcessTensorMPDO":
        """The process tensor over the first ``k`` steps (containment)."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k must lie in [1, {self.k}], got {k}")
        return replace(self, k=k)


def build(w: np.ndarray, rho0_se: np.ndarray, k: int) -> ProcessTensorMPDO:
    """Process tensor of ``k`` steps of one site tensor ``w`` from a joint
    initial state.

    ``rho0_se`` is a density matrix on the composite space, system index
    slow; d and D are read from ``w``, and :class:`ProcessTensorMPDO` checks
    both and ``k``.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 8:
        raise ValueError(f"site tensor has shape {w.shape}, expected eight indices")
    d, D = w.shape[0], w.shape[4]
    rho0_se = np.asarray(rho0_se, dtype=complex)
    if rho0_se.shape != (d * D, d * D):
        raise ValueError(f"rho0 has shape {rho0_se.shape}, expected {(d * D, d * D)}")
    return ProcessTensorMPDO(_joint_state(rho0_se, d, D), w, k)


def _joint_state(rho0_se: np.ndarray, d: int, D: int) -> np.ndarray:
    """A joint density matrix, system index slow, as ``(o0, o0', a0, a0')``."""
    return rho0_se.reshape(d, D, d, D).transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------------
# Environment recursion
# ---------------------------------------------------------------------------


def _env_states(rho0: np.ndarray, site: np.ndarray, k: int) -> np.ndarray:
    """Effective environment states ``rho_E_0, ..., rho_E_k`` over ``k``
    steps of ``site`` from ``rho0``, under trace-averaged interventions, as
    one ``(k + 1, D, D)`` stack: the boundaries of one :func:`_sweep` whose
    bra, ``vec(I_d)`` then ``(I_d (x) I_d) / d`` on a one-dimensional bond,
    feeds in the maximally mixed system and traces it out, each state after
    step 0 then taken over its trace. A checked site moves a unit trace by
    at most ``D * SITE_TOL`` (its residual is entrywise, ``sum |rho_aa'| <=
    D``), step 0 adds the initial state's tolerance, and so each ratio of
    consecutive traces may drift by ``(D + 1) * SITE_TOL``; a larger one (a
    looser ``site_tol`` or none) raises ``ValueError`` at its first step.
    """
    d, D = rho0.shape[0], rho0.shape[2]
    trace = np.eye(d).reshape(-1, 1)
    average = np.outer(trace, trace).reshape(1, -1, 1) / d
    with np.errstate(all="ignore"):  # a drifting trace runs to inf, 0 or 0/0
        u = _sweep(trace, average, rho0.reshape(d * d, -1), _tt_core(site), k).reshape(k + 1, D * D)
        traces = u[:, :: D + 1].sum(axis=1).real
        ratios = traces[1:] / traces[:-1]
    bad = np.flatnonzero(~(np.abs(ratios - 1.0) <= (D + 1) * SITE_TOL))
    if bad.size:
        raise ValueError(f"environment-state trace drifted to {float(ratios[bad[0]])!r} at step "
                         f"{bad[0] + 1}; site tensors are too far from trace preserving")
    traces[0] = 1.0  # step 0, the initial marginal, keeps its own trace
    states = u.reshape(-1, D, D)
    return (states + states.conj().swapaxes(-1, -2)) / (2.0 * traces[:, None, None])


# ---------------------------------------------------------------------------
# Dense form, containment, inner products
# ---------------------------------------------------------------------------


def _as_matrix(t: np.ndarray) -> np.ndarray:
    """Flatten a dense multi-time tensor, grouping all unprimed slots (rows)
    against all primed ones (columns)."""
    n = t.ndim
    side = t.shape[0] ** (n // 2)
    return t.transpose(list(range(0, n, 2)) + list(range(1, n, 2))).reshape(side, side)


def _dense(rho0: np.ndarray, site: np.ndarray, k: int) -> np.ndarray:
    """The contraction :func:`materialize` runs, with no size guard or checks."""
    t = rho0
    for _ in range(k):
        t = np.tensordot(t, site, axes=([-2, -1], [4, 5]))
    return np.trace(t, axis1=-2, axis2=-1)


def materialize(pt: ProcessTensorMPDO, k_max: int = 4) -> np.ndarray:
    """The dense multi-time tensor by :func:`_dense`, checked Hermitian and
    positive, with axes in the interleaved slot order ``(o0, o0', i0, i0',
    o1, o1', ..., i_{k-1}, i_{k-1}', o_k, o_k')``.

    The tensor has ``d**(2(2k+1))`` entries, so the contraction refuses to run
    past ``k_max`` steps; raise the limit explicitly if you mean it.
    """
    if pt.k > k_max:
        raise MaterializationLimitError(
            f"materializing k={pt.k} steps exceeds the limit {k_max}; "
            "pass a larger k_max to override"
        )
    t = _dense(pt.rho0, pt.site, pt.k)
    mat = _as_matrix(t)
    check_hermitian(mat, tol=SITE_TOL, name="materialized tensor")
    eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if not eigs.min() >= -SITE_TOL * max(1.0, eigs.max()):
        raise ValueError(f"materialized tensor is not positive: {eigs.min():.3e}")
    return t


@dataclass(frozen=True)
class ContainmentReport:
    residual: float
    passed: bool


def check_containment(pt: ProcessTensorMPDO, k_max: int = 4) -> ContainmentReport:
    """Verify, within ``SITE_TOL``, that tracing the final output reduces the
    tensor to the shorter one tensored with an identity pair on the last
    input slot."""
    if pt.k < 2:
        raise ValueError("containment needs at least two steps")
    full = materialize(pt, k_max=k_max)
    shorter = materialize(pt.truncated(pt.k - 1), k_max=k_max)
    lhs = np.trace(full, axis1=-2, axis2=-1)
    rhs = np.multiply.outer(shorter, np.eye(pt.d, dtype=complex))
    residual = float(np.abs(lhs - rhs).max())
    return ContainmentReport(residual, residual <= SITE_TOL)


def _tt_core(w: np.ndarray) -> np.ndarray:
    """A site as a tensor-train core of shape ``(D*D, d**4, D*D)``: the
    incoming bond pair, the system legs ``(i, i', o, o')``, the outgoing bond
    pair."""
    dd = w.shape[4]
    return w.transpose(4, 5, 0, 1, 2, 3, 6, 7).reshape(dd * dd, -1, dd * dd)


def _transfer(cb: np.ndarray, ck: np.ndarray) -> np.ndarray:
    """``T[(ib, ik), (ob, ok)] = sum_p conj(cb[ib, p, ob]) ck[ik, p, ok]``, the
    transfer matrix of a bra and a ket core, by one matmul."""
    (ib, p, ob), (ik, _, ok) = cb.shape, ck.shape
    t = cb.transpose(0, 2, 1).reshape(-1, p).conj() @ ck.transpose(1, 0, 2).reshape(p, -1)
    return t.reshape(ib, ob, ik, ok).transpose(0, 2, 1, 3).reshape(ib * ik, ob * ok)


def _sweep(first_bra, core_bra, first_ket, core_ket, k: int) -> np.ndarray:
    """Two-layer boundaries ``l_0, ..., l_k`` of two tensor trains, each
    ``k`` copies of one core, stacked into one ``(k + 1, bra_bond,
    ket_bond)`` array; the bra layer is conjugated.

    ``l_0 = first_bra^H first_ket`` contracts the two first tensors, shaped
    ``(physical, bond)``. A step multiplies the flattened boundary by the
    :func:`_transfer` matrix of the core pair, built once, if that matrix
    holds no more entries than the two cores, which makes it cheaper than
    the two matmuls a wider bond takes per step. The choice reads shapes
    only. Left boundaries start from the initial tensors; right boundaries
    (:func:`_rights`) start from the final-trace row vectors and run over the
    reversed cores with their in and out bonds swapped.
    """
    cb, ck = core_bra, core_ket
    l = np.empty((k + 1, cb.shape[0], ck.shape[0]), dtype=complex)
    np.matmul(first_bra.conj().T, first_ket, out=l[0])
    if cb.shape[0] * ck.shape[0] * cb.shape[2] * ck.shape[2] <= cb.size + ck.size:
        t = _transfer(cb, ck)
        flat = l.reshape(k + 1, -1)
        for m in range(k):
            np.matmul(flat[m], t, out=flat[m + 1])
    else:
        bra, ket = cb.reshape(-1, cb.shape[2]).conj().T, ck.reshape(ck.shape[0], -1)
        for m in range(k):
            np.matmul(bra, (l[m] @ ket).reshape(-1, ck.shape[2]), out=l[m + 1])
    return l


def _rights(trace_bra, core_bra, trace_ket, core_ket, k: int) -> np.ndarray:
    """Stacked right boundaries ``[r_0, ..., r_k]`` of two tensor trains,
    each ``k`` copies of one core, from their final-trace row vectors: the
    one place a right sweep is set up. Each core is laid out reversed once,
    for one :func:`_sweep`, whose stack is returned as a reversed view."""
    back_bra = np.ascontiguousarray(core_bra.transpose(2, 1, 0))
    back_ket = np.ascontiguousarray(core_ket.transpose(2, 1, 0))
    return _sweep(trace_bra, back_bra, trace_ket, back_ket, k)[::-1]


def _grams(rho0: np.ndarray, site: np.ndarray, k: int, stop: int, start: int) -> tuple[np.ndarray, ...]:
    """Left Grams ``[l_0, ..., l_stop]`` and right Grams ``[r_start, ...,
    r_k]`` of the ``k``-step process tensor of ``site`` from ``rho0`` with
    itself, the stacks of ``(D**2, D**2)`` matrices over the bond pair that
    one :func:`_sweep` and one :func:`_rights` write. ``l_j`` contracts the
    initial tensor and the sites before step ``j``; ``r_j`` the sites from
    ``j`` on and the final environment trace."""
    first = rho0.reshape(rho0.shape[0] ** 2, -1)
    trace = np.eye(rho0.shape[2]).reshape(1, -1)
    core = _tt_core(site)
    return _sweep(first, core, first, core, stop), _rights(trace, core, trace, core, k - start)


def inner_product(a: ProcessTensorMPDO, b: ProcessTensorMPDO) -> complex:
    """``<a|b>`` over all physical slots, contracted step by step through the
    bond pairs, never materializing either tensor."""
    if a.k != b.k or a.d != b.d:
        raise ValueError("process tensors must share step count and system dimension")
    first_a, first_b = a.rho0.reshape(a.d**2, -1), b.rho0.reshape(b.d**2, -1)
    l = _sweep(first_a, _tt_core(a.site), first_b, _tt_core(b.site), a.k)[-1]
    return complex(np.eye(a.D).ravel() @ l @ np.eye(b.D).ravel())


def norm_sq(pt: ProcessTensorMPDO) -> float:
    return float(inner_product(pt, pt).real)
