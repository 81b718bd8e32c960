"""Multi-time process tensors in matrix-product density-operator form.

A process tensor over ``k`` steps is stored as the initial joint state
``rho0[o0, o0', a0, a0']`` followed by ``k`` copies of (or ``k`` distinct)
eight-index site tensors in the axis order of :data:`ptnm.channels.W_LABELS`;
the environment pair of the final site is traced only when a quantity is
actually evaluated, so the object itself stays a network, never a dense
``(2k+1)``-slot tensor, unless :func:`materialize` is explicitly asked for.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import _tp_residual
from .tensorops import check_density_matrix, check_hermitian

SITE_TOL = 1e-9


def _check_site(w: np.ndarray, d: int, D: int, tp_tol: float | None, name: str) -> None:
    """Raise unless ``w`` has the site shape for ``(d, D)``, is prime-swap
    Hermitian within ``SITE_TOL`` and trace preserving within ``tp_tol``
    (``None`` skips the trace-preservation check)."""
    if w.shape != (d, d, d, d, D, D, D, D):
        raise ValueError(f"{name} has shape {w.shape}, expected {(d, d, d, d, D, D, D, D)}")
    # swapping every unprimed index with its primed partner must conjugate W
    herm = np.abs(w.conj() - w.transpose(1, 0, 3, 2, 5, 4, 7, 6)).max()
    if not herm <= SITE_TOL:
        raise ValueError(f"{name} breaks prime-swap Hermiticity: {herm:.3e}")
    if tp_tol is not None:
        residual = _tp_residual(w)
        if not residual <= tp_tol:
            raise ValueError(f"{name} breaks trace preservation: residual {residual:.3e}")


class MaterializationLimitError(RuntimeError):
    """Raised when a dense contraction would exceed the configured step limit."""


@dataclass(frozen=True)
class ProcessTensorMPDO:
    """Process tensor as an MPDO: initial tensor plus one site tensor per step.

    ``rho0`` has axes ``(o0, o0', a0, a0')`` and must be a valid joint density
    matrix; each site follows the :data:`~ptnm.channels.W_LABELS` axis order.
    This is the one place a site is checked (``_check_site``).
    ``site_tol=None`` skips the trace-preservation check, which is how tests
    carry deliberately broken sites.
    """

    rho0: np.ndarray
    sites: tuple[np.ndarray, ...]
    site_tol: float | None = SITE_TOL

    def __post_init__(self):
        rho0 = np.asarray(self.rho0, dtype=complex)
        sites = tuple(np.asarray(s, dtype=complex) for s in self.sites)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "sites", sites)
        if rho0.ndim != 4 or rho0.shape[0] != rho0.shape[1] or rho0.shape[2] != rho0.shape[3]:
            raise ValueError(f"rho0 has shape {rho0.shape}, expected (d, d, D, D)")
        d, D = rho0.shape[0], rho0.shape[2]
        check_density_matrix(
            rho0.transpose(0, 2, 1, 3).reshape(d * D, d * D), name="initial joint state"
        )
        if not sites:
            raise ValueError("a process tensor needs at least one step")
        checked = set()
        for m, w in enumerate(sites):
            if id(w) in checked:  # build and predict repeat one object k times
                continue
            checked.add(id(w))
            _check_site(w, d, D, self.site_tol, name=f"site {m}")

    @property
    def d(self) -> int:
        return self.rho0.shape[0]

    @property
    def D(self) -> int:
        return self.rho0.shape[2]

    @property
    def k(self) -> int:
        return len(self.sites)

    def truncated(self, k: int) -> "ProcessTensorMPDO":
        """The process tensor over the first ``k`` steps (containment)."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k must lie in [1, {self.k}], got {k}")
        return ProcessTensorMPDO(self.rho0, self.sites[:k], site_tol=self.site_tol)


def build(w: np.ndarray, rho0_se: np.ndarray, k: int) -> ProcessTensorMPDO:
    """Process tensor of ``k`` steps of one site tensor ``w`` from a joint
    initial state.

    ``rho0_se`` is a density matrix on the composite space, system index
    slow; d and D are read from ``w``, and :class:`ProcessTensorMPDO` checks
    both.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = np.asarray(w, dtype=complex)
    if w.ndim != 8:
        raise ValueError(f"site tensor has shape {w.shape}, expected eight indices")
    d, D = w.shape[0], w.shape[4]
    rho0_se = np.asarray(rho0_se, dtype=complex)
    if rho0_se.shape != (d * D, d * D):
        raise ValueError(f"rho0 has shape {rho0_se.shape}, expected {(d * D, d * D)}")
    return ProcessTensorMPDO(_joint_state(rho0_se, d, D), (w,) * k)


def _joint_state(rho0_se: np.ndarray, d: int, D: int) -> np.ndarray:
    """A joint density matrix, system index slow, as ``(o0, o0', a0, a0')``."""
    return rho0_se.reshape(d, D, d, D).transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------------
# Environment recursion
# ---------------------------------------------------------------------------


def _env_states(pt: ProcessTensorMPDO) -> Iterator[np.ndarray]:
    """Effective environment states ``rho_E_0, rho_E_1, ..., rho_E_k`` under
    trace-averaged interventions, yielded one step at a time.

    Each step contracts the site with the identity on the system input pair,
    divides by ``d``, and renormalizes. A site that passed the construction
    check moves the trace of a unit-trace state by at most ``D * SITE_TOL``
    (its trace-preservation residual is entrywise, and ``sum |rho_aa'| <= D``),
    and step 0 is not renormalized, so it adds the initial state's own trace
    tolerance. A larger drift needs a tensor built with a looser ``site_tol``
    or none; it raises ``ValueError`` in place of the step's state.
    """
    drift_tol = (pt.D + 1) * SITE_TOL
    env = np.einsum("ooaA->aA", pt.rho0)
    env = (env + env.conj().T) / 2.0
    yield env
    for m, w in enumerate(pt.sites):
        env = np.einsum("iiooaAbB,aA->bB", w, env) / pt.d
        trace = float(np.trace(env).real)
        if not abs(trace - 1.0) <= drift_tol:
            raise ValueError(
                f"environment-state trace drifted to {trace!r} at step {m + 1}; "
                "site tensors are too far from trace preserving"
            )
        env = (env + env.conj().T) / (2.0 * trace)
        yield env


# ---------------------------------------------------------------------------
# Dense form, containment, inner products
# ---------------------------------------------------------------------------


def _as_matrix(t: np.ndarray) -> np.ndarray:
    """Flatten a dense multi-time tensor, grouping all unprimed slots (rows)
    against all primed ones (columns)."""
    n = t.ndim
    side = t.shape[0] ** (n // 2)
    return t.transpose(list(range(0, n, 2)) + list(range(1, n, 2))).reshape(side, side)


def _dense(rho0: np.ndarray, sites) -> np.ndarray:
    """The contraction :func:`materialize` runs, with no size guard or checks."""
    t = rho0
    for w in sites:
        t = np.tensordot(t, w, axes=([-2, -1], [4, 5]))
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
    t = _dense(pt.rho0, pt.sites)
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


def _cores(pt: ProcessTensorMPDO) -> list[np.ndarray]:
    """The sites of ``pt`` as tensor-train cores for a sweep over the
    process tensor: ``build`` repeats one site object k times, so each
    distinct object is laid out once."""
    layouts = {}
    for w in pt.sites:
        if id(w) not in layouts:
            layouts[id(w)] = _tt_core(w)
    return [layouts[id(w)] for w in pt.sites]


def _transfer(cb: np.ndarray, ck: np.ndarray) -> np.ndarray:
    """``T[(ib, ik), (ob, ok)] = sum_p conj(cb[ib, p, ob]) ck[ik, p, ok]``, the
    transfer matrix of a bra and a ket core, by one matmul."""
    (ib, p, ob), (ik, _, ok) = cb.shape, ck.shape
    t = cb.transpose(0, 2, 1).reshape(-1, p).conj() @ ck.transpose(1, 0, 2).reshape(p, -1)
    return t.reshape(ib, ob, ik, ok).transpose(0, 2, 1, 3).reshape(ib * ik, ob * ok)


def _sweep(first_bra, cores_bra, first_ket, cores_ket) -> list[np.ndarray]:
    """Two-layer boundaries ``[l_0, ..., l_n]`` of two tensor trains, each a
    ``(bra_bond, ket_bond)`` matrix; the bra layer is conjugated.

    ``l_0 = first_bra^H first_ket`` contracts the two first tensors, shaped
    ``(physical, bond)``. A step multiplies the flattened boundary by the
    :func:`_transfer` matrix of its core pair, built once per call for each
    distinct pair of core objects (``build`` repeats one site k times), if
    that matrix holds no more entries than the two cores. Such a product costs
    less than the two matmuls that every other step takes, and a wide bond,
    whose matrix would outgrow its cores, takes those. The choice reads the
    shapes only, so equal-valued copies of a core give the same bits.
    Left boundaries start from the initial tensors; right boundaries
    (:func:`_rights`) start from the final-trace row vectors and run over the
    reversed cores with their in and out bonds swapped.
    """
    transfers, l = {}, [first_bra.conj().T @ first_ket]
    for cb, ck in zip(cores_bra, cores_ket):
        if (id(cb), id(ck)) not in transfers:
            small = cb.shape[0] * ck.shape[0] * cb.shape[2] * ck.shape[2] <= cb.size + ck.size
            transfers[id(cb), id(ck)] = _transfer(cb, ck) if small else None
        t = transfers[id(cb), id(ck)]
        if t is None:
            tmp = (l[-1] @ ck.reshape(ck.shape[0], -1)).reshape(-1, ck.shape[2])
            l.append(cb.reshape(-1, cb.shape[2]).conj().T @ tmp)
        else:
            l.append((l[-1].reshape(-1) @ t).reshape(cb.shape[2], ck.shape[2]))
    return l


def _rights(trace_bra, cores_bra, trace_ket, cores_ket) -> np.ndarray:
    """Stacked right boundaries ``[r_0, ..., r_n]`` of two tensor trains from
    their final-trace row vectors, the one place a right sweep is set up: each
    distinct core is laid out reversed once, for one :func:`_sweep`."""
    layouts = {}
    for c in (*cores_bra, *cores_ket):
        if id(c) not in layouts:
            layouts[id(c)] = np.ascontiguousarray(c.transpose(2, 1, 0))
    back_bra = [layouts[id(c)] for c in reversed(cores_bra)]
    back_ket = [layouts[id(c)] for c in reversed(cores_ket)]
    return np.stack(_sweep(trace_bra, back_bra, trace_ket, back_ket)[::-1])


def inner_product(a: ProcessTensorMPDO, b: ProcessTensorMPDO) -> complex:
    """``<a|b>`` over all physical slots, contracted step by step through the
    bond pairs, never materializing either tensor."""
    if a.k != b.k or a.d != b.d:
        raise ValueError("process tensors must share step count and system dimension")
    l = _sweep(a.rho0.reshape(a.d**2, -1), _cores(a), b.rho0.reshape(b.d**2, -1), _cores(b))[-1]
    return complex(np.eye(a.D).ravel() @ l @ np.eye(b.D).ravel())


def norm_sq(pt: ProcessTensorMPDO) -> float:
    return float(inner_product(pt, pt).real)
