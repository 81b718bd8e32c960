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

from .channels import ChannelTensor, _check_site, _tp_residual
from .tensorops import check_density_matrix

SITE_TOL = 1e-9


class MaterializationLimitError(RuntimeError):
    """Raised when a dense contraction would exceed the configured step limit."""


@dataclass(frozen=True)
class ProcessTensorMPDO:
    """Process tensor as an MPDO: initial tensor plus one site tensor per step.

    ``rho0`` has axes ``(o0, o0', a0, a0')`` and must be a valid joint density
    matrix; each site follows the :data:`~ptnm.channels.W_LABELS` axis order.
    ``site_tol=None`` skips the trace-preservation check, which is how
    variationally reconstructed (unnormalized) process tensors are carried.
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
            _check_site(w, d, D, SITE_TOL, self.site_tol, name=f"site {m}")

    @property
    def d(self) -> int:
        return self.rho0.shape[0]

    @property
    def D(self) -> int:
        return self.rho0.shape[2]

    @property
    def k(self) -> int:
        return len(self.sites)

    def site_normalization_residual(self) -> float:
        return max(_tp_residual(w) for w in self.sites)

    def truncated(self, k: int) -> "ProcessTensorMPDO":
        """The process tensor over the first ``k`` steps (containment)."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k must lie in [1, {self.k}], got {k}")
        return ProcessTensorMPDO(self.rho0, self.sites[:k], site_tol=self.site_tol)


def build(channel: ChannelTensor, rho0_se: np.ndarray, k: int) -> ProcessTensorMPDO:
    """Process tensor of ``k`` steps of a fixed channel from a joint initial state.

    ``rho0_se`` is a density matrix on the composite space, system index slow.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    d, D = channel.d, channel.D
    rho0_se = np.asarray(rho0_se, dtype=complex)
    if rho0_se.shape != (d * D, d * D):
        raise ValueError(f"rho0 has shape {rho0_se.shape}, expected {(d * D, d * D)}")
    check_density_matrix(rho0_se, name="initial joint state")
    rho0 = rho0_se.reshape(d, D, d, D).transpose(0, 2, 1, 3)
    return ProcessTensorMPDO(rho0, (channel.w,) * k)


# ---------------------------------------------------------------------------
# Environment recursion
# ---------------------------------------------------------------------------


def _env_states(pt: ProcessTensorMPDO, trace_tol: float = SITE_TOL) -> Iterator[np.ndarray]:
    """Effective environment states ``rho_E_0, rho_E_1, ..., rho_E_k`` under
    trace-averaged interventions, yielded one step at a time.

    Each step contracts the site with the identity on the system input pair,
    divides by ``d``, and renormalizes; the pre-normalization trace must stay
    within ``trace_tol`` of one, which holds exactly for trace-preserving
    sites and flags convention bugs or badly unnormalized fitted tensors. A
    drift raises ``ValueError`` in place of the step's state.
    """
    env = np.einsum("ooaA->aA", pt.rho0)
    env = (env + env.conj().T) / 2.0
    yield env
    for m, w in enumerate(pt.sites):
        env = np.einsum("iiooaAbB,aA->bB", w, env) / pt.d
        trace = float(np.trace(env).real)
        if abs(trace - 1.0) > trace_tol:
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


def materialize(pt: ProcessTensorMPDO, k_max: int = 4) -> np.ndarray:
    """Contract the network into the dense multi-time tensor, with axes in
    the interleaved slot order ``(o0, o0', i0, i0', o1, o1', ..., i_{k-1},
    i_{k-1}', o_k, o_k')``.

    The tensor has ``d**(2(2k+1))`` entries, so the contraction refuses to run
    past ``k_max`` steps; raise the limit explicitly if you mean it.
    """
    if pt.k > k_max:
        raise MaterializationLimitError(
            f"materializing k={pt.k} steps exceeds the limit {k_max}; "
            "pass a larger k_max to override"
        )
    t = pt.rho0
    for w in pt.sites:
        t = np.tensordot(t, w, axes=([-2, -1], [4, 5]))
    t = np.trace(t, axis1=-2, axis2=-1)
    mat = _as_matrix(t)
    herm = np.abs(mat - mat.conj().T).max()
    if herm > SITE_TOL * max(np.abs(mat).max(), 1.0):
        raise ValueError(f"materialized tensor is not Hermitian: residual {herm:.3e}")
    eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if eigs.min() < -SITE_TOL * max(1.0, eigs.max()):
        raise ValueError(f"materialized tensor is not positive: {eigs.min():.3e}")
    return t


@dataclass(frozen=True)
class ContainmentReport:
    residual: float
    passed: bool


def check_containment(
    pt: ProcessTensorMPDO, tol: float = SITE_TOL, k_max: int = 4
) -> ContainmentReport:
    """Verify that tracing the final output reduces the tensor to the shorter
    one tensored with an identity pair on the last input slot."""
    if pt.k < 2:
        raise ValueError("containment needs at least two steps")
    full = materialize(pt, k_max=k_max)
    shorter = materialize(pt.truncated(pt.k - 1), k_max=k_max)
    lhs = np.trace(full, axis1=-2, axis2=-1)
    rhs = np.multiply.outer(shorter, np.eye(pt.d, dtype=complex))
    residual = float(np.abs(lhs - rhs).max())
    return ContainmentReport(residual, residual <= tol)


def _left_sweep(rho_bra, sites_bra, rho_ket, sites_ket) -> list[np.ndarray]:
    """Two-layer left boundaries ``[l_0, ..., l_k]``: ``l_m`` contracts the
    initial tensors and the first ``m`` sites, with axes ``[bra_bond,
    bra_bond', ket_bond, ket_bond']``. The bra layer is conjugated."""
    l = [np.einsum("oOxX,oOyY->xXyY", rho_bra.conj(), rho_ket)]
    for wb, wk in zip(sites_bra, sites_ket):
        tmp = np.einsum("xXyY,iIoOyYbB->xXiIoObB", l[-1], wk)
        l.append(np.einsum("xXiIoObB,iIoOxXcC->cCbB", tmp, wb.conj()))
    return l


def _right_sweep(sites_bra, sites_ket) -> list[np.ndarray]:
    """Two-layer right boundaries ``[r_0, ..., r_k]``: ``r_m`` contracts
    sites ``m..k-1`` and the final environment trace, in the axis order of
    :func:`_left_sweep`; ``r_k`` is the trace itself. Needs at least one
    site, which fixes the bond dimensions."""
    db = sites_bra[0].shape[4]
    dk = sites_ket[0].shape[4]
    r = [np.einsum("cC,bB->cCbB", np.eye(db, dtype=complex), np.eye(dk, dtype=complex))]
    for wb, wk in zip(reversed(sites_bra), reversed(sites_ket)):
        tmp = np.einsum("iIoOyYbB,cCbB->iIoOyYcC", wk, r[-1])
        r.append(np.einsum("iIoOxXcC,iIoOyYcC->xXyY", wb.conj(), tmp))
    r.reverse()
    return r


def inner_product(a: ProcessTensorMPDO, b: ProcessTensorMPDO) -> complex:
    """``<a|b>`` over all physical slots, contracted step by step through the
    bond pairs, never materializing either tensor."""
    if a.k != b.k or a.d != b.d:
        raise ValueError("process tensors must share step count and system dimension")
    l = _left_sweep(a.rho0, a.sites, b.rho0, b.sites)[-1]
    return complex(np.einsum("xxaa->", l))


def norm_sq(pt: ProcessTensorMPDO) -> float:
    return float(inner_product(pt, pt).real)
