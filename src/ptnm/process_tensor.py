"""Multi-time process tensors in matrix-product density-operator form.

A process tensor over ``k`` steps is stored as the initial joint state
``rho0[o0, o0', a0, a0']`` followed by ``k`` copies of (or ``k`` distinct)
eight-index site tensors in the axis order of :data:`ptnm.channels.W_LABELS`;
the environment pair of the final site is traced only when a quantity is
actually evaluated, so the object itself stays a network, never a dense
``(2k+1)``-slot tensor, unless :func:`materialize` is explicitly asked for.

Interventions are CP maps on the system, given either as ``d**2 x d**2``
superoperators over row-major vectorization or as ``(measurement,
preparation)`` operator pairs realizing ``rho -> tr(M rho) * P``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import ChannelTensor, _check_site, _tp_residual
from .tensorops import check_density_matrix, check_hermitian, check_unitary

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

    def rho0_matrix(self) -> np.ndarray:
        d, D = self.d, self.D
        return self.rho0.transpose(0, 2, 1, 3).reshape(d * D, d * D)

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
# Interventions
# ---------------------------------------------------------------------------


def measure_prepare_superop(measurement: np.ndarray, preparation: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> tr(measurement rho) * preparation``."""
    m = np.asarray(measurement, dtype=complex)
    p = np.asarray(preparation, dtype=complex)
    if m.shape != p.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("measurement and preparation must be square and same-shaped")
    d = m.shape[0]
    return np.einsum("iI,Oo->iIoO", p, m).reshape(d * d, d * d)


def identity_superop(d: int) -> np.ndarray:
    return np.einsum("io,IO->iIoO", np.eye(d), np.eye(d)).reshape(d * d, d * d)


def _operation_tensor(op, d: int, cp_tol: float) -> np.ndarray:
    if isinstance(op, tuple):
        if len(op) != 2:
            raise ValueError("operator-pair interventions must be (measurement, preparation)")
        op = measure_prepare_superop(*op)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d * d, d * d):
        raise ValueError(f"intervention has shape {op.shape}, expected {(d * d, d * d)}")
    t = op.reshape(d, d, d, d)  # [i, i', o, o']
    choi = t.transpose(2, 0, 3, 1).reshape(d * d, d * d)
    herm = np.abs(choi - choi.conj().T).max()
    if herm > cp_tol * max(np.abs(choi).max(), 1.0):
        raise ValueError(f"intervention is not Hermiticity preserving: {herm:.3e}")
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    if w.min() < -cp_tol:
        raise ValueError(f"intervention is not completely positive: {w.min():.3e}")
    return t


@dataclass(frozen=True)
class OperationSequence:
    """Time-ordered interventions, each CP within ``cp_tol``, plus an optional
    final Hermitian measurement operator."""

    ops: tuple
    final_measurement: np.ndarray | None = None
    d: int = 2
    cp_tol: float = SITE_TOL

    def __post_init__(self):
        tensors = tuple(_operation_tensor(op, self.d, self.cp_tol) for op in self.ops)
        object.__setattr__(self, "ops", tensors)
        if self.final_measurement is not None:
            m = np.asarray(self.final_measurement, dtype=complex)
            check_hermitian(m, name="final measurement")
            if m.shape != (self.d, self.d):
                raise ValueError(
                    f"final measurement has shape {m.shape}, expected {(self.d, self.d)}"
                )
            object.__setattr__(self, "final_measurement", m)

    def __len__(self) -> int:
        return len(self.ops)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


def _evolve(pt: ProcessTensorMPDO, ops: tuple, steps: int) -> np.ndarray:
    """Joint state after ``steps`` channel applications with the given
    interventions applied before their step; returns axes ``(o, o', b, b')``."""
    state = pt.rho0
    for m in range(steps):
        if m < len(ops):
            state = np.einsum("iIoO,oOaA->iIaA", ops[m], state)
        state = np.einsum("iIoOaAbB,iIaA->oObB", pt.sites[m], state)
    return state


def apply(pt: ProcessTensorMPDO, seq: OperationSequence) -> np.ndarray:
    """Final system state after threading ``k`` interventions through the
    process tensor: ``rho_k = tr_E(E Lambda_{k-1} ... E Lambda_0 rho0)``."""
    if len(seq) != pt.k:
        raise ValueError(f"need exactly {pt.k} interventions, got {len(seq)}")
    if seq.d != pt.d:
        raise ValueError(f"operation dimension {seq.d} does not match system {pt.d}")
    state = _evolve(pt, seq.ops, pt.k)
    return np.einsum("oOaa->oO", state)


def expectation(pt: ProcessTensorMPDO, seq: OperationSequence) -> float:
    """Expectation of the final measurement after ``j = len(seq)`` steps.

    Only the first ``j`` sites enter (containment); with no interventions the
    measurement reads the initial system state directly.
    """
    if seq.final_measurement is None:
        raise ValueError("expectation needs a final measurement")
    j = len(seq)
    if j > pt.k:
        raise ValueError(f"sequence has {j} interventions but the tensor has {pt.k} steps")
    if seq.d != pt.d:
        raise ValueError(f"operation dimension {seq.d} does not match system {pt.d}")
    state = _evolve(pt, seq.ops, j)
    value = np.einsum("Oo,oOaa->", seq.final_measurement, state)
    return float(value.real)


def expectation_do_nothing(pt: ProcessTensorMPDO, measurement: np.ndarray, j: int) -> float:
    """Expectation at step ``j`` with open slots threaded through untouched,
    i.e. the interventions replaced by identity maps."""
    if not 0 <= j <= pt.k:
        raise ValueError(f"j must lie in [0, {pt.k}], got {j}")
    check_hermitian(measurement, name="measurement")
    state = _evolve(pt, (), j)
    value = np.einsum("Oo,oOaa->", np.asarray(measurement, dtype=complex), state)
    return float(value.real)


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


def local_expectation_averaged(
    pt: ProcessTensorMPDO,
    measurement: np.ndarray,
    j: int,
    trace_tol: float = SITE_TOL,
) -> float:
    """Expectation at step ``j`` with every earlier slot contracted with
    identity-diagonal pairs (interventions averaged away).

    The history collapses to the effective environment state, so the value is
    ``tr((M ⊗ I) E(I_S ⊗ rho_E_{j-1}))``; the identity measurement gives
    ``d``, not one, under this normalization.
    """
    check_hermitian(measurement, name="measurement")
    m_op = np.asarray(measurement, dtype=complex)
    if not 0 <= j <= pt.k:
        raise ValueError(f"j must lie in [0, {pt.k}], got {j}")
    if j == 0:
        rho_s = np.einsum("oOaa->oO", pt.rho0)
        return float(np.einsum("Oo,oO->", m_op, rho_s).real)
    env = next(itertools.islice(_env_states(pt, trace_tol), j - 1, None))
    x = np.einsum("iI,aA->iIaA", np.eye(pt.d), env)
    y = np.einsum("iIoOaAbB,iIaA->oObB", pt.sites[j - 1], x)
    return float(np.einsum("Oo,oObb->", m_op, y).real)


# ---------------------------------------------------------------------------
# Dense form, containment, inner products, gauge moves
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


def gauge_transform_env(pt: ProcessTensorMPDO, u: np.ndarray) -> ProcessTensorMPDO:
    """Conjugate every environment bond by a unitary; all observable content
    of the process tensor is unchanged."""
    u = np.asarray(u, dtype=complex)
    check_unitary(u, name="gauge unitary")
    if u.shape != (pt.D, pt.D):
        raise ValueError(f"gauge unitary has shape {u.shape}, expected {(pt.D, pt.D)}")
    rho0 = np.einsum("xa,yb,oOab->oOxy", u, u.conj(), pt.rho0)
    cache: dict[int, np.ndarray] = {}
    sites = []
    for w in pt.sites:
        key = id(w)
        if key not in cache:
            cache[key] = np.einsum(
                "xa,yA,zb,wB,iIoOaAbB->iIoOxyzw", u.conj(), u, u, u.conj(), w
            )
        sites.append(cache[key])
    return ProcessTensorMPDO(rho0, tuple(sites), site_tol=pt.site_tol)
