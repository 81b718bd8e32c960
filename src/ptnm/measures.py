"""Non-Markovianity measures evaluated directly on the MPDO network.

Both measures are entropies in bits. The operational one halves the
entanglement entropy of the vectorized process tensor across a temporal cut;
the environment one is the von Neumann entropy of the effective environment
state propagated by trace-averaged interventions. Neither ever materializes
the multi-time tensor: the first works in the ``D**2``-dimensional bond space
through left/right Gram matrices, the second through a ``D x D`` recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process_tensor import ProcessTensorMPDO, _env_states, _grams
from .tensorops import check_density_matrix, check_unitary, renyi_entropy, von_neumann_entropy


def env_state(pt: ProcessTensorMPDO, j: int) -> np.ndarray:
    """Effective environment state ``rho_E_j``, a ``(D, D)`` density matrix,
    under trace-averaged histories.

    Step zero is the environment marginal of the initial joint state; each
    later step feeds the maximally mixed system through the site tensor and
    keeps the environment, each state taken over its trace (see
    ``ptnm.process_tensor._env_states`` for the trace bookkeeping). Only the
    steps up to ``j`` are run, and only their traces are checked.
    """
    if not 0 <= j <= pt.k:
        raise ValueError(f"j must lie in [0, {pt.k}], got {j}")
    return _env_states(pt.rho0, pt.site, j)[j]


def _entropy(eigenvalues: np.ndarray, alpha: float | None) -> float | np.ndarray:
    """Von Neumann (``alpha=None``) or Renyi entropy in bits, of one spectrum
    or of each along the last axis of a stack."""
    if alpha is None:
        return von_neumann_entropy(eigenvalues)
    return renyi_entropy(eigenvalues, alpha)


def _entropy_of_state(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits of a density matrix, or of each matrix in
    a stack by one ``eigvalsh``."""
    return _entropy(np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2.0), None)


def nm_ee(pt: ProcessTensorMPDO, j: int) -> float:
    """Environment-entropy measure ``S(rho_E_j)`` in bits, ``1 <= j <= k``."""
    if not 1 <= j <= pt.k:
        raise ValueError(f"j must lie in [1, {pt.k}], got {j}")
    return _entropy_of_state(env_state(pt, j))


# ---------------------------------------------------------------------------
# Operational entanglement entropy across a temporal cut
# ---------------------------------------------------------------------------


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Square root of a positive semidefinite matrix, or of each in a stack."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _cut_spectrum(
    gram_left: np.ndarray, gram_right: np.ndarray, steps: int | tuple[int, ...] | None = None
) -> np.ndarray:
    """Normalized Schmidt spectrum across a cut from the two bond Grams, or
    across each cut of two stacks of them, by one ``eigh`` and one
    ``eigvalsh`` in all.

    The reduced state of the left block is ``L G_R^T L^†`` for left-block
    vectors ``L``, so its nonzero spectrum is that of ``G_R^T G_L``, evaluated
    here in the manifestly Hermitian form ``sqrt(G_L) G_R^T sqrt(G_L)``.
    ``steps``, the step of the cut or of each stacked cut, names the first
    cut of zero norm, or whose Grams or product leave the float64 range, in
    the error that it raises; the latter before the product's eigensolve.
    """
    def check(bad: np.ndarray, what: str) -> None:
        if bad.any():
            at = "" if steps is None else f" at step {np.broadcast_to(steps, bad.shape)[bad][0]}"
            raise ValueError(f"process tensor has {what} across the cut{at}")
    finite = np.isfinite(gram_left).all(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sqrt_psd(np.where(finite[..., None, None], gram_left, 0.0))
        product = s @ gram_right.swapaxes(-1, -2) @ s
    check(~(finite & np.isfinite(product).all(axis=(-2, -1))), "a norm past the float64 range")
    eigs = np.linalg.eigvalsh(product)
    total = eigs.sum(axis=-1, keepdims=True)
    check(~(total[..., 0] > 0), "zero norm")
    return eigs / total


def osee(pt: ProcessTensorMPDO, j: int, alpha: float | None = None) -> float:
    """Operational measure: half the entanglement entropy of the vectorized
    process tensor across the temporal cut at step ``j``, in bits.

    The cut sits on the environment bond between the step-``j`` and
    step-``j+1`` site tensors, keeping slots up to ``o_j`` on the left.
    ``alpha`` switches the entropy to the Renyi family.
    """
    if not 1 <= j <= pt.k - 1:
        raise ValueError(f"bond cut needs 1 <= j <= {pt.k - 1}, got {j}")
    with np.errstate(over="ignore", invalid="ignore"):  # _cut_spectrum names an overflow
        lefts, rights = _grams(pt.rho0, pt.site, pt.k, j, j)
    return _entropy(_cut_spectrum(lefts[-1], rights[0], j), alpha) / 2.0


# ---------------------------------------------------------------------------
# Memory complexity for unitary models
# ---------------------------------------------------------------------------


def memory_complexity(
    u: np.ndarray,
    rho0_se: np.ndarray,
    d: int,
    D: int,
    j: int,
) -> float:
    """Environment entropy of a unitary system-environment model after ``j``
    steps, in bits, computed on raw matrices.

    This is the same quantity the environment measure assigns to the model's
    process tensor, but evaluated without ever forming a site tensor, which
    makes it an independent check for channels that are unitary conjugations.
    """
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    u = np.asarray(u, dtype=complex)
    check_unitary(u, name="model unitary")
    if u.shape != (d * D, d * D):
        raise ValueError(f"unitary has shape {u.shape}, expected {(d * D, d * D)}")
    rho0_se = np.asarray(rho0_se, dtype=complex)
    check_density_matrix(rho0_se, name="initial joint state")
    env = np.einsum("sesE->eE", rho0_se.reshape(d, D, d, D))
    for m in range(j):
        joint = np.kron(np.eye(d) / d, env)
        joint = u @ joint @ u.conj().T
        env = np.einsum("sesE->eE", joint.reshape(d, D, d, D))
        trace = float(np.trace(env).real)
        if not abs(trace - 1.0) <= 1e-9:
            raise ValueError(f"environment trace drifted to {trace!r} at step {m + 1}")
        env = (env + env.conj().T) / (2.0 * trace)
    return _entropy_of_state(env)


# ---------------------------------------------------------------------------
# Series over steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSeries:
    """A measure evaluated over a range of steps.

    ``boundary_flagged`` lists the steps close enough to the final time that
    the operational measure is depressed by the right boundary rather than by
    any loss of memory.
    """

    kind: str
    steps: tuple[int, ...]
    values: tuple[float, ...]
    boundary_flagged: tuple[int, ...] = ()

    def value_at(self, j: int) -> float:
        return self.values[self.steps.index(j)]


def measure_series(pt: ProcessTensorMPDO, kind: str) -> MeasureSeries:
    """Sweep a measure over all valid steps of the process tensor.

    ``kind`` is ``"osee"`` (steps ``1..k-1``, right-boundary points flagged
    within ``k/5`` of ``k``) or ``"ee"`` (steps ``1..k``). Either costs one
    pass over the sites and one batched eigensolve over the stacked steps:
    ``osee`` one left and one right boundary sweep and the cut spectra of all
    steps at once, ``ee`` one environment recursion and the spectra of all
    its states at once. Each value is the one ``osee`` or ``nm_ee`` gives at
    its step, to the last bit.
    """
    if kind == "osee":
        steps = tuple(range(1, pt.k))
        with np.errstate(over="ignore", invalid="ignore"):  # _cut_spectrum names an overflow
            lefts, rights = _grams(pt.rho0, pt.site, pt.k, pt.k, 0)
        values = _entropy(_cut_spectrum(lefts[1:-1], rights[1:-1], steps), None) / 2.0
        flagged = tuple(j for j in steps if pt.k - j <= pt.k / 5.0)
        return MeasureSeries(kind, steps, tuple(values.tolist()), flagged)
    if kind == "ee":
        values = _entropy_of_state(_env_states(pt.rho0, pt.site, pt.k)[1:])
        return MeasureSeries(kind, tuple(range(1, pt.k + 1)), tuple(values.tolist()))
    raise ValueError(f"unknown measure kind {kind!r}; expected 'osee' or 'ee'")
