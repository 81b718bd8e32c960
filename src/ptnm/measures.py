"""Non-Markovianity measures evaluated directly on the MPDO network.

Both measures are entropies in bits. The operational one halves the
entanglement entropy of the vectorized process tensor across a temporal cut;
the environment one is the von Neumann entropy of the effective environment
state propagated by trace-averaged interventions. Neither ever materializes
the multi-time tensor: the first works in the ``D**2``-dimensional bond space
through left/right Gram matrices, the second through a ``D x D`` recursion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .process_tensor import ProcessTensorMPDO, _env_states, _left_sweep, _right_sweep
from .tensorops import (
    Spectrum,
    check_density_matrix,
    check_unitary,
    renyi_entropy,
    von_neumann_entropy,
)

TRACE_TOL = 1e-9


def env_state(pt: ProcessTensorMPDO, j: int, trace_tol: float = TRACE_TOL) -> np.ndarray:
    """Effective environment state ``rho_E_j``, a ``(D, D)`` density matrix,
    under trace-averaged histories.

    Step zero is the environment marginal of the initial joint state; each
    later step feeds the maximally mixed system through the site tensor and
    keeps the environment, renormalized per step (see
    ``ptnm.process_tensor._env_states`` for the trace bookkeeping).
    """
    if not 0 <= j <= pt.k:
        raise ValueError(f"j must lie in [0, {pt.k}], got {j}")
    return next(itertools.islice(_env_states(pt, trace_tol), j, None))


def _entropy(eigenvalues: np.ndarray, alpha: float | None) -> float:
    """Von Neumann (``alpha=None``) or Renyi entropy in bits."""
    spectrum = Spectrum.from_values(eigenvalues)
    if alpha is None:
        return von_neumann_entropy(spectrum)
    return renyi_entropy(spectrum, alpha)


def _entropy_of_state(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    return _entropy(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), None)


def nm_ee(pt: ProcessTensorMPDO, j: int, trace_tol: float = TRACE_TOL) -> float:
    """Environment-entropy measure ``S(rho_E_j)`` in bits, ``1 <= j <= k``."""
    if not 1 <= j <= pt.k:
        raise ValueError(f"j must lie in [1, {pt.k}], got {j}")
    return _entropy_of_state(env_state(pt, j, trace_tol=trace_tol))


# ---------------------------------------------------------------------------
# Operational entanglement entropy across a temporal cut
# ---------------------------------------------------------------------------


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _cut_spectrum(gram_left: np.ndarray, gram_right: np.ndarray) -> np.ndarray:
    """Normalized Schmidt spectrum across a cut from the two bond Grams.

    The reduced state of the left block is ``L G_R^T L^†`` for left-block
    vectors ``L``, so its nonzero spectrum is that of ``G_R^T G_L``, evaluated
    here in the manifestly Hermitian form ``sqrt(G_L) G_R^T sqrt(G_L)``.
    """
    n = int(round(math.sqrt(gram_left.size)))
    gl = gram_left.reshape(n, n)
    gr = gram_right.reshape(n, n)
    s = _sqrt_psd(gl)
    eigs = np.linalg.eigvalsh(s @ gr.T @ s)
    total = eigs.sum()
    if total <= 0:
        raise ValueError("process tensor has zero norm across the cut")
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
    gl = _left_sweep(pt.rho0, pt.sites[:j], pt.rho0, pt.sites[:j])[-1]
    gr = _right_sweep(pt.sites[j:], pt.sites[j:])[0]
    return _entropy(_cut_spectrum(gl, gr), alpha) / 2.0


# ---------------------------------------------------------------------------
# Memory complexity for unitary models
# ---------------------------------------------------------------------------


def memory_complexity(
    u: np.ndarray,
    rho0_se: np.ndarray,
    d: int,
    D: int,
    j: int,
    trace_tol: float = TRACE_TOL,
) -> float:
    """Environment entropy of a unitary system-environment model after ``j``
    steps, in bits, computed on raw matrices.

    This is the same quantity the environment measure assigns to the model's
    process tensor, but evaluated without ever forming a site tensor, which
    makes it an independent check for channels that are unitary conjugations.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol=1e-9, name="model unitary")
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
        if abs(trace - 1.0) > trace_tol:
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
    pass over the sites: ``osee`` one left and one right boundary sweep,
    ``ee`` one environment recursion.
    """
    if kind == "osee":
        steps = tuple(range(1, pt.k))
        lefts = _left_sweep(pt.rho0, pt.sites, pt.rho0, pt.sites)
        rights = _right_sweep(pt.sites, pt.sites)
        values = [_entropy(_cut_spectrum(lefts[j], rights[j]), None) / 2.0 for j in steps]
        flagged = tuple(j for j in steps if pt.k - j <= pt.k / 5.0)
        return MeasureSeries(kind, steps, tuple(values), flagged)
    if kind == "ee":
        values = tuple(
            _entropy_of_state(env) for env in itertools.islice(_env_states(pt, TRACE_TOL), 1, None)
        )
        return MeasureSeries(kind, tuple(range(1, pt.k + 1)), values)
    raise ValueError(f"unknown measure kind {kind!r}; expected 'osee' or 'ee'")
