"""Quantum channels on a system-environment pair, in the forms the rest of
the package consumes.

Conventions, fixed once here:

* Composite indices order the system before the environment ("system slow"):
  a basis state of the joint space is ``x = s*D + e`` for system level ``s``
  and environment level ``e``.
* Vectorization is row-major (C order): ``vec(rho)[i*n + j] = rho[i, j]``,
  hence ``vec(A rho B) = (A kron B^T) vec(rho)`` and a Kraus map has
  superoperator ``sum_s A_s kron conj(A_s)``.
* A Kraus set is a stack ``K`` of shape ``(R, d, D, d, D)`` with axes
  ``(s, o, b, i, a)``: Kraus term, system output, environment output, system
  input, environment input. ``K[s].reshape(d*D, d*D)`` is the joint-space
  operator ``A_s``.
* The eight-index site tensor ``W`` of a channel is a bare array in the
  axis order :data:`W_LABELS`, ``(i, i', o, o', a, a', b, b')``: system
  input pair, system output pair, environment input pair, environment
  output pair, with

  ``W[i,i',o,o',a,a',b,b'] = sum_s K[s,o,b,i,a] * conj(K[s,o',b',i',a'])``.

  Trace preservation then reads ``sum_{o,b} W[i,i',o,o,a,a',b,b] =
  delta_{i,i'} delta_{a,a'}``; ``ProcessTensorMPDO`` checks it.
"""

from __future__ import annotations

import numpy as np

from .tensorops import check_hermitian

W_LABELS = ("i", "i'", "o", "o'", "a", "a'", "b", "b'")

CHOI_TOL = 1e-9
CP_EIG_DROP = 1e-12


def _tp_residual(w: np.ndarray) -> float:
    # tracing the output pairs (o,o') and (b,b') must leave identity on (i,i')x(a,a')
    n = np.einsum("ijooaebb->ijae", w)
    d, D = w.shape[0], w.shape[4]
    target = np.einsum("ij,ae->ijae", np.eye(d), np.eye(D))
    return float(np.abs(n - target).max())


def site_tensor(kraus: np.ndarray) -> np.ndarray:
    """The site tensor of a Kraus stack of shape ``(R, d, D, d, D)``, axes
    ``(s, o, b, i, a)``, as a bare array in the :data:`W_LABELS` order.

    ``W[i,i',o,o',a,a',b,b'] = sum_s K[s,o,b,i,a] conj(K[s,o',b',i',a'])`` is
    the Gram matrix ``P = M^T conj(M)`` of the Kraus matrix ``M =
    K.reshape(R, -1)`` with its axes permuted.
    """
    m = kraus.reshape(kraus.shape[0], -1)
    p = (m.T @ m.conj()).reshape(kraus.shape[1:] * 2)
    return p.transpose(2, 6, 0, 4, 3, 7, 1, 5)


def lindblad_superoperator(h: np.ndarray, jumps) -> np.ndarray:
    """Vectorized generator of a Hamiltonian ``h`` and ``(jump operator,
    rate)`` pairs ``jumps``, acting on row-major vectorized density matrices:

    ``-i[H, rho] + sum_l rate_l (2 L_l rho L_l^† - {L_l^† L_l, rho})``

    (note the factor 2: a single decay jump at rate ``gamma`` damps the
    addressed population at ``2*gamma``).
    """
    m = h.shape[0]
    eye = np.eye(m, dtype=complex)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in jumps:
        anti = op.conj().T @ op
        sup = sup + rate * (
            2.0 * np.kron(op, op.conj())
            - np.kron(anti, eye)
            - np.kron(eye, anti.T)
        )
    return sup


def superop_to_kraus(superop: np.ndarray, d: int, D: int) -> np.ndarray:
    """Extract a Kraus stack from a CP superoperator via its Choi spectrum.

    With row-major vectorization the (unnormalized) Choi matrix is the
    reshuffle ``C[(m,o),(n,o')] = S[(o,o'),(m,n)]``, i.e. ``C = sum_{mn}
    |m><n| kron E(|m><n|)``. Eigenvalues below ``CP_EIG_DROP`` are dropped;
    a Choi matrix not Hermitian within ``CHOI_TOL`` or a Choi eigenvalue
    below ``-CHOI_TOL`` (complete-positivity violation) is an error.
    """
    m = d * D
    if superop.shape != (m * m, m * m):
        raise ValueError(
            f"superoperator shape {superop.shape} does not match d*D = {m}"
        )
    # complex, as a real array would take a different LAPACK eigensolver
    c = np.asarray(superop, dtype=complex).reshape(m, m, m, m)
    c = c.transpose(2, 0, 3, 1).reshape(m * m, m * m)
    check_hermitian(c, tol=CHOI_TOL, name="Choi matrix")
    w, v = np.linalg.eigh((c + c.conj().T) / 2.0)
    if not w.min() >= -CHOI_TOL:
        raise ValueError(f"superoperator is not completely positive: {w.min():.3e}")
    keep = w > CP_EIG_DROP
    ops = np.sqrt(w[keep])[:, None, None] * v[:, keep].T.reshape(-1, m, m).transpose(0, 2, 1)
    return ops.reshape(-1, d, D, d, D)


def random_cptp_channel(
    d: int, D: int, kraus_rank: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw a Haar-flavored CPTP channel, as a Kraus stack, by
    QR-orthonormalizing a Gaussian Stinespring isometry with the requested
    number of Kraus operators."""
    m = d * D
    if not 1 <= kraus_rank <= m * m:
        raise ValueError(f"kraus_rank must lie in [1, {m * m}], got {kraus_rank}")
    g = rng.normal(size=(m * kraus_rank, m)) + 1j * rng.normal(size=(m * kraus_rank, m))
    q, r = np.linalg.qr(g)
    # fix the phase gauge so the draw is a deterministic function of the rng
    diag = np.diag(r)
    phase = np.where(np.abs(diag) > 0, diag / np.abs(np.where(diag == 0, 1, diag)), 1.0)
    q = q * phase.conj()
    return q.reshape(kraus_rank, d, D, d, D)
