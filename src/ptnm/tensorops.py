"""The small linear-algebra kernel used everywhere else.

Conventions fixed here and relied on by the rest of the package:

* every entropy is reported in bits (base-2 logarithms), of one spectrum or
  of each spectrum along the last axis of a stack,
* eigenvalues of nominally positive operators are clipped at ``CLIP_TOL``,
* every tolerance check is written ``not residual <= tol``, so that NaN fails.
"""

from __future__ import annotations

import numpy as np

CLIP_TOL = 1e-12
SUM_TOL = 1e-8
HERMITICITY_TOL = 1e-9


def _as_probabilities(spectra) -> np.ndarray:
    """The spectra along the last axis as probability vectors: checked,
    clipped to ``[0, 1]`` and renormalized row by row."""
    p = np.asarray(spectra, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError(f"empty spectrum: no eigenvalues along the last axis of shape {p.shape}")
    if p.size and not p.min() >= -CLIP_TOL:  # a stack of no spectra passes
        raise ValueError(f"eigenvalue {p.min():.3e} is not at least -{CLIP_TOL:.0e}")
    total = p.sum(axis=-1)
    deviation = abs(total - 1.0)
    if not (deviation <= SUM_TOL).all():
        worst = np.ravel(total)[np.argmax(deviation)]  # NaN first: argmax takes it
        raise ValueError(f"spectrum sums to {worst!r}, expected 1 within {SUM_TOL:.0e}")
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def von_neumann_entropy(spectrum) -> float | np.ndarray:
    """Von Neumann entropy, in bits, of a probability spectrum (any order),
    or of each spectrum along the last axis of a stack.

    Zero eigenvalues contribute nothing (the ``0·log 0 = 0`` convention);
    eigenvalues are clipped to ``[0, 1]`` and renormalized, and a negative
    value below ``-CLIP_TOL`` or a total deviating from one by more than
    ``SUM_TOL`` is rejected. A single spectrum gives a float, a stack an
    array of the stack's shape.
    """
    p = _as_probabilities(spectrum)
    # log2(1) = 0 at the zeros; 0.0 - s, not -s, so a pure spectrum gives +0.0
    h = 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def renyi_entropy(spectrum, alpha: float) -> float | np.ndarray:
    """Renyi entropy of order ``alpha`` in bits, of one spectrum or of each
    spectrum along the last axis of a stack, as :func:`von_neumann_entropy`;
    ``alpha`` must be positive, finite and != 1."""
    if not 0 < alpha < np.inf or alpha == 1.0:
        raise ValueError(f"Renyi order must be positive, finite and not 1, got {alpha!r}")
    p = _as_probabilities(spectrum)
    h = 0.0 + np.log2((p**alpha).sum(axis=-1)) / (1.0 - alpha)  # +0.0, not -0.0, at alpha > 1
    return float(h) if h.ndim == 0 else h


def matrix_exp(m: np.ndarray, t: float | complex = 1.0) -> np.ndarray:
    """Evaluate ``exp(m·t)`` for a Hermitian ``m`` through its exact
    eigendecomposition; non-Hermitian input is rejected."""
    m = np.asarray(m, dtype=complex)
    check_hermitian(m, tol=1e-12, name="exponent")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.exp(w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# Input validation helpers shared by the physics-facing modules.
# ---------------------------------------------------------------------------


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix"):
    m = np.asarray(m)
    scale = max(np.abs(m).max(), 1.0)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    residual = np.abs(m - m.conj().T).max()
    if not residual <= tol * scale:
        raise ValueError(f"{name} is not Hermitian within {tol:.0e}: residual {residual:.3e}")


def check_unitary(u: np.ndarray, name: str = "matrix"):
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    eye = np.eye(u.shape[0])
    if not np.abs(u.conj().T @ u - eye).max() <= HERMITICITY_TOL:
        raise ValueError(f"{name} is not unitary within {HERMITICITY_TOL:.0e}")


def check_density_matrix(rho: np.ndarray, name: str = "density matrix"):
    rho = np.asarray(rho)
    check_hermitian(rho, name=name)
    trace = np.trace(rho)
    if not abs(trace - 1.0) <= HERMITICITY_TOL:
        raise ValueError(f"{name} has trace {trace!r}, expected 1 within {HERMITICITY_TOL:.0e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if not w.min() >= -HERMITICITY_TOL:
        raise ValueError(f"{name} has negative eigenvalue {w.min():.3e}")
