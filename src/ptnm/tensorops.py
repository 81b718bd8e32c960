"""The small linear-algebra kernel used everywhere else.

Conventions fixed here and relied on by the rest of the package:

* every entropy is reported in bits (base-2 logarithms),
* eigenvalues of nominally positive operators are clipped at ``CLIP_TOL``,
* every tolerance check is written ``not residual <= tol``, so that NaN fails.
"""

from __future__ import annotations

import numpy as np

CLIP_TOL = 1e-12
SUM_TOL = 1e-8
HERMITICITY_TOL = 1e-9


def _as_probabilities(spectrum) -> np.ndarray:
    p = np.asarray(spectrum, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty spectrum")
    if not p.min() >= -CLIP_TOL:
        raise ValueError(f"eigenvalue {p.min():.3e} is not at least -{CLIP_TOL:.0e}")
    total = p.sum()
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"spectrum sums to {total!r}, expected 1 within {SUM_TOL:.0e}")
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum()


def von_neumann_entropy(spectrum) -> float:
    """Von Neumann entropy, in bits, of a probability spectrum (any order).

    Zero eigenvalues contribute nothing (the ``0·log 0 = 0`` convention);
    eigenvalues are clipped to ``[0, 1]`` and renormalized, and a negative
    value below ``-CLIP_TOL`` or a total deviating from one by more than
    ``SUM_TOL`` is rejected.
    """
    p = _as_probabilities(spectrum)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def renyi_entropy(spectrum, alpha: float) -> float:
    """Renyi entropy of order ``alpha`` in bits; ``alpha`` must be positive,
    finite and != 1."""
    if not 0 < alpha < np.inf or alpha == 1.0:
        raise ValueError(f"Renyi order must be positive, finite and not 1, got {alpha!r}")
    p = _as_probabilities(spectrum)
    nz = p[p > 0.0]
    return float(np.log2((nz**alpha).sum()) / (1.0 - alpha))


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
    if not np.abs(m - m.conj().T).max() <= tol * scale:
        raise ValueError(f"{name} is not Hermitian within {tol:.0e}")


def check_unitary(u: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix"):
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    eye = np.eye(u.shape[0])
    if not np.abs(u.conj().T @ u - eye).max() <= tol:
        raise ValueError(f"{name} is not unitary within {tol:.0e}")


def check_density_matrix(
    rho: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "density matrix"
):
    rho = np.asarray(rho)
    check_hermitian(rho, tol=tol, name=name)
    trace = np.trace(rho)
    if not abs(trace - 1.0) <= tol:
        raise ValueError(f"{name} has trace {trace!r}, expected 1 within {tol:.0e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if not w.min() >= -tol:
        raise ValueError(f"{name} has negative eigenvalue {w.min():.3e}")
