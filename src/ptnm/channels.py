"""Quantum channels on a system-environment pair, in the forms the rest of
the package consumes.

Conventions, fixed once here:

* Composite indices order the system before the environment ("system slow"):
  a basis state of the joint space is ``x = s*D + e`` for system level ``s``
  and environment level ``e``.
* Vectorization is row-major (C order): ``vec(rho)[i*n + j] = rho[i, j]``,
  hence ``vec(A rho B) = (A kron B^T) vec(rho)`` and a Kraus map has
  superoperator ``sum_s A_s kron conj(A_s)``.
* The eight-index site tensor ``W`` of a channel is a bare array in the
  axis order :data:`W_LABELS`, ``(i, i', o, o', a, a', b, b')``: system
  input pair, system output pair, environment input pair, environment
  output pair, with

  ``W[i,i',o,o',a,a',b,b'] = sum_s A_s[(o,b),(i,a)] * conj(A_s[(o',b'),(i',a')])``.

  Trace preservation then reads ``sum_{o,b} W[i,i',o,o,a,a',b,b] =
  delta_{i,i'} delta_{a,a'}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensorops import check_hermitian

W_LABELS = ("i", "i'", "o", "o'", "a", "a'", "b", "b'")

TP_TOL = 1e-9
CP_EIG_DROP = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """A channel on the joint system-environment space in Kraus form.

    ``kraus`` holds operators of shape ``(d*D, d*D)``; the set must be trace
    preserving within ``tol`` and no larger than ``(d*D)**2``.
    """

    kraus: tuple[np.ndarray, ...]
    d: int
    D: int
    tol: float = TP_TOL

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus)
        object.__setattr__(self, "kraus", ops)
        m = self.d * self.D
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        if len(ops) > m * m:
            raise ValueError(f"{len(ops)} Kraus operators exceed the maximum {m * m}")
        for a in ops:
            if a.shape != (m, m):
                raise ValueError(f"Kraus operator has shape {a.shape}, expected {(m, m)}")
        total = sum(a.conj().T @ a for a in ops)
        residual = np.abs(total - np.eye(m)).max()
        if residual > self.tol:
            raise ValueError(
                f"Kraus set is not trace preserving: residual {residual:.3e}"
            )


@dataclass(frozen=True)
class ChannelTensor:
    """The eight-index site tensor of a channel, always normalized.

    ``w`` is the bare ``(d, d, d, d, D, D, D, D)`` array in the
    :data:`W_LABELS` axis order. Instances satisfy Hermiticity under
    prime-swap and the trace-preservation contraction within ``tol``; other
    site tensors, such as fitted ones, are handled as bare arrays, not as
    :class:`ChannelTensor`.
    """

    w: np.ndarray
    tol: float = TP_TOL

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        object.__setattr__(self, "w", w)
        _check_site(w, w.shape[0], w.shape[-1], self.tol, self.tol)

    @property
    def d(self) -> int:
        return self.w.shape[0]

    @property
    def D(self) -> int:
        return self.w.shape[4]


@dataclass(frozen=True)
class LindbladSpec:
    """Generator data: Hamiltonian plus ``(jump operator, rate)`` pairs.

    The generator realized from this is
    ``-i[H, rho] + sum_l rate_l (2 L_l rho L_l^† - {L_l^† L_l, rho})``
    (note the factor 2: a single decay jump at rate ``gamma`` damps the
    addressed population at ``2*gamma``).
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[np.ndarray, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        object.__setattr__(self, "hamiltonian", h)
        check_hermitian(h, name="Hamiltonian")
        jumps = tuple(
            (np.asarray(op, dtype=complex), float(rate)) for op, rate in self.jumps
        )
        object.__setattr__(self, "jumps", jumps)
        for op, rate in jumps:
            if op.shape != h.shape:
                raise ValueError(
                    f"jump operator shape {op.shape} does not match Hamiltonian {h.shape}"
                )
            if rate < 0:
                raise ValueError(f"jump rate must be nonnegative, got {rate}")


def _herm_residual(w: np.ndarray) -> float:
    # swapping every unprimed index with its primed partner must conjugate W
    return float(np.abs(w.conj() - w.transpose(1, 0, 3, 2, 5, 4, 7, 6)).max())


def _tp_residual(w: np.ndarray) -> float:
    # tracing the output pairs (o,o') and (b,b') must leave identity on (i,i')x(a,a')
    n = np.einsum("ijooaebb->ijae", w)
    d, D = w.shape[0], w.shape[4]
    target = np.einsum("ij,ae->ijae", np.eye(d), np.eye(D))
    return float(np.abs(n - target).max())


def _check_site(w: np.ndarray, d: int, D: int, herm_tol: float, tp_tol: float | None,
                name: str = "site tensor") -> None:
    """Raise unless ``w`` has the site shape for ``(d, D)``, is prime-swap
    Hermitian within ``herm_tol`` and trace preserving within ``tp_tol``
    (``None`` skips the trace-preservation check)."""
    if w.shape != (d, d, d, d, D, D, D, D):
        raise ValueError(f"{name} has shape {w.shape}, expected {(d, d, d, d, D, D, D, D)}")
    herm = _herm_residual(w)
    if herm > herm_tol:
        raise ValueError(f"{name} breaks prime-swap Hermiticity: {herm:.3e}")
    if tp_tol is not None:
        residual = _tp_residual(w)
        if residual > tp_tol:
            raise ValueError(f"{name} breaks trace preservation: residual {residual:.3e}")


def kraus_to_w(channel: KrausChannel) -> ChannelTensor:
    """Assemble the eight-index site tensor from a Kraus set."""
    d, D = channel.d, channel.D
    k = np.stack([a.reshape(d, D, d, D) for a in channel.kraus])  # [s, o, b, i, a]
    w = np.einsum("sobia,spcje->ijopaebc", k, k.conj())
    return ChannelTensor(w)


def lindblad_superoperator(spec: LindbladSpec) -> np.ndarray:
    """Vectorized generator for the convention documented on :class:`LindbladSpec`.

    Output acts on row-major vectorized density matrices.
    """
    h = spec.hamiltonian
    m = h.shape[0]
    eye = np.eye(m, dtype=complex)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in spec.jumps:
        anti = op.conj().T @ op
        sup = sup + rate * (
            2.0 * np.kron(op, op.conj())
            - np.kron(anti, eye)
            - np.kron(eye, anti.T)
        )
    return sup


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Reshuffle a superoperator into its (unnormalized) Choi matrix.

    With row-major vectorization the Choi matrix is
    ``C[(m,o),(n,o')] = S[(o,o'),(m,n)]``, i.e. ``C = sum_{mn} |m><n| kron
    E(|m><n|)``.
    """
    superop = np.asarray(superop, dtype=complex)
    mm = superop.shape[0]
    m = int(round(np.sqrt(mm)))
    if superop.shape != (mm, mm) or m * m != mm:
        raise ValueError(f"superoperator shape {superop.shape} is not a square over a square")
    return superop.reshape(m, m, m, m).transpose(2, 0, 3, 1).reshape(mm, mm)


def superop_to_kraus(
    superop: np.ndarray,
    d: int,
    D: int,
    tol: float = TP_TOL,
    drop_tol: float = CP_EIG_DROP,
) -> KrausChannel:
    """Extract a Kraus set from a CPTP superoperator via its Choi spectrum.

    Eigenvalues below ``drop_tol`` are dropped; a Choi eigenvalue below
    ``-tol`` (complete-positivity violation) or a trace-preservation residual
    beyond ``tol`` is an error.
    """
    m = d * D
    if superop.shape != (m * m, m * m):
        raise ValueError(
            f"superoperator shape {superop.shape} does not match d*D = {m}"
        )
    c = choi_matrix(superop)
    herm = np.abs(c - c.conj().T).max()
    if herm > tol * max(np.abs(c).max(), 1.0):
        raise ValueError(f"Choi matrix is not Hermitian: residual {herm:.3e}")
    w, v = np.linalg.eigh((c + c.conj().T) / 2.0)
    if w.min() < -tol:
        raise ValueError(f"superoperator is not completely positive: {w.min():.3e}")
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > drop_tol:
            ops.append(np.sqrt(lam) * vec.reshape(m, m).T)
    return KrausChannel(tuple(ops), d, D, tol=tol)


def random_cptp_channel(
    d: int, D: int, kraus_rank: int, rng: np.random.Generator
) -> KrausChannel:
    """Draw a Haar-flavored CPTP channel by QR-orthonormalizing a Gaussian
    Stinespring isometry with the requested number of Kraus operators."""
    m = d * D
    if not 1 <= kraus_rank <= m * m:
        raise ValueError(f"kraus_rank must lie in [1, {m * m}], got {kraus_rank}")
    g = rng.normal(size=(m * kraus_rank, m)) + 1j * rng.normal(size=(m * kraus_rank, m))
    q, r = np.linalg.qr(g)
    # fix the phase gauge so the draw is a deterministic function of the rng
    diag = np.diag(r)
    phase = np.where(np.abs(diag) > 0, diag / np.abs(np.where(diag == 0, 1, diag)), 1.0)
    q = q * phase.conj()
    ops = tuple(q[s * m : (s + 1) * m, :] for s in range(kraus_rank))
    return KrausChannel(ops, d, D)
