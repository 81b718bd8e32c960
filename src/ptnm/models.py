"""Concrete system-environment models driving the numerical studies.

Two families are provided. The spin-pair model couples the system qubit to a
single damped environment qubit through an exchange interaction, with the
step channel obtained by exponentiating the joint generator. The dephasing
impurity model couples the qubit to a continuous mode discretized on a grid;
its environment unitary is diagonal, so everything about it is handled with
phase vectors rather than site tensors, and its environment entropy comes
from a binomial mixture of phase-shifted copies of the initial mode state.
The packet's density is even on the symmetric grid, so the overlaps of those
copies are real (their imaginary part is rounding error) and each Gram
matrix is real and centrosymmetric: its spectrum is that of an even and an
odd block of half the size. The mixture leaves out its outermost binomial
components while they weigh less than float64's epsilon together, which
moves an entropy by at most 1.4e-14 bits at step 200, and a series takes
the blocks of all its steps in one stacked eigensolve per block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channels import lindblad_superoperator, site_tensor, superop_to_kraus
from .measures import MeasureSeries
from .tensorops import check_density_matrix, matrix_exp, von_neumann_entropy

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# The dephasing-model mixture drops binomial tails of total weight below
# float64's machine epsilon, which eigvalsh cannot resolve in a spectrum of
# unit sum.
TAIL_MASS = 2.0**-52


# ---------------------------------------------------------------------------
# Damped exchange-coupled spin pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XXChainParams:
    """Spin pair with exchange coupling and a damped environment spin.

    ``gamma`` is the damping strength, ``n`` the excitation fraction of the
    bath the environment spin relaxes towards (its stationary state is
    ``diag(1-n, n)``, reached at rate ``2*gamma``), ``delta`` the step
    duration. ``rho0_system`` is the initial system state; the maximally
    mixed default makes the first slot of the process tensor carry no bias.
    """

    gamma: float
    n: float = 0.0
    delta: float = 0.3
    coupling: float = 1.0
    rho0_system: np.ndarray | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.n <= 1.0:
            raise ValueError(f"n must lie in [0, 1], got {self.n}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if self.rho0_system is not None:
            rho = np.asarray(self.rho0_system, dtype=complex)
            check_density_matrix(rho, name="initial system state")
            object.__setattr__(self, "rho0_system", rho)

    def system_state(self) -> np.ndarray:
        if self.rho0_system is None:
            return np.eye(2, dtype=complex) / 2.0
        return self.rho0_system

    def environment_state(self) -> np.ndarray:
        return np.diag([1.0 - self.n, self.n]).astype(complex)


def xx_chain_hamiltonian(p: XXChainParams) -> np.ndarray:
    return p.coupling * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))


def xx_chain_liouvillian(p: XXChainParams) -> np.ndarray:
    """Joint generator: exchange Hamiltonian plus damping of the environment
    spin towards ``diag(1-n, n)``."""
    eye = np.eye(2, dtype=complex)
    jumps = []
    if p.gamma > 0:
        jumps.append((np.kron(eye, SIGMA_MINUS), p.gamma * (1.0 - p.n)))
        jumps.append((np.kron(eye, SIGMA_PLUS), p.gamma * p.n))
    return lindblad_superoperator(xx_chain_hamiltonian(p), jumps)


def xx_chain_unitary(p: XXChainParams) -> np.ndarray:
    """Single-step joint unitary of the undamped model."""
    return matrix_exp(xx_chain_hamiltonian(p), -1j * p.delta)


def xx_chain_model(p: XXChainParams) -> tuple[np.ndarray, np.ndarray]:
    """Step site tensor and initial joint state.

    The step channel is ``exp(L*delta)`` converted to Kraus form through its
    Choi spectrum; the initial state is the system state tensored with the
    stationary environment state.
    """
    if p.gamma == 0:
        kraus = xx_chain_unitary(p).reshape(1, 2, 2, 2, 2)
    else:
        import scipy.linalg  # only here: the other models run on numpy alone

        superop = scipy.linalg.expm(xx_chain_liouvillian(p) * p.delta)
        kraus = superop_to_kraus(superop, 2, 2)
    rho0 = np.kron(p.system_state(), p.environment_state())
    return site_tensor(kraus), rho0


# ---------------------------------------------------------------------------
# Dephasing models
# ---------------------------------------------------------------------------


def ruqdm_channel(gamma: float, delta: float) -> np.ndarray:
    """Site tensor of the random-unitary dephasing step on the system alone
    (trivial environment).

    One step multiplies the system coherence by ``exp(-2*gamma*delta)``,
    realized by the Kraus pair ``{sqrt(1-p) I, sqrt(p) sigma_z}`` with
    ``p = (1 - exp(-2*gamma*delta)) / 2``.
    """
    if not (gamma >= 0 and delta > 0):
        raise ValueError("gamma must be nonnegative and delta positive")
    p = (1.0 - math.exp(-2.0 * gamma * delta)) / 2.0
    ops = np.stack([math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * SIGMA_Z])
    return site_tensor(ops.reshape(2, 2, 1, 2, 1))


@dataclass(frozen=True)
class UQDMParams:
    """Qubit dephased by a continuous mode, discretized on a uniform grid.

    The mode starts in a Lorentzian wave packet of width ``gamma`` sampled at
    ``grid_points`` points spanning ``[-halfwidth_factor*gamma,
    +halfwidth_factor*gamma]``; the coupling ``g`` turns one step into the
    diagonal phase ``exp(-i*g*delta*x/2)`` on the mode, conditioned on the
    qubit's z-basis state.
    """

    gamma: float
    delta: float = 0.1
    g: float = 1.0
    grid_points: int = 5000
    halfwidth_factor: float = 100.0

    def __post_init__(self):
        if not (self.gamma > 0 and self.delta > 0 and self.g > 0):
            raise ValueError("gamma, delta, and g must all be positive")
        if self.grid_points < 2:
            raise ValueError("grid needs at least two points")


@dataclass(frozen=True)
class UQDMModel:
    params: UQDMParams
    x: np.ndarray
    psi: np.ndarray
    phases: np.ndarray = field(repr=False)


def uqdm_model(p: UQDMParams) -> UQDMModel:
    """Sample the wave packet and the one-step phases on the grid.

    The packet amplitude is ``sqrt(gamma/pi)/(x + i*gamma)``, renormalized on
    the grid so that discretization never leaks probability.
    """
    half = p.halfwidth_factor * p.gamma
    x = np.linspace(-half, half, p.grid_points)
    psi = np.sqrt(p.gamma / np.pi) / (x + 1j * p.gamma)
    psi = psi / np.linalg.norm(psi)
    phases = np.exp(-1j * p.g * p.delta * x / 2.0)
    return UQDMModel(p, x, psi, phases)


def uqdm_overlaps(model: UQDMModel, max_power: int) -> np.ndarray:
    """Overlaps ``c(m) = <psi|U^m|psi>`` for ``m = 0..max_power``, as floats;
    ``c`` is real and even.

    ``|psi(x)|^2`` is even on the symmetric grid, so the sine terms of
    ``sum_x |psi(x)|^2 exp(-i*m*g*delta*x/2)`` cancel in pairs: what the
    phase recursion leaves in the imaginary part is its own rounding error,
    which is dropped. For gamma in [0.05, 20] and m <= 400 it stays below
    1e-12 on the 5000-point grid and 3.5e-12 on the 500-point one.
    """
    weights = np.abs(model.psi) ** 2
    out = np.empty(max_power + 1)
    cur = weights.astype(complex)
    for m in range(max_power + 1):
        out[m] = cur.sum().real
        cur = cur * model.phases
    return out


def _binomial_log_weights(j: int) -> np.ndarray:
    """``log(C(j, t) / 2^j)`` for ``t = 0..j``, from the ratio recursion
    ``C(j, t+1) = C(j, t) (j - t) / (t + 1)``."""
    t = np.arange(j, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.log((j - t) / (t + 1))))) - j * math.log(2.0)


def _kept_log_weights(j: int) -> np.ndarray:
    """Log weights of the indices ``t = lo..j-lo`` that step ``j``'s mixture
    keeps: ``lo`` is the most index pairs ``t < lo`` and ``t > j - lo``
    whose binomial weights together sum to less than ``TAIL_MASS``."""
    log_w = _binomial_log_weights(j)
    tails = 2.0 * np.cumsum(np.exp(log_w[: (j + 1) // 2]))
    lo = int(np.searchsorted(tails, TAIL_MASS))
    return log_w[lo : j + 1 - lo]


def _gram_spectra(overlaps: np.ndarray, log_weights: list[np.ndarray], width: int) -> np.ndarray:
    """Eigenvalues, unordered and zero padded to ``width``, of one weighted
    Gram matrix ``G[s, t] = sqrt(w_s w_t) c(2(t - s))``, ``s, t = 0..n``, per
    row, for the symmetric weights ``w = exp(log_weights[row])`` of ``n + 1``
    entries.

    Real even ``c`` and ``w_t = w_(n-t)`` make ``G`` centrosymmetric, so its
    spectrum is that of the even and odd blocks ``(T +- H) * sqrt(w_s w_t)``
    on the first half of the indices, ``T[s, t] = c(2|s - t|)`` and
    ``H[s, t] = c(2(n - s - t))`` (Cantoni & Butler, Linear Algebra Appl. 13,
    275 (1976)). For even ``n`` the even block also takes ``G``'s centre row
    and column times ``sqrt(2)``, which ``T + H`` gives once the centre's
    root weight is divided by ``sqrt(2)``. A row holds its even block's
    eigenvalues, then its odd block's; the blocks of one size, from any rows,
    are built and solved as one stack.
    """
    spectra = np.zeros((len(log_weights), width))
    members: dict[int, list[tuple[int, bool]]] = {}
    for row, log_w in enumerate(log_weights):
        n = len(log_w) - 1
        members.setdefault(n // 2 + 1, []).append((row, False))
        if n:
            members.setdefault((n + 1) // 2, []).append((row, True))
    c2 = overlaps[::2]  # overlaps at even powers 0, 2, 4, ...
    last = len(c2) - 1
    for size, blocks in members.items():
        rows = [row for row, _ in blocks]
        odd = np.array([is_odd for _, is_odd in blocks])
        n = np.array([len(log_weights[row]) - 1 for row in rows])
        s = np.arange(size)
        # windows[last - n + s, t] = c2[n - s - t]: each block's H, copied once
        windows = sliding_window_view(c2[::-1], size)
        stack = windows[(last - n)[:, None] + s]
        stack *= np.where(odd, -1.0, 1.0)[:, None, None]
        stack += c2[abs(s[:, None] - s)]
        root_w = np.exp(np.array([log_weights[row][:size] for row in rows]) / 2.0)
        root_w[~odd & (n % 2 == 0), -1] /= math.sqrt(2.0)
        stack *= root_w[:, :, None] * root_w[:, None, :]
        starts = np.where(odd, n + 1 - size, 0)
        for row, start, values in zip(rows, starts, np.linalg.eigvalsh(stack)):
            spectra[row, start : start + size] = values
    return spectra


def uqdm_env_entropy(model: UQDMModel, j) -> float | np.ndarray:
    """Environment entropy after ``j`` steps, in bits, or after each step of
    a sequence ``j`` as an array.

    Averaged interventions turn the mode state into the binomial mixture of
    ``U^m|psi>`` over net powers ``m = -j, -j+2, ..., j``, so the entropy is
    that of the ``(j+1) x (j+1)`` weighted Gram matrix; binomial weights are
    evaluated in log space to survive large ``j``. The mixture first drops
    its largest pair of binomial tails of total weight below ``TAIL_MASS``
    (from ``j = 54`` on; 88 of 201 components at ``j = 200``), leaving a
    Gram matrix on ``n + 1`` indices. That moves the spectrum by at most
    ``TAIL_MASS`` in l1 (Lidskii) and the entropy by at most ``TAIL_MASS *
    log2(j) + h2(TAIL_MASS)``, 1.4e-14 bits at ``j = 200`` (Audenaert-Fannes),
    below the rounding of ``eigvalsh`` itself. The overlaps are computed
    once, up to the largest kept span's power ``2n``.
    """
    steps = np.atleast_1d(j)
    if steps.ndim > 1 or (steps.size and steps.dtype.kind not in "iu"):
        raise ValueError(f"j must be a step or a sequence of steps, got {j!r}")
    if (steps < 0).any():
        raise ValueError(f"j must be nonnegative, got {steps.min()}")
    log_weights = [_kept_log_weights(int(step)) for step in steps]
    n = max(map(len, log_weights), default=1) - 1
    # each spectrum's entropy is summed over the power of two at or above its
    # size, a length set by its step alone: numpy's pairwise row sums change
    # with the row length, so a padding shared by the call would make a step's
    # last bits depend on the other steps in it
    widths = np.array([1 << (len(log_w) - 1).bit_length() for log_w in log_weights], dtype=int)
    spectra = _gram_spectra(uqdm_overlaps(model, 2 * n), log_weights, widths.max(initial=1))
    entropies = np.empty(len(widths))
    for width in np.unique(widths):
        rows = widths == width
        entropies[rows] = von_neumann_entropy(spectra[rows, :width])
    return float(entropies[0]) if np.ndim(j) == 0 else entropies


def uqdm_memory_series(p: UQDMParams, j_max: int) -> MeasureSeries:
    """Memory complexity ``C_j`` for ``j = 1..j_max``, from one
    ``uqdm_env_entropy`` call over all steps."""
    steps = tuple(range(1, j_max + 1))
    values = uqdm_env_entropy(uqdm_model(p), steps)
    return MeasureSeries("memory", steps, tuple(values.tolist()))


def uqdm_coherence(model: UQDMModel, j: int, flip_at: int | None = None) -> complex:
    """System coherence ``rho_01`` after ``j`` steps from ``|+>``, optionally
    with a bit flip inserted after step ``flip_at``.

    Simulated on the two diagonal branches of the joint pure state, which is
    exact for this model; the free value decays with the overlap ``c(2j)``
    and a flip at ``j/2`` refocuses it completely.
    """
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    if flip_at is not None and not 0 <= flip_at <= j:
        raise ValueError(f"flip_at must lie in [0, {j}], got {flip_at}")
    up = model.psi.copy()
    down = model.psi.copy()
    for step in range(j):
        if flip_at is not None and step == flip_at:
            up, down = down, up
        up = up * model.phases
        down = down * model.phases.conj()
    if flip_at is not None and flip_at == j:
        up, down = down, up
    return complex(np.vdot(down, up) / 2.0)
