"""Tests for the spectral helpers, the matrix exponential and the validators."""

import math
import warnings

import numpy as np
import pytest

from ptnm.channels import site_tensor, superop_to_kraus
from ptnm.process_tensor import ProcessTensorMPDO
from ptnm.reconstruct import ReconstructionAnsatz
from ptnm.tensorops import (
    check_density_matrix,
    check_hermitian,
    check_unitary,
    matrix_exp,
    renyi_entropy,
    von_neumann_entropy,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def test_entropy_of_uniform_spectrum():
    for n in (2, 4, 8):
        np.testing.assert_allclose(von_neumann_entropy(np.full(n, 1.0 / n)), np.log2(n))


def test_entropy_of_pure_spectrum_is_zero():
    assert von_neumann_entropy([1.0, 0.0, 0.0]) == 0.0
    # and +0.0, not -0.0: only the sign bit tells them apart
    values = [
        von_neumann_entropy([1.0]),
        von_neumann_entropy([1.0, 0.0, 0.0]),
        *von_neumann_entropy(np.ones((3, 1))),
        renyi_entropy([1.0], 2.0),
        renyi_entropy([1.0], 0.5),
        *renyi_entropy(np.ones((3, 1)), 2.0),
    ]
    assert [math.copysign(1.0, v) for v in values] == [1.0] * len(values)


def test_entropy_renormalizes_small_drift():
    val = von_neumann_entropy([0.5 + 1e-10, 0.5])
    np.testing.assert_allclose(val, 1.0, atol=1e-9)


def test_entropy_rejects_negative_weight():
    with pytest.raises(ValueError):
        von_neumann_entropy([1.1, -0.1])


def test_renyi_entropy_known_value():
    # collision entropy of a uniform pair is one bit
    np.testing.assert_allclose(renyi_entropy([0.5, 0.5], 2.0), 1.0, atol=1e-12)


def test_renyi_entropy_approaches_von_neumann():
    p = [0.6, 0.3, 0.1]
    target = von_neumann_entropy(p)
    for alpha in (1.0 + 1e-6, 1.0 - 1e-6):
        np.testing.assert_allclose(renyi_entropy(p, alpha), target, atol=1e-4)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, np.inf, np.nan])
def test_renyi_entropy_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        renyi_entropy([0.5, 0.5], alpha)


def random_spectra(rng, shape):
    """Probability spectra along the last axis, about a third of them zero and
    some slightly negative, as eigensolvers return them."""
    p = rng.random(shape) * (rng.random(shape) > 0.3)
    p[..., -1] += 1e-3  # no row is all zero
    p = p / p.sum(axis=-1, keepdims=True)
    return np.where(p == 0.0, -0.5e-12 * rng.random(shape), p)


ENTROPIES = [von_neumann_entropy, lambda p: renyi_entropy(p, 2.0), lambda p: renyi_entropy(p, 0.5)]


@pytest.mark.parametrize("entropy", ENTROPIES, ids=["von-neumann", "renyi-2", "renyi-half"])
@pytest.mark.parametrize("shape", [(40, 4), (3, 5, 9), (7, 201)])
def test_entropy_of_a_stack_is_the_scalar_entropy_of_each_row(entropy, shape):
    spectra = random_spectra(np.random.default_rng(sum(shape)), shape)
    values = entropy(spectra)
    assert isinstance(values, np.ndarray) and values.shape == shape[:-1]
    for index in np.ndindex(*shape[:-1]):
        row = entropy(spectra[index])
        assert isinstance(row, float)
        assert row == values[index]  # one code path, to the last bit


@pytest.mark.parametrize("entropy", ENTROPIES, ids=["von-neumann", "renyi-2", "renyi-half"])
@pytest.mark.parametrize(
    "entry, shift, message",
    [(0, -2e-12, "is not at least"), (3, 2e-8, "sums to"), (3, np.nan, "eigenvalue nan")],
    ids=["negative", "sum", "nan"],
)
def test_one_bad_spectrum_in_a_stack_fails_the_stack(entropy, entry, shift, message):
    spectra = np.tile([0.0, 0.25, 0.25, 0.5], (6, 1))
    entropy(spectra)  # the good stack passes
    spectra[4, entry] += shift
    with pytest.raises(ValueError, match=message):
        entropy(spectra)


def test_zero_eigenvalues_raise_no_warning():
    # 0 log 0 = 0 is taken without evaluating log2(0), even where
    # RuntimeWarnings are errors
    spectra = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5], [-0.0, 0.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert von_neumann_entropy(spectra).tolist() == [0.0, 1.0, 0.0]
        assert renyi_entropy(spectra, 2.0).tolist() == [0.0, 1.0, 0.0]
        assert von_neumann_entropy([0.0, 1.0]) == 0.0


def test_an_empty_stack_gives_no_entropies_and_an_empty_spectrum_fails():
    assert von_neumann_entropy(np.zeros((0, 4))).shape == (0,)
    with pytest.raises(ValueError, match="empty spectrum"):
        von_neumann_entropy([])
    with pytest.raises(ValueError, match="empty spectrum"):
        von_neumann_entropy(np.zeros((3, 0)))
    with pytest.raises(ValueError, match="empty spectrum"):
        von_neumann_entropy(1.0)


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------


def test_matrix_exp_of_zero_is_identity():
    np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_matrix_exp_phase_rotation():
    sz = np.diag([1.0, -1.0]).astype(complex)
    out = matrix_exp(sz, -1j * 0.3)
    np.testing.assert_allclose(out, np.diag(np.exp([-1j * 0.3, 1j * 0.3])), atol=1e-13)


def test_matrix_exp_of_anti_hermitian_is_unitary():
    rng = np.random.default_rng(21)
    g = random_complex(rng, 4, 4)
    h = g + g.conj().T
    u = matrix_exp(h, -1.7j)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_matrix_exp_additivity():
    rng = np.random.default_rng(22)
    g = random_complex(rng, 3, 3)
    h = g + g.conj().T
    np.testing.assert_allclose(
        matrix_exp(h, 0.7), matrix_exp(h, 0.3) @ matrix_exp(h, 0.4), atol=1e-11
    )


def test_matrix_exp_rejects_non_hermitian_input():
    with pytest.raises(ValueError):
        matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def test_check_hermitian_passes_and_fails():
    check_hermitian(np.eye(2))
    with pytest.raises(ValueError, match=r"not Hermitian within 1e-09: residual 1\.000e\+00"):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_check_unitary_passes_and_fails():
    check_unitary(np.eye(3))
    with pytest.raises(ValueError):
        check_unitary(np.eye(3) * 1.01)


def test_check_density_matrix_rejects_negative_and_untraced():
    check_density_matrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))


def _nan_site():
    w = site_tensor(np.eye(2).reshape(1, 2, 1, 2, 1)).copy()
    w[0, 0, 0, 0, 0, 0, 0, 0] = np.nan
    return w


NAN_2 = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_hermitian(NAN_2),
        lambda: check_unitary(NAN_2),
        lambda: check_density_matrix(NAN_2 / 2.0),
        lambda: von_neumann_entropy([0.5, 0.5, np.nan]),
        lambda: renyi_entropy([0.5, 0.5, np.nan], 2.0),
        lambda: ProcessTensorMPDO(np.eye(2).reshape(2, 2, 1, 1) / 2.0,
                                  site_tensor(NAN_2.reshape(1, 2, 1, 2, 1)), 1),
        lambda: superop_to_kraus(np.kron(NAN_2, NAN_2.conj()), 2, 1),
        lambda: ProcessTensorMPDO(np.eye(2).reshape(2, 2, 1, 1) / 2.0, _nan_site(), 1),
        lambda: ProcessTensorMPDO(np.eye(2).reshape(2, 2, 1, 1) / 2.0, _nan_site(), 1,
                                  site_tol=None),
        lambda: ReconstructionAnsatz(np.eye(2).reshape(1, 2, 1, 2, 1), [np.nan, 0.0]),
    ],
    ids=["hermitian", "unitary", "density-matrix", "von-neumann", "renyi", "kraus",
         "superop", "site", "site-hermiticity", "ansatz-state"],
)
def test_nan_fails_every_check(check):
    # each check used to read `residual > tol`, which is false for NaN
    with pytest.raises(ValueError):
        check()
