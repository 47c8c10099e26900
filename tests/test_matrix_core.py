"""Contracts of the dense-matrix helpers and the Hermitian eigensolver."""

import numpy as np
import pytest

from negspin.matrix_core import (
    EigenDecomposition,
    expect,
    hermitian_eig,
    matrix_dot,
    residual_norm,
)


def test_residual_norm_is_max_abs_difference():
    a = np.zeros((2, 2))
    b = np.array([[0.0, -3.0], [1.0, 0.0]])
    assert residual_norm(a, b) == 3.0


def test_residual_norm_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        residual_norm(np.eye(2), np.eye(3))


def test_residual_norm_per_stacked_matrix():
    a = np.zeros((3, 2, 2))
    b = np.zeros((3, 2, 2))
    b[1, 0, 1] = -2.0
    np.testing.assert_array_equal(residual_norm(a, b), [0.0, 2.0, 0.0])


def test_matrix_dot_weights_matrices():
    mats = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = matrix_dot(np.array([[2.0, 3.0], [0.0, -1.0]]), mats)
    np.testing.assert_array_equal(out, [[[2.0, 3.0], [3.0, 2.0]], [[0.0, -1.0], [-1.0, 0.0]]])


def test_expect_known_values_and_broadcast():
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    up, plus_y = np.array([1.0, 0.0]), np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert expect(up, sigma_y) == 0.0
    assert abs(expect(plus_y, sigma_y) - 1.0) < 1e-15
    np.testing.assert_array_equal(expect(np.stack([up, plus_y]), sigma_y),
                                  [expect(up, sigma_y), expect(plus_y, sigma_y)])


def test_hermitian_eig_known_spectrum():
    # [[2,1],[1,2]] has eigenvalues 2 -+ 1
    dec = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_hermitian_eig_complex_known_spectrum():
    # sigma_y has eigenvalues -+1
    h = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    dec = hermitian_eig(h)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_ascending_and_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = m + m.conj().T
        dec = hermitian_eig(h)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        v = dec.eigenvectors
        assert residual_norm(v.conj().T @ v, np.eye(n)) < 1e-12
        assert residual_norm(h @ v, v * dec.eigenvalues) < 1e-10


def test_hermitian_eig_stack_equals_each_matrix():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    h = m + np.swapaxes(m, -1, -2).conj()
    dec = hermitian_eig(h)
    assert dec.eigenvalues.shape == (5, 4) and dec.eigenvectors.shape == (5, 4, 4)
    for i in range(5):
        single = hermitian_eig(h[i])
        np.testing.assert_array_equal(dec.eigenvalues[i], single.eigenvalues)
        np.testing.assert_array_equal(dec.eigenvectors[i], single.eigenvectors)


def test_hermitian_eig_rejects_stack_with_one_non_hermitian_member():
    h = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        hermitian_eig(h)


def test_hermitian_eig_rejects_vectors():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones(4))


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_eig_rejects_non_finite_entries(bad):
    # nan would slip through a `residual >= tol` test, since nan >= tol is false
    h = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, bad]])])
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(h)


def test_hermitian_eig_result_is_read_only():
    dec = hermitian_eig(np.eye(3))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 5.0
    with pytest.raises(ValueError):
        dec.eigenvectors[0, 0] = 5.0


def test_eigen_decomposition_holds_given_arrays():
    vals = np.array([1.0])
    vecs = np.array([[1.0]])
    dec = EigenDecomposition(vals, vecs)
    assert dec.eigenvalues is vals
    assert dec.eigenvectors is vecs
