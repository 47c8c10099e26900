"""Contracts of the dense-matrix helpers, the Hermitian eigensolver and the tridiagonal solver."""

import numpy as np
import pytest

from negspin import matrix_core
from negspin.matrix_core import (
    EigenDecomposition,
    _SturmCounter,
    expect,
    hermitian_eig,
    matrix_dot,
    residual_norm,
    tridiagonal_lowest,
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


def test_hermitian_eig_reconstruction_bound_scales_with_the_matrix():
    # HV - VΛ carries the units of H: at max|H| ~ 1e6 a correct decomposition
    # leaves an absolute residual far above 1e-10, but not above 1e-10 max|H|
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
    h = 1e6 * (m + np.swapaxes(m, -1, -2).conj())
    dec = hermitian_eig(h)
    v = dec.eigenvectors
    recon = np.max(residual_norm(h @ v, v * dec.eigenvalues[..., None, :]))
    assert 1e-10 < recon < 1e-10 * np.max(np.abs(h))


def _dense_tridiagonal(diagonal, off):
    n = len(diagonal)
    return np.diag(diagonal) + off * (np.eye(n, k=1) + np.eye(n, k=-1))


def _stebz_bound(diagonal, off):
    return 4.0 * np.finfo(float).eps * np.max(np.abs(diagonal) + 2.0 * abs(off))


@pytest.mark.parametrize("diagonal, off", [
    # Gershgorin interval [-2, 4]: the first shift is its midpoint 1 = d[0],
    # so the first pivot is exactly zero
    ([1.0, 0.0, 2.0], -1.0),
    # two wells behind a barrier: the lowest pair is split by 4.3e-11
    ([0.0, 60.0, 60.0, 60.0, 60.0, 60.0, 60.0, 0.0], -1.0),
    # scaled by a large off-diagonal, signs irrelevant
    ([3e150, -2e150, 5e149, 1e150, 0.0, 7e150], 2.5e150),
    # four wells behind barriers: the lowest levels come in clusters far
    # narrower than the gaps between them
    ([0.0, 40.0, 40.0, 0.0, 40.0, 40.0, 0.0, 40.0, 40.0, 40.0, 0.0], -1.0),
    # the Gershgorin midpoint, the first shift, is exactly 0, so the zero
    # diagonal entries give exactly zero pivots
    pytest.param(
        [3.0, -2.0, 3.0, 2.0, 3.0, -2.0, 1.0, 3.0, 0.0, 0.0, 1.0, -2.0, -3.0, 0.0, 3.0, -3.0,
         3.0, 3.0, -3.0, 1.0, 3.0, 3.0, -2.0, 0.0, -1.0, 0.0, -1.0, 3.0, -1.0, 2.0, 2.0,
         -2.0, -3.0, -1.0], 50.0,
        marks=pytest.mark.xfail(strict=True, reason=(
            "FOUND: cyclic reduction counts 16 eigenvalues below the shift 0, where "
            "exactly zero pivots arise, instead of 17, so the 17th level comes back as 1.9e-14 "
            "where eigvalsh gives -3.62; a shift moved by tol counts 17")),
    ),
])
def test_tridiagonal_lowest_matches_dense_eigvalsh(diagonal, off):
    diagonal = np.array(diagonal)
    expected = np.linalg.eigvalsh(_dense_tridiagonal(diagonal, off))
    for n_levels in range(1, len(diagonal) + 1):
        got = tridiagonal_lowest(diagonal, off, n_levels)
        assert np.max(np.abs(got - expected[:n_levels])) <= _stebz_bound(diagonal, off)
        assert np.all(np.diff(got) >= 0.0)


def _coulomb_grid(n_points, r_max):
    h = r_max / (n_points + 1)
    kin = 1.0 / (2.0 * h * h)
    return 2.0 * kin + 1.0 - 1.0 / (h * np.arange(1, n_points + 1)), -kin


def test_tridiagonal_lowest_finds_every_level_of_a_coulomb_grid():
    # n_levels = n: every level is isolated and refined at once
    diagonal, off = _coulomb_grid(100, 10.0)
    expected = np.linalg.eigvalsh(_dense_tridiagonal(diagonal, off))
    got = tridiagonal_lowest(diagonal, off, len(diagonal))
    assert np.max(np.abs(got - expected)) <= _stebz_bound(diagonal, off)


def _shifts_counted(monkeypatch, diagonal, off, n_levels, most=np.inf):
    """Shifts counted by one solve, and its levels; the solve fails as soon
    as it has counted more than ``most``.  Undoes every patch at the end."""
    counted = []
    count = _SturmCounter.__call__

    def counting(self, shifts, logdet):
        counted.append(len(shifts))
        assert sum(counted) <= most
        return count(self, shifts, logdet)

    monkeypatch.setattr(_SturmCounter, "__call__", counting)
    levels = tridiagonal_lowest(diagonal, off, n_levels)
    monkeypatch.undo()
    return sum(counted), levels


def test_tridiagonal_lowest_bisects_a_stalled_bracket(monkeypatch):
    # an interpolation that always lands tol/2 above the lower end stalls
    # every isolated bracket; the width rule still halves it every three counts
    diagonal, off = _coulomb_grid(100, 10.0)
    n_levels = len(diagonal)
    expected = np.linalg.eigvalsh(_dense_tridiagonal(diagonal, off))

    def midpoint(a, b, *rest):
        return a + 0.5 * (b - a)

    def stalled(a, b, *rest):
        return a + 0.5 * rest[-1]  # rest[-1] is tol

    monkeypatch.setattr(matrix_core, "_interpolated_point", midpoint)
    bisected, _ = _shifts_counted(monkeypatch, diagonal, off, n_levels)
    monkeypatch.setattr(matrix_core, "_interpolated_point", stalled)
    _, got = _shifts_counted(monkeypatch, diagonal, off, n_levels, most=3 * bisected)
    assert np.max(np.abs(got - expected)) <= _stebz_bound(diagonal, off)


@pytest.mark.parametrize("n_points, n_levels, most", [
    (6000, 3, 80),  # the default grid
    (100000, 3, 75),
    (6000, 1000, 7600),
])
def test_tridiagonal_lowest_shift_count(monkeypatch, n_points, n_levels, most):
    # the counts are deterministic: 51, 50 and 7569, against 124, 108 and
    # 38367 with every isolated bracket bisected
    shifts, _ = _shifts_counted(monkeypatch, *_coulomb_grid(n_points, 60.0), n_levels)
    assert shifts <= most


def test_sturm_count_at_a_zero_pivot_matches_dense_count():
    # each shift equals a diagonal entry, so some pivot of the reduction is
    # exactly zero and is replaced by -pivmin
    diagonal = np.array([0.5, -1.0, 0.5, 2.0, 0.5, -0.3, 1.7])
    eigenvalues = np.linalg.eigvalsh(_dense_tridiagonal(diagonal, -1.0))
    counter = _SturmCounter(diagonal, 1.0, 1e-15, len(diagonal))
    counts, _ = counter(diagonal.copy(), np.ones(len(diagonal), dtype=bool))
    assert counts.tolist() == [int(np.sum(eigenvalues < x)) for x in diagonal]


@pytest.mark.parametrize("max_shifts", [1, 3, 8])
def test_sturm_counts_match_dense_counts_at_every_length(max_shifts):
    # odd and even lengths end the reduction on either parity of the
    # rotating buffers; several shifts a batch run them as (shifts, rows)
    rng = np.random.default_rng(5)
    scale = 2.5
    for n in range(1, 41):
        diagonal = rng.uniform(-3.0, 3.0, n) * scale
        dense = _dense_tridiagonal(diagonal / scale, 1.0)
        eigenvalues = np.linalg.eigvalsh(dense)
        shifts = np.sort(rng.uniform(-5.0, 5.0, 7))
        counter = _SturmCounter(diagonal, scale, 1e-300, max_shifts)
        counts, logdets = counter(shifts, np.ones(len(shifts), dtype=bool))
        assert counts.tolist() == [int(np.sum(eigenvalues < x)) for x in shifts], n
        expected = [np.linalg.slogdet(dense - x * np.eye(n))[1] for x in shifts]
        np.testing.assert_allclose(logdets, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("diagonal", [[1e300, 1.0], [1.0, -1e300]])
def test_tridiagonal_lowest_rejects_a_diagonal_that_overflows_once_scaled(diagonal):
    # finite as given, but not once divided by |off|
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        tridiagonal_lowest(diagonal, 1e-10, 1)


def test_tridiagonal_lowest_reads_a_read_only_diagonal():
    diagonal, off = _coulomb_grid(1001, 60.0)
    frozen = diagonal.copy()
    frozen.setflags(write=False)
    got = tridiagonal_lowest(frozen, off, 3)
    np.testing.assert_array_equal(frozen, diagonal)
    np.testing.assert_array_equal(got, tridiagonal_lowest(diagonal, off, 3))


def test_tridiagonal_lowest_validation():
    with pytest.raises(ValueError, match="nonzero"):
        tridiagonal_lowest([1.0, 2.0], 0.0, 1)
    with pytest.raises(ValueError, match="outside"):
        tridiagonal_lowest([1.0, 2.0], -1.0, 3)
    with pytest.raises(ValueError, match="outside"):
        tridiagonal_lowest([1.0, 2.0], -1.0, 0)
    with pytest.raises(ValueError, match="non-finite"):
        tridiagonal_lowest([1.0, np.inf], -1.0, 1)
