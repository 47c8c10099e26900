"""Representation matrices, anticommutation table, derived-operator identities.

All residuals here are exact algebraic statements about fixed 4x4 matrices,
so the tolerance is the identity gate 1e-14, not a numerical-analysis budget.
"""

import numpy as np
import pytest

from negspin.clifford import (
    I2,
    I4,
    PAULI,
    dirac_representation,
    entry,
    verify_identities,
)
from negspin.matrix_core import residual_norm
from oracles import all_passed, entry_named


def anticommutator(a, b):
    return a @ b + b @ a


def test_pauli_algebra():
    for i in range(3):
        for j in range(3):
            want = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
            assert residual_norm(anticommutator(PAULI[i], PAULI[j]), want) < 1e-15


def test_alpha_anticommutators():
    b = dirac_representation()
    for i in range(3):
        for j in range(3):
            want = 2.0 * I4 if i == j else np.zeros((4, 4))
            assert residual_norm(anticommutator(b.alpha[i], b.alpha[j]), want) == 0.0


def test_beta_squares_to_identity_and_anticommutes_with_alpha():
    b = dirac_representation()
    assert residual_norm(b.beta @ b.beta, I4) == 0.0
    for a in b.alpha:
        assert residual_norm(anticommutator(b.beta, a), np.zeros((4, 4))) == 0.0


def test_alpha_and_beta_are_hermitian_and_traceless():
    b = dirac_representation()
    for m in (*b.alpha, b.beta):
        assert residual_norm(m, m.conj().T) == 0.0
        assert abs(np.trace(m)) == 0.0


def test_gamma5_is_ordered_product():
    b = dirac_representation()
    # spatial gammas are Hermitian: gamma_k = -i beta alpha_k
    g1, g2, g3 = (-1j * b.beta @ a for a in b.alpha)
    for g in (g1, g2, g3):
        assert residual_norm(g, g.conj().T) == 0.0
    assert residual_norm(b.gamma5, g1 @ g2 @ g3 @ b.beta) == 0.0


def test_i_beta_gamma5_involution_and_anticommutation():
    b = dirac_representation()
    s = b.i_beta_gamma5
    assert residual_norm(s, s.conj().T) == 0.0
    assert residual_norm(s @ s, I4) == 0.0
    for m in (*b.alpha, b.beta):
        assert residual_norm(anticommutator(s, m), np.zeros((4, 4))) == 0.0


def test_i_beta_gamma5_block_structure():
    b = dirac_representation()
    # off-diagonal blocks -+ i I2, zero on the diagonal
    s = b.i_beta_gamma5
    assert residual_norm(s[:2, 2:], -1j * I2) == 0.0
    assert residual_norm(s[2:, :2], 1j * I2) == 0.0
    assert residual_norm(s[:2, :2], np.zeros((2, 2))) == 0.0


def test_gamma1_projector_shape():
    b = dirac_representation()
    g1 = b.gamma1_proj
    assert residual_norm(g1, I4 - b.i_beta_gamma5) == 0.0
    assert residual_norm(g1 @ g1, 2.0 * g1) == 0.0
    # singular by construction
    assert min(np.linalg.svd(g1, compute_uv=False)) < 1e-14


def test_gamma2_operator_identities():
    b = dirac_representation()
    g2 = b.gamma2_op
    assert residual_norm(g2, g2.conj().T) == 0.0
    assert residual_norm(g2 @ g2, 2.0 * I4) == 0.0
    for a in b.alpha:
        assert residual_norm(anticommutator(g2, a), np.zeros((4, 4))) == 0.0


def test_gamma2_gamma1_factorization():
    b = dirac_representation()
    lhs = b.gamma2_op @ b.gamma1_proj
    rhs = (I4 + b.beta) @ (I4 - 1j * b.gamma5)
    assert residual_norm(lhs, rhs) == 0.0


def test_gamma5_commutation_pattern():
    b = dirac_representation()
    # gamma5 anticommutes with beta but commutes with each alpha_i
    assert residual_norm(anticommutator(b.gamma5, b.beta), np.zeros((4, 4))) == 0.0
    for a in b.alpha:
        assert residual_norm(b.gamma5 @ a - a @ b.gamma5, np.zeros((4, 4))) == 0.0


def test_perturbed_basis_is_detected():
    import dataclasses

    b = dirac_representation()
    broken_alpha = (b.alpha[0] + 1e-3, b.alpha[1], b.alpha[2])
    broken = dataclasses.replace(b, alpha=broken_alpha)
    assert not all_passed(verify_identities(broken)[:10])


def test_perturbed_gamma2_fails_exactly_the_rows_that_read_it():
    import dataclasses

    b = dirac_representation()
    broken = dataclasses.replace(b, gamma2_op=b.gamma2_op + 1e-3 * I4)
    failed = [e.name for e in verify_identities(broken) if not e.passed]
    assert failed == [
        "gamma2_squared_is_twice_identity",
        "gamma2_gamma1_product",
        "alpha1_gamma2_anticommutator",
        "alpha2_gamma2_anticommutator",
        "alpha3_gamma2_anticommutator",
        "gamma2_beta_product",
        "gamma2_unitarity",
    ]


def test_anticommutation_rows_all_pass():
    report = verify_identities(dirac_representation())[:10]
    assert [e.name for e in report] == [
        "alpha1_alpha1_anticommutator", "alpha1_alpha2_anticommutator",
        "alpha1_alpha3_anticommutator", "alpha2_alpha2_anticommutator",
        "alpha2_alpha3_anticommutator", "alpha3_alpha3_anticommutator",
        "beta_alpha1_anticommutator", "beta_alpha2_anticommutator",
        "beta_alpha3_anticommutator", "beta_squared",
    ]
    assert all_passed(report)
    for e in report:
        assert e.residual <= 1e-14


def test_derived_operator_rows_all_pass():
    report = verify_identities(dirac_representation())
    assert len(report) == 21
    assert [e.name for e in report[-2:]] == ["gamma1_smallest_singular_value",
                                             "gamma2_unitarity"]
    assert all_passed(report[10:])


def test_report_lookup_by_name():
    report = verify_identities(dirac_representation())
    e = entry_named(report, "beta_squared")
    assert e.passed
    with pytest.raises(KeyError):
        entry_named(report, "no_such_check")


def test_entry_pass_boundary():
    assert entry("x", 1e-14, 1e-14).passed
    assert not entry("x", 1.0000001e-14, 1e-14).passed


def test_entry_takes_labels_only_of_the_residual_shape():
    family = entry("p{}_branch{}", np.zeros((3, 2)), 1.0, (range(1, 4), ("-1", "+1")))
    assert family.labels == (range(1, 4), ("-1", "+1"))
    assert entry("x", 0.0, 1.0).labels == ()
    with pytest.raises(ValueError, match=r"labels of shape \(3, 1\) .* shape \(3, 2\)"):
        entry("p{}_branch{}", np.zeros((3, 2)), 1.0, (range(1, 4), ("+1",)))
    with pytest.raises(ValueError, match=r"labels of shape \(2,\) .* shape \(\)"):
        entry("n{}", 0.5, 1.0, (range(2),))


def test_nan_residual_never_passes():
    # passed is derived from the residual, so a NaN residual reads as failed,
    # alone and inside a stack
    scalar = entry("x", np.nan, 1.0)
    assert scalar.passed is False
    stacked = entry("x", [0.5, np.nan, 2.0], 1.0)
    assert stacked.passed.tolist() == [True, False, False]


def test_basis_matrices_are_read_only():
    b = dirac_representation()
    with pytest.raises(ValueError):
        b.beta[0, 0] = 9.0
    with pytest.raises(ValueError):
        b.gamma5[0, 0] = 9.0
    with pytest.raises(ValueError):
        b.i_beta_gamma5[0, 0] = 9.0
