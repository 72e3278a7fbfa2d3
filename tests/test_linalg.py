import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorep.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    intertwiner_space,
    joint_kernel,
    kron,
    matrix_from_json,
    matrix_to_json,
    nullspace,
)
from isorep.repmodel import truncated_shift


def span_equal(a, b, tol=1e-12):
    """Same column span, checked by mutual projection."""
    if a.shape[1] != b.shape[1]:
        return False
    if a.shape[1] == 0:
        return True
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.allclose(qa @ (qa.conj().T @ qb), qb, atol=tol)


# --- kron -------------------------------------------------------------------


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_nilpotent_block():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    out = kron(a, np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = np.eye(2)
    assert np.array_equal(out, expected)


def test_kron_shift_coordinates_brute_force():
    # (S ⊗ S)(e_0 ⊗ e_0) = e_1 ⊗ e_1, verified by raw index arithmetic
    s = truncated_shift(3)
    big = kron(s, s)
    e00 = np.zeros(9)
    e00[0 * 3 + 0] = 1.0
    out = big @ e00
    expected = np.zeros(9)
    expected[1 * 3 + 1] = 1.0
    assert np.array_equal(out, expected)
    # brute force: entry ((i,k),(j,l)) must be s[i,j]*s[k,l]
    for i in range(3):
        for k in range(3):
            for j in range(3):
                for l in range(3):
                    assert big[i * 3 + k, j * 3 + l] == s[i, j] * s[k, l]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_mixed_product_property(seed):
    rng = np.random.default_rng(seed)
    p, q, r = rng.integers(1, 4, size=3)
    a = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
    c = rng.normal(size=(q, r)) + 1j * rng.normal(size=(q, r))
    b = rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
    d = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.identity_tol


def test_kron_acts_on_elementary_tensors():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2))
    x = rng.normal(size=3)
    y = rng.normal(size=2)
    assert np.allclose(kron(a, b) @ np.kron(x, y), np.kron(a @ x, b @ y))


# --- nullspace ---------------------------------------------------------------


def test_nullspace_coordinate_case():
    basis = nullspace(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert span_equal(basis, np.array([[0.0], [1.0]]))


def test_nullspace_zero_matrix_full_basis():
    basis = nullspace(np.zeros((2, 2)))
    assert basis.shape == (2, 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(2))


def test_nullspace_rank_one_against_eig_oracle():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    # independent oracle: eigendecomposition of A^H A
    w, v = np.linalg.eigh(a.conj().T @ a)
    oracle = v[:, w < 1e-12]
    basis = nullspace(a)
    assert basis.shape[1] == 1
    assert span_equal(basis, oracle)
    assert span_equal(basis, np.array([[1.0], [-1.0]]) / np.sqrt(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nullspace_orthonormal_and_annihilating(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 6, size=2)
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    basis = nullspace(a)
    if basis.shape[1]:
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1]))) < 1e-10
        norm = np.max(np.abs(a))
        assert np.max(np.abs(a @ basis)) <= DEFAULT_TOL.rank_tol * max(norm, 1) * n * 10


def test_nullspace_noise_scale_anchor():
    # a numerically-zero difference of unit-scale operators has full kernel
    rng = np.random.default_rng(11)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    noise = q @ np.eye(3) @ q.conj().T - np.eye(3)
    assert np.max(np.abs(noise)) < 1e-13
    assert nullspace(noise, scale=1.0).shape[1] == 3


# --- joint_kernel -------------------------------------------------------------


def test_joint_kernel_identity_constraint_is_empty():
    assert joint_kernel([np.eye(2)]).shape == (2, 0)


def test_joint_kernel_vacuous_constraints():
    basis = joint_kernel([], ambient_dim=3)
    assert np.array_equal(basis, np.eye(3))


def test_joint_kernel_two_row_system():
    basis = joint_kernel([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    assert basis.shape == (2, 0)


def test_joint_kernel_shape_mismatch():
    with pytest.raises(ValueError, match="column counts differ"):
        joint_kernel([np.eye(2), np.eye(3)])


# --- intertwiner_space --------------------------------------------------------


def test_intertwiner_identity_pair_full_space():
    basis = intertwiner_space([(np.eye(2), np.eye(2))])
    assert len(basis) == 4


def test_intertwiner_matching_diagonals():
    d = np.diag([1.0, 2.0])
    basis = intertwiner_space([(d, d)])
    assert len(basis) == 2
    for t in basis:
        assert abs(t[0, 1]) < 1e-12 and abs(t[1, 0]) < 1e-12


def test_intertwiner_disjoint_spectra_empty():
    assert intertwiner_space([(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))]) == []


def test_intertwiner_residuals_and_identity_presence():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pairs = [(a, a), (a.conj().T, a.conj().T)]
        basis = intertwiner_space(pairs)
        assert len(basis) >= 1  # the identity always intertwines
        scale = float(np.max(np.abs(a)))
        for t in basis:
            for x, y in pairs:
                assert np.max(np.abs(x @ t - t @ y)) <= 1e-9 * max(scale, 1.0)


def test_intertwiner_shape_mismatch():
    with pytest.raises(ValueError):
        intertwiner_space([(np.eye(2), np.eye(2)), (np.eye(3), np.eye(2))])


# --- tolerances & JSON --------------------------------------------------------


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(identity_tol=2.0)
    with pytest.raises(ValueError):
        ToleranceConfig(stabilization_delta=0)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    obj = matrix_to_json(a)
    assert obj["rows"] == 2 and obj["cols"] == 3
    assert np.allclose(matrix_from_json(obj), a)


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("bad", [2.5, 2.0, "2", True, None, -2])
def test_matrix_json_requires_integer_shape(field, bad):
    obj = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4, field: bad}
    with pytest.raises(ValueError, match=f"matrix field {field}: expected a non-negative"):
        matrix_from_json(obj)


def test_matrix_json_rejects_bad_lengths():
    with pytest.raises(ValueError, match="length"):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
