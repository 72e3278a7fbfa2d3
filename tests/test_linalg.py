from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorep.induced import induce_2d
from isorep.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _rank_from_singular_values,
    adjoint_kernel,
    intertwiner_space,
    kron,
    matrix_from_json,
    matrix_to_json,
    nullspace,
)
from isorep.repmodel import (
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    reflection_family,
    reparametrize,
    truncated_shift,
)


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


def _svd_kernel(a, scale=0.0):
    """The kernel read off the SVD of ``a`` itself, with the rank cut of
    ``nullspace``: the route before tall inputs went through their R factor."""
    a = np.asarray(a, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[_rank_from_singular_values(s, DEFAULT_TOL, scale) :].conj().T


def _orthonormal(rng, m, n):
    return np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))[0]


@st.composite
def tall_kernel_inputs(draw):
    """(a, scale, kernel dimension) for an m×n matrix with m > n: a planted
    kernel of every dimension 0 … n, the zero matrix, or rounding noise cut
    at scale 1, whose kernel is everything."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    m = n + draw(st.integers(1, 2 * n + 4))
    kind = draw(st.sampled_from(["planted", "zero", "noise"]))
    if kind == "zero":
        return np.zeros((m, n)), 0.0, n
    if kind == "noise":
        return 1e-14 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))), 1.0, n
    k = draw(st.integers(0, n))
    v = _orthonormal(rng, n, n)
    s = rng.uniform(0.5, 2.0, size=n - k)
    return _orthonormal(rng, m, n - k) @ np.diag(s) @ v[:, : n - k].conj().T, 0.0, k


@settings(max_examples=120, deadline=None)
@given(tall_kernel_inputs())
def test_tall_kernels_through_the_r_factor_match_the_svd(case):
    a, scale, dim = case
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        got = nullspace(a, scale=scale)
    assert qr.call_count == 1
    want = _svd_kernel(a, scale)
    assert got.shape == want.shape == (a.shape[1], dim)
    assert np.allclose(got.conj().T @ got, np.eye(dim), rtol=0.0, atol=1e-12)
    distance = np.abs(got @ got.conj().T - want @ want.conj().T)
    assert np.max(distance, initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 4), st.booleans())
def test_wide_and_square_kernels_take_the_svd_unchanged(seed, m, extra, deficient):
    # byte for byte the SVD of a itself, with no QR
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m + extra)) + 1j * rng.normal(size=(m, m + extra))
    if deficient:
        a[-1] = a[0]
    with mock.patch.object(np.linalg, "qr", side_effect=AssertionError("qr")):
        got = nullspace(a)
    want = _svd_kernel(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- adjoint_kernel ---------------------------------------------------------------


def _family_rep(rng, n, reflection):
    """A projection-family pair over coordinate projections: a random
    reflection, or a planted ker(U - 1) of random size."""
    if not reflection:
        k = int(rng.integers(0, n + 1))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        phases = np.exp(1j * rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k))
        fam = ProjectionFamily(
            projections=tuple(np.diag(np.eye(n)[j]).astype(complex) for j in range(n)),
            unitary=q @ np.diag(np.concatenate([np.ones(k), phases])) @ q.conj().T,
        )
    else:
        a = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        fam = reflection_family(a / np.linalg.norm(a))
    guard = n + 1
    return build_projection_family_rep(fam, TruncationParams(n, 2 * guard + 2, guard))


@st.composite
def adjoint_kernel_inputs(draw):
    """Every kind of generator the library builds, and matrices that are not
    partial isometries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kind = draw(
        st.sampled_from(
            ["planted", "reflection", "reparametrized", "half", "overfull", "tiny", "grid",
             "contraction", "faint", "rounded", "near"]
        )
    )
    rep = _family_rep(rng, n, reflection=kind == "reflection")
    pick = draw(st.integers(0, 1))
    if kind == "reparametrized":
        points = draw(st.sampled_from([((1, 0), (1, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1))]))
        rep = reparametrize(rep, *points)
    if kind == "grid":
        m = draw(st.integers(2, 3))
        return induce_2d(rep, m).V(*[(1 / m, 0), (0, 1 / m)][pick])
    w = (rep.W1, rep.W2)[pick]
    if kind == "half":
        return 0.5 * w
    if kind == "tiny":
        # every singular value below rank_tol: the relative cutoff still
        # finds ker w*, not the whole space
        return 10.0 ** -rng.uniform(10.0, 14.0) * w
    if kind == "overfull":
        return 2.0 * w
    if kind == "contraction":
        # random singular vectors, fewer than all singular values 0, the rest in (0, 1)
        size = int(rng.integers(2, 24))
        u, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        v, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        s = rng.uniform(0.1, 0.9, size=size)
        s[rng.permutation(size)[: rng.integers(0, size)]] = 0.0
        return u @ np.diag(s) @ v.conj().T
    if kind not in ("faint", "rounded", "near"):
        return w
    u, s, vh = np.linalg.svd(w)
    if kind == "faint":
        # one singular value of w in [1e-8, 3e-6], above the rank cutoff
        s[np.flatnonzero(s > 0.5)[-1]] = 10.0 ** rng.uniform(-8.0, -5.5)
    elif kind == "rounded":
        # one σ² in (0, 0.5) and every other singular value 0
        s[:] = 0.0
        s[0] = np.sqrt(rng.uniform(0.0, 0.5))
    else:
        # one singular value 1 − ε
        s[np.flatnonzero(s > 0.5)[-1]] = 1.0 - 10.0 ** rng.uniform(-14.0, -3.0)
    return u @ np.diag(s) @ vh


@settings(max_examples=132, deadline=None)
@given(adjoint_kernel_inputs())
def test_adjoint_kernel_matches_svd_route(w):
    basis = adjoint_kernel(w)
    reference = nullspace(w.conj().T)
    assert basis.shape == reference.shape
    k = basis.shape[1]
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(k)), initial=0.0) <= 1e-12
    gap = np.max(np.abs(basis @ basis.conj().T - reference @ reference.conj().T), initial=0.0)
    assert gap <= 1e-12


def test_adjoint_kernel_of_a_unitary_is_empty():
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(40, 40)) + 0j)
    assert adjoint_kernel(q).shape == (40, 0)


def test_adjoint_kernel_of_zero_is_everything():
    basis = adjoint_kernel(np.zeros((12, 12)))
    assert basis.shape == (12, 12)
    assert np.allclose(basis.conj().T @ basis, np.eye(12), rtol=0.0, atol=1e-12)


def _one_tiny_entry():
    w = np.zeros((12, 12))
    w[3, 4] = 1e-12
    return w


@pytest.mark.parametrize(
    "w, dim",
    [(_one_tiny_entry(), 11), (1e-11 * np.kron(np.eye(2), truncated_shift(6)), 2)],
)
def test_adjoint_kernel_of_a_tiny_matrix_is_not_everything(w, dim):
    # the rank cutoff is relative: a matrix of tiny norm still has rank
    assert adjoint_kernel(w).shape == nullspace(w.conj().T).shape == (12, dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adjoint_kernel_rejects_non_finite(bad):
    w = np.kron(np.eye(2), truncated_shift(5))
    w[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        adjoint_kernel(w)


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
