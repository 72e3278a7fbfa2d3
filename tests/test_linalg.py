import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isorep.linalg
from isorep.cocycle import cocycle_space
from isorep.induced import induce_2d
from isorep.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
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
    strong_purity_check,
    truncated_infinite_reflection_family,
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
    """(w, partial isometry?): every kind of generator the library builds,
    matrices that are not partial isometries, and (w, None) for a partial
    isometry with one singular value just below 1, which may take either
    route."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kind = draw(
        st.sampled_from(
            [
                "planted",
                "reflection",
                "reparametrized",
                "grid",
                "half",
                "contraction",
                "faint",
                "rounded",
                "overfull",
                "near",
                "tiny",
            ]
        )
    )
    rep = _family_rep(rng, n, reflection=kind == "reflection")
    pick = draw(st.integers(0, 1))
    if kind == "reparametrized":
        points = draw(st.sampled_from([((1, 0), (1, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1))]))
        rep = reparametrize(rep, *points)
    if kind == "grid":
        m = draw(st.integers(2, 3))
        return induce_2d(rep, m).V(*[(1 / m, 0), (0, 1 / m)][pick]), True
    w = (rep.W1, rep.W2)[pick]
    if kind == "half":
        return 0.5 * w, False
    if kind == "tiny":
        # every singular value below rank_tol: k = N − ‖w‖_F² rounds to N, and
        # only the annihilation test anchored at ‖w‖_F/√N sends it to the SVD
        return 10.0 ** -rng.uniform(10.0, 14.0) * w, False
    if kind == "overfull":
        # ‖w‖_F² > N: no sketch size k = N − ‖w‖_F² ≥ 0 exists
        return 2.0 * w, False
    if kind == "contraction":
        # random singular vectors, fewer than all singular values 0, the rest in (0, 1)
        size = int(rng.integers(2, 24))
        u, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        v, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        s = rng.uniform(0.1, 0.9, size=size)
        s[rng.permutation(size)[: rng.integers(0, size)]] = 0.0
        return u @ np.diag(s) @ v.conj().T, False
    if kind not in ("faint", "rounded", "near"):
        return w, True
    u, s, vh = np.linalg.svd(w)
    if kind == "faint":
        # one singular value of w in [1e-8, 3e-6]: the sketch shows rank
        # k = N − ‖w‖_F², but w* does not annihilate that direction at the
        # rank cutoff
        s[np.flatnonzero(s > 0.5)[-1]] = 10.0 ** rng.uniform(-8.0, -5.5)
    elif kind == "rounded":
        # one σ² in (0, 0.5): round(N − ‖w‖_F²) = N is the sketch's rank, and
        # only ‖w*Q‖_F = σ rejects it
        s[:] = 0.0
        s[0] = np.sqrt(rng.uniform(0.0, 0.5))
    else:
        # one singular value 1 − ε: the sketch is kept only while that
        # direction stays below the rank cutoff, and falls back otherwise
        s[np.flatnonzero(s > 0.5)[-1]] = 1.0 - 10.0 ** rng.uniform(-14.0, -3.0)
    return u @ np.diag(s) @ vh, None if kind == "near" else False


def _kernel_with_route(w):
    """adjoint_kernel's basis, and whether it fell back to the full SVD."""
    with mock.patch.object(isorep.linalg, "nullspace", wraps=nullspace) as svd_route:
        basis = adjoint_kernel(w)
    return basis, svd_route.called


@settings(max_examples=132, deadline=None)
@given(adjoint_kernel_inputs())
def test_adjoint_kernel_matches_svd_route(case):
    w, partial_isometry = case
    basis, fell_back = _kernel_with_route(w)
    reference = nullspace(w.conj().T)
    assert basis.shape == reference.shape
    k = basis.shape[1]
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(k)), initial=0.0) <= 1e-12
    gap = np.max(np.abs(basis @ basis.conj().T - reference @ reference.conj().T), initial=0.0)
    if partial_isometry is None:
        # a sketch kept near a partial isometry is held to the rank cutoff
        assert np.linalg.norm(w.conj().T @ basis) <= DEFAULT_TOL.rank_tol
        assert gap <= DEFAULT_TOL.rank_tol
    else:
        assert fell_back != partial_isometry
        assert gap <= 1e-12


def test_adjoint_kernel_of_a_unitary_is_empty():
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(40, 40)) + 0j)
    basis, fell_back = _kernel_with_route(q)
    assert basis.shape == (40, 0)
    assert not fell_back


def test_adjoint_kernel_of_zero_is_everything():
    basis, fell_back = _kernel_with_route(np.zeros((12, 12)))
    assert basis.shape == (12, 12)
    assert not fell_back
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
    # ‖w*Q‖_F ≤ rank_tol alone kept all twelve sketch columns here
    assert adjoint_kernel(w).shape == nullspace(w.conj().T).shape == (12, dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adjoint_kernel_rejects_non_finite(bad):
    w = np.kron(np.eye(2), truncated_shift(5))
    w[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        adjoint_kernel(w)


def test_family_kernels_take_no_square_svd(monkeypatch):
    # at the default truncation (N = 128) the adjoint kernels come from the
    # sketch; only the guard rows and the N×(k1+k2) solve keep small SVDs
    svd = np.linalg.svd

    def guarded(a, *args, **kwargs):
        if np.ndim(a) == 2 and np.shape(a)[0] == np.shape(a)[1] >= 64:
            raise AssertionError(f"square SVD of shape {np.shape(a)}")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded)
    rep = build_projection_family_rep(reflection_family(np.full(4, 0.5)))
    assert rep.dim == 128
    assert cocycle_space(rep).dim == 3
    assert strong_purity_check(rep, depth=3).verdict == "strongly_pure"


def test_growth_probe_kernels_stay_below_one_square_array():
    # the n = 16 growth-probe generators (N = 640): neither sketch test may
    # form an N×N product or copy, such as a Gram matrix or a conjugate of w
    rep = build_projection_family_rep(
        truncated_infinite_reflection_family(16), TruncationParams(16, 40, 17)
    )
    square = rep.W1.nbytes
    assert rep.dim == 640
    for w in (rep.W1, rep.W2):
        tracemalloc.start()
        try:
            adjoint_kernel(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < square


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
