import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
    generator_kernel,
    pair_adjoint_kernels,
    reflection_family,
    reparametrize,
    strong_purity_check,
    truncated_infinite_reflection_family,
    truncated_shift,
    validate,
)

from kernel_checks import check_generator_kernel, low_level_width


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


_KINDS_WITH_TRUNCATION = ["planted", "reflection", "reparametrized", "half", "overfull", "tiny"]


@st.composite
def adjoint_kernel_inputs(draw, kinds=None):
    """(w, trunc, kind): every kind of generator the library builds, and
    matrices that are not partial isometries. trunc is the truncation of the
    pair w came from, None for a kind without one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kinds = kinds or [*_KINDS_WITH_TRUNCATION, "grid", "contraction", "faint", "rounded", "near"]
    kind = draw(st.sampled_from(kinds))
    rep = _family_rep(rng, n, reflection=kind == "reflection")
    pick = draw(st.integers(0, 1))
    if kind == "reparametrized":
        points = draw(st.sampled_from([((1, 0), (1, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1))]))
        rep = reparametrize(rep, *points)
    if kind == "grid":
        m = draw(st.integers(2, 3))
        return induce_2d(rep, m).V(*[(1 / m, 0), (0, 1 / m)][pick]), None, kind
    w = (rep.W1, rep.W2)[pick]
    if kind == "half":
        return 0.5 * w, rep.trunc, kind
    if kind == "tiny":
        # every singular value below rank_tol: the relative cutoff still
        # finds ker w*, not the whole space
        return 10.0 ** -rng.uniform(10.0, 14.0) * w, rep.trunc, kind
    if kind == "overfull":
        return 2.0 * w, rep.trunc, kind
    if kind == "contraction":
        # random singular vectors, fewer than all singular values 0, the rest in (0, 1)
        size = int(rng.integers(2, 24))
        u, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        v, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        s = rng.uniform(0.1, 0.9, size=size)
        s[rng.permutation(size)[: rng.integers(0, size)]] = 0.0
        return u @ np.diag(s) @ v.conj().T, None, kind
    if kind not in ("faint", "rounded", "near"):
        return w, rep.trunc, kind
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
    return u @ np.diag(s) @ vh, None, kind


@settings(max_examples=132, deadline=None)
@given(adjoint_kernel_inputs())
def test_adjoint_kernel_matches_svd_route(case):
    w, _, _ = case
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
    with pytest.raises(ValueError, match="finite"):
        generator_kernel(w, TruncationParams(2, 5, 2))


# --- generator_kernel ---------------------------------------------------------------


def _inner_generator(rng, n, factors, guard, interior):
    """Σ_k A_k ⊗ S^k for the inner symbol Θ = Π_j U_j(P_j + zQ_j), U_j a random
    unitary, P_j a random projection of random rank and Q_j = 1 − P_j."""
    coeffs = [np.eye(n, dtype=complex)]
    for _ in range(factors):
        u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        v = v[:, : rng.integers(0, n + 1)]
        p = v @ v.conj().T
        factor = (u @ p, u @ (np.eye(n) - p))
        coeffs = [
            sum(coeffs[i] @ factor[k - i] for i in range(len(coeffs)) if 0 <= k - i <= 1)
            for k in range(len(coeffs) + 1)
        ]
    trunc = TruncationParams(n, guard + interior, guard)
    w = np.zeros((n, trunc.L, n, trunc.L), dtype=complex)
    for offset, a in enumerate(coeffs):
        levels = np.arange(trunc.L - offset)
        w[:, levels + offset, :, levels] = a
    return w.reshape(trunc.dim, trunc.dim), trunc


@st.composite
def inner_generators(draw):
    """(w, trunc, "inner"): a random inner symbol of degree ≤ guard, on an
    interior that may be too short for the low-level route."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = draw(st.integers(1, 3))
    guard = factors + draw(st.integers(0, 1))
    interior = draw(st.integers(1, 2 * factors + 2))
    return (*_inner_generator(rng, draw(st.integers(1, 4)), factors, guard, interior), "inner")


@settings(max_examples=120, deadline=None)
@given(st.one_of(adjoint_kernel_inputs(_KINDS_WITH_TRUNCATION), inner_generators()))
def test_generator_kernel_matches_svd_route(case):
    w, trunc, kind = case
    width = check_generator_kernel(w, trunc)
    if kind in ("planted", "reflection"):
        assert width is not None
    elif kind in ("half", "overfull", "tiny"):
        assert width is None


def test_generator_kernel_of_a_guard_column_swap():
    # ‖W2‖_F² is unchanged and ker W2* of the built pair lives on levels 0
    # and 1, far from the altered columns; the kernel has grown by one
    rep = _guard_column_swap()
    assert validate(rep).ok
    assert check_generator_kernel(rep.W2, rep.trunc) is None
    assert pair_adjoint_kernels(rep)[1].shape[1] == 4
    built = build_projection_family_rep(rep.family, rep.trunc)
    assert check_generator_kernel(built.W2, built.trunc) == 3 * 2


def test_family_kernels_take_no_square_svd(monkeypatch):
    # at the default truncation (N = 128) the adjoint kernels are low-level
    # blocks of at most n·(d − 1) = 12 columns; no square SVD of N or more
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
    # the n = 16 growth-probe generators (N = 640): W1's block is 16-square
    # and W2's 240-square, and neither route test may form an N×N product or
    # copy, such as a Gram matrix or a conjugate of w
    rep = build_projection_family_rep(
        truncated_infinite_reflection_family(16), TruncationParams(16, 40, 17)
    )
    square = rep.W1.nbytes
    assert rep.dim == 640
    for w, width, dim in ((rep.W1, 16, 16), (rep.W2, 240, 120)):
        assert low_level_width(w, rep.trunc) == width
        tracemalloc.start()
        try:
            kernel = generator_kernel(w, rep.trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.shape == (640, dim)
        assert peak < square


def _guard_column_swap():
    """A reflection pair (n = 3, L = 12, guard = 3) that keeps its family, with
    W2's guard column (h, level) = (0, 9) scaled by √2 and (0, 10) zeroed."""
    a = np.array([0.5, 0.6, 0.7])
    rep = build_reflection_rep(a / np.linalg.norm(a), TruncationParams(3, 12, 3))
    w2 = rep.W2.copy()
    w2[:, 9] *= np.sqrt(2.0)
    w2[:, 10] = 0.0
    return IsoRep2(W1=rep.W1, W2=w2, trunc=rep.trunc, family=rep.family)


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
