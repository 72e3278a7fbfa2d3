import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorep.cocycle import (
    Cocycle2,
    InconsistentCocycleError,
    cocycle_pair_basis,
    cocycle_space,
    evaluate,
    evaluate_along_path,
    extend_cocycle,
    family_cocycle_from_vector,
    family_witness_residual,
    index,
    index_formula_projection_family,
    restrict_to_subsemigroup,
)
from isorep.linalg import DEFAULT_TOL, nullspace
from isorep.repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
    reflection_family,
    reparametrize,
    truncated_infinite_reflection_family,
    truncated_shift,
)

EX2_VECTOR = np.array([0.5, 0.5, 0.5, 0.5])


def example2_rep(L=8, guard=3):
    return build_reflection_rep(EX2_VECTOR, TruncationParams(4, L, guard))


def coord_projections(n):
    return tuple(np.diag([1.0 + 0j if i == j else 0.0 for i in range(n)]) for j in range(n))


def brute_force_pair_dim(unitary, n, L, guard):
    """Independent coordinate-level solve of the generator-pair system.

    Applies the defining action rules of the two isometries to each basis
    pair (h, level) directly, assembles the stacked system column by column,
    and counts solutions supported on the interior via numpy's matrix_rank.
    Deliberately avoids the library's operator matrices.
    """
    dim = n * L

    def w1_apply(vec):
        out = np.zeros(dim, dtype=complex)
        for h in range(n):
            for lv in range(L - 1):
                out[h * L + lv + 1] += vec[h * L + lv]
        return out

    def w2_apply(vec):
        out = np.zeros(dim, dtype=complex)
        for h in range(n):
            for lv in range(L):
                amp = vec[h * L + lv]
                if amp == 0:
                    continue
                # sigma(0,1) = sum_i U P_i (x) shift^(i-1): coordinate h sits in
                # the range of P_{h+1}, lands on U e_h raised by h levels
                if lv + h < L:
                    for g in range(n):
                        out[g * L + lv + h] += unitary[g, h] * amp
        return out

    def basis(i):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        return v

    w1 = np.column_stack([w1_apply(basis(i)) for i in range(dim)])
    w2 = np.column_stack([w2_apply(basis(i)) for i in range(dim)])
    eye = np.eye(dim)
    top = np.hstack([w1.conj().T, np.zeros((dim, dim))])
    mid = np.hstack([np.zeros((dim, dim)), w2.conj().T])
    bot = np.hstack([eye - w2, w1 - eye])
    system = np.vstack([top, mid, bot])
    interior = np.tile(np.arange(L) < L - guard, n)
    keep = np.concatenate([interior, interior])
    reduced = system[:, keep]
    return reduced.shape[1] - np.linalg.matrix_rank(reduced, tol=1e-9)


# --- cocycle space dimensions ---------------------------------------------------


def test_example2_dimension_is_three():
    space = cocycle_space(example2_rep())
    assert space.dim == 3
    assert space.stable
    assert space.max_residual() <= 1e-12


def test_negated_unitary_kills_cocycles():
    fam = ProjectionFamily(projections=coord_projections(4), unitary=-np.eye(4, dtype=complex))
    rep = build_projection_family_rep(fam, TruncationParams(4, 8, 3))
    assert cocycle_space(rep).dim == 0


@pytest.mark.parametrize("L", [8, 12])
def test_two_dim_identity_family_matches_brute_force(L):
    fam = ProjectionFamily(projections=coord_projections(2), unitary=np.eye(2, dtype=complex))
    rep = build_projection_family_rep(fam, TruncationParams(2, L, 2))
    space = cocycle_space(rep)
    assert space.dim == 2
    assert space.dim == brute_force_pair_dim(fam.unitary, 2, L, 2)


def test_example2_matches_brute_force():
    space = cocycle_space(example2_rep())
    assert space.dim == brute_force_pair_dim(example2_rep().family.unitary, 4, 8, 3)


def test_basis_satisfies_all_constraints():
    rep = example2_rep()
    for c in cocycle_space(rep).basis:
        residuals = c.residuals(rep)
        assert all(v <= 1e-12 for v in residuals.values())


def test_cocycle_space_json_shape():
    space = cocycle_space(example2_rep())
    obj = space.to_json()
    assert obj["dim"] == 3
    assert obj["stable"] is True
    assert len(obj["basis"]) == 3
    assert obj["basis"][0]["eta10"]["rows"] == 32
    assert obj["residuals"]["max"] <= 1e-12


def test_cocycle_space_rejects_invalid_rep():
    rep = example2_rep()
    bad = IsoRep2(W1=2.0 * rep.W1, W2=rep.W2, trunc=rep.trunc)
    with pytest.raises(ValueError, match="validation"):
        cocycle_space(bad)


# --- kernel-first solve against the dense 3N×2N system ---------------------------


def dense_cocycle_bases(rep):
    """Reference solve: the stacked 3N×2N system of all three constraints,
    over all columns and over the interior columns only."""
    n = rep.dim
    eye, zero = np.eye(n), np.zeros((n, n))
    system = np.block(
        [[rep.W1.conj().T, zero], [zero, rep.W2.conj().T], [eye - rep.W2, rep.W1 - eye]]
    )
    mask = np.tile(rep.trunc.level_mask(), 2)
    kernel = nullspace(system[:, mask])
    inner = np.zeros((2 * n, kernel.shape[1]), dtype=complex)
    inner[mask] = kernel
    return nullspace(system), inner


def projector(basis):
    return basis @ basis.conj().T


def zero_guard_columns(rep):
    """The pair with its guard-band columns killed: still valid on the
    interior, but the adjoints gain top-level kernel vectors, so solutions
    supported in the guard band appear and must be discarded."""
    cols = rep.trunc.level_mask()
    return IsoRep2(W1=rep.W1 * cols, W2=rep.W2 * cols, trunc=rep.trunc)


@st.composite
def cocycle_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["planted", "identity", "reflection"]))
    if shape == "planted":
        # random ker(U - 1) of size k, the other eigenvalues kept away from 1
        k = draw(st.integers(0, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        phases = np.exp(1j * rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k))
        u = q @ np.diag(np.concatenate([np.ones(k), phases])) @ q.conj().T
    elif shape == "identity":
        u = np.eye(n, dtype=complex)
    else:
        a = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        u = np.eye(n) - 2.0 * np.outer(a, a) / (a @ a)
    fam = ProjectionFamily(projections=coord_projections(n), unitary=u.astype(complex))
    guard = draw(st.integers(max(n - 1, 1), n + 1))
    reparams = [None, ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1))]
    points = draw(st.sampled_from(reparams))
    # a reparametrized pair widens the guard by at most 2 + (n - 1) levels
    room = n + 1 if points else 0
    L = n + guard + room + draw(st.integers(0, 3))
    rep = build_projection_family_rep(fam, TruncationParams(n, L, guard))
    if points:
        rep = reparametrize(rep, *points)
    return zero_guard_columns(rep) if draw(st.booleans()) else rep


def assert_matches_dense(rep):
    space = cocycle_space(rep)
    full, inner = dense_cocycle_bases(rep)
    assert space.dim == inner.shape[1]
    assert space.discarded == full.shape[1] - inner.shape[1]
    assert space.stable == (space.discarded == 0)
    solved = cocycle_pair_basis(rep.W1, rep.W2)
    assert np.max(np.abs(projector(solved) - projector(full)), initial=0.0) <= 1e-8
    basis = np.array([c.stacked() for c in space.basis], dtype=complex)
    basis = basis.reshape(-1, 2 * rep.dim).T
    assert np.max(np.abs(projector(basis) - projector(inner)), initial=0.0) <= 1e-8
    for b in (solved, basis):
        assert np.allclose(b.conj().T @ b, np.eye(b.shape[1]), rtol=0.0, atol=1e-10)
    assert all(c.max_residual(rep) <= DEFAULT_TOL.identity_tol for c in space.basis)
    return space


@settings(max_examples=60, deadline=None)
@given(cocycle_pairs())
def test_kernel_first_solve_matches_dense_system(rep):
    assert_matches_dense(rep)


def test_guard_band_solutions_are_discarded_as_by_dense_system():
    rep = zero_guard_columns(example2_rep())
    space = assert_matches_dense(rep)
    assert space.dim == 3
    assert space.discarded > 0
    assert not space.stable


def test_unitary_pair_has_no_kernel_coordinates():
    # k1 + k2 = 0: both adjoints are injective, so no cocycle exists
    u = np.diag(np.exp(1j * np.array([0.4, 1.1])))
    w1, w2 = np.kron(u, np.eye(4)), np.kron(u @ u, np.eye(4))
    rep = IsoRep2(W1=w1, W2=w2, trunc=TruncationParams(2, 4, 1))
    assert cocycle_pair_basis(w1, w2).shape == (16, 0)
    space = assert_matches_dense(rep)
    assert (space.dim, space.discarded, space.stable) == (0, 0, True)


def test_rounding_noise_in_reduced_matrix_is_not_rank():
    # W2 = Q Q* is the identity up to rounding, so the compatibility matrix in
    # kernel coordinates, (1 - W2)K1, is pure noise; only a cutoff anchored at
    # the operator scale keeps the whole kernel pair
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    w2 = np.kron(q @ q.conj().T, np.eye(8))
    assert 0.0 < np.max(np.abs(w2 - np.eye(24))) < 1e-14
    w1 = np.kron(np.eye(3), truncated_shift(8))
    rep = IsoRep2(W1=w1, W2=w2, trunc=TruncationParams(3, 8, 2))
    assert assert_matches_dense(rep).dim == 3


# --- index ----------------------------------------------------------------------


def test_index_example2_finite_three():
    result = index(example2_rep())
    assert result.kind == "finite" and result.value == 3
    assert result.dims == (3, 3)
    assert result.to_json() == {"finite": 3}


def test_index_no_fixed_vector_finite_zero():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    u = q @ np.diag(np.exp(1j * np.array([0.7, 1.9, 3.1]))) @ q.conj().T
    fam = ProjectionFamily(projections=coord_projections(3), unitary=u)
    result = index(build_projection_family_rep(fam))
    assert result.kind == "finite" and result.value == 0


def test_index_growth_for_truncated_infinite_family():
    fam = truncated_infinite_reflection_family(8)
    result = index(build_projection_family_rep(fam))
    assert result.kind == "unbounded_with_truncation"
    assert tuple(result.dims) == (7, 15)


def test_index_without_rebuild_reports_unstable():
    rep = example2_rep()
    raw = IsoRep2(W1=rep.W1, W2=rep.W2, trunc=rep.trunc)
    result = index(raw)
    assert result.kind == "unstable"
    assert result.dims == (3,)


# --- closed-form dimension -------------------------------------------------------


def test_formula_identity_unitary():
    fam = ProjectionFamily(projections=coord_projections(3), unitary=np.eye(3, dtype=complex))
    assert index_formula_projection_family(fam) == 3


def test_formula_example2():
    assert index_formula_projection_family(reflection_family(EX2_VECTOR)) == 3


def test_formula_partial_rotation():
    fam = ProjectionFamily(
        projections=coord_projections(3),
        unitary=np.diag([1.0, 1.0, np.exp(1j * np.pi / 3)]),
    )
    assert index_formula_projection_family(fam) == 2


def test_space_dim_equals_formula_for_finite_families():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(z)
        k = int(rng.integers(0, n + 1))
        phases = np.exp(1j * rng.uniform(0.4, 5.8, size=n - k))
        u = q @ np.diag(np.concatenate([np.ones(k), phases])) @ q.conj().T
        fam = ProjectionFamily(projections=coord_projections(n), unitary=u)
        rep = build_projection_family_rep(fam)
        assert cocycle_space(rep).dim == index_formula_projection_family(fam)


# --- evaluation -------------------------------------------------------------------


def test_evaluate_origin_is_zero():
    rep = example2_rep()
    c = cocycle_space(rep).basis[0]
    assert np.max(np.abs(evaluate(c, rep, (0, 0)))) == 0.0


def test_evaluate_two_steps_right():
    rep = example2_rep()
    c = cocycle_space(rep).basis[0]
    expected = c.eta10 + rep.W1 @ c.eta10
    assert np.allclose(evaluate(c, rep, (2, 0)), expected)


def test_evaluate_path_independence_to_3_3():
    rep = example2_rep(L=16, guard=3)
    reference = {}
    for c in cocycle_space(rep).basis:
        ref = evaluate(c, rep, (3, 3))
        for perm in set(itertools.permutations([1] * 3 + [2] * 3)):
            out = evaluate_along_path(c, rep, list(perm))
            assert np.max(np.abs(out - ref)) <= 1e-10
        reference[id(c)] = ref
    assert len(reference) == 3


def test_evaluate_detects_inconsistent_pair():
    rep = example2_rep()
    rng = np.random.default_rng(4)
    junk = Cocycle2(
        eta10=rng.normal(size=rep.dim), eta01=rng.normal(size=rep.dim)
    )
    with pytest.raises(InconsistentCocycleError):
        evaluate(junk, rep, (1, 1))


# --- canonical witness structure ---------------------------------------------------


def test_witness_structure_of_basis():
    rep = example2_rep()
    fam = rep.family
    for c in cocycle_space(rep).basis:
        assert family_witness_residual(c, fam, rep) <= 1e-12


def test_family_cocycle_from_vector_solves_constraints():
    rep = example2_rep()
    fam = rep.family
    # any vector fixed by U generates a cocycle pair
    w, v = np.linalg.eigh(fam.unitary)
    fixed = v[:, np.abs(w - 1) < 1e-12]
    for j in range(fixed.shape[1]):
        c = family_cocycle_from_vector(fam, fixed[:, j], rep)
        assert c.max_residual(rep) <= 1e-12


# --- restriction and extension -------------------------------------------------------


def test_extend_zero_cocycle():
    rep = example2_rep(L=16, guard=3)
    zero = {(1, 1): np.zeros(rep.dim), (2, 1): np.zeros(rep.dim)}
    out = extend_cocycle(rep, (1, 1), (2, 1), zero)
    assert np.max(np.abs(out.stacked())) <= 1e-12


def test_restrict_then_extend_roundtrip():
    rep = example2_rep(L=16, guard=3)
    for c in cocycle_space(rep).basis:
        values = restrict_to_subsemigroup(c, rep, (1, 1), (2, 1))
        back = extend_cocycle(rep, (1, 1), (2, 1), values)
        assert np.max(np.abs(back.stacked() - c.stacked())) <= 1e-10


def test_extend_over_large_unimodular_generators():
    # (1, 0) = a - b and (0, 1) = 17·b - 16·a: coefficients grow with a and b
    rep = build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 24, 3))
    a, b = (17, 1), (16, 1)
    space = cocycle_space(rep)
    assert space.dim == 1
    for c in space.basis:
        back = extend_cocycle(rep, a, b, restrict_to_subsemigroup(c, rep, a, b))
        assert np.max(np.abs(back.stacked() - c.stacked())) <= 1e-10


def test_restricted_space_has_same_dimension():
    rep = example2_rep(L=16, guard=3)
    sub = reparametrize(rep, (1, 1), (2, 1))
    assert cocycle_space(sub).dim == cocycle_space(rep).dim == 3


def test_extend_rejects_non_finite_values():
    rep = build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 16, 3))
    values = restrict_to_subsemigroup(cocycle_space(rep).basis[0], rep, (1, 1), (2, 1))
    values[(2, 1)] = values[(2, 1)].copy()
    values[(2, 1)][0] = np.nan
    with pytest.raises(ValueError, match="eta_on_q"):
        extend_cocycle(rep, (1, 1), (2, 1), values)


def test_extend_rejects_invalid_values():
    rep = example2_rep(L=16, guard=3)
    rng = np.random.default_rng(8)
    junk = {(1, 1): rng.normal(size=rep.dim), (2, 1): rng.normal(size=rep.dim)}
    with pytest.raises(ValueError, match="not a cocycle"):
        extend_cocycle(rep, (1, 1), (2, 1), junk)
