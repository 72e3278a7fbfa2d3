import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isorep.cocycle
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
    pair_basis_from_kernels,
    restrict_to_subsemigroup,
    shift_pair_basis,
)
from isorep.linalg import DEFAULT_TOL, nullspace
from isorep.repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
    direct_sum_family,
    is_level_shift,
    reflection_family,
    reparametrize,
    strong_purity_check,
    truncated_infinite_reflection_family,
    truncated_shift,
)
from symbol_pairs import inner_shift_pair, random_rank_projections, unitary

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


def _with_nan(c, part):
    """The cocycle with entry 0 of eta10 or eta01 replaced by NaN."""
    eta = getattr(c, part).copy()
    eta[0] = np.nan
    return replace(c, **{part: eta})


@pytest.mark.parametrize("part", ["eta10", "eta01"])
def test_evaluate_and_restrict_reject_a_nan_entry(part):
    # a NaN deviation must fail the path-independence test, not pass it
    rep = example2_rep(L=16, guard=3)
    bad = _with_nan(cocycle_space(rep).basis[0], part)
    with pytest.raises(InconsistentCocycleError, match="nan"):
        evaluate(bad, rep, (1, 1))
    with pytest.raises(InconsistentCocycleError, match="nan"):
        restrict_to_subsemigroup(bad, rep, (1, 1), (2, 1))


# --- canonical witness structure ---------------------------------------------------


def test_witness_structure_of_basis():
    rep = example2_rep()
    fam = rep.family
    for c in cocycle_space(rep).basis:
        assert family_witness_residual(c, fam, rep) <= 1e-12


def test_witness_residual_keeps_a_nan_in_eta01():
    # the eta10 deviation comes first and is 0, so max() would drop the NaN
    rep = example2_rep()
    bad = _with_nan(cocycle_space(rep).basis[0], "eta01")
    assert np.isnan(family_witness_residual(bad, rep.family, rep))


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


# --- the shift route against the dense pair basis ---------------------------------


@st.composite
def shift_pairs(draw):
    """Pairs whose W1 is exactly 1 ⊗ S: planted, reflection and direct-sum
    families at the default or the tightest truncation, the U = 1 non-pure
    pair, and W2 of a random inner symbol on an interior that may be too
    short for its solutions, so some reach the guard band."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["planted", "reflection", "direct_sum", "nonpure", "inner"]))
    if kind == "inner":
        factors = draw(st.integers(1, 3))
        guard = factors + draw(st.integers(0, 1))
        return inner_shift_pair(rng, n, factors, guard, draw(st.integers(1, factors + 1)))
    if kind == "nonpure":
        fam = ProjectionFamily(projections=coord_projections(2), unitary=np.eye(2, dtype=complex))
    else:
        a = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        fam = reflection_family(a / np.linalg.norm(a))
        if kind != "reflection":
            projections = random_rank_projections(rng, n) if kind == "planted" else fam.projections
            planted = ProjectionFamily(
                projections=projections, unitary=unitary(rng, n, int(rng.integers(0, n + 1)))
            )
            fam = planted if kind == "planted" else direct_sum_family(fam, planted)
    trunc = None
    if draw(st.booleans()):
        guard = max(fam.d - 1, 1)
        trunc = TruncationParams(fam.n, fam.d + guard + draw(st.integers(0, 2)), guard)
    return build_projection_family_rep(fam, trunc)


@settings(max_examples=80, deadline=None)
@given(shift_pairs())
# a degree-3 symbol on one interior level: 2 solutions kept, 1 discarded
@example(inner_shift_pair(np.random.default_rng(6), 3, 3, 3, 1))
def test_shift_route_matches_the_dense_pair_basis(rep):
    tr = rep.trunc
    assert is_level_shift(rep.W1, tr)
    dense_route = AssertionError("dense route")
    with mock.patch.object(isorep.cocycle, "cocycle_pair_basis", side_effect=dense_route):
        space = cocycle_space(rep)
    full = cocycle_pair_basis(rep.W1, rep.W2)
    guard_rows = full[~np.tile(tr.level_mask(), 2)]
    inner = full @ nullspace(guard_rows, scale=1.0) if full.shape[1] else full
    assert (space.dim, space.discarded) == (inner.shape[1], full.shape[1] - inner.shape[1])
    # fed the dense W2's level-0 columns and its adjoint
    shift = shift_pair_basis(rep.W2[:, :: tr.L], lambda x: rep.W2.conj().T @ x)
    basis = np.array([c.stacked() for c in space.basis], dtype=complex).reshape(-1, 2 * rep.dim).T
    for got, want in ((shift, full), (basis, inner)):
        assert got.shape == want.shape
        assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), rtol=0.0, atol=1e-12)
        assert np.max(np.abs(projector(got) - projector(want)), initial=0.0) <= 1e-10


def _altered_w1(rep, kind):
    if kind == "ulp":
        w1 = rep.W1.copy()
        w1[1, 0] = np.nextafter(1.0, 2.0)
        return replace(rep, W1=w1)
    if kind == "nan":
        w1 = rep.W1.copy()
        w1[5, 5] = np.nan
        return replace(rep, W1=w1)
    if kind == "half":
        return replace(rep, W1=0.5 * rep.W1)
    return reparametrize(rep, (1, 1), (2, 1))


@pytest.mark.parametrize("kind", ["ulp", "nan", "half", "reparametrized"])
def test_a_w1_that_is_not_exactly_the_shift_takes_the_dense_route(kind):
    rep = example2_rep(L=16, guard=3)
    assert is_level_shift(rep.W1, rep.trunc)
    assert not is_level_shift(rep.W2, rep.trunc)
    altered = _altered_w1(rep, kind)
    assert not is_level_shift(altered.W1, altered.trunc)
    if kind in ("nan", "half"):
        # neither validates, so no cocycle solve runs on them
        with pytest.raises(ValueError, match="validation"):
            cocycle_space(altered)
        return
    shift_route = AssertionError("shift route")
    with mock.patch.object(
        isorep.cocycle, "shift_pair_basis", side_effect=shift_route
    ), mock.patch.object(isorep.cocycle, "cocycle_pair_basis", wraps=cocycle_pair_basis) as dense:
        assert cocycle_space(altered).dim == 3
    assert dense.call_count == 1


def test_index_of_a_family_pair_takes_no_svd_wider_than_n(monkeypatch):
    # every SVD index() runs is the n-column solve or the guard filter of at
    # most n solutions; the growth probe solves at n and at 2n
    svd = np.linalg.svd
    widths = []

    def spy(a, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(5)
    planted = ProjectionFamily(projections=coord_projections(5), unitary=unitary(rng, 5, 2))
    probe = truncated_infinite_reflection_family(8)
    for fam, width, want in (
        (reflection_family(EX2_VECTOR), 4, {"finite": 3}),
        (planted, 5, {"finite": 2}),
        (probe, 16, {"unbounded_with_truncation": {"dims": [7, 15]}}),
    ):
        widths.clear()
        assert index(build_projection_family_rep(fam)).to_json() == want
        assert widths and max(widths) <= width


def test_index_of_a_family_pair_makes_no_dense_kernel_call():
    rep = example2_rep()
    probe = build_projection_family_rep(truncated_infinite_reflection_family(3))
    dense = AssertionError("dense kernel")
    with mock.patch.object(isorep.cocycle, "adjoint_kernel", side_effect=dense):
        assert index(rep).to_json() == {"finite": 3}
        assert index(replace(rep, family=None)).to_json() == {"finite": 3}
        assert index(probe).to_json() == {"unbounded_with_truncation": {"dims": [2, 5]}}
        assert strong_purity_check(rep, depth=3).multiplicities == (4, 6)


def test_index_of_a_finite_family_checks_the_family_once():
    fam = reflection_family(EX2_VECTOR)
    check = ProjectionFamily.check
    with mock.patch.object(ProjectionFamily, "check", autospec=True, wraps=check) as spy:
        assert index(build_projection_family_rep(fam)).to_json() == {"finite": 3}
    assert spy.call_count == 1


@st.composite
def sparse_kernel_systems(draw):
    """Orthonormal K1, K2 and products W1·K2, W2·K1 with rows that are exactly
    zero, or a system that is all zero (W2·K1 = K1, W1·K2 = K2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 12))

    def sparse(cols, orthonormal):
        out = np.zeros((size, cols), dtype=complex)
        rows = np.flatnonzero(rng.random(size) < rng.uniform(0.2, 0.9))
        if orthonormal:
            rows = np.union1d(rows, rng.permutation(size)[:cols])
        z = rng.normal(size=(rows.size, cols)) + 1j * rng.normal(size=(rows.size, cols))
        out[rows] = np.linalg.qr(z)[0] if orthonormal else z
        return out

    k1, k2 = (sparse(draw(st.integers(0, min(4, size))), True) for _ in range(2))
    if draw(st.booleans()):
        return k1, k2, k2, k1
    return k1, k2, sparse(k2.shape[1], False), sparse(k1.shape[1], False)


@settings(max_examples=40, deadline=None)
@given(sparse_kernel_systems())
def test_compatibility_solve_on_nonzero_rows_matches_full_nullspace(system):
    k1, k2, w1k2, w2k1 = system
    got = pair_basis_from_kernels(k1, k2, w1k2, w2k1, DEFAULT_TOL)
    split = k1.shape[1]
    if split + k2.shape[1] == 0:
        assert got.shape == (2 * k1.shape[0], 0)
        return
    coeffs = nullspace(np.hstack([k1 - w2k1, w1k2 - k2]), scale=1.0)
    want = np.vstack([k1 @ coeffs[:split], k2 @ coeffs[split:]])
    assert got.shape == want.shape
    assert np.max(np.abs(projector(got) - projector(want)), initial=0.0) <= 1e-10
    if w2k1 is k1:
        # an all-zero compatibility matrix keeps its whole coefficient space
        assert got.shape[1] == split + k2.shape[1]
