"""The level-shift symbol a pair carries, against the dense routes.

A pair built from its symbols forms no dense generator until one is read.
Every route that reads the symbol (``validate``, ``cocycle_space``, the pair
star commutant and unitary equivalence) must agree with the dense route on
the same matrices, which these tests reach by hiding the symbols."""
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isorep import cocycle, repmodel
from isorep.cocycle import (
    cocycle_pair_basis,
    cocycle_space,
    index,
    probe_truncation,
    shift_pair_basis,
)
from isorep.commutant import are_unitarily_equivalent, star_intertwiner_basis
from isorep.induced import grid_cocycle_pair_basis, induce_2d
from isorep.linalg import DEFAULT_TOL, kron, nullspace
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
    validate,
)
from symbol_pairs import (
    inner_shift_pair,
    pair_star_commutant_basis,
    random_rank_projections,
    unitary,
)


@contextmanager
def dense_routes():
    """Every pair reads as having no symbol, so each route takes its dense
    solve on the matrices."""
    with mock.patch.object(IsoRep2, "symbols", property(lambda self: (None, None))):
        yield


def _deviations(rep):
    report = validate(rep)
    return [report.isometry_dev_w1, report.isometry_dev_w2, report.commutation_dev]


def _assert_same_deviations(got, dense):
    # relative to the deviation's size: a random symbol's deviation reaches
    # about 26, where an absolute 1e-14 is 3 ulp, within a change of
    # summation order
    np.testing.assert_allclose(got, dense, rtol=1e-14, atol=1e-14, equal_nan=True)


def _passing(rep):
    """A report that lets ``cocycle_space`` run on a pair that fails
    validation, with the pair's own isometry verdict, which the closed form
    reads."""
    return SimpleNamespace(ok=True, isometry_ok=validate(rep).isometry_ok)


@contextmanager
def solve_routes():
    """Spies on the closed form and on the distinct-block fallback."""
    with mock.patch.object(
        cocycle, "_closed_form_solve", wraps=cocycle._closed_form_solve
    ) as closed, mock.patch.object(
        cocycle, "_symbol_pair_solve", wraps=cocycle._symbol_pair_solve
    ) as fallback:
        yield closed, fallback


def _top_offset(blocks):
    nonzero = np.flatnonzero(blocks.any(axis=(1, 2)))
    return nonzero[-1] if len(nonzero) else 0


def _meets_the_closed_form_hypotheses(rep):
    """The symbol passes the isometry test, L ≥ 2·top + 1, and top < L −
    guard, so the test reads every lag of the symbol Gram (the second
    follows from the third, as top ≤ guard)."""
    tr, top = rep.trunc, _top_offset(rep.pair_symbol)
    return validate(rep).isometry_ok and tr.L >= 2 * top + 1 and top < tr.L - tr.guard


def _projector(basis):
    return basis @ basis.conj().T


def _stacked(space):
    stacked = np.array([c.stacked() for c in space.basis], dtype=complex)
    return stacked.reshape(-1, 2 * space.rep.dim).T


def _from_blocks(blocks, L):
    shift = truncated_shift(L)
    return sum(kron(a, np.linalg.matrix_power(shift, k)) for k, a in enumerate(blocks))


def _random_symbol(draw, rng, n, guard):
    """Random blocks on a random set of offsets 0 … guard, or unitaries
    weighted by a unit vector, whose Gram blocks vanish only at lag 0."""
    offsets = draw(st.sets(st.integers(0, guard), min_size=1))
    blocks = np.zeros((guard + 1, n, n), dtype=complex)
    if draw(st.booleans()):
        weights = rng.normal(size=len(offsets))
        for k, c in zip(sorted(offsets), weights / np.linalg.norm(weights)):
            blocks[k] = c * unitary(rng, n)
    else:
        for k in offsets:
            blocks[k] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return blocks


@st.composite
def route_pairs(draw):
    """Symbol-carrying pairs (family pairs built from their symbols, random
    inner-symbol pairs, random symbols, most of which make no isometry pair)
    and pairs off the level shift (a family beyond its guard, a
    reparametrization, a perturbed W2, a NaN entry)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    kind = draw(
        st.sampled_from(
            ["family", "inner", "symbols", "beyond_guard", "reparametrized", "perturbed", "nan"]
        )
    )
    if kind == "inner":
        factors = draw(st.integers(1, 3))
        guard = factors + draw(st.integers(0, 1))
        return inner_shift_pair(rng, n, factors, guard, draw(st.integers(1, factors + 1)))
    if kind == "symbols":
        guard = draw(st.integers(1, 3))
        trunc = TruncationParams(n, guard + draw(st.integers(1, 2 * guard + 3)), guard)
        w1 = np.zeros((guard + 1, n, n))
        w1[1] = np.eye(n)
        symbols = [
            w1 if draw(st.booleans()) else _random_symbol(draw, rng, n, guard),
            _random_symbol(draw, rng, n, guard),
        ]
        return IsoRep2(*(_from_blocks(a, trunc.L) for a in symbols), trunc)
    fam = ProjectionFamily(
        projections=random_rank_projections(rng, n),
        unitary=unitary(rng, n, int(rng.integers(0, n + 1))),
    )
    if kind == "beyond_guard":
        fam = reflection_family(np.full(n + 2, 1 / np.sqrt(n + 2)))
        return build_projection_family_rep(fam, TruncationParams(n + 2, n + 6, max(n, 1)))
    guard = max(fam.d - 1, 1) + draw(st.integers(0, 1))
    rep = build_projection_family_rep(fam, TruncationParams(n, fam.d + guard + 3, guard))
    if kind == "reparametrized":
        rep = reparametrize(rep, (1, 1), (2, 1))
    elif kind == "perturbed":
        rep = IsoRep2(rep.W1, rep.W2 + 1e-3 * rng.normal(size=rep.W2.shape), rep.trunc)
    elif kind == "nan":
        w2 = rep.W2.copy()
        w2[int(rng.integers(rep.dim)), int(rng.integers(rep.dim))] = np.nan
        rep = IsoRep2(rep.W1, w2, rep.trunc)
    return rep


def _top_offset_pair(n=2, guard=2):
    """W1 = A ⊗ S^g and W2 = B ⊗ S^g: the commutator's one nonzero block
    sits 2g levels down."""
    rng = np.random.default_rng(0)
    trunc = TruncationParams(n, 3 * guard + 2, guard)
    blocks = np.zeros((2, guard + 1, n, n), dtype=complex)
    blocks[:, guard] = rng.normal(size=(2, n, n))
    return IsoRep2(*(_from_blocks(a, trunc.L) for a in blocks), trunc)


def _reparam_preset_pair():
    """The reparam preset's (1, 1), (2, 1) pair: two symbols, W1 not the
    shift."""
    base = build_reflection_rep(np.full(4, 0.5), TruncationParams(4, 16, 3))
    rep = reparametrize(base, (1, 1), (2, 1))
    assert all(s is not None for s in rep.symbols) and not rep.w1_is_shift
    return rep


@settings(max_examples=150, deadline=None)
@given(route_pairs())
@example(_top_offset_pair())
@example(_reparam_preset_pair())
def test_symbol_routes_match_the_dense_routes(rep):
    wrapped = IsoRep2(W1=rep.W1, W2=rep.W2, trunc=rep.trunc)
    for carried, read in zip(rep.symbols, wrapped.symbols):
        assert (carried is None) == (read is None)
        assert carried is None or np.array_equal(carried, read)
    got = _deviations(rep)
    with dense_routes():
        dense = _deviations(wrapped)
    _assert_same_deviations(got, dense)
    if not validate(rep).ok:
        return
    space = cocycle_space(rep)
    commutant = len(pair_star_commutant_basis(rep))
    with dense_routes():
        reference = cocycle_space(wrapped)
        dense_commutant = len(pair_star_commutant_basis(wrapped))
    assert (space.dim, space.discarded) == (reference.dim, reference.discarded)
    distance = np.abs(_projector(_stacked(space)) - _projector(_stacked(reference)))
    assert np.max(distance, initial=0.0) <= 1e-10
    assert commutant == dense_commutant


@st.composite
def shift_w1_pairs(draw):
    """Pairs whose W1 is exactly 1 ⊗ S: family pairs built from their
    symbols, random inner-symbol pairs, W2 = 0, W2 of random blocks on a
    random set of offsets up to the guard, the top one included, and the
    grid pairs of small family pairs at M = 2, 3. The truncations reach
    L < 2·guard + 1 and guard = L − 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["family", "inner", "zero", "offsets", "grid"]))
    if kind == "inner":
        factors = draw(st.integers(1, 3))
        guard = factors + draw(st.integers(0, 1))
        return inner_shift_pair(rng, n, factors, guard, draw(st.integers(1, factors + 1)))
    if kind in ("family", "grid"):
        n = min(n, 2) if kind == "grid" else n
        fam = ProjectionFamily(
            projections=random_rank_projections(rng, n),
            unitary=unitary(rng, n, int(rng.integers(0, n + 1))),
        )
        guard = max(fam.d - 1, 1) + draw(st.integers(0, 3))
        rep = build_projection_family_rep(
            fam, TruncationParams(n, fam.d + guard + draw(st.integers(0, 3)), guard)
        )
        return rep if kind == "family" else induce_2d(rep, draw(st.integers(2, 3))).pair
    guard = draw(st.integers(1, 3))
    trunc = TruncationParams(n, guard + draw(st.integers(1, 2 * guard + 3)), guard)
    blocks = np.zeros((guard + 1, n, n), dtype=complex)
    if kind == "offsets":
        blocks = _random_symbol(draw, rng, n, guard)
        if draw(st.booleans()):
            blocks[guard] = unitary(rng, n)
    return IsoRep2(kron(np.eye(n), truncated_shift(trunc.L)), _from_blocks(blocks, trunc.L), trunc)


def _zero_w2_pair(n=2, L=4):
    """W2 = 0 with guard L − 1: one interior level."""
    trunc = TruncationParams(n, L, L - 1)
    return IsoRep2(kron(np.eye(n), truncated_shift(L)), np.zeros((n * L, n * L)), trunc)


def _first_kernel_system(solve):
    """The matrix of the first ``nullspace`` call that solve() makes."""
    systems = []

    def spy(a, *args, **kwargs):
        systems.append(a)
        return nullspace(a, *args, **kwargs)

    with mock.patch.object(cocycle, "nullspace", side_effect=spy):
        solve()
    return systems[0]


def _assert_same_span(got, want):
    assert got.shape == want.shape
    assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(_projector(got) - _projector(want)), initial=0.0) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(shift_w1_pairs())
@example(_zero_w2_pair())
# a reflection pair at L = 10 < 2·guard + 1
@example(build_reflection_rep(np.full(4, 0.5), TruncationParams(4, 10, 6)))
def test_symbol_solve_matches_the_dense_pair_basis_and_guard_filter(rep):
    tr = rep.trunc
    a1, a2 = rep.symbols
    assert rep.pair_symbol is a2 is not None
    full = cocycle_pair_basis(rep.W1, rep.W2)
    isometric = validate(rep).isometry_ok
    with solve_routes() as (closed, fallback):
        _assert_same_span(cocycle._pair_basis(rep, DEFAULT_TOL, isometric), full)
    assert closed.call_count + fallback.call_count == 1
    if fallback.called:
        # the weighted stack of distinct level blocks has the Gram of the
        # N×n system W2*·eta01, so the same singular values and right
        # vectors; most random symbols have no cocycle, which the spans
        # alone would not test
        stack = _first_kernel_system(lambda: cocycle._pair_basis(rep, DEFAULT_TOL, isometric))
        dense = _first_kernel_system(lambda: shift_pair_basis(rep.W2, tr.L))
        want = dense.conj().T @ dense
        atol = 1e-13 * max(1.0, np.abs(want).max())
        np.testing.assert_allclose(stack.conj().T @ stack, want, rtol=0.0, atol=atol)
    # the guard filter of the dense reference, against cocycle_space on C^n,
    # which also runs on pairs that fail validation
    guard_rows = full[~np.tile(tr.level_mask(), 2)]
    inner = full @ nullspace(guard_rows, scale=1.0) if full.shape[1] else full
    with mock.patch.object(cocycle, "validate", return_value=_passing(rep)):
        space = cocycle_space(rep)
    discarded = full.shape[1] - inner.shape[1]
    assert (space.dim, space.stable, space.discarded) == (inner.shape[1], discarded == 0, discarded)
    _assert_same_span(_stacked(space), inner)
    report = validate(rep)
    with dense_routes():
        dense = _deviations(IsoRep2(rep.W1, rep.W2, tr))
    _assert_same_deviations(_deviations(rep), dense)
    assert report.isometry_dev_w1 == report.commutation_dev == 0.0
    # the route of two symbols gives the same report
    assert report == repmodel.ValidationReport(
        repmodel._gram_isometry_deviation(rep.gram_diagonals(0), tr),
        repmodel._gram_isometry_deviation(rep.gram_diagonals(1), tr),
        repmodel._symbol_commutation_deviation(a1, a2, tr),
        tol=DEFAULT_TOL.identity_tol,
    )


@st.composite
def closed_form_pairs(draw):
    """Level-shift pairs, with their grid when they are a grid pair: random
    inner-symbol pairs (n ≤ 6, up to 4 factors) at interiors short and long,
    family pairs, the grid pairs of small family pairs at M = 2, 3 (whose
    truncations have L ≥ 2·top + 1), and random symbols, most of which are
    not inner."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["inner", "family", "grid", "offsets"]))
    if kind == "inner":
        factors = draw(st.integers(1, 4))
        guard = factors + draw(st.integers(0, 1))
        n, interior = draw(st.integers(1, 6)), draw(st.integers(1, factors + 2))
        return inner_shift_pair(rng, n, factors, guard, interior), None
    if kind == "offsets":
        n, guard = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        trunc = TruncationParams(n, guard + draw(st.integers(1, 2 * guard + 3)), guard)
        w2 = _from_blocks(_random_symbol(draw, rng, n, guard), trunc.L)
        return IsoRep2(kron(np.eye(n), truncated_shift(trunc.L)), w2, trunc), None
    n = draw(st.integers(1, 2 if kind == "grid" else 4))
    fam = ProjectionFamily(
        projections=random_rank_projections(rng, n),
        unitary=unitary(rng, n, int(rng.integers(0, n + 1))),
    )
    guard = max(fam.d - 1, 1) + draw(st.integers(0, 2))
    rep = build_projection_family_rep(
        fam, TruncationParams(n, fam.d + guard + draw(st.integers(0, 3)), guard)
    )
    if kind == "family":
        return rep, None
    grid = induce_2d(rep, draw(st.integers(2, 3)))
    return grid.pair, grid


def _half_read_pair():
    """Θ(z) = (1 + i)/2 + (1 − i)/2·z² at L = 5, guard 3: validate reads lags
    0 and 1 only, and passes, but G_2 = −i/2, so Θ is not inner. Θ(1) = 1,
    while the truncated solve finds no cocycle."""
    trunc = TruncationParams(1, 5, 3)
    blocks = np.zeros((4, 1, 1), dtype=complex)
    blocks[0], blocks[2] = (1 + 1j) / 2, (1 - 1j) / 2
    rep = IsoRep2(truncated_shift(5), _from_blocks(blocks, 5), trunc)
    assert validate(rep).ok
    return rep, None


@settings(max_examples=150, deadline=None)
@given(closed_form_pairs())
# the reflection pair at L = 10 < 2·top + 1, whose top offset is 3
@example((build_reflection_rep(np.full(4, 0.5), TruncationParams(4, 10, 6)), None))
# L = 2·top + 1 with top = L − guard: the lag top goes unread
@example(_half_read_pair())
def test_closed_form_matches_the_dense_pair_basis_and_guard_filter(drawn):
    rep, grid = drawn
    tr = rep.trunc
    full = cocycle_pair_basis(rep.W1, rep.W2)
    guard_rows = full[~np.tile(tr.level_mask(), 2)]
    want = full @ nullspace(guard_rows, scale=1.0) if full.shape[1] else full
    discarded = full.shape[1] - want.shape[1]
    with solve_routes() as (closed, fallback), mock.patch.object(
        cocycle, "validate", return_value=_passing(rep)
    ):
        space = cocycle_space(rep)
    # the closed form exactly on the theorem's hypotheses, else the fallback
    meets = _meets_the_closed_form_hypotheses(rep)
    assert (closed.call_count, fallback.call_count) == ((1, 0) if meets else (0, 1))
    assert (space.dim, space.stable, space.discarded) == (want.shape[1], discarded == 0, discarded)
    _assert_same_span(_stacked(space), want)
    if grid is not None:
        # the grid solve reads innerness off the fiber's validation
        step = 1 / grid.M
        with solve_routes() as (closed, fallback):
            got = grid_cocycle_pair_basis(grid)
        assert (closed.call_count, fallback.call_count) == ((1, 0) if meets else (0, 1))
        _assert_same_span(got, cocycle_pair_basis(grid.V(step, 0), grid.V(0, step)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gram_isometry_deviation_is_the_product_of_the_lags_it_reads(n, guard, extra, seed):
    # block row 0 of W*W over the min(guard + 1, interior levels) lags that
    # validate reads, as its own product, even where the solve reads more:
    # BLAS may round a column differently inside a wider product
    tr = TruncationParams(n, guard + min(extra, guard + 1), guard)
    rng = np.random.default_rng(seed)
    blocks = rng.normal(size=(guard + 1, n, n)) + 1j * rng.normal(size=(guard + 1, n, n))
    rows = guard + 1
    col0 = repmodel._block_toeplitz(blocks, rows, 1)
    gram = col0.conj().T @ repmodel._block_toeplitz(blocks, rows, min(rows, tr.interior_levels))
    gram[:, :n] -= np.eye(n)
    got = repmodel._gram_isometry_deviation(repmodel._gram_diagonals(blocks, tr), tr)
    assert got == np.abs(gram).max()


def _signed(rng, n):
    v = rng.uniform(0.3, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return v / np.linalg.norm(v)


@st.composite
def reflection_rep_pairs(draw):
    """Two reflection pairs at one truncation: b flips signs of a
    (equivalent), changes one modulus or permutes the coordinates (in
    general inequivalent), or is a itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    a = _signed(rng, n)
    how = draw(st.sampled_from(["sign", "modulus", "permutation", "same"]))
    if how == "sign":
        b = a * rng.choice([-1.0, 1.0], size=n)
    elif how == "modulus":
        b = a.copy()
        b[int(rng.integers(n))] *= rng.uniform(1.5, 2.5)
        b /= np.linalg.norm(b)
    elif how == "permutation":
        b = a[rng.permutation(n)]
    else:
        b = a
    guard = n - 1 + draw(st.integers(0, 1))
    trunc = TruncationParams(n, n + guard + draw(st.integers(1, 4)), guard)
    rep_a = build_reflection_rep(a, trunc)
    return rep_a, rep_a if how == "same" else build_reflection_rep(b, trunc)


@settings(max_examples=40, deadline=None)
@given(reflection_rep_pairs())
def test_symbol_equivalence_matches_the_dense_route(pair):
    rep_a, rep_b = pair
    with mock.patch(
        "isorep.commutant.star_intertwiner_basis", wraps=star_intertwiner_basis
    ) as solve:
        verdict = are_unitarily_equivalent(rep_a, rep_b)
    # one solve, on the n×n symbol blocks
    n = rep_a.trunc.n
    assert all(np.shape(x) == (n, n) for p in solve.call_args.args[0] for x in p)
    with dense_routes():
        dense = are_unitarily_equivalent(
            IsoRep2(rep_a.W1, rep_a.W2, rep_a.trunc), IsoRep2(rep_b.W1, rep_b.W2, rep_b.trunc)
        )
    assert verdict.status == dense.status
    assert verdict.diagnostics["intertwiner_dim"] == dense.diagnostics["intertwiner_dim"]
    assert set(verdict.diagnostics) == set(dense.diagnostics)
    if verdict.status == "equivalent":
        w = verdict.witness
        pairs = ((rep_a.W1, rep_b.W1), (rep_a.W2, rep_b.W2))
        full = [np.max(np.abs(b @ w - w @ a)) for a, b in pairs]
        assert verdict.diagnostics["intertwine_0"] == 0.0
        assert verdict.diagnostics["intertwine_1"] == pytest.approx(full[1], abs=1e-14)
        assert max(full) <= DEFAULT_TOL.identity_tol


def test_pairs_at_different_truncations_take_the_dense_equivalence():
    a = np.array([0.5, 0.5, 0.5, 0.5])
    rep_a = build_reflection_rep(a, TruncationParams(4, 8, 3))
    rep_b = build_reflection_rep(a, TruncationParams(4, 8, 4))
    with mock.patch(
        "isorep.commutant.star_intertwiner_basis", wraps=star_intertwiner_basis
    ) as solve:
        assert are_unitarily_equivalent(rep_a, rep_b).status == "equivalent"
    assert [np.shape(x) for x in solve.call_args.args[0][0]] == [(32, 32)] * 2


def test_index_of_family_pairs_forms_no_dense_generator():
    # the growth probe at n = 8 solves at n = 16 (N = 576 and 640): its peak
    # stays below one N×N array
    formed = AssertionError("dense generator formed")
    fam = reflection_family(np.array([0.5, 0.5, 0.5, 0.5]))
    probe = build_projection_family_rep(truncated_infinite_reflection_family(8))
    with mock.patch.object(repmodel, "_level_scatter", side_effect=formed):
        assert index(build_projection_family_rep(fam)).to_json() == {"finite": 3}
        tracemalloc.start()
        try:
            result = index(probe).to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result == {"unbounded_with_truncation": {"dims": [7, 15]}}
    widest = probe_truncation(16, 16)
    assert peak < ((widest.L + DEFAULT_TOL.stabilization_delta) * 16) ** 2 * 16


def test_family_beyond_its_guard_validates_on_the_dense_route():
    # d − 1 = 3 offsets above guard 2 have no symbol within the guard
    rep = build_reflection_rep(np.array([0.5, 0.5, 0.5, 0.5]), TruncationParams(4, 16, 2))
    assert rep.symbols[1] is None
    with mock.patch.object(
        repmodel, "interior_isometry_deviation", wraps=repmodel.interior_isometry_deviation
    ) as dense:
        report = validate(rep)
    assert dense.call_count == 2
    mask = rep.trunc.level_mask()
    gram = rep.W2[:, mask].conj().T @ rep.W2[:, mask]
    dense = np.abs(gram - np.eye(len(gram))).max()
    assert report.isometry_dev_w2 == pytest.approx(dense, abs=1e-15)
    assert report.isometry_dev_w1 == 0.0


def test_dense_generators_of_a_symbol_pair_are_read_only():
    rep = build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2))
    for w in (rep.W1, rep.W2, *rep.symbols):
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0
    # an unchanged pair gives the same arrays on every read
    assert rep.W1 is rep.W1 and rep.W2 is rep.W2


def test_grid_block_table_is_stacked_once_per_new_row():
    grid = induce_2d(build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2)), 2)
    _, first = grid.cells(0.5, 0)
    table = grid._table(1)
    grid.cells(0.5, 0)
    assert grid._table(1) is table
    _, second = grid.cells(1, 1)
    assert len(grid._table(1)) > len(table)
    assert np.array_equal(grid._table(1)[: len(table)], table)
    assert np.array_equal(grid.cells(0.5, 0)[1], first)
