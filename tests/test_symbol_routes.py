"""The level-shift symbol a pair carries, against the dense routes.

A pair built from its symbols forms no dense generator until one is read.
Every route that reads the symbol (``validate``, ``cocycle_space``, the pair
star commutant and unitary equivalence) must agree with the dense route on
the same matrices, which these tests reach by hiding the symbols."""
import tracemalloc
from contextlib import contextmanager
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
from isorep.induced import induce_2d
from isorep.linalg import DEFAULT_TOL, kron
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


@settings(max_examples=150, deadline=None)
@given(route_pairs())
@example(_top_offset_pair())
def test_symbol_routes_match_the_dense_routes(rep):
    wrapped = IsoRep2(W1=rep.W1, W2=rep.W2, trunc=rep.trunc)
    for carried, read in zip(rep.symbols, wrapped.symbols):
        assert (carried is None) == (read is None)
        assert carried is None or np.array_equal(carried, read)
    got = _deviations(rep)
    with dense_routes():
        dense = _deviations(wrapped)
    np.testing.assert_allclose(got, dense, rtol=0.0, atol=1e-14, equal_nan=True)
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
    symbols, random inner-symbol pairs, W2 = 0, and W2 of random blocks on a
    random set of offsets up to the guard, the top one included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["family", "inner", "zero", "offsets"]))
    if kind == "inner":
        factors = draw(st.integers(1, 3))
        guard = factors + draw(st.integers(0, 1))
        return inner_shift_pair(rng, n, factors, guard, draw(st.integers(1, factors + 1)))
    if kind == "family":
        fam = ProjectionFamily(
            projections=random_rank_projections(rng, n),
            unitary=unitary(rng, n, int(rng.integers(0, n + 1))),
        )
        guard = max(fam.d - 1, 1) + draw(st.integers(0, 1))
        return build_projection_family_rep(fam, TruncationParams(n, fam.d + guard + 3, guard))
    guard = draw(st.integers(1, 3))
    trunc = TruncationParams(n, guard + draw(st.integers(1, 2 * guard + 3)), guard)
    blocks = np.zeros((guard + 1, n, n), dtype=complex)
    if kind == "offsets":
        blocks = _random_symbol(draw, rng, n, guard)
        if draw(st.booleans()):
            blocks[guard] = unitary(rng, n)
    return IsoRep2(kron(np.eye(n), truncated_shift(trunc.L)), _from_blocks(blocks, trunc.L), trunc)


@settings(max_examples=150, deadline=None)
@given(shift_w1_pairs())
def test_level_zero_columns_and_the_exact_shift_match_the_dense_routes(rep):
    tr = rep.trunc
    a1, a2 = rep.symbols
    assert rep.pair_symbol is a2 is not None
    # level ℓ of W2's level-0 column h is A_ℓ e_h
    assert np.array_equal(cocycle._symbol_columns(a2, tr.L), rep.W2[:, :: tr.L])
    want = cocycle_pair_basis(rep.W1, rep.W2)
    for got in (
        cocycle._pair_basis(rep, DEFAULT_TOL),
        shift_pair_basis(rep.W2[:, :: tr.L], lambda x: rep.W2.conj().T @ x),
    ):
        assert got.shape == want.shape
        assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), rtol=0.0, atol=1e-12)
        assert np.max(np.abs(_projector(got) - _projector(want)), initial=0.0) <= 1e-10
    report = validate(rep)
    with dense_routes():
        dense = _deviations(IsoRep2(rep.W1, rep.W2, tr))
    np.testing.assert_allclose(_deviations(rep), dense, rtol=0.0, atol=1e-14)
    assert report.isometry_dev_w1 == report.commutation_dev == 0.0
    # the block-Toeplitz products of both generators give the same report
    assert report == repmodel.ValidationReport(
        repmodel._symbol_isometry_deviation(a1, tr),
        repmodel._symbol_isometry_deviation(a2, tr),
        repmodel._symbol_commutation_deviation(a1, a2, tr),
        tol=DEFAULT_TOL.identity_tol,
    )


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
