"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""
import json

import numpy as np
import pytest

from isorep.cocycle import (
    cocycle_space,
    extend_cocycle,
    index,
    index_formula_projection_family,
    restrict_to_subsemigroup,
)
from isorep.commutant import (
    are_unitarily_equivalent,
    is_irreducible,
    structured_commutant_dim,
    truncated_commutant_oracle,
)
from isorep.induced import (
    adjoint_1d,
    adjoint_2d,
    grid_cocycle_space_1d,
    induce_1d,
    induce_2d,
    induced_commutant_check_2d,
    lift_cocycle_1d,
    shift_fiber,
)
from isorep.linalg import ToleranceConfig, nullspace
from isorep.repmodel import (
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
    reflection_family,
    reparametrize,
    truncated_infinite_reflection_family,
)
from isorep.suites import seeded_random_family, verify_suite

TOL = ToleranceConfig(rank_tol=1e-9, identity_tol=1e-10, stabilization_delta=4)
EX2_VECTOR = np.array([0.5, 0.5, 0.5, 0.5])


def announce(num, text):
    print(f"\nACCEPTANCE {num}: {text} ... PASS")


def ten_random_families():
    rng = np.random.default_rng(0)
    families = []
    for _ in range(10):
        n = int(rng.integers(2, 6))
        families.append(seeded_random_family(rng, n))
    return families


def test_criterion_1_example2_reproduction():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3), TOL)
    result = index(rep, TOL)  # solves at L=8 and L=12
    assert result.kind == "finite"
    assert result.value == 3
    assert result.dims == (3, 3)
    fam = rep.family
    assert structured_commutant_dim(fam, TOL) == 1
    assert is_irreducible(fam, TOL) is True
    announce(1, "reflection family n=4 has index 3 (stable at L=8,12) and scalar commutant")


def test_criterion_2_index_formula_random_families():
    for fam in ten_random_families():
        rep = build_projection_family_rep(fam, tol=TOL)
        space = cocycle_space(rep, TOL)
        assert space.dim == index_formula_projection_family(fam, TOL)
        assert space.stable
    announce(2, "cocycle dimension equals dim ker(U-1) for 10 seeded unitaries (n <= 5)")


def test_criterion_3_commutant_formula_random_families():
    for fam in ten_random_families():
        n = fam.n
        rep16 = build_projection_family_rep(
            fam, TruncationParams(n, 16, min(2 * n, 15 - n)), TOL
        )
        assert truncated_commutant_oracle(rep16, TOL) == structured_commutant_dim(fam, TOL)
    announce(3, "truncated commutant oracle matches the structured dimension at L=16")


def test_criterion_4_example2_inequivalence():
    fam_a = reflection_family(EX2_VECTOR, TOL)
    b = np.array([0.8, 0.1, 0.1, 0.1])
    fam_b = reflection_family(b / np.linalg.norm(b), TOL)
    verdict = are_unitarily_equivalent(fam_a, fam_b, TOL)
    assert verdict.status == "inequivalent"
    assert verdict.diagnostics["intertwiner_dim"] == 0
    announce(4, "moduli-mismatched reflection vectors are inequivalent (empty intertwiner space)")


def test_criterion_5_infinite_family_growth():
    fam8 = truncated_infinite_reflection_family(8, tol=TOL)
    rep8 = build_projection_family_rep(fam8, tol=TOL)
    result = index(rep8, TOL)
    assert result.kind == "unbounded_with_truncation"
    assert tuple(result.dims) == (7, 15)
    announce(5, "size-8 and size-16 snapshots give indices 7 and 15: growth, not a finite index")


def test_criterion_6_subsemigroup_invariance():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 16, 3), TOL)
    sub = reparametrize(rep, (1, 1), (2, 1))

    base_index = index(rep, TOL)
    sub_index = index(sub, TOL)
    assert base_index.kind == sub_index.kind == "finite"
    assert base_index.value == sub_index.value == 3

    assert structured_commutant_dim(rep.family, TOL) == 1
    assert truncated_commutant_oracle(sub, TOL) == 1

    for c in cocycle_space(rep, TOL).basis:
        values = restrict_to_subsemigroup(c, rep, (1, 1), (2, 1), TOL)
        back = extend_cocycle(rep, (1, 1), (2, 1), values, TOL)
        assert np.max(np.abs(back.stacked() - c.stacked())) <= 1e-10
    announce(6, "passing to the (1,1),(2,1) sub-semigroup preserves index 3 and the "
                "scalar commutant; extend-after-restrict returns each basis pair")


def test_criterion_7_induced_1d_dimensions():
    m_cells = 4
    for mult in (1, 2, 3):
        sigma, interior = shift_fiber(mult, levels=8, guard=2)
        grid = induce_1d(sigma, m_cells, interior)
        assert grid_cocycle_space_1d(grid, 2, TOL) == mult
        kernel = nullspace(sigma.conj().T, TOL)
        for col in range(kernel.shape[1]):
            lift = lift_cocycle_1d(kernel[:, col], grid, TOL)
            for j in range(2 * m_cells + 1):
                for k in range(2 * m_cells + 1 - j):
                    if j + k:
                        a, b = (j / m_cells,), (k / m_cells,)
                        assert lift.additivity_residual(a, b) <= 1e-10
    announce(7, "grid cocycle space has dimension m for shift multiplicity m in {1,2,3}; "
                "lifted cocycles are additive at every grid pair within horizon 2")


def test_criterion_8_induced_operator_identities():
    m_cells = 8
    rng = np.random.default_rng(0)

    sigma, interior = shift_fiber(2, levels=8, guard=2)
    grid = induce_1d(sigma, m_cells, interior)
    p = np.diag(np.tile(interior, m_cells).astype(complex))
    eye = np.eye(grid.dim)
    ker_dim = nullspace(sigma.conj().T, TOL).shape[1]
    for j in range(1, 2 * m_cells + 1):
        t = j / m_cells
        v = grid.V(t)
        assert np.max(np.abs(adjoint_1d(grid, t) - v.conj().T)) <= 1e-12
        assert np.max(np.abs(p @ (v.conj().T @ v - eye) @ p)) <= 1e-12
        for k in range(2 * m_cells + 1 - j):
            assert np.array_equal(v @ grid.V(k / m_cells), grid.V((j + k) / m_cells))
    for j in range(1, m_cells):
        got = nullspace(grid.V(j / m_cells).conj().T, TOL).shape[1]
        assert got == j * ker_dim
    for _ in range(20):
        xi = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
        eta = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
        t = 3 / m_cells
        assert abs(np.vdot(eta, adjoint_1d(grid, t) @ xi) - np.vdot(grid.V(t) @ eta, xi)) <= 1e-12

    rep = build_reflection_rep(
        np.array([1.0, 1.0]) / np.sqrt(2), TruncationParams(2, 8, 2), TOL
    )
    grid2 = induce_2d(rep, m_cells)
    for s, t in [(3 / 8, 5 / 8), (1 / 8, 7 / 8), (1, 5 / 8), (7 / 8, 0)]:
        assert np.max(np.abs(adjoint_2d(grid2, s, t) - grid2.V(s, t).conj().T)) <= 1e-12
    announce(8, "adjoint formulas equal conjugate transposes (1e-12), semigroup law exact, "
                "interior isometry holds, and adjoint kernels have dimension (tM)*dim ker sigma*")


def test_criterion_9_induced_2d_commutant():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3), TOL)
    report = induced_commutant_check_2d(induce_2d(rep, 2), TOL)
    assert report.tensor_direction_ok
    assert report.generic_direction_ok
    assert report.structured_dim == 1
    assert report.grid_commutant_dim == 1
    announce(9, "both inclusions between the grid commutant and the ampliated base "
                "commutant hold with dimension 1 for the n=4 reflection family at M=2")


def test_criterion_10_determinism():
    for preset in ("example2", "projection_random"):
        first = verify_suite(preset, TOL, seed=42).to_json()
        second = verify_suite(preset, TOL, seed=42).to_json()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert first["passed"] is True
    announce(10, "repeated verification runs with a fixed seed produce identical reports")
