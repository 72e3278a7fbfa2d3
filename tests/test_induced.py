import tracemalloc
from functools import lru_cache
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorep import induced, suites
from isorep.cocycle import Cocycle2, cocycle_pair_basis, cocycle_space
from isorep.commutant import star_commutant_basis, structured_commutant_basis
from isorep.induced import (
    GridRep2,
    StepCocycle,
    adjoint_1d,
    adjoint_2d,
    discrete_cocycle_values,
    grid_adjoint_kernel,
    grid_cocycle_pair_basis,
    grid_cocycle_space_1d,
    induce_1d,
    induce_2d,
    induced_commutant_check_2d,
    lift_cocycle_1d,
    lift_cocycle_2d,
    shift_fiber,
)
from isorep.linalg import adjoint_kernel, kron, nullspace
from isorep.repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
    direct_sum_family,
    interior_isometry_deviation,
    reflection_family,
)
from isorep.suites import (
    _adjoint_check, _axis_flip_check, _grid_times, _semigroup_check, induce_report, verify_suite
)

EX2_VECTOR = np.array([0.5, 0.5, 0.5, 0.5])


def coord_projections(n):
    return tuple(np.diag([1.0 + 0j if i == j else 0.0 for i in range(n)]) for j in range(n))


def small_rep(L=8, guard=2):
    return build_reflection_rep(np.array([1.0, 1.0]) / np.sqrt(2), TruncationParams(2, L, guard))


# --- dense reference ---------------------------------------------------------------
# The cell loops and kron products that assembled every translation before the
# library built them all from one cell map; the fast path is checked against them.


def _induced_matrix(sigma, m, j):
    """Translation by j/m: cell c reads cell c+r with sigma^q, or wraps to
    c+r-m with one extra sigma factor, where j = q·m + r."""
    f = sigma.shape[0]
    q, r = divmod(j, m)
    sq = np.linalg.matrix_power(sigma, q)
    sq1 = sigma @ sq
    out = np.zeros((m * f, m * f), dtype=complex)
    for c in range(m):
        src, block = (c + r, sq) if c + r < m else (c + r - m, sq1)
        out[c * f : (c + 1) * f, src * f : (src + 1) * f] = block
    return out


def _adjoint_formula_matrix(sigma, m, j):
    """The adjoint from its region description: cell c reads from c-r with
    sigma*^q; the wrapping cells c < r read c+m-r with sigma*^(q+1)."""
    f = sigma.shape[0]
    q, r = divmod(j, m)
    aq = np.linalg.matrix_power(sigma, q).conj().T
    aq1 = np.linalg.matrix_power(sigma, q + 1).conj().T
    out = np.zeros((m * f, m * f), dtype=complex)
    for c in range(m):
        src, block = (c + m - r, aq1) if c < r else (c - r, aq)
        out[c * f : (c + 1) * f, src * f : (src + 1) * f] = block
    return out


def _reference_v2(rep, m, j1, j2):
    """V(j1/m, j2/m) as the product of its kron-assembled x and y components."""
    x = _induced_matrix(kron(np.eye(m), rep.W1), m, j1)
    y = kron(np.eye(m), _induced_matrix(rep.W2, m, j2))
    return x @ y


def _reference_step_1d(eta, m, j):
    n, r = divmod(j, m)
    return np.concatenate([eta[n] if c < m - r else eta[n + 1] for c in range(m)])


def _reference_step_2d(lift, m, j1, j2):
    q1, r1 = divmod(j1, m)
    q2, r2 = divmod(j2, m)
    return np.concatenate(
        [
            lift.lattice_value(q1 + (cx >= m - r1), q2 + (cy >= m - r2))
            for cx in range(m)
            for cy in range(m)
        ]
    )


# --- 1-d construction -------------------------------------------------------------


def test_v_zero_is_identity():
    sigma, mask = shift_fiber(2, 8)
    grid = induce_1d(sigma, 4, mask)
    assert np.array_equal(grid.V(0), np.eye(grid.dim))


def test_v_one_is_ampliated_sigma():
    sigma, mask = shift_fiber(2, 8)
    grid = induce_1d(sigma, 4, mask)
    assert np.array_equal(grid.V(1), kron(np.eye(4), sigma))


def test_half_step_squares_to_unit_step():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    assert np.array_equal(grid.V(0.5) @ grid.V(0.5), grid.V(1.0))


def test_semigroup_law_exact_at_grid_times():
    sigma, mask = shift_fiber(2, 8)
    grid = induce_1d(sigma, 4, mask)
    for j in range(9):
        for k in range(9 - j):
            prod = grid.V(j / 4) @ grid.V(k / 4)
            assert np.array_equal(prod, grid.V((j + k) / 4))


@pytest.mark.parametrize("m", [2.5, 2.0, "3"])
def test_rejects_non_integer_cell_count(m):
    sigma, mask = shift_fiber(1, 8)
    with pytest.raises(ValueError, match="M"):
        induce_1d(sigma, m, mask)
    with pytest.raises(ValueError, match="M"):
        induce_2d(small_rep(), m)


def test_numpy_integer_cell_count_is_accepted():
    sigma, mask = shift_fiber(1, 8)
    assert induce_1d(sigma, np.int64(3), mask).dim == 3 * 8
    assert induce_2d(small_rep(), np.int32(3)).dim == 9 * 16


def test_rejects_offgrid_times_and_tiny_grids():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    with pytest.raises(ValueError, match="grid"):
        grid.V(1 / 3)
    with pytest.raises(ValueError, match="cells"):
        induce_1d(sigma, 1)


def test_induce_1d_rejects_a_mask_of_the_wrong_shape():
    sigma, mask = shift_fiber(1, 8)
    with pytest.raises(ValueError, match=r"fiber_interior has shape \(5,\), not \(8,\)"):
        induce_1d(sigma, 4, mask[:5])


def test_induce_1d_reads_an_integer_mask_as_booleans():
    # a 0/1 mask must select coordinates, not index columns 0 and 1
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask.astype(int))
    assert grid.fiber_interior.dtype == bool
    assert np.array_equal(grid.fiber_interior, mask)
    assert grid.isometry_deviation((0.25,), grid.fiber_interior) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_induce_1d_rejects_non_finite_sigma(bad):
    sigma, mask = shift_fiber(1, 8)
    sigma[2, 1] = bad
    with pytest.raises(ValueError, match="sigma has non-finite entries"):
        induce_1d(sigma, 4, mask)


# --- 1-d adjoint -------------------------------------------------------------------


def test_adjoint_zero_is_identity():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    assert np.array_equal(adjoint_1d(grid, 0), np.eye(grid.dim))


def test_adjoint_formula_equals_conjugate_transpose():
    sigma, mask = shift_fiber(2, 8)
    grid = induce_1d(sigma, 8, mask)
    for j in range(0, 17):
        t = j / 8
        assert np.array_equal(adjoint_1d(grid, t), grid.V(t).conj().T)


def test_adjoint_pairing_on_random_vectors():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 8, mask)
    rng = np.random.default_rng(2)
    t = 3 / 8
    for _ in range(20):
        xi = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
        eta = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
        lhs = np.vdot(eta, adjoint_1d(grid, t) @ xi)
        rhs = np.vdot(grid.V(t) @ eta, xi)
        assert abs(lhs - rhs) <= 1e-12


def test_kernel_of_adjoint_description():
    # members vanish below the wrap cell and take kernel values above it
    sigma, mask = shift_fiber(1, 8)
    m_cells = 4
    grid = induce_1d(sigma, m_cells, mask)
    ker_sigma = nullspace(sigma.conj().T)
    f = grid.fiber_dim
    for j in (1, 2, 3):
        t = j / m_cells
        basis = nullspace(grid.V(t).conj().T)
        assert basis.shape[1] == j * ker_sigma.shape[1]
        # description -> kernel
        for cell in range(m_cells - j, m_cells):
            for col in range(ker_sigma.shape[1]):
                vec = np.zeros(grid.dim, dtype=complex)
                vec[cell * f : (cell + 1) * f] = ker_sigma[:, col]
                assert np.max(np.abs(grid.V(t).conj().T @ vec)) <= 1e-12
        # kernel -> description
        low = basis[: (m_cells - j) * f, :]
        assert np.max(np.abs(low)) <= 1e-12
        for cell in range(m_cells - j, m_cells):
            block = basis[cell * f : (cell + 1) * f, :]
            proj = ker_sigma @ (ker_sigma.conj().T @ block)
            assert np.max(np.abs(block - proj)) <= 1e-12


def test_interior_isometry_and_range_projection():
    sigma, mask = shift_fiber(2, 8)
    grid = induce_1d(sigma, 4, mask)
    p = np.diag(np.tile(mask, 4).astype(complex))
    eye = np.eye(grid.dim)
    for j in (1, 2, 3, 4, 6):
        v = grid.V(j / 4)
        assert np.max(np.abs(p @ (v.conj().T @ v - eye) @ p)) <= 1e-12
        q = v @ v.conj().T
        assert np.max(np.abs(p @ (q @ q - q) @ p)) <= 1e-12


# --- 1-d cocycles -------------------------------------------------------------------


def test_lift_zero_time_is_zero():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    lift = lift_cocycle_1d(nullspace(sigma.conj().T)[:, 0], grid)
    assert np.max(np.abs(lift.at(0))) == 0.0


def test_lift_half_step_cell_values():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    eta1 = nullspace(sigma.conj().T)[:, 0]
    out = lift_cocycle_1d(eta1, grid).at(0.5)
    f = grid.fiber_dim
    cells = [out[c * f : (c + 1) * f] for c in range(4)]
    assert np.max(np.abs(cells[0])) == 0.0
    assert np.max(np.abs(cells[1])) == 0.0
    assert np.allclose(cells[2], eta1)
    assert np.allclose(cells[3], eta1)


def test_lift_additivity():
    sigma, mask = shift_fiber(2, 8)
    grid = induce_1d(sigma, 4, mask)
    kernel = nullspace(sigma.conj().T)
    for col in range(kernel.shape[1]):
        lift = lift_cocycle_1d(kernel[:, col], grid)
        assert lift.additivity_residual((0.5,), (0.75,)) <= 1e-12
        for j in range(5):
            for k in range(5):
                if 0 < j + k <= 8:
                    assert lift.additivity_residual((j / 4,), (k / 4,)) <= 1e-10


def test_lift_rejects_invalid_values():
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    eta1 = nullspace(sigma.conj().T)[:, 0]
    # a table of values, a column and a truncated vector are not eta_1
    for bad in (discrete_cocycle_values(sigma, eta1, 3), eta1[:, None], eta1[1:]):
        with pytest.raises(ValueError, match="shape"):
            lift_cocycle_1d(bad, grid)
    bad = eta1.copy()
    bad[3] = 1.0  # not in ker sigma*
    with pytest.raises(ValueError, match=r"sigma\* eta_1"):
        lift_cocycle_1d(bad, grid)


@pytest.mark.parametrize("entry", [0, 1, 2])
def test_lift_rejects_non_finite_values(entry):
    # the NaN is named as such wherever it sits, on ker sigma* (entry 0) or off it
    sigma, mask = shift_fiber(1, 8)
    grid = induce_1d(sigma, 4, mask)
    eta1 = nullspace(sigma.conj().T)[:, 0]
    eta1[entry] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        lift_cocycle_1d(eta1, grid)


@pytest.mark.parametrize("mult", [1, 2, 3])
def test_grid_cocycle_dimension_matches_multiplicity(mult):
    sigma, mask = shift_fiber(mult, 8)
    grid = induce_1d(sigma, 4, mask)
    assert grid_cocycle_space_1d(grid, 2) == mult


def _stacked_grid_cocycle_dim(grid, horizon):
    """All-pairs reference over the unknowns (xi_{1/M}, …, xi_{horizon}):
    kernel rows at every grid time, additivity rows at every grid pair."""
    j_max = grid.grid_index(horizon)
    n = grid.dim
    rows = []
    for j in range(1, j_max + 1):
        block = np.zeros((n, j_max * n), dtype=complex)
        block[:, (j - 1) * n : j * n] = grid.V(j / grid.M).conj().T
        rows.append(block)
    for j in range(1, j_max):
        for k in range(1, j_max - j + 1):
            block = np.zeros((n, j_max * n), dtype=complex)
            block[:, (j + k - 1) * n : (j + k) * n] += np.eye(n)
            block[:, (j - 1) * n : j * n] -= np.eye(n)
            block[:, (k - 1) * n : k * n] -= grid.V(j / grid.M)
            rows.append(block)
    return nullspace(np.vstack(rows)).shape[1]


def _fiber(kind, rng):
    """A fiber isometry or contraction: truncated shifts (rotated or not),
    a unitary (isometric), or a rank-deficient matrix (not isometric)."""
    if kind.startswith("shift"):
        return shift_fiber(int(kind[-1]), 6)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    if kind == "rotated_shift":
        sigma, _ = shift_fiber(1, 4)
        return u @ sigma @ u.conj().T, None
    if kind == "unitary":
        return u, None
    return u @ np.diag([1.3, 0.4, 0.0, 0.0]) @ u.conj().T, None


FIBER_KINDS = ["shift1", "shift2", "rotated_shift", "unitary", "rank_deficient"]


@pytest.mark.parametrize("kind", [*FIBER_KINDS, "shift3"])
@pytest.mark.parametrize("m, horizon", [(2, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_grid_cocycle_solve_matches_all_pairs_system(kind, m, horizon):
    sigma, mask = _fiber(kind, np.random.default_rng(m * 10 + horizon))
    grid = induce_1d(sigma, m, mask)
    assert grid_cocycle_space_1d(grid, horizon) == _stacked_grid_cocycle_dim(grid, horizon)


def test_grid_cocycle_dimension_unitary_sigma():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(z)
    grid = induce_1d(q, 4)
    assert grid_cocycle_space_1d(grid, 2) == 0


def _assert_matches(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(FIBER_KINDS), m=st.sampled_from([2, 3, 4]), data=st.data())
def test_1d_translations_match_dense_reference(kind, m, data):
    j = data.draw(st.integers(0, 3 * m), label="j")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    sigma, mask = _fiber(kind, rng)
    grid = induce_1d(sigma, m, mask)
    exact = kind.startswith("shift")
    _assert_matches(grid.V(j / m), _induced_matrix(grid.sigma, m, j), exact)
    _assert_matches(adjoint_1d(grid, j / m), _adjoint_formula_matrix(grid.sigma, m, j), exact)
    eta = rng.normal(size=(5, grid.fiber_dim)) + 1j * rng.normal(size=(5, grid.fiber_dim))
    step = StepCocycle(grid, lambda k: eta[k])
    assert np.array_equal(step.at(j / m), _reference_step_1d(eta, m, j))


# --- 2-d construction ----------------------------------------------------------------


def test_2d_time_zero_is_identity():
    grid = induce_2d(small_rep(), 2)
    assert np.array_equal(grid.V(0, 0), np.eye(grid.dim))


def test_2d_unit_times_are_ampliations():
    rep = small_rep()
    grid = induce_2d(rep, 2)
    expected = kron(np.eye(4), rep.W1 @ rep.W2)
    assert np.max(np.abs(grid.V(1, 0) @ grid.V(0, 1) - expected)) == 0.0
    assert np.max(np.abs(grid.V(1, 1) - expected)) == 0.0


def test_2d_generators_commute():
    grid = induce_2d(small_rep(), 2)
    a, b = grid.V(0.5, 0), grid.V(0, 0.5)
    assert np.max(np.abs(a @ b - b @ a)) == 0.0


def test_2d_adjoint_region_formula():
    rep = small_rep()
    grid = induce_2d(rep, 8)
    for s, t in [(3 / 8, 5 / 8), (0, 0), (1 / 8, 0), (7 / 8, 7 / 8), (1, 3 / 8)]:
        assert np.max(np.abs(adjoint_2d(grid, s, t) - grid.V(s, t).conj().T)) <= 1e-12


def test_2d_flip_identity():
    rep = small_rep()
    m_cells = 4
    grid = induce_2d(rep, m_cells)
    # the coordinate swap (x, y) ↦ (y, x) on cells, identity on fibers
    swapped = np.arange(m_cells**2).reshape(m_cells, m_cells).T.ravel()
    flip = kron(np.eye(m_cells**2)[swapped], np.eye(rep.dim))
    g1 = induce_1d(rep.W1, m_cells)
    g2 = induce_1d(rep.W2, m_cells)
    for j in range(m_cells + 1):
        s = j / m_cells
        lhs = flip @ kron(np.eye(m_cells), g1.V(s)) @ flip
        assert np.max(np.abs(lhs - grid.V(s, 0))) == 0.0
        assert np.max(np.abs(kron(np.eye(m_cells), g2.V(s)) - grid.V(0, s))) == 0.0


@lru_cache(maxsize=None)
def _reflection_pair(n, seed):
    """A seeded reflection pair and one cocycle of it."""
    a = np.random.default_rng(seed).normal(size=n)
    rep = build_reflection_rep(a / np.linalg.norm(a), TruncationParams(n, 8, n - 1))
    return rep, cocycle_space(rep).basis[0]


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 7),
    m=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_2d_translations_match_dense_reference(n, seed, m, data):
    j1 = data.draw(st.integers(0, 2 * m), label="j1")
    j2 = data.draw(st.integers(0, 2 * m), label="j2")
    rep, cocycle = _reflection_pair(n, seed)
    grid = induce_2d(rep, m)
    s, t = j1 / m, j2 / m
    want = _reference_v2(rep, m, j1, j2)
    assert np.array_equal(grid.V(s, t), want)
    assert np.array_equal(adjoint_2d(grid, s, t), want.conj().T)
    lift = lift_cocycle_2d(cocycle, grid)
    assert np.array_equal(lift.at(s, t), _reference_step_2d(lift, m, j1, j2))


# --- 2-d cocycles ---------------------------------------------------------------------


def test_2d_lift_zero_time():
    rep = small_rep()
    c = cocycle_space(rep).basis[0]
    lift = lift_cocycle_2d(c, induce_2d(rep, 2))
    assert np.max(np.abs(lift.at(0, 0))) == 0.0


def test_2d_lift_half_half_cell_values():
    rep = small_rep()
    c = cocycle_space(rep).basis[0]
    lift = lift_cocycle_2d(c, induce_2d(rep, 2))
    out = lift.at(0.5, 0.5)
    f = rep.dim
    cells = {
        (cx, cy): out[(cx * 2 + cy) * f : (cx * 2 + cy + 1) * f]
        for cx in range(2)
        for cy in range(2)
    }
    assert np.max(np.abs(cells[(0, 0)])) == 0.0
    assert np.allclose(cells[(0, 1)], lift.lattice_value(0, 1))
    assert np.allclose(cells[(1, 0)], lift.lattice_value(1, 0))
    assert np.allclose(cells[(1, 1)], lift.lattice_value(1, 1))


def test_2d_lift_additivity():
    rep = small_rep()
    for c in cocycle_space(rep).basis:
        lift = lift_cocycle_2d(c, induce_2d(rep, 2))
        assert lift.additivity_residual((0.5, 0.5), (0.5, 0.5)) <= 1e-12
        for js in range(3):
            for jt in range(3):
                assert (
                    lift.additivity_residual((js / 2, jt / 2), (0.5, 1)) <= 1e-10
                )


def test_2d_lift_rejects_invalid():
    rep = small_rep()
    rng = np.random.default_rng(1)
    junk = Cocycle2(eta10=rng.normal(size=rep.dim), eta01=rng.normal(size=rep.dim))
    with pytest.raises(ValueError, match="cocycle"):
        lift_cocycle_2d(junk, induce_2d(rep, 2))


@pytest.mark.parametrize("name", ["eta10", "eta01"])
def test_2d_lift_rejects_non_finite_cocycle(name):
    # a NaN that max() would drop unless it came first must fail the lift
    rep = small_rep()
    c = cocycle_space(rep).basis[0]
    values = {"eta10": c.eta10.copy(), "eta01": c.eta01.copy()}
    values[name][3] = np.nan
    bad = Cocycle2(**values)
    assert np.isnan(bad.max_residual(rep))
    with pytest.raises(ValueError, match="not a cocycle"):
        lift_cocycle_2d(bad, induce_2d(rep, 2))


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 7),
    m=st.sampled_from([2, 3, 4]),
    data=st.data(),
)
def test_2d_lift_on_the_x_axis_is_the_1d_lift(n, seed, m, data):
    # at (s, 0) every y-cell holds eta_(k, 0), the 1-d cocycle of W1 with
    # generator eta10, on the x-cell's exponent k
    j = data.draw(st.integers(0, 2 * m), label="j")
    rep, _ = _reflection_pair(n, seed)
    grid = induce_1d(rep.W1, m)
    for c in cocycle_space(rep).basis:
        plane = lift_cocycle_2d(c, induce_2d(rep, m)).at(j / m, 0).reshape(m, m, -1)
        line = lift_cocycle_1d(c.eta10, grid).at(j / m).reshape(m, 1, -1)
        assert np.max(np.abs(plane - line)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    axes=st.sampled_from([1, 2]),
    seed=st.integers(0, 7),
    m=st.sampled_from([2, 3]),
    junk=st.booleans(),
    data=st.data(),
)
def test_cellwise_additivity_matches_dense_product(axes, seed, m, junk, data):
    # V(a) xi(b) is applied cell by cell; a junk step function (random values
    # in place of the cocycle's) has O(1) residuals that must match too
    rng = np.random.default_rng(seed)
    if axes == 1:
        sigma, mask = shift_fiber(2, 8)
        grid = induce_1d(sigma, m, mask)
        lift = lift_cocycle_1d(nullspace(sigma.conj().T)[:, 0], grid)
    else:
        rep, cocycle = _reflection_pair(2, seed)
        grid = induce_2d(rep, m)
        lift = lift_cocycle_2d(cocycle, grid)
    if junk:
        # times up to 2 read the lattice values with every exponent <= 2
        lift._values.update({e: rng.normal(size=grid.fiber_dim) for e in np.ndindex((3,) * axes)})
    a, b = ([data.draw(st.integers(0, m)) / m for _ in range(axes)] for _ in range(2))
    total = [x + y for x, y in zip(a, b)]
    dense = lift.at(*total) - (lift.at(*a) + grid.V(*a) @ lift.at(*b))
    got = lift.additivity_residual(a, b)
    assert got == pytest.approx(float(np.max(np.abs(dense))), rel=1e-14, abs=1e-15)
    if junk:
        assert got >= 0.1


# --- 2-d commutant check ----------------------------------------------------------------


def test_induced_commutant_example2():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3))
    report = induced_commutant_check_2d(induce_2d(rep, 2))
    assert report.ok
    assert report.structured_dim == report.grid_commutant_dim == 1


def test_induced_commutant_nonpure_rep_is_honestly_larger():
    # with U = 1 the second generator fixes a fiber, grid translations act as
    # commuting rotations there, and the grid commutant genuinely exceeds the
    # ampliated one: the identity's strong-purity hypothesis fails
    fam = ProjectionFamily(projections=coord_projections(2), unitary=np.eye(2, dtype=complex))
    rep = build_projection_family_rep(fam, TruncationParams(2, 8, 2))
    report = induced_commutant_check_2d(induce_2d(rep, 2))
    assert report.tensor_direction_ok
    assert report.structured_dim == 2
    assert report.grid_commutant_dim == 3
    assert not report.generic_direction_ok


def test_induced_commutant_scaled_generator_fails():
    rep = small_rep()
    bad = IsoRep2(W1=2.0 * rep.W1, W2=rep.W2, trunc=rep.trunc, family=rep.family)
    report = induced_commutant_check_2d(induce_2d(bad, 2))
    assert not report.tensor_direction_ok
    assert report.grid_isometry_residual == pytest.approx(3.0)


@pytest.mark.parametrize("name", ["W1", "W2"])
def test_induced_commutant_check_rejects_non_finite_generator(name):
    rep = small_rep()
    gens = {"W1": rep.W1.copy(), "W2": rep.W2.copy()}
    gens[name][3, 5] = np.nan
    bad = IsoRep2(W1=gens["W1"], W2=gens["W2"], trunc=rep.trunc, family=rep.family)
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        induced_commutant_check_2d(induce_2d(bad, 2))


def test_induced_commutant_requires_family():
    rep = small_rep()
    raw = IsoRep2(W1=rep.W1, W2=rep.W2, trunc=rep.trunc)
    with pytest.raises(ValueError, match="family"):
        induced_commutant_check_2d(induce_2d(raw, 2))


# --- cell-wise grid checks against the dense route -----------------------------------
# The adjoint, semigroup and tensor-direction checks read each translation as a
# source cell and a fiber block per cell; every residual must equal max|·| of
# the dense reference products, up to the order of the floating-point sums.


def _reference_adjoint_v2(rep, m, j1, j2):
    """V(j1/m, j2/m)* as the product of its region-assembled component adjoints."""
    x = _adjoint_formula_matrix(kron(np.eye(m), rep.W1), m, j1)
    y = kron(np.eye(m), _adjoint_formula_matrix(rep.W2, m, j2))
    return y @ x


def _planted_rep(n, rng):
    """A unitary that splits C^n into two invariant coordinate blocks over the
    standard projections: the commutant holds both block projections."""
    k = int(rng.integers(1, n))
    u = np.zeros((n, n), dtype=complex)
    for lo, hi in ((0, k), (k, n)):
        z = rng.normal(size=(hi - lo, hi - lo)) + 1j * rng.normal(size=(hi - lo, hi - lo))
        u[lo:hi, lo:hi] = np.linalg.qr(z)[0]
    fam = ProjectionFamily(projections=coord_projections(n), unitary=u)
    return build_projection_family_rep(fam, TruncationParams(n, 8, n - 1))


def _rotated(rep, rng):
    """The pair conjugated by Q ⊗ 1, Q a random unitary: its generators
    commute only to rounding."""
    n = rep.trunc.n
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = kron(np.linalg.qr(z)[0], np.eye(rep.trunc.L))
    w1, w2 = (u @ w @ u.conj().T for w in (rep.W1, rep.W2))
    return IsoRep2(W1=w1, W2=w2, trunc=rep.trunc, family=rep.family)


def _check_pair(kind, n, seed):
    """Library pairs (exact arithmetic), a rotated pair (commuting to rounding
    only), and two pairs whose cell blocks disagree by O(1): W2 halved on the
    bottom level (the semigroup law fails) and a W2 the family's commutant
    does not commute with (the tensor direction fails)."""
    rng = np.random.default_rng(seed)
    if kind == "planted":
        return _planted_rep(n, rng)
    rep = _reflection_pair(n, seed % 8)[0]
    if kind == "rotated":
        return _rotated(rep, rng)
    if kind == "level_scaled":
        halve = kron(np.eye(n), np.diag([0.5] + [1.0] * (rep.trunc.L - 1)))
        return IsoRep2(W1=rep.W1, W2=rep.W2 @ halve, trunc=rep.trunc, family=rep.family)
    if kind == "foreign_w2":
        planted = _planted_rep(n, rng)
        balanced = build_reflection_rep(np.ones(n) / np.sqrt(n), planted.trunc)
        return IsoRep2(W1=planted.W1, W2=balanced.W2, trunc=planted.trunc, family=planted.family)
    return rep


CHECK_PAIRS = ["reflection", "planted", "rotated", "level_scaled", "foreign_w2"]


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(CHECK_PAIRS),
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**16),
)
def test_cellwise_checks_match_dense_products(kind, n, m, seed):
    if m == 4:
        n = 2  # keeps the dense reference products small
    rep = _check_pair(kind, n, seed)
    times = _grid_times(m, 1, 2)
    idx = {ts: (round(ts[0] * m), round(ts[1] * m)) for ts in times}
    dense = {}

    def v(j1, j2):
        if (j1, j2) not in dense:
            dense[j1, j2] = _reference_v2(rep, m, j1, j2)
        return dense[j1, j2]

    adjoint = max(
        np.max(np.abs(_reference_adjoint_v2(rep, m, *idx[ts]) - v(*idx[ts]).conj().T))
        for ts in times
    )
    semigroup = max(
        np.max(np.abs(v(*idx[ts]) @ v(*idx[ts][::-1]) - v(sum(idx[ts]), sum(idx[ts]))))
        for ts in times
    )
    base = structured_commutant_basis(rep.family)
    ampliated = [kron(np.eye(m * m), kron(t0, np.eye(rep.trunc.L))) for t0 in base]
    tensor = max(
        np.max(np.abs(g @ v(*idx[ts]) - v(*idx[ts]) @ g))
        for ts in times
        if ts != (0, 0)
        for g in ampliated
    )

    grid = induce_2d(rep, m)
    got = (
        _adjoint_check(times, grid).residual,
        _semigroup_check([(ts, ts[::-1]) for ts in times], "", grid).residual,
        induced_commutant_check_2d(grid).tensor_direction_residual,
    )
    want = (adjoint, semigroup, tensor)
    if kind in ("reflection", "planted"):
        # library pairs: every block entry is one product, so both routes are exact
        assert got[:2] == want[:2] == (0.0, 0.0)
    if kind != "rotated":
        assert [g == 0.0 for g in got] == [w == 0.0 for w in want]
    # the dense products sum in another order: a residual of rounding noise (a
    # rotated pair commutes only to rounding) may differ in its last bits, and
    # may even be exactly 0.0 on one route only
    assert np.allclose(got, want, rtol=1e-14, atol=1e-15)
    if kind == "level_scaled":
        assert semigroup >= 0.25
    if kind == "foreign_w2":
        assert tensor >= 0.1


def _off_by_one_wrap(monkeypatch, mutated_sign):
    """Make the wrapped cells of V (sign +1) or of its adjoint (−1) read one
    cell too far."""
    cell_map = induced._cell_map

    def shifted(m, j, sign):
        q, source, wrapped = cell_map(m, j, sign)
        if sign == mutated_sign:
            source = np.where(wrapped == 1, (source + 1) % m, source)
        return q, source, wrapped

    monkeypatch.setattr(induced, "_cell_map", shifted)


@pytest.mark.parametrize("axes", [1, 2])
def test_mismatched_adjoint_cells_fail_as_the_dense_check(monkeypatch, axes):
    _off_by_one_wrap(monkeypatch, -1)
    m = 3
    if axes == 1:
        sigma, mask = shift_fiber(2, 8)
        grid = induce_1d(sigma, m, mask)
        adjoint = adjoint_1d
    else:
        grid = induce_2d(small_rep(), m)
        adjoint = adjoint_2d
    times = _grid_times(m, 2, axes)
    dense = max(np.max(np.abs(adjoint(grid, *ts) - grid.V(*ts).conj().T)) for ts in times)
    check = _adjoint_check(times, grid)
    assert dense >= 1.0
    assert check.residual == dense
    assert not check.passed


@pytest.mark.parametrize("axes", [1, 2])
def test_mismatched_semigroup_cells_fail_as_the_dense_check(monkeypatch, axes):
    _off_by_one_wrap(monkeypatch, 1)
    m = 3
    if axes == 1:
        sigma, mask = shift_fiber(2, 8)
        grid = induce_1d(sigma, m, mask)
    else:
        grid = induce_2d(small_rep(), m)
    times = _grid_times(m, 1, axes)
    pairs = [(a, b) for a in times for b in times]
    dense = max(
        np.max(np.abs(grid.V(*a) @ grid.V(*b) - grid.V(*map(add, a, b)))) for a, b in pairs
    )
    check = _semigroup_check(pairs, "", grid)
    assert dense >= 1.0
    assert check.residual == dense
    assert not check.passed


# --- distinct-key checks against the per-cell route ------------------------------------
# The adjoint, semigroup and axis-flip checks evaluate each distinct per-cell key
# (block, block, sources agree) once. The per-cell helpers below form and compare
# one fiber block per cell; both routes take the same block products and compare
# them entry by entry, so the residuals agree exactly.


def _cellwise_deviation(p, q) -> float:
    """max|P − Q| for translations given as (source, blocks) per cell: the
    block difference where a cell's sources agree, else both whole blocks."""
    (source_p, blocks_p), (source_q, blocks_q) = p, q
    same = (source_p == source_q)[:, None, None]
    apart = np.maximum(np.abs(blocks_p), np.abs(blocks_q))
    return float(np.max(np.where(same, np.abs(blocks_p - blocks_q), apart)))


def _transposed(source, blocks):
    """V* cell by cell: cell d reads src⁻¹(d) through B[src⁻¹(d)]*."""
    inverse = np.argsort(source)  # the cell map is a permutation
    return inverse, blocks[inverse].conj().transpose(0, 2, 1)


def _composed(g, a, b):
    """V(a)V(b) cell by cell: cell c reads src_b(src_a(c)) through B_a[c]·B_b[src_a(c)]."""
    (source_a, blocks_a), (source_b, blocks_b) = g.cells(*a), g.cells(*b)
    return source_b[source_a], blocks_a @ blocks_b[source_a]


def _cellwise_residuals(grids, times, pairs):
    """Worst adjoint and semigroup deviations over the grids, cell by cell."""
    adjoint = max(
        _cellwise_deviation(g.cells(*ts, sign=-1), _transposed(*g.cells(*ts)))
        for g in grids
        for ts in times
    )
    semigroup = max(
        _cellwise_deviation(_composed(g, a, b), g.cells(*map(add, a, b)))
        for g in grids
        for a, b in pairs
    )
    return adjoint, semigroup


def _cellwise_flip(grid):
    """x-translations against the flip conjugates of 1 ⊗ V₁(s), cell by cell."""
    m = grid.M
    line = induce_1d(grid.rep.W1, m)
    flips = []
    for (s,) in _grid_times(m, 1, 1):
        source, blocks = line.cells(s)
        conjugate = (source[:, None] * m + np.arange(m)).ravel()
        flips.append(
            _cellwise_deviation((conjugate, blocks.repeat(m, axis=0)), grid.cells(s, 0))
        )
    return max(flips)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(CHECK_PAIRS),
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_distinct_key_checks_match_cellwise_route(kind, n, m, seed, data):
    rep = _check_pair(kind, n, seed)
    sigma, mask = shift_fiber(n, 8)
    lines = [induce_1d(sigma, m, mask), induce_1d(rep.W2, m)]
    line_times = _grid_times(m, 2, 1)
    line_pairs = [(a, b) for a in line_times for b in line_times]
    grid = induce_2d(rep, m)
    times = _grid_times(m, 1, 2)
    # up to (M + 1)^4 pairs of 2-d times: a drawn subset keeps the per-cell
    # reference fast
    time_pairs = st.tuples(st.sampled_from(times), st.sampled_from(times))
    pairs = data.draw(st.lists(time_pairs, min_size=1, max_size=40))
    got = (
        _adjoint_check(line_times, *lines).residual,
        _semigroup_check(line_pairs, "", *lines).residual,
        _adjoint_check(times, grid).residual,
        _semigroup_check(pairs, "", grid).residual,
        _axis_flip_check(grid).residual,
    )
    want = (
        *_cellwise_residuals(lines, line_times, line_pairs),
        *_cellwise_residuals([grid], times, pairs),
        _cellwise_flip(grid),
    )
    assert got == want


def test_semigroup_check_forms_as_many_products_at_every_m(monkeypatch):
    # one fiber product per distinct (row_a, row_b[src_a], row_{a+b}, sources
    # agree) key, where the per-cell route forms M² products per pair of times
    products = []
    distinct = suites._distinct_deviation

    def counted(keys, left, right):
        def product(*p):
            products.append(p)
            return left(*p)

        return distinct(keys, product, right)

    monkeypatch.setattr(suites, "_distinct_deviation", counted)
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3))
    counts = []
    for m in (2, 3, 4, 6):
        products.clear()
        times = _grid_times(m, 1, 2)
        assert _semigroup_check([(ts, ts[::-1]) for ts in times], "", induce_2d(rep, m)).passed
        counts.append(len(products))
    assert counts == [14, 14, 14, 14]


# --- fiber commutant solve and per-cell kernels against the dense generators --------
# star_commutant_basis, adjoint_kernel, cocycle_pair_basis and the interior
# isometry deviation on the dense generators V(1/M, 0), V(0, 1/M) are the
# reference for the grid commutant dimension, the grid kernels and the grid
# isometry residual.


def _nonpure_rep(L=8, guard=2):
    """U = 1 over two coordinate projections: W2 fixes a fiber."""
    fam = ProjectionFamily(projections=coord_projections(2), unitary=np.eye(2, dtype=complex))
    return build_projection_family_rep(fam, TruncationParams(2, L, guard))


def _blind_spot_rep(L=12, guard=2):
    """The mixed-summand pair of the purity blind-spot test in test_repmodel."""
    fam = ProjectionFamily(
        projections=(np.diag([1.0 + 0j, 0, 0]), np.diag([0, 1.0 + 0j, 1.0])),
        unitary=np.eye(3, dtype=complex),
    )
    return build_projection_family_rep(fam, TruncationParams(3, L, guard))


def _fiber_pair(kind, n, seed):
    """Pure, reducible, non-pure, rotated and non-isometric pairs, small enough
    for the dense reference."""
    if kind in ("reflection", "planted"):
        return _check_pair(kind, n, seed)
    if kind == "nonpure":
        return _nonpure_rep()
    if kind == "blind_spot":
        return _blind_spot_rep(L=8)
    if kind == "doubled":
        fam = reflection_family(EX2_VECTOR)
        return build_projection_family_rep(direct_sum_family(fam, fam), TruncationParams(8, 6, 2))
    rep = build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2))
    if kind == "rotated":
        return _rotated(rep, np.random.default_rng(seed))
    return IsoRep2(W1=0.5 * rep.W1, W2=rep.W2, trunc=rep.trunc, family=rep.family)


FIBER_PAIRS = ["reflection", "planted", "nonpure", "blind_spot", "doubled", "rotated", "half_w1"]


def _small_grid(kind, n, m, seed):
    """The pair's grid at m cells, or fewer when the dense generators would
    exceed 300 dimensions."""
    rep = _fiber_pair(kind, n, seed)
    while m > 2 and m * m * rep.dim > 300:
        m -= 1
    return induce_2d(rep, m)


def _projector(basis):
    return basis @ basis.conj().T


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(FIBER_PAIRS),
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**16),
)
def test_grid_commutant_dim_matches_dense_star_commutant(kind, n, m, seed):
    grid = _small_grid(kind, n, m, seed)
    dense = star_commutant_basis([grid.V(1 / grid.M, 0), grid.V(0, 1 / grid.M)])
    assert induced_commutant_check_2d(grid).grid_commutant_dim == len(dense)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(FIBER_PAIRS),
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**16),
)
def test_per_cell_grid_kernels_match_dense_generators(kind, n, m, seed):
    grid = _small_grid(kind, n, m, seed)
    dense = [grid.V(1 / grid.M, 0), grid.V(0, 1 / grid.M)]
    step = 1 / grid.M
    for ts, v in zip(((step, 0), (0, step)), dense):
        got, want = grid_adjoint_kernel(grid, ts), adjoint_kernel(v)
        assert got.shape == want.shape
        assert np.max(np.abs(_projector(got) - _projector(want))) <= 1e-12
    got, want = grid_cocycle_pair_basis(grid), cocycle_pair_basis(*dense)
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(_projector(got) - _projector(want))) <= 1e-12
    mask = np.tile(grid.rep.trunc.level_mask(), grid.M**2)
    isometry = max(interior_isometry_deviation(v, mask) for v in dense)
    residual = induced_commutant_check_2d(grid).grid_isometry_residual
    assert residual == pytest.approx(isometry, rel=1e-14, abs=1e-15)


def _assert_cellwise_matches_dense(grid, ts, fiber_mask):
    """grid_adjoint_kernel and the per-cell isometry residual at ts against
    the kernel of the dense V(ts)* and its dense interior deviation."""
    dense = grid.V(*ts)
    got, want = grid_adjoint_kernel(grid, ts), nullspace(dense.conj().T)
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got.conj().T @ got - np.eye(got.shape[1]))) <= 1e-12
        assert np.max(np.abs(_projector(got) - _projector(want))) <= 1e-12
    cells = grid.dim // grid.fiber_dim
    want = interior_isometry_deviation(dense, np.tile(fiber_mask, cells))
    assert grid.isometry_deviation(ts, fiber_mask) == pytest.approx(want, rel=1e-14, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([*FIBER_KINDS, "shift3"]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**16),
)
def test_per_cell_kernels_and_isometry_match_dense_1d(kind, m, seed):
    # every grid time up to horizon 2, q = 0, 1 and 2
    sigma, mask = _fiber(kind, np.random.default_rng(seed))
    grid = induce_1d(sigma, m, mask)
    for j in range(2 * m + 1):
        _assert_cellwise_matches_dense(grid, (j / m,), grid.fiber_interior)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(FIBER_PAIRS),
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_per_cell_kernels_and_isometry_match_dense_2d(kind, n, m, seed, data):
    # a few of the grid times up to horizon 2 per pair (each dense solve is
    # costly), q = 0, 1 and 2 on either axis
    grid = _small_grid(kind, n, m, seed)
    times = st.lists(st.sampled_from(_grid_times(grid.M, 2, 2)), min_size=1, max_size=3)
    for ts in data.draw(times, label="times"):
        _assert_cellwise_matches_dense(grid, ts, grid.rep.trunc.level_mask())


# dims of star_commutant_basis on the dense grid generators at M = 2, 3, 4
GRID_COMMUTANT_DIMS = {
    "example2": (1, 1, 1),
    "reflection_n4_seed0": (1, 1, 1),
    "reflection_n4_seed1": (1, 1, 1),
    "reflection_0.6_0.8": (1, 1, 1),
    "nonpure": (3, 4, 5),
    "blind_spot": (6, 7, 8),
}


def _table_pair(name):
    if name == "example2":
        return build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3))
    if name.startswith("reflection_n4"):
        return _reflection_pair(4, int(name[-1]))[0]
    if name == "reflection_0.6_0.8":
        return build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2))
    return _nonpure_rep() if name == "nonpure" else _blind_spot_rep()


@pytest.mark.parametrize(
    "name, m, dim",
    [(name, m, d) for name, dims in GRID_COMMUTANT_DIMS.items() for m, d in zip((2, 3, 4), dims)],
)
def test_grid_commutant_dims_table(name, m, dim):
    assert induced_commutant_check_2d(induce_2d(_table_pair(name), m)).grid_commutant_dim == dim


def test_induced_commutant_check_fits_in_memory_at_m6():
    # a star commutant of the dense generators at N = 1152 needs about 650 MB;
    # the fiber solve holds M² small block systems
    grid = induce_2d(build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3)), 6)
    tracemalloc.start()
    try:
        report = induced_commutant_check_2d(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.grid_commutant_dim == 1
    assert peak < 100 * 2**20


# --- route guards ----------------------------------------------------------------------


def _count_dense_translations(monkeypatch):
    """Record (grid indices, sign) of every dense translation assembled."""
    calls = []
    translation = induced._translation

    def counted(grid, ts, sign=1):
        calls.append((tuple(grid.grid_index(t) for t in ts), sign))
        return translation(grid, ts, sign)

    monkeypatch.setattr(induced, "_translation", counted)
    return calls


def _example2_report(m):
    return induce_report(build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3)), m)


GUARDED_BATTERIES = {
    "induced1d": lambda: verify_suite("induced1d"),
    "induced2d": lambda: verify_suite("induced2d"),
    "induce_report_m2": lambda: _example2_report(2),
    "induce_report_m3": lambda: _example2_report(3),
}


@pytest.mark.parametrize("battery", GUARDED_BATTERIES)
def test_batteries_assemble_no_dense_translation(monkeypatch, battery):
    # every check reads cells: kernels, isometry residuals, the pairing and the
    # axis flip per cell, the cocycle solves on per-cell kernels and the
    # commutant on the fiber
    calls = _count_dense_translations(monkeypatch)
    assert GUARDED_BATTERIES[battery]().passed
    assert calls == []
