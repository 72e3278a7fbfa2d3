"""Induced translation semigroups on a grid of [0,1)^d.

Functions on [0,1)^d with values in a fiber space are discretized as step
functions with M cells per unit interval; at grid-aligned times the induced
translation operators are exact cell permutations composed with fiberwise
powers of the underlying discrete isometries, so every identity checked here
is a matter of bookkeeping, not approximation.

Orderings (everything downstream depends on these):
  1-d grid: (cell c, fiber v) ↦ c·F + v.
  2-d grid: (xcell, ycell, fiber) ↦ (xcell·M + ycell)·F + v.

Wrap rule, per axis, written once in ``_cell_map``: translation by j/M with
j = q·M + r makes cell c of V read cell c + r, and cell c of the adjoint read
cell c − r. A cell whose source leaves [0, M) wraps around and takes one
extra power: σ^(q+1) in place of σ^q in 1-d, one more W1 or W2 per wrapped
axis in 2-d (adjoints for the adjoint). A step cocycle holds η_(q + wrapped)
on each cell of the forward map.

A grid gives each translation cell by cell (``cells``: a source cell and a
fiber block per cell). Underneath, a time's layout is a source cell and a
row of a small block table per cell (``_layout``), and every block is a row
of that table, a fiber power. The adjoint, semigroup and axis-flip checks
compose and compare the layouts in integers and evaluate each distinct block
identity once; the adjoint kernels and isometry residuals take one solve or
one residual per distinct block. Step-cocycle additivity, the 1-d cocycle
solve and the grid commutant read cell maps and blocks too, and none of them
forms a dense grid product; ``V`` and the adjoints are the scatters of
``cells``, kept as the dense references.

The 2-d grid commutant is solved on the fiber. Every cell wraps exactly once
in M steps, so V(1/M, 0)^M = 1 ⊗ W1 and V(0, 1/M)^M = 1 ⊗ W2 as matrices, and
whatever commutes with the generators and their adjoints lies in
M_{M²} ⊗ σ′, σ′ the star commutant of the fiber pair (dimension r). A
generator maps the cell pair (c, d) to (s(c), s(d)), a translation that keeps
the displacement d − c, so the commutation relations split into M² systems
of r·M² unknowns, one per displacement (``_grid_commutant_dim``). This is
algebra valid for any pair, pure or not, isometric or not; it does not assume
the theorem's answer 1 ⊗ σ′, and a non-pure pair's extra dimensions appear
as kernels at nonzero displacements.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import product
from operator import add

import numpy as np

from .commutant import star_commutant_basis, structured_commutant_basis
from .linalg import DEFAULT_TOL, ToleranceConfig, adjoint_kernel, kron, numerical_rank
from .repmodel import (
    IsoRep2, TruncationParams, interior_isometry_deviation, sigma_power, truncated_shift
)
from .cocycle import Cocycle2, evaluate, pair_basis_from_kernels

__all__ = [
    "GridRep1",
    "GridRep2",
    "StepCocycle1",
    "StepCocycle2",
    "InducedCommutantReport",
    "induce_1d",
    "adjoint_1d",
    "lift_cocycle_1d",
    "discrete_cocycle_values",
    "grid_cocycle_space_1d",
    "induce_2d",
    "adjoint_2d",
    "grid_adjoint_kernel",
    "grid_cocycle_pair_basis",
    "lift_cocycle_2d",
    "induced_commutant_check_2d",
    "shift_fiber",
]


def _cell_count(m) -> int:
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"M (cells per unit interval) must be an integer, got {m!r}")
    if m < 2:
        raise ValueError("need at least 2 cells per unit interval")
    return int(m)


def _cell_map(m: int, j: int, sign: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(q, source cell, wrapped 0/1) per cell of translation by j/m along one
    axis: sign +1 for V (cell c reads c + r), −1 for its adjoint (c − r)."""
    q, r = divmod(j, m)
    shifted = np.arange(m) + sign * r
    source = shifted % m
    return q, source, (source != shifted).astype(int)


def _translation(grid, ts, sign: int = 1) -> np.ndarray:
    """Dense translation by the grid times ts (sign −1: its adjoint), the
    scatter of ``grid.cells``."""
    source, blocks = grid.cells(*ts, sign=sign)
    cells, f = source.size, blocks.shape[-1]
    out = np.zeros((cells, f, cells, f), dtype=complex)
    out[np.arange(cells), :, source, :] = blocks
    return out.reshape(cells * f, cells * f)


class _GridTranslations:
    """Cell-by-cell translations; subclasses give ``M``, ``_cache`` and
    ``_power`` (one exponent per axis)."""

    def grid_index(self, t) -> int:
        j = float(t) * self.M
        rounded = round(j)
        if abs(j - rounded) > 1e-9:
            raise ValueError(f"time {t} is not aligned to the 1/{self.M} grid")
        if rounded < 0:
            raise ValueError("grid times must be nonnegative")
        return int(rounded)

    def _row(self, exponents: tuple[int, ...], sign: int) -> int:
        """Row of the power (its adjoint for sign −1) in the block table."""
        rows = self._cache.setdefault(("rows", sign), {})
        if exponents not in rows:
            block = self._power(*exponents)
            block = block if sign > 0 else block.conj().T
            table = self._cache.get(("table", sign), np.empty((0, *block.shape), complex))
            self._cache[("table", sign)] = np.concatenate([table, [block]])
            rows[exponents] = len(rows)
        return rows[exponents]

    def _layout(self, ts, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source cell and block-table row per cell, and the block table,
        whose row 0 is the identity."""
        key = ("cells", tuple(map(self.grid_index, ts)), sign)
        if key not in self._cache:
            self._row((0,) * len(ts), sign)
            q, source, wrapped = zip(*(_cell_map(self.M, j, sign) for j in key[1]))
            flat = [reduce(lambda a, b: a * self.M + b, c) for c in product(*source)]
            rows = [self._row(tuple(map(int, e)), sign) for e in product(*map(add, q, wrapped))]
            self._cache[key] = np.array(flat), np.array(rows)
        return (*self._cache[key], self._cache[("table", sign)])

    def cells(self, *ts, sign: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Translation by the grid times ts (sign −1: its adjoint) cell by
        cell: row cell c reads column cell source[c] through blocks[c], the
        fiber power with exponents q + wrapped[c] (one per axis). The layout
        is cached per time, and each power is formed once."""
        source, rows, table = self._layout(ts, sign)
        return source, table[rows]

    def apply(self, ts, x: np.ndarray, sign: int = 1) -> np.ndarray:
        """V(ts) @ x (sign −1: V(ts)* @ x) cell by cell, for x of shape
        (dim,) or (dim, k)."""
        source, blocks = self.cells(*ts, sign=sign)
        cols = x.reshape(source.size, blocks.shape[-1], -1)
        return (blocks @ cols[source]).reshape(x.shape)

    def isometry_deviation(self, ts, fiber_mask: np.ndarray) -> float:
        """``interior_isometry_deviation`` of V(ts) on ``fiber_mask`` tiled
        over the cells, read per cell: the cell map is a permutation, so V*V
        is cell-diagonal with blocks B_c*B_c, and the worst distinct block
        decides."""
        _, rows, table = self._layout(ts, 1)
        devs = [interior_isometry_deviation(table[r], fiber_mask) for r in set(rows)]
        return float(np.max(devs))


@dataclass
class GridRep1(_GridTranslations):
    """Induced semigroup of a single isometry, discretized at M cells.

    ``fiber_interior`` is a boolean mask on the fiber marking coordinates
    where the (possibly truncated) isometry acts exactly; identity checks
    compress to it.
    """

    M: int
    sigma: np.ndarray
    fiber_interior: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def fiber_dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        return self.M * self.fiber_dim

    def _power(self, k: int) -> np.ndarray:
        return np.linalg.matrix_power(self.sigma, k)

    def V(self, t) -> np.ndarray:
        return _translation(self, (t,))


def induce_1d(
    sigma: np.ndarray, m: int, fiber_interior: np.ndarray | None = None
) -> GridRep1:
    """The grid of sigma at m cells; no ``fiber_interior`` means every fiber
    coordinate is interior."""
    m = _cell_count(m)
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    if not np.isfinite(sigma).all():
        raise ValueError("sigma has non-finite entries")
    mask = np.ones(len(sigma), bool) if fiber_interior is None else np.asarray(fiber_interior, bool)
    if mask.shape != sigma.shape[:1]:
        raise ValueError(f"fiber_interior has shape {mask.shape}, not {sigma.shape[:1]}")
    return GridRep1(M=m, sigma=sigma, fiber_interior=mask)


def adjoint_1d(grid: GridRep1, t) -> np.ndarray:
    """V(t)* from the region description (cell c reads c − r, wrapping cells
    take σ*^(q+1)); equals V(t) conjugate-transposed."""
    return _translation(grid, (t,), sign=-1)


def shift_fiber(multiplicity: int, levels: int, guard: int = 2):
    """Truncated shift of the given multiplicity plus its interior mask."""
    trunc = TruncationParams(n=multiplicity, L=levels, guard=guard)
    sigma = kron(np.eye(multiplicity), truncated_shift(levels))
    return sigma, trunc.level_mask()


def discrete_cocycle_values(sigma: np.ndarray, eta1: np.ndarray, count: int) -> np.ndarray:
    """The values eta_0 … eta_count generated by eta_{k+1} = eta_k + sigma^k eta_1."""
    f = sigma.shape[0]
    eta1 = np.asarray(eta1, dtype=complex).ravel()
    out = np.zeros((count + 1, f), dtype=complex)
    power = np.eye(f, dtype=complex)
    for k in range(1, count + 1):
        out[k] = out[k - 1] + power @ eta1
        power = sigma @ power
    return out


@dataclass
class StepCocycle1:
    """Step-function cocycle of a 1-d grid semigroup, determined by the
    discrete values eta_k: constant eta_n below the wrap cell, eta_{n+1} above."""

    grid: GridRep1
    eta: np.ndarray  # (K+1, F)

    def at(self, t) -> np.ndarray:
        q, _, wrapped = _cell_map(self.grid.M, self.grid.grid_index(t), 1)
        index = q + wrapped
        if index.max() >= self.eta.shape[0]:
            raise ValueError(f"no discrete values stored past index {self.eta.shape[0] - 1}")
        return self.eta[index].astype(complex).ravel()

    def additivity_residual(self, s, t) -> float:
        return _additivity_residual(self, (s,), (t,))


def lift_cocycle_1d(
    eta: np.ndarray, grid: GridRep1, tol: ToleranceConfig = DEFAULT_TOL
) -> StepCocycle1:
    """Lift discrete cocycle values to a step cocycle of the grid semigroup.

    The values must satisfy eta_0 = 0, sigma* eta_1 = 0 and the additivity
    recursion; the violated relation is reported otherwise.
    """
    eta = np.asarray(eta, dtype=complex)
    if eta.ndim != 2 or eta.shape[1] != grid.fiber_dim:
        raise ValueError(f"eta must be (K+1, {grid.fiber_dim})")
    if eta.shape[0] < 2:
        raise ValueError("need at least eta_0 and eta_1")
    # each test is written so that a NaN residual fails it
    if not float(np.max(np.abs(eta[0]))) <= tol.identity_tol:
        raise ValueError("eta_0 must vanish")
    kernel_dev = float(np.max(np.abs(grid.sigma.conj().T @ eta[1])))
    if not kernel_dev <= tol.identity_tol:
        raise ValueError(f"sigma* eta_1 != 0 (residual {kernel_dev:.3e})")
    power = np.eye(grid.fiber_dim, dtype=complex)
    for k in range(eta.shape[0] - 1):
        dev = float(np.max(np.abs(eta[k + 1] - eta[k] - power @ eta[1])))
        if not dev <= tol.identity_tol:
            raise ValueError(f"eta_{k + 1} != eta_{k} + sigma^{k} eta_1 (residual {dev:.3e})")
        power = grid.sigma @ power
    return StepCocycle1(grid=grid, eta=eta)


def grid_cocycle_space_1d(grid: GridRep1, horizon, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the space of grid-time step cocycles within the horizon.

    The relation xi_{(k+1)/M} = xi_{k/M} + V(k/M) xi_{1/M} fixes every value
    from the first one, xi_{j/M} = Σ_{k<j} V(k/M) xi_{1/M}, so only xi_{1/M}
    is solved for: the rows demand xi_{j/M} ∈ ker V(j/M)* for j ≤ horizon·M.
    Kernel first: xi_{1/M} = K c with K = ``grid_adjoint_kernel`` at 1/M,
    which settles j = 1, and the rows V(j/M)* Σ_{k<j} V(k/M) K for j ≥ 2 are
    applied cell by cell. K is orthonormal and the translations have unit
    scale, so the cutoff is anchored at scale 1. Additivity at every other
    grid pair then follows from the exact semigroup law
    V(j/M) V(k/M) = V((j+k)/M), which the ``semigroup_law_exact`` check
    asserts.
    """
    j_max = grid.grid_index(horizon)
    if j_max < grid.M:
        raise ValueError("horizon must be at least one time unit")
    kernel = grid_adjoint_kernel(grid, (1 / grid.M,), tol)
    partial_sum, rows = kernel.copy(), []
    for j in range(2, j_max + 1):
        partial_sum += grid.apply(((j - 1) / grid.M,), kernel)
        rows.append(grid.apply((j / grid.M,), partial_sum, sign=-1))
    return kernel.shape[1] - numerical_rank(np.vstack(rows), tol, scale=1.0)


@dataclass
class GridRep2(_GridTranslations):
    """Induced semigroup of a commuting pair, discretized at M cells per axis."""

    M: int
    rep: IsoRep2
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def fiber_dim(self) -> int:
        return self.rep.dim

    @property
    def dim(self) -> int:
        return self.M * self.M * self.fiber_dim

    def _power(self, a: int, b: int) -> np.ndarray:
        return sigma_power(self.rep, a, b)

    def V(self, s, t) -> np.ndarray:
        return _translation(self, (s, t))


def induce_2d(rep: IsoRep2, m: int) -> GridRep2:
    return GridRep2(M=_cell_count(m), rep=rep)


def adjoint_2d(grid: GridRep2, s, t) -> np.ndarray:
    """V(s,t)* assembled from its four-region description.

    Cell (cx, cy) reads (cx − r1, cy − r2) with the adjoint of the lower
    lattice power of the pair; each wrapped axis (cx < r1, cy < r2) adds one
    generator adjoint.
    """
    return _translation(grid, (s, t), sign=-1)


def grid_adjoint_kernel(
    grid: GridRep1 | GridRep2, ts, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of ker V(ts)*, the same space as
    ``adjoint_kernel(grid.V(*ts))``.

    V* sends cell c to its source cell through B_c*, and the cell map is a
    permutation, so V*ξ = 0 iff B_c* ξ_c = 0 on every cell: ker V* is
    ⊕_c e_c ⊗ ker B_c*. ``adjoint_kernel`` runs once per distinct fiber block;
    the identity block (table row 0) has no kernel and takes no solve.
    """
    _, rows, table = grid._layout(ts, 1)
    kernels = {r: table[r][:, :0] if r == 0 else adjoint_kernel(table[r], tol) for r in set(rows)}
    blocks = [kernels[r] for r in rows]
    widths = [block.shape[1] for block in blocks]
    out = np.zeros((rows.size, grid.fiber_dim, sum(widths)), dtype=complex)
    # basis column j holds a kernel column of one cell, cells in order
    out[np.repeat(np.arange(rows.size), widths), :, np.arange(sum(widths))] = np.hstack(blocks).T
    return out.reshape(grid.dim, -1)


def grid_cocycle_pair_basis(grid: GridRep2, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``cocycle_pair_basis`` of the generators V(1/M, 0) and V(0, 1/M): the
    same compatibility solve, on their per-cell adjoint kernels, with V
    applied cell by cell."""
    step = 1 / grid.M
    k1, k2 = (grid_adjoint_kernel(grid, ts, tol) for ts in ((step, 0), (0, step)))
    return pair_basis_from_kernels(
        k1, k2, grid.apply((step, 0), k2), grid.apply((0, step), k1), tol
    )


# the fiber families of a generator W against a fiber commutant basis C_j, in
# the order of their blocks of columns: C, CW, WC, CW*, W*C
_C, _CW, _WC, _CWS, _WSC = range(5)


def _grid_commutant_dim(grid: GridRep2, basis: list[np.ndarray], tol: ToleranceConfig) -> int:
    """Dimension of the grid commutant, solved inside M_{M²} ⊗ span(basis),
    where ``basis`` is an orthonormal basis of the fiber pair's star commutant.

    Write T = Σ E_cd ⊗ T_cd with T_cd = Σ_j x_cd,j C_j. A generator with cell
    map s and blocks B makes TV = VT and TV* = V*T read, on each cell pair,
    B_c T_s(c)s(d) = T_cd B_d and T_s(c)s(d) B_d* = B_c* T_cd. Each side is a
    combination of the five fiber families, and its norm is that of the
    coefficients under the families' R factor. The cell map is a translation,
    so (s(c), s(d)) keeps the displacement d − c: one system in r·M² unknowns
    per displacement, its rank anchored at scale 1 (orthonormal C_j, blocks
    of unit scale).
    """
    if not basis:
        return 0
    m, r = grid.M, len(basis)
    cells = np.arange(m * m)
    c = np.array(basis)
    relations = []
    for ts, w in zip(((1 / m, 0), (0, 1 / m)), (grid.rep.W1, grid.rep.W2)):
        ws = w.conj().T
        families = np.concatenate([c, c @ w, w @ c, c @ ws, ws @ c]).reshape(5 * r, -1)
        r5 = np.linalg.qr(families.T, mode="r").reshape(-1, 5, r)
        # a generator's blocks are 1 (table row 0) or W, on the wrapped cells
        source, rows, _ = grid._layout(ts, 1)
        relations.append((r5, source, rows != 0))
    dim = 0
    for shift in product(range(m), repeat=2):
        # d = c + shift, cell by cell
        partner = np.roll(cells.reshape(m, m), np.negative(shift), axis=(0, 1)).ravel()
        rows = []
        for r5, source, wrapped in relations:
            wc, wd = wrapped, wrapped[partner]
            # B_c T' − T B_d, then T' B_d* − B_c* T, with T' at the source cell
            for ahead, here in (
                (np.where(wc, _WC, _C), np.where(wd, _CW, _C)),
                (np.where(wd, _CWS, _C), np.where(wc, _WSC, _C)),
            ):
                block = np.zeros((m * m, r5.shape[0], m * m, r), dtype=complex)
                block[cells, :, source] = r5[:, ahead].transpose(1, 0, 2)
                block[cells, :, cells] = -r5[:, here].transpose(1, 0, 2)
                rows.append(block.reshape(-1, m * m * r))
        system = np.vstack(rows)
        dim += system.shape[1] - numerical_rank(system, tol, scale=1.0)
    return dim


@dataclass
class StepCocycle2:
    """Step-function cocycle of a 2-d grid semigroup.

    Lattice values are produced on demand from the generating pair and
    cached; at time (s,t) the step function takes the four lattice values on
    the four wrap rectangles.
    """

    grid: GridRep2
    cocycle: Cocycle2
    tol: ToleranceConfig = DEFAULT_TOL
    _values: dict = field(default_factory=dict, repr=False, compare=False)

    def lattice_value(self, m: int, n: int) -> np.ndarray:
        key = (m, n)
        if key not in self._values:
            self._values[key] = evaluate(self.cocycle, self.grid.rep, key, self.tol)
        return self._values[key]

    def at(self, s, t) -> np.ndarray:
        q1, _, wx = _cell_map(self.grid.M, self.grid.grid_index(s), 1)
        q2, _, wy = _cell_map(self.grid.M, self.grid.grid_index(t), 1)
        return np.concatenate(
            [self.lattice_value(int(a), int(b)) for a in q1 + wx for b in q2 + wy]
        )

    def additivity_residual(self, st1, st2) -> float:
        return _additivity_residual(self, st1, st2)


def _additivity_residual(cocycle: StepCocycle1 | StepCocycle2, a, b) -> float:
    """max |xi(a + b) − (xi(a) + V(a) xi(b))| at grid times a and b, with V(a)
    applied cell by cell."""
    lhs = cocycle.at(*(float(x) + float(y) for x, y in zip(a, b)))
    rhs = cocycle.at(*a) + cocycle.grid.apply(a, cocycle.at(*b))
    return float(np.max(np.abs(lhs - rhs)))


def lift_cocycle_2d(
    c: Cocycle2, grid: GridRep2, tol: ToleranceConfig = DEFAULT_TOL
) -> StepCocycle2:
    """Lift a cocycle of the pair to a step cocycle on ``grid``, the grid of
    that pair."""
    worst = c.max_residual(grid.rep)
    if not worst <= tol.identity_tol:  # a NaN residual fails
        raise ValueError(f"not a cocycle of the pair (residual {worst:.3e})")
    return StepCocycle2(grid=grid, cocycle=c, tol=tol)


@dataclass(frozen=True)
class InducedCommutantReport:
    structured_dim: int
    grid_commutant_dim: int
    tensor_direction_residual: float
    grid_isometry_residual: float
    tensor_direction_ok: bool
    generic_direction_ok: bool
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.tensor_direction_ok and self.generic_direction_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def induced_commutant_check_2d(
    grid: GridRep2, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> InducedCommutantReport:
    """Verify both inclusions of "grid commutant = 1 ⊗ base commutant".

    Direction one: every structured commutant element T0, ampliated over the
    cells, must commute with all grid translations. The ampliation applies
    T = T0 ⊗ 1_L on every cell alike, so it commutes with each cell
    permutation, and [1 ⊗ T, V(s, t)] holds T·B − B·T where V(s, t) holds the
    fiber block B. At grid times in [0, 1]² those blocks are W1^a W2^b with
    a, b ∈ {0, 1}, so the residual is checked on these four blocks, without a
    dense grid product. The generators' interior isometry residual is read
    per cell too: V*V is cell-diagonal with blocks B*B, B ∈ {1, W1, W2}.

    Direction two: the star commutant of the grid generators must have
    exactly the structured dimension. It is counted without an interior
    filter (an ampliated T0 ⊗ 1 preserves shift levels, so its interior
    compression always commutes), and on the fiber: V(1/M, 0)^M = 1 ⊗ W1 and
    V(0, 1/M)^M = 1 ⊗ W2, so the grid commutant lies in M_{M²} ⊗ σ′, σ′ the
    fiber pair's star commutant, and its relations split by cell
    displacement into M² small systems. That containment is exact algebra,
    not the theorem: the solve still finds every dimension of the grid
    commutant beyond 1 ⊗ σ′.

    The second direction only holds for strongly pure pairs. When a
    generator has a unitary direct summand, the periodic fiber it fixes makes
    grid translations act as commuting rotations there, and the grid
    commutant is genuinely larger than the ampliated one; the report then
    carries generic_direction_ok=False with the observed dimension.
    """
    rep = grid.rep
    if rep.family is None:
        raise ValueError("needs a representation built from a projection family")
    base = structured_commutant_basis(rep.family, tol)
    # non-isometric input shows up here
    step, mask = 1 / grid.M, rep.trunc.level_mask()
    iso_worst = float(np.max([grid.isometry_deviation(ts, mask) for ts in ((step, 0), (0, step))]))
    blocks = np.array([sigma_power(rep, a, b) for a in (0, 1) for b in (0, 1)])
    fiber_ops = [kron(t0, np.eye(rep.trunc.L)) for t0 in base]
    worst = float(np.max([np.abs(t @ blocks - blocks @ t).max() for t in fiber_ops], initial=0.0))

    fiber = star_commutant_basis([rep.W1, rep.W2], tol, seed)
    grid_dim = _grid_commutant_dim(grid, fiber, tol)

    return InducedCommutantReport(
        structured_dim=len(base),
        grid_commutant_dim=grid_dim,
        tensor_direction_residual=worst,
        grid_isometry_residual=iso_worst,
        tensor_direction_ok=worst <= tol.identity_tol
        and iso_worst <= tol.identity_tol,
        generic_direction_ok=grid_dim == len(base),
        tolerance=tol.identity_tol,
    )
