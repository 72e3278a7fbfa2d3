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
axis in 2-d (adjoints for the adjoint). ``_cell_exponents`` gives each cell's
source and exponents q + wrapped, to the translations and to the one step
cocycle of both grids, which holds the lattice value η_(q + wrapped) on each
cell of the forward map, generated by η_1 in 1-d and by the pair in 2-d.

A grid gives each translation cell by cell (``cells``: a source cell and a
fiber block per cell). Underneath, a time's layout is a source cell and a
row of a small block table per cell (``_layout``), and every block is a row
of that table, a fiber power. The adjoint, semigroup and axis-flip checks
compose and compare the layouts in integers and evaluate each distinct block
identity once; the adjoint kernels and isometry residuals take one solve or
one residual per distinct block. Step-cocycle additivity and the 1-d cocycle
solve read cell maps and blocks too. ``V`` and the adjoints are the scatters
of ``cells``, kept as the dense references.

A fiber whose W1 is exactly 1 ⊗ S has a grid pair (``GridRep2.pair``), the
generators in the shift coordinates (y cell, h, level·M + M − 1 − x cell).
For a level-shift fiber it is a level-shift pair built from its symbols, and
the 2-d cocycle solve and commutant count are that pair's own: exact algebra
on the truncation, pure or not, that does not assume the theorem's answer
1 ⊗ σ′. Other fibers take the per-cell kernels and the dense generators.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import add
from typing import Callable

import numpy as np

from .commutant import _symbol_star_commutant, star_commutant_basis, structured_commutant_basis
from .linalg import DEFAULT_TOL, ToleranceConfig, adjoint_kernel, kron, numerical_rank
from .repmodel import (
    IsoRep2, TruncationParams, _shift_symbol, interior_isometry_deviation, sigma_power,
    truncated_shift, validate,
)
from .cocycle import Cocycle2, _pair_basis, evaluate, pair_basis_from_kernels

__all__ = [
    "GridRep1",
    "GridRep2",
    "StepCocycle",
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
            self._cache.setdefault(("blocks", sign), []).append(block)
            rows[exponents] = len(rows)
        return rows[exponents]

    def _table(self, sign: int) -> np.ndarray:
        """The block table: the powers in row order, stacked again only when
        rows were added since, and then kept as views of the new table."""
        blocks = self._cache[("blocks", sign)]
        table = self._cache.get(("table", sign))
        if table is None or len(table) < len(blocks):
            table = self._cache[("table", sign)] = np.array(blocks, dtype=complex)
            self._cache[("blocks", sign)] = list(table)
        return table

    def _cell_exponents(self, ts, sign: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """Flat source cell and per-axis fiber exponents q + wrapped of each
        cell, cells in grid order, for translation by the grid times ts."""
        q, source, wrapped = zip(*(_cell_map(self.M, self.grid_index(t), sign) for t in ts))
        flat = [reduce(lambda a, b: a * self.M + b, c) for c in product(*source)]
        return flat, [tuple(map(int, e)) for e in product(*map(add, q, wrapped))]

    def _layout(self, ts, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source cell and block-table row per cell, and the block table,
        whose row 0 is the identity."""
        key = ("cells", tuple(map(self.grid_index, ts)), sign)
        if key not in self._cache:
            self._row((0,) * len(ts), sign)
            flat, exponents = self._cell_exponents(ts, sign)
            self._cache[key] = np.array(flat), np.array([self._row(e, sign) for e in exponents])
        return (*self._cache[key], self._table(sign))

    def V(self, *ts) -> np.ndarray:
        """Dense V(ts), the scatter of ``cells``, kept as the reference."""
        return _translation(self, ts)

    def cells(self, *ts, sign: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Translation by the grid times ts (sign −1: its adjoint) cell by
        cell: row cell c reads column cell source[c] through blocks[c], the
        fiber power with exponents q + wrapped[c] (one per axis). The layout
        is cached per time, and each power is formed once."""
        source, rows, table = self._layout(ts, sign)
        return source, table[rows]

    def apply(self, ts, x: np.ndarray, sign: int = 1) -> np.ndarray:
        """V(ts) @ x (sign −1: V(ts)* @ x) cell by cell, for x of shape
        (dim,) or (dim, k). A cell whose block is the identity (table row 0)
        only reads its source cell."""
        source, rows, table = self._layout(ts, sign)
        out = np.asarray(x, dtype=complex).reshape(source.size, table.shape[-1], -1)[source]
        powered = rows != 0
        out[powered] = table[rows[powered]] @ out[powered]
        return out.reshape(x.shape)

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
    out = np.zeros((count + 1, sigma.shape[0]), dtype=complex)
    step = np.asarray(eta1, dtype=complex).ravel()
    for k in range(1, count + 1):
        out[k] = out[k - 1] + step
        step = sigma @ step
    return out


@dataclass
class StepCocycle:
    """Step-function cocycle of a grid semigroup in one or two axes.

    ``value(*e)`` is the discrete cocycle at the lattice point e (one exponent
    per axis), cached by ``lattice_value``. At grid times ts, each cell holds
    the value at the exponents of the fiber power that V(ts) applies there.
    """

    grid: GridRep1 | GridRep2
    value: Callable[..., np.ndarray]
    _values: dict = field(default_factory=dict, repr=False, compare=False)

    def lattice_value(self, *e: int) -> np.ndarray:
        if e not in self._values:
            self._values[e] = self.value(*e)
        return self._values[e]

    def at(self, *ts) -> np.ndarray:
        """The cell values at the grid times ts; each time's cell exponents
        are kept in the grid's cache, keyed by its grid indices."""
        cache, key = self.grid._cache, ("exponents", tuple(map(self.grid.grid_index, ts)))
        if key not in cache:
            cache[key] = self.grid._cell_exponents(ts, 1)[1]
        return np.concatenate([self.lattice_value(*e) for e in cache[key]])

    def additivity_residual(self, a, b) -> float:
        """max |xi(a + b) − (xi(a) + V(a) xi(b))| at the grid times a and b
        (one time per axis each), with V(a) applied cell by cell."""
        lhs = self.at(*(float(x) + float(y) for x, y in zip(a, b)))
        rhs = self.at(*a) + self.grid.apply(a, self.at(*b))
        return float(np.max(np.abs(lhs - rhs)))


def lift_cocycle_1d(
    eta1: np.ndarray, grid: GridRep1, tol: ToleranceConfig = DEFAULT_TOL
) -> StepCocycle:
    """Lift the cocycle with generator eta_1 ∈ ker sigma* to a step cocycle
    of the grid semigroup; its lattice values are ``discrete_cocycle_values``."""
    eta1 = np.asarray(eta1, dtype=complex)
    if eta1.shape != (grid.fiber_dim,):
        raise ValueError(f"eta_1 must have shape ({grid.fiber_dim},), got {eta1.shape}")
    if not np.isfinite(eta1).all():
        raise ValueError("eta_1 has non-finite entries")
    kernel_dev = float(np.max(np.abs(grid.sigma.conj().T @ eta1)))
    if not kernel_dev <= tol.identity_tol:  # an overflow's NaN fails
        raise ValueError(f"sigma* eta_1 != 0 (residual {kernel_dev:.3e})")
    return StepCocycle(grid, lambda k: discrete_cocycle_values(grid.sigma, eta1, k)[k])


def grid_cocycle_space_1d(grid: GridRep1, horizon, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the space of grid-time step cocycles within the horizon.

    The relation xi_{(k+1)/M} = xi_{k/M} + V(k/M) xi_{1/M} fixes every value
    from the first one, xi_{j/M} = Σ_{k<j} V(k/M) xi_{1/M}, so only xi_{1/M}
    is solved for: the rows demand xi_{j/M} ∈ ker V(j/M)* for j ≤ horizon·M.
    Kernel first: xi_{1/M} = K c with K = ``grid_adjoint_kernel`` at 1/M,
    which settles j = 1. For j ≥ 2 the rows are the last terms
    B_j = V(j/M)* V((j−1)/M) K, applied cell by cell, not the accumulated
    A_j = V(j/M)* Σ_{k<j} V(k/M) K; both stacks have one kernel. With
    V = V(1/M) and the exact grid law V(j/M) = V^j, A_j − B_j is
    Σ_{k≤j−2} V*^(j−k−1) (V*^(k+1) V^k K); its k = 0 term vanishes as V*K = 0,
    and each k ≥ 1 term is V*^(j−k−1) applied to the earlier row B_(k+1). So
    A_j c = B_j c wherever B_2 … B_(j−1) vanish, and by induction on j the
    stacks vanish on the same c. K is orthonormal and the translations have
    unit scale, so the cutoff is anchored at scale 1. Additivity at every
    other grid pair follows from the exact semigroup law, which the
    ``semigroup_law_exact`` check asserts.
    """
    j_max = grid.grid_index(horizon)
    if j_max < grid.M:
        raise ValueError("horizon must be at least one time unit")
    kernel = grid_adjoint_kernel(grid, (1 / grid.M,), tol)
    rows = [
        grid.apply((j / grid.M,), grid.apply(((j - 1) / grid.M,), kernel), sign=-1)
        for j in range(2, j_max + 1)
    ]
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

    @cached_property
    def pair(self) -> IsoRep2 | None:
        """The grid pair, with truncation (Mn, ML, M·guard), when the fiber's
        W1 is exactly 1 ⊗ S; else None. x cell M − 1 reads W1 of x cell 0, one
        level up, so V(1/M, 0) = 1 ⊗ S′. V(0, 1/M) keeps the x cell, so S^k is
        S′^{kM}; on C^{Mn}, y cell c < M − 1 reads c + 1 (Z) and y cell M − 1
        reads W2 of cell 0 (E_{M−1,0}). A level-shift fiber's grid pair is built
        from B_0 = Z ⊗ 1_n + E_{M−1,0} ⊗ A_0 and B_{kM} = E_{M−1,0} ⊗ A_k, with
        no dense array; any other holds the dense generators in shift order."""
        rep, m = self.rep, self.M
        if not rep.w1_is_shift:
            return None
        n, blocks = rep.trunc.n, rep.pair_symbol
        trunc = TruncationParams(m * n, m * rep.trunc.L, m * rep.trunc.guard)
        if blocks is None:
            order = np.ix_(*[_shift_order(self)] * 2)
            return IsoRep2(self.V(1 / m, 0)[order], self.V(0, 1 / m)[order], trunc)
        out = np.zeros((trunc.guard + 1, m, n, m, n), dtype=complex)
        out[0] = kron(np.eye(m, k=1), np.eye(n)).reshape(m, n, m, n)
        out[::m, m - 1, :, 0] = blocks
        return IsoRep2._from_symbols((_shift_symbol(trunc), out.reshape(-1, m * n, m * n)), trunc)


def _shift_order(grid: GridRep2) -> np.ndarray:
    """The grid coordinate at each position of the shift coordinates."""
    m, tr = grid.M, grid.rep.trunc
    return np.arange(grid.dim).reshape(m, m, tr.n, tr.L).transpose(1, 2, 3, 0)[..., ::-1].ravel()


def induce_2d(rep: IsoRep2, m: int) -> GridRep2:
    return GridRep2(M=_cell_count(m), rep=rep)


def adjoint_2d(grid: GridRep2, s, t) -> np.ndarray:
    """V(s,t)* from its four-region description: cell (cx, cy) reads
    (cx − r1, cy − r2) with the adjoint of the lower lattice power of the
    pair, and each wrapped axis (cx < r1, cy < r2) adds one generator adjoint."""
    return _translation(grid, (s, t), sign=-1)


def grid_adjoint_kernel(
    grid: GridRep1 | GridRep2, ts, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of ker V(ts)*, the same space as
    ``adjoint_kernel(grid.V(*ts))``.

    V* sends cell c to its source cell through B_c*, and the cell map is a
    permutation, so V*ξ = 0 iff B_c* ξ_c = 0 on every cell: ker V* is
    ⊕_c e_c ⊗ ker B_c*. Each distinct fiber block takes ``adjoint_kernel``
    once; the identity block (table row 0) has no kernel and takes no solve.
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
    solve ``cocycle_space`` takes, on the grid pair (``GridRep2.pair``) and
    mapped back from the shift coordinates; with no grid pair, the
    compatibility solve on the per-cell adjoint kernels. The grid symbol
    B_0 = Z ⊗ 1 + E_{M−1,0} ⊗ A_0, B_{kM} = E_{M−1,0} ⊗ A_k is inner exactly
    when the fiber's is, so the closed form's innerness is the fiber's
    ``validate``, which reads the fiber's memoized symbol Gram."""
    pair = grid.pair
    if pair is None:
        step = 1 / grid.M
        k1, k2 = (grid_adjoint_kernel(grid, ts, tol) for ts in ((step, 0), (0, step)))
        return pair_basis_from_kernels(
            k1, k2, grid.apply((step, 0), k2), grid.apply((0, step), k1), tol
        )
    inner = grid.rep.pair_symbol is not None and validate(grid.rep, tol).isometry_ok
    back = np.argsort(_shift_order(grid))
    return _pair_basis(pair, tol, inner).reshape(2, grid.dim, -1)[:, back].reshape(2 * grid.dim, -1)


def lift_cocycle_2d(c: Cocycle2, grid: GridRep2, tol: ToleranceConfig = DEFAULT_TOL) -> StepCocycle:
    """Lift a cocycle of the pair to a step cocycle on ``grid``, the grid of
    that pair; its lattice values are ``evaluate``d from the generator pair."""
    worst = c.max_residual(grid.rep)
    if not worst <= tol.identity_tol:  # a NaN residual fails
        raise ValueError(f"not a cocycle of the pair (residual {worst:.3e})")
    return StepCocycle(grid, lambda a, b: evaluate(c, grid.rep, (a, b), tol))


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
    dense grid product; for a level-shift fiber, on its symbol, as
    max_k |T0 A_k − A_k T0|: T0 ⊗ 1 commutes with W1 = 1 ⊗ S exactly, and the
    level blocks of W2 and W1W2 are the A_k. The interior isometry residual
    is read per cell: V*V is cell-diagonal with blocks B*B, B ∈ {1, W1, W2}.

    Direction two: the star commutant of the grid generators must have
    exactly the structured dimension. It is counted without an interior
    filter (an ampliated T0 ⊗ 1 preserves shift levels, so its interior
    compression always commutes): by the T0 of the grid pair on C^{Mn} for
    a level-shift fiber, else on the dense generators. Neither route assumes
    the theorem's answer: every dimension beyond 1 ⊗ σ′ is counted.

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
    blocks = rep.pair_symbol
    if blocks is None:
        blocks = np.array([sigma_power(rep, a, b) for a in (0, 1) for b in (0, 1)])
        ops = [kron(t0, np.eye(rep.trunc.L)) for t0 in base]
        grid_dim = len(star_commutant_basis([grid.V(step, 0), grid.V(0, step)], tol, seed))
    else:
        ops, grid_dim = base, len(_symbol_star_commutant(grid.pair, tol, seed))
    worst = float(np.max([np.abs(t @ blocks - blocks @ t).max() for t in ops], initial=0.0))

    return InducedCommutantReport(
        structured_dim=len(base),
        grid_commutant_dim=grid_dim,
        tensor_direction_residual=worst,
        grid_isometry_residual=iso_worst,
        tensor_direction_ok=worst <= tol.identity_tol and iso_worst <= tol.identity_tol,
        generic_direction_ok=grid_dim == len(base),
        tolerance=tol.identity_tol,
    )
