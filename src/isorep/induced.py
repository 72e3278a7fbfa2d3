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
fiber block per cell). The grid checks, step-cocycle additivity, the adjoint
kernels of the 2-d generators and the grid commutant read these cell maps and
blocks and never form a dense grid product; ``V`` and the adjoints are their
scatters.

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

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import add

import numpy as np

from .commutant import star_commutant_basis, structured_commutant_basis
from .linalg import DEFAULT_TOL, ToleranceConfig, adjoint_kernel, kron, nullspace, numerical_rank
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


def _grid_index(t, m: int) -> int:
    j = float(t) * m
    rounded = round(j)
    if abs(j - rounded) > 1e-9:
        raise ValueError(f"time {t} is not aligned to the 1/{m} grid")
    if rounded < 0:
        raise ValueError("grid times must be nonnegative")
    return int(rounded)


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
        return _grid_index(t, self.M)

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

    def cells(self, *ts, sign: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Translation by the grid times ts (sign −1: its adjoint) cell by
        cell: row cell c reads column cell source[c] through blocks[c], the
        fiber power with exponents q + wrapped[c] (one per axis). The layout
        is cached per time, and each power is formed once."""
        key = ("cells", tuple(map(self.grid_index, ts)), sign)
        if key not in self._cache:
            q, source, wrapped = zip(*(_cell_map(self.M, j, sign) for j in key[1]))
            flat = [reduce(lambda a, b: a * self.M + b, c) for c in product(*source)]
            rows = [self._row(tuple(map(int, e)), sign) for e in product(*map(add, q, wrapped))]
            self._cache[key] = np.array(flat), np.array(rows)
        source, rows = self._cache[key]
        return source, self._cache[("table", sign)][rows]

    def apply(self, ts, x: np.ndarray) -> np.ndarray:
        """V(ts) @ x cell by cell, for x of shape (dim,) or (dim, k)."""
        source, blocks = self.cells(*ts)
        cols = x.reshape(source.size, blocks.shape[-1], -1)
        return (blocks @ cols[source]).reshape(x.shape)


@dataclass
class GridRep1(_GridTranslations):
    """Induced semigroup of a single isometry, discretized at M cells.

    ``fiber_interior`` is a boolean mask on the fiber marking coordinates
    where the (possibly truncated) isometry acts exactly; identity checks
    compress to it.
    """

    M: int
    sigma: np.ndarray
    fiber_interior: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def fiber_dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        return self.M * self.fiber_dim

    def _power(self, k: int) -> np.ndarray:
        if not k:
            return np.eye(self.fiber_dim, dtype=complex)
        return np.linalg.matrix_power(self.sigma, k)

    def V(self, t) -> np.ndarray:
        key = ("V", self.grid_index(t))
        if key not in self._cache:
            self._cache[key] = _translation(self, (t,))
        return self._cache[key]

    def interior_mask(self) -> np.ndarray:
        """Boolean mask over the grid space selecting interior coordinates."""
        if self.fiber_interior is None:
            return np.ones(self.dim, dtype=bool)
        return np.tile(self.fiber_interior, self.M)


def induce_1d(
    sigma: np.ndarray, m: int, fiber_interior: np.ndarray | None = None
) -> GridRep1:
    m = _cell_count(m)
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    return GridRep1(M=m, sigma=sigma, fiber_interior=fiber_interior)


def adjoint_1d(grid: GridRep1, t) -> np.ndarray:
    """V(t)* from the region description (cell c reads c − r, wrapping cells
    take σ*^(q+1)); equals V(t) conjugate-transposed."""
    return _translation(grid, (t,), sign=-1)


def shift_fiber(multiplicity: int, levels: int, guard: int = 2):
    """Truncated shift of the given multiplicity plus its interior mask."""
    trunc = TruncationParams(n=multiplicity, L=levels, guard=guard)
    sigma = kron(np.eye(multiplicity), truncated_shift(levels))
    return sigma, trunc.level_mask()


def discrete_cocycle_values(
    sigma: np.ndarray, eta1: np.ndarray, count: int
) -> np.ndarray:
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
    if float(np.max(np.abs(eta[0]))) > tol.identity_tol:
        raise ValueError("eta_0 must vanish")
    kernel_dev = float(np.max(np.abs(grid.sigma.conj().T @ eta[1])))
    if kernel_dev > tol.identity_tol:
        raise ValueError(f"sigma* eta_1 != 0 (residual {kernel_dev:.3e})")
    power = np.eye(grid.fiber_dim, dtype=complex)
    for k in range(eta.shape[0] - 1):
        dev = float(np.max(np.abs(eta[k + 1] - eta[k] - power @ eta[1])))
        if dev > tol.identity_tol:
            raise ValueError(
                f"eta_{k + 1} != eta_{k} + sigma^{k} eta_1 (residual {dev:.3e})"
            )
        power = grid.sigma @ power
    return StepCocycle1(grid=grid, eta=eta)


def grid_cocycle_space_1d(
    grid: GridRep1, horizon, tol: ToleranceConfig = DEFAULT_TOL
) -> int:
    """Dimension of the space of grid-time step cocycles within the horizon.

    The relation xi_{(k+1)/M} = xi_{k/M} + V(k/M) xi_{1/M} fixes every value
    from the first one, xi_{j/M} = Σ_{k<j} V(k/M) xi_{1/M}, so only xi_{1/M}
    is solved for: the rows demand xi_{j/M} ∈ ker V(j/M)* for j ≤ horizon·M.
    Additivity at every other grid pair then follows from the exact semigroup
    law V(j/M) V(k/M) = V((j+k)/M), which the ``semigroup_law_exact`` check
    asserts.
    """
    j_max = grid.grid_index(horizon)
    if j_max < grid.M:
        raise ValueError("horizon must be at least one time unit")
    partial_sum = np.zeros((grid.dim, grid.dim), dtype=complex)
    rows = []
    for j in range(1, j_max + 1):
        partial_sum += grid.V((j - 1) / grid.M)
        rows.append(grid.V(j / grid.M).conj().T @ partial_sum)
    return nullspace(np.vstack(rows), tol).shape[1]


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

    def flip(self) -> np.ndarray:
        """The coordinate swap (x, y) ↦ (y, x) on cells, identity on fibers."""
        cells = np.arange(self.M * self.M).reshape(self.M, self.M)
        return kron(np.eye(self.M * self.M)[cells.T.ravel()], np.eye(self.fiber_dim))


def induce_2d(rep: IsoRep2, m: int) -> GridRep2:
    return GridRep2(M=_cell_count(m), rep=rep)


def adjoint_2d(grid: GridRep2, s, t) -> np.ndarray:
    """V(s,t)* assembled from its four-region description.

    Cell (cx, cy) reads (cx − r1, cy − r2) with the adjoint of the lower
    lattice power of the pair; each wrapped axis (cx < r1, cy < r2) adds one
    generator adjoint.
    """
    return _translation(grid, (s, t), sign=-1)


def _generator_cells(m: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Source cell and wrapped flag per cell of the generator along ``axis``
    (0: V(1/M, 0), 1: V(0, 1/M)). A wrapped cell's block is W1 (axis 0) or
    W2 (axis 1), every other cell's the identity."""
    (sx, wx), (sy, wy) = (_cell_map(m, int(a == axis), 1)[1:] for a in (0, 1))
    return (sx[:, None] * m + sy).ravel(), (wx[:, None] | wy).ravel() == 1


def grid_adjoint_kernel(
    grid: GridRep2, axis: int, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of ker V*, V the generator along ``axis``.

    V* sends cell c to its source cell through B_c*, and the cell map is a
    permutation, so V*ξ = 0 iff B_c* ξ_c = 0 on every cell: ξ vanishes where
    B_c = 1 and lies in ker W* on the wrapped cells. The basis is e_c ⊗ K over
    those cells, K = ``adjoint_kernel(W)`` on the fiber.
    """
    kernel = adjoint_kernel((grid.rep.W1, grid.rep.W2)[axis], tol)
    wrapped = np.flatnonzero(_generator_cells(grid.M, axis)[1])
    out = np.zeros((grid.M**2, grid.fiber_dim, wrapped.size, kernel.shape[1]), dtype=complex)
    out[wrapped, :, np.arange(wrapped.size)] = kernel
    return out.reshape(grid.dim, -1)


def grid_cocycle_pair_basis(grid: GridRep2, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``cocycle_pair_basis`` of the generators V(1/M, 0) and V(0, 1/M): the
    same compatibility solve, on their per-cell adjoint kernels, with V
    applied cell by cell."""
    k1, k2 = (grid_adjoint_kernel(grid, axis, tol) for axis in (0, 1))
    step = 1 / grid.M
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
    for axis, w in enumerate((grid.rep.W1, grid.rep.W2)):
        ws = w.conj().T
        families = np.concatenate([c, c @ w, w @ c, c @ ws, ws @ c]).reshape(5 * r, -1)
        r5 = np.linalg.qr(families.T, mode="r").reshape(-1, 5, r)
        relations.append((r5, *_generator_cells(m, axis)))
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
    if worst > tol.identity_tol:
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
        return {
            "structured_dim": self.structured_dim,
            "grid_commutant_dim": self.grid_commutant_dim,
            "tensor_direction_residual": self.tensor_direction_residual,
            "grid_isometry_residual": self.grid_isometry_residual,
            "tensor_direction_ok": self.tensor_direction_ok,
            "generic_direction_ok": self.generic_direction_ok,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


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
    # non-isometric input shows up here; the identity blocks of V*V deviate by 0
    mask = rep.trunc.level_mask()
    iso_worst = float(np.max([interior_isometry_deviation(w, mask) for w in (rep.W1, rep.W2)]))
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
