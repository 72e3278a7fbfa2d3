"""Named verification batteries over the library's structural identities.

Each preset runs a battery of checks and reports, per check, a stable
identifier, what identity was exercised, the worst residual or the dimensions
involved, and a verdict. The batteries back the command-line ``verify-suite``
and ``induce`` commands and ``tests/test_suites.py``; the acceptance tests
re-derive their criteria independently.

Each grid identity shared by the induced batteries (region adjoint, semigroup
law, index and commutant preservation) is written once below and called by
``induced1d``, ``induced2d`` and ``induce_report`` alike. The adjoint,
semigroup and axis-flip checks key each cell by integers read off the grid's
cached layouts (block-table rows, and whether the sources agree) and compare
each distinct key's blocks once, never dense products; kernel dimensions,
isometry residuals and the adjoint pairing read cells too, the 1-d cocycle
solve runs on per-cell kernels, and the 2-d one and the commutant count on
the grid pair's symbols (``GridRep2.pair``), so no battery assembles a
dense grid translation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import add

import numpy as np

from .cocycle import (
    CocycleSpace,
    cocycle_space,
    extend_cocycle,
    family_witness_residual,
    index,
    index_formula_projection_family,
    restrict_to_subsemigroup,
)
from .commutant import (
    are_unitarily_equivalent,
    structured_commutant_dim,
    truncated_commutant_oracle,
)
from .induced import (
    GridRep1,
    GridRep2,
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
from .linalg import DEFAULT_TOL, ToleranceConfig, adjoint_kernel
from .repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    reflection_family,
    reparametrize,
    strong_purity_check,
    truncated_infinite_reflection_family,
    validate,
)

__all__ = ["CheckResult", "SuiteReport", "verify_suite", "induce_report", "PRESETS"]


@dataclass(frozen=True)
class CheckResult:
    check: str
    description: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    values: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # numpy scalars sneak in through comparisons; coerce at the boundary
        out = {
            "check": self.check,
            "description": self.description,
            "passed": bool(self.passed),
        }
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.values:
            out["values"] = _jsonable(self.values)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class SuiteReport:
    preset: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(bool(c.passed) for c in self.checks)

    def to_json(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _worst(deviations) -> float:
    """Largest absolute entry over arrays or residuals; 0.0 for none.

    np.max propagates a NaN, where a Python max() fold drops one not first.
    """
    return float(np.max([np.max(np.abs(d)) for d in deviations], initial=0.0))


def _residual_check(
    check: str,
    description: str,
    residual: float,
    tolerance: float,
    values: dict | None = None,
    requires: bool = True,
) -> CheckResult:
    """A check that passes iff ``requires`` holds and residual <= tolerance;
    a NaN residual fails."""
    return CheckResult(
        check=check,
        description=description,
        passed=bool(requires and residual <= tolerance),
        residual=residual,
        tolerance=tolerance,
        values=values or {},
    )


def _grid_times(m: int, horizon: int, axes: int) -> list[tuple[float, ...]]:
    """Every grid time (j_1/m, …, j_axes/m) with 0 <= j <= horizon·m."""
    return list(product([j / m for j in range(horizon * m + 1)], repeat=axes))


def _keys(*columns: np.ndarray) -> set[tuple]:
    """The distinct rows of per-cell integer columns, as tuples."""
    return set(zip(*(column.tolist() for column in columns)))


def _distinct_deviation(keys: set[tuple], left, right) -> float:
    """max|P − Q| for translations compared cell by cell, from the distinct
    per-cell keys (*P's block key, Q's block key, whether the cell's sources
    agree): the block difference where the sources agree, else both whole
    blocks. ``left`` and ``right`` form a block from its key; each distinct
    key is evaluated once and the worst decides, as in
    ``isometry_deviation``."""
    deviations = []
    for *p, q, same in keys:
        a, b = left(*p), right(q)
        deviations.append(np.abs(a - b) if same else np.maximum(np.abs(a), np.abs(b)))
    return _worst(deviations)


def _adjoint_deviation(g: GridRep1 | GridRep2, times) -> float:
    """V(t)* from its regions against V(t) conjugate-transposed: cell d of V*
    reads src⁻¹(d) through B[src⁻¹(d)]*, the cell map being a permutation."""
    keys = set()
    for ts in times:
        source, rows, table = g._layout(ts, 1)
        inverse = np.argsort(source)
        adjoint_source, adjoint_rows, adjoint_table = g._layout(ts, -1)
        keys |= _keys(adjoint_rows, rows[inverse], adjoint_source == inverse)
    # the block tables only grow, so the last ones read hold every row
    return _distinct_deviation(keys, adjoint_table.__getitem__, lambda r: table[r].conj().T)


def _semigroup_deviation(g: GridRep1 | GridRep2, pairs) -> float:
    """V(a)V(b) against V(a + b): cell c of the product reads src_b(src_a(c))
    through B_a[c]·B_b[src_a(c)]."""
    keys = set()
    for a, b in pairs:
        source_a, rows_a, _ = g._layout(a, 1)
        source_b, rows_b, _ = g._layout(b, 1)
        source, rows, table = g._layout(tuple(map(add, a, b)), 1)
        keys |= _keys(rows_a, rows_b[source_a], rows, source_b[source_a] == source)
    return _distinct_deviation(keys, lambda ra, rb: table[ra] @ table[rb], table.__getitem__)


def _adjoint_check(times, *grids: GridRep1 | GridRep2) -> CheckResult:
    """The region-assembled adjoint against V conjugate-transposed, on every
    grid at every time."""
    if isinstance(grids[0], GridRep1):
        axes, regions = "1d", "region-assembled"
    else:
        axes, regions = "2d", "four-region"
    return _residual_check(
        f"adjoint_region_formula_{axes}",
        f"{regions} adjoint equals the conjugate transpose",
        _worst(_adjoint_deviation(g, times) for g in grids),
        1e-12,
    )


def _semigroup_check(pairs, description: str, *grids: GridRep1 | GridRep2) -> CheckResult:
    """V(a)V(b) = V(a + b) entrywise for every pair of grid times (a, b)."""
    worst = _worst(_semigroup_deviation(g, pairs) for g in grids)
    return _residual_check("semigroup_law_exact", description, worst, 0.0)


def _axis_flip_check(grid: GridRep2) -> CheckResult:
    """V(s, 0) against the flip conjugate of 1 ⊗ V₁(s), V₁ the 1-d grid of
    W1, at s in [0, 1]: cell (cx, cy) reads (src(cx), cy) through B(cx)."""
    m = grid.M
    line = induce_1d(grid.rep.W1, m)
    keys = set()
    for (s,) in _grid_times(m, 1, 1):
        line_source, line_rows, line_table = line._layout((s,), 1)
        source, rows, table = grid._layout((s, 0), 1)
        conjugate = (line_source[:, None] * m + np.arange(m)).ravel()
        keys |= _keys(line_rows.repeat(m), rows, conjugate == source)
    return _residual_check(
        "axis_flip_identity",
        "x-translations are the flip conjugates of ampliated 1-d translations",
        _distinct_deviation(keys, line_table.__getitem__, table.__getitem__),
        0.0,
    )


def _grid_preservation_checks(
    space: CocycleSpace,
    grid: GridRep2,
    tol: ToleranceConfig,
    seed: int,
    scalar_commutant: bool = False,
) -> list[CheckResult]:
    """Index and commutant preservation on ``grid``, the grid of ``space.rep``.

    The generator-pair cocycle space of the grid must have the base dimension
    and be spanned by the lifted base cocycles. For a finite family, the grid
    commutant must also be the ampliated base commutant, one-dimensional too
    when ``scalar_commutant`` is set.
    """
    rep, m = space.rep, grid.M
    solved = grid_cocycle_pair_basis(grid, tol)
    lifts = [lift_cocycle_2d(coc, grid, tol) for coc in space.basis]
    stacked = np.array([np.concatenate([f.at(1 / m, 0), f.at(0, 1 / m)]) for f in lifts]).T
    # worst distance of a lifted generator pair from the solved span
    span_dev = _worst([stacked - solved @ (solved.conj().T @ stacked)] if lifts else [])
    checks = [
        _residual_check(
            "grid_pair_cocycles_match_base",
            "the grid generator-pair cocycle space has the base dimension "
            "and is spanned by the lifted cocycles",
            span_dev,
            1e-10,
            values={"grid_dim": solved.shape[1], "base_dim": space.dim},
            requires=solved.shape[1] == space.dim,
        )
    ]
    if rep.family is not None and rep.family.kind == "finite":
        report = induced_commutant_check_2d(grid, tol, seed)
        checks.append(
            CheckResult(
                check="grid_commutant_is_ampliated",
                description="both inclusions between the grid commutant and the "
                "ampliated base commutant hold",
                passed=report.ok and (report.structured_dim == 1 or not scalar_commutant),
                values=report.as_dict(),
            )
        )
    return checks


def _example2_family() -> ProjectionFamily:
    return reflection_family(np.array([0.5, 0.5, 0.5, 0.5]))


def _example2_rep(L: int = 8, guard: int = 3) -> IsoRep2:
    return build_projection_family_rep(_example2_family(), TruncationParams(4, L, guard))


def seeded_random_family(rng: np.random.Generator, n: int) -> ProjectionFamily:
    """Random unitary (with a planted fixed subspace) over standard projections."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    k = int(rng.integers(0, n + 1))
    angles = rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k)
    u = q @ np.diag(np.concatenate([np.ones(k), np.exp(1j * angles)])) @ q.conj().T
    projections = tuple(
        np.diag([1.0 + 0j if i == j else 0.0 for i in range(n)]) for j in range(n)
    )
    return ProjectionFamily(projections=projections, unitary=u)


def _suite_example2(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    fam = _example2_family()
    rep = _example2_rep()
    checks = []

    result = index(rep, tol)
    checks.append(
        CheckResult(
            check="index_stable_across_truncations",
            description="cocycle-space dimension agrees at L=8 and L=12 and equals 3",
            passed=result.is_finite and result.value == 3,
            values={"index": result.to_json()},
        )
    )
    formula = index_formula_projection_family(fam, tol)
    checks.append(
        CheckResult(
            check="index_equals_fixed_space_dim",
            description="index equals dim ker(U-1) for the projection family",
            passed=result.value == formula == 3,
            values={"kernel_formula": formula},
        )
    )
    space = cocycle_space(rep, tol)
    checks.append(
        _residual_check(
            "cocycle_witness_structure",
            "every basis cocycle is the canonical lift of a U-fixed vector",
            _worst(family_witness_residual(c, fam, rep) for c in space.basis),
            tol.identity_tol,
        )
    )
    sdim = structured_commutant_dim(fam, tol)
    odim = truncated_commutant_oracle(
        build_projection_family_rep(fam, TruncationParams(4, 16, 8)), tol, seed
    )
    checks.append(
        CheckResult(
            check="commutant_is_scalar",
            description="structured commutant dim 1 (irreducible), oracle at L=16 agrees",
            passed=sdim == 1 and odim == 1,
            values={"structured_dim": sdim, "oracle_dim": odim},
        )
    )
    purity = strong_purity_check(rep, depth=3, tol=tol)
    checks.append(
        CheckResult(
            check="generators_strongly_pure",
            description="interior range ranks decay at the shift-multiplicity rate",
            passed=purity.verdict == "strongly_pure",
            values=purity.as_dict(),
        )
    )
    b = np.array([0.8, 0.1, 0.1, 0.1])
    fam_b = reflection_family(b / np.linalg.norm(b))
    verdict = are_unitarily_equivalent(fam, fam_b, tol, seed)
    checks.append(
        CheckResult(
            check="moduli_mismatch_inequivalent",
            description="reflection vectors with different coordinate moduli give "
            "an empty intertwiner space",
            passed=verdict.status == "inequivalent",
            values={"verdict": verdict.status},
        )
    )
    return checks


def _suite_example3(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    fam8 = truncated_infinite_reflection_family(8)
    rep8 = build_projection_family_rep(fam8)
    result = index(rep8, tol)
    checks = [
        CheckResult(
            check="index_grows_with_size",
            description="snapshot sizes 8 and 16 give dimensions 7 and 15",
            passed=result.kind == "unbounded_with_truncation"
            and tuple(result.dims) == (7, 15),
            values={"index": result.to_json()},
        ),
        CheckResult(
            check="snapshot_irreducible",
            description="structured commutant of the size-8 snapshot is scalar",
            passed=structured_commutant_dim(fam8, tol) == 1,
        ),
    ]
    return checks


def _suite_projection_random(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    dims_match = []
    oracle_match = []
    trials = []
    for _ in range(10):
        n = int(rng.integers(2, 6))
        fam = seeded_random_family(rng, n)
        formula = index_formula_projection_family(fam, tol)
        rep = build_projection_family_rep(fam)
        space = cocycle_space(rep, tol)
        rep16 = build_projection_family_rep(fam, TruncationParams(n, 16, 2 * n))
        sdim = structured_commutant_dim(fam, tol)
        odim = truncated_commutant_oracle(rep16, tol, seed)
        dims_match.append(space.dim == formula)
        oracle_match.append(odim == sdim)
        trials.append(
            {
                "n": n,
                "cocycle_dim": space.dim,
                "kernel_formula": formula,
                "structured_dim": sdim,
                "oracle_dim": odim,
            }
        )
    return [
        CheckResult(
            check="random_family_index_formula",
            description="cocycle dimension equals dim ker(U-1) for 10 seeded unitaries",
            passed=all(dims_match),
            values={"trials": trials},
        ),
        CheckResult(
            check="random_family_commutant_agreement",
            description="truncated oracle equals structured commutant dim at L=16",
            passed=all(oracle_match),
        ),
    ]


def _suite_reparam(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    rep = _example2_rep(L=16, guard=3)
    fam = rep.family
    sub = reparametrize(rep, (1, 1), (2, 1))
    checks = []

    base_index = index(rep, tol)
    sub_index = index(sub, tol)
    checks.append(
        CheckResult(
            check="restriction_preserves_index",
            description="index is 3 before and after passing to the sub-semigroup "
            "generated by (1,1) and (2,1)",
            passed=base_index.is_finite
            and sub_index.is_finite
            and base_index.value == sub_index.value == 3,
            values={"base": base_index.to_json(), "sub": sub_index.to_json()},
        )
    )
    sdim = structured_commutant_dim(fam, tol)
    odim = truncated_commutant_oracle(sub, tol, seed)
    checks.append(
        CheckResult(
            check="restriction_preserves_commutant",
            description="commutant dimension 1 before and after reparametrization",
            passed=sdim == 1 and odim == 1,
            values={"structured_dim": sdim, "sub_oracle_dim": odim},
        )
    )
    purity = strong_purity_check(sub, depth=2, tol=tol)
    checks.append(
        CheckResult(
            check="reparametrized_generators_pure",
            description="both reparametrized generators classified strongly pure",
            passed=purity.verdict == "strongly_pure",
            values=purity.as_dict(),
        )
    )
    gaps = []
    for c in cocycle_space(rep, tol).basis:
        values = restrict_to_subsemigroup(c, rep, (1, 1), (2, 1), tol)
        gaps.append(extend_cocycle(rep, (1, 1), (2, 1), values, tol).stacked() - c.stacked())
    checks.append(
        _residual_check(
            "extend_restrict_roundtrip",
            "extending the restricted cocycle recovers the original pair",
            _worst(gaps),
            1e-10,
        )
    )
    return checks


def _suite_induced1d(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    m_cells = 4
    times = _grid_times(m_cells, 2, 1)
    pairs = [(a, b) for j, a in enumerate(times) for b in times[: len(times) - j]]
    grids, dims, additivity, pairing, kernel_dims = [], {}, [], [], []
    for mult in (1, 2, 3):
        sigma, interior = shift_fiber(mult, levels=8, guard=2)
        grid = induce_1d(sigma, m_cells, interior)
        grids.append(grid)
        dims[mult] = grid_cocycle_space_1d(grid, 2, tol)

        kernel = adjoint_kernel(sigma, tol)
        for col in range(kernel.shape[1]):
            lift = lift_cocycle_1d(kernel[:, col], grid, tol)
            additivity += [
                lift.additivity_residual((j / m_cells,), (k / m_cells,))
                for j in range(m_cells + 1)
                for k in range(m_cells + 1)
                if j + k > 0
            ]
        kernel_dims += [
            grid_adjoint_kernel(grid, (j / m_cells,), tol).shape[1] == j * kernel.shape[1]
            for j in range(1, m_cells)
        ]
        t = (3 / m_cells,)
        for _ in range(20):
            xi = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
            zeta = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
            lhs = np.vdot(zeta, grid.apply(t, xi, sign=-1))
            rhs = np.vdot(grid.apply(t, zeta), xi)
            pairing.append(lhs - rhs)

    isometry = _worst(g.isometry_deviation(ts, g.fiber_interior) for g in grids for ts in times)
    return [
        CheckResult(
            check="grid_cocycle_dim_equals_multiplicity",
            description="solved grid cocycle dimension equals the shift multiplicity",
            passed=all(dims[m] == m for m in dims),
            values={"dims": {str(k): v for k, v in dims.items()}},
        ),
        _residual_check(
            "lifted_cocycle_additivity",
            "lifted step cocycles satisfy additivity at all grid pairs within horizon 2",
            _worst(additivity),
            1e-10,
        ),
        _adjoint_check(times, *grids),
        _semigroup_check(pairs, "V(s)V(t) = V(s+t) entrywise at grid times", *grids),
        _residual_check(
            "interior_isometry", "V(t)*V(t) = 1 after interior compression", isometry, 1e-12
        ),
        CheckResult(
            check="kernel_dimension_matches",
            description="dim ker V(t)* = (tM)·dim ker sigma* for fractional t",
            passed=all(kernel_dims),
        ),
        _residual_check(
            "adjoint_pairing",
            "<V(t)* xi, eta> = <xi, V(t) eta> on random vectors",
            _worst(pairing),
            1e-12,
        ),
    ]


def _suite_induced2d(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    rep = _example2_rep()
    m_cells = 2
    grid = induce_2d(rep, m_cells)
    space = cocycle_space(rep, tol)
    lifts = [lift_cocycle_2d(coc, grid, tol) for coc in space.basis]
    additivity = [
        lift.additivity_residual((s, t), (1 - s, 1 - t))
        for lift in lifts
        for s, t in _grid_times(m_cells, 1, 2)
    ]
    return [
        _adjoint_check(_grid_times(m_cells, 2, 2), grid),
        _axis_flip_check(grid),
        _residual_check(
            "lifted_cocycle_additivity_2d",
            "lifted step cocycles satisfy 2-d additivity at grid pairs",
            _worst(additivity),
            1e-10,
        ),
        *_grid_preservation_checks(space, grid, tol, seed, scalar_commutant=True),
    ]


PRESETS = {
    "example2": _suite_example2,
    "example3_trunc": _suite_example3,
    "projection_random": _suite_projection_random,
    "reparam": _suite_reparam,
    "induced1d": _suite_induced1d,
    "induced2d": _suite_induced2d,
}


def verify_suite(
    preset: str, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> SuiteReport:
    """Run one named battery; unknown preset names raise ValueError."""
    try:
        runner = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    return SuiteReport(preset=preset, seed=seed, checks=tuple(runner(tol, seed)))


def induce_report(
    rep: IsoRep2, m: int, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> SuiteReport:
    """Induced-semigroup verification battery for a user-supplied pair."""
    vrep = validate(rep, tol)
    checks = [
        _residual_check(
            "pair_validates",
            "interior isometry and commutation of the generators",
            _worst([vrep.isometry_dev_w1, vrep.isometry_dev_w2, vrep.commutation_dev]),
            tol.identity_tol,
        )
    ]
    # nothing downstream is meaningful for an invalid pair
    if checks[0].passed:
        grid = induce_2d(rep, m)
        times = _grid_times(m, 1, 2)
        checks += [
            _adjoint_check(times, grid),
            _semigroup_check(
                [(st, st[::-1]) for st in times],
                "V(s,t)V(t,s) = V(s+t,s+t) entrywise at grid times",
                grid,
            ),
            *_grid_preservation_checks(cocycle_space(rep, tol), grid, tol, seed),
        ]
    return SuiteReport(preset=f"induce_m{m}", seed=seed, checks=tuple(checks))
