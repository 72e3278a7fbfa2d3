"""Named verification batteries over the library's structural identities.

Each preset runs a battery of checks and reports, per check, a stable
identifier, what identity was exercised, the worst residual or the dimensions
involved, and a verdict. The same batteries back the command-line
``verify-suite`` command and the acceptance tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cocycle import (
    CocycleSpace,
    cocycle_pair_basis,
    cocycle_space,
    evaluate,
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
    adjoint_1d,
    adjoint_2d,
    discrete_cocycle_values,
    grid_cocycle_space_1d,
    induce_1d,
    induce_2d,
    induced_commutant_check_2d,
    lift_cocycle_1d,
    lift_cocycle_2d,
    shift_fiber,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, nullspace
from .repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
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
    witness = max(family_witness_residual(c, fam, rep) for c in space.basis)
    checks.append(
        CheckResult(
            check="cocycle_witness_structure",
            description="every basis cocycle is the canonical lift of a U-fixed vector",
            passed=witness <= tol.identity_tol,
            residual=witness,
            tolerance=tol.identity_tol,
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
    space = cocycle_space(rep, tol)
    worst = 0.0
    for c in space.basis:
        values = restrict_to_subsemigroup(c, rep, (1, 1), (2, 1), tol)
        back = extend_cocycle(rep, (1, 1), (2, 1), values, tol)
        worst = max(worst, float(np.max(np.abs(back.stacked() - c.stacked()))))
    checks.append(
        CheckResult(
            check="extend_restrict_roundtrip",
            description="extending the restricted cocycle recovers the original pair",
            passed=worst <= 1e-10,
            residual=worst,
            tolerance=1e-10,
        )
    )
    return checks


def _suite_induced1d(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks = []
    m_cells = 4
    dims = {}
    additivity_worst = 0.0
    adjoint_worst = 0.0
    semigroup_worst = 0.0
    isometry_worst = 0.0
    pairing_worst = 0.0
    kernel_ok = True
    for mult in (1, 2, 3):
        sigma, interior = shift_fiber(mult, levels=8, guard=2)
        grid = induce_1d(sigma, m_cells, interior)
        dims[mult] = grid_cocycle_space_1d(grid, 2, tol)

        kernel = nullspace(sigma.conj().T, tol)
        for col in range(kernel.shape[1]):
            eta = discrete_cocycle_values(sigma, kernel[:, col], 3)
            lift = lift_cocycle_1d(eta, grid, tol)
            for j in range(m_cells + 1):
                for k in range(m_cells + 1):
                    if 0 < j + k <= 2 * m_cells:
                        additivity_worst = max(
                            additivity_worst,
                            lift.additivity_residual(j / m_cells, k / m_cells),
                        )
        mask = grid.interior_mask()
        interior = np.ix_(mask, mask)
        eye = np.eye(int(mask.sum()))
        for j in range(0, 2 * m_cells + 1):
            t = j / m_cells
            v = grid.V(t)
            adjoint_worst = max(
                adjoint_worst, float(np.max(np.abs(adjoint_1d(grid, t) - v.conj().T)))
            )
            isometry_worst = max(
                isometry_worst,
                float(np.max(np.abs((v.conj().T @ v)[interior] - eye))),
            )
            for k in range(0, 2 * m_cells + 1 - j):
                semigroup_worst = max(
                    semigroup_worst,
                    float(
                        np.max(
                            np.abs(grid.V(j / m_cells) @ grid.V(k / m_cells)
                                   - grid.V((j + k) / m_cells))
                        )
                    ),
                )
        for j in range(1, m_cells):
            t = j / m_cells
            want = j * kernel.shape[1]
            got = nullspace(grid.V(t).conj().T, tol).shape[1]
            kernel_ok = kernel_ok and got == want
        for _ in range(20):
            xi = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
            zeta = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
            t = 3 / m_cells
            lhs = np.vdot(zeta, adjoint_1d(grid, t) @ xi)
            rhs = np.vdot(grid.V(t) @ zeta, xi)
            pairing_worst = max(pairing_worst, abs(lhs - rhs))

    checks.append(
        CheckResult(
            check="grid_cocycle_dim_equals_multiplicity",
            description="solved grid cocycle dimension equals the shift multiplicity",
            passed=all(dims[m] == m for m in dims),
            values={"dims": {str(k): v for k, v in dims.items()}},
        )
    )
    checks.append(
        CheckResult(
            check="lifted_cocycle_additivity",
            description="lifted step cocycles satisfy additivity at all grid pairs "
            "within horizon 2",
            passed=additivity_worst <= 1e-10,
            residual=additivity_worst,
            tolerance=1e-10,
        )
    )
    checks.append(
        CheckResult(
            check="adjoint_region_formula_1d",
            description="region-assembled adjoint equals the conjugate transpose",
            passed=adjoint_worst <= 1e-12,
            residual=adjoint_worst,
            tolerance=1e-12,
        )
    )
    checks.append(
        CheckResult(
            check="semigroup_law_exact",
            description="V(s)V(t) = V(s+t) entrywise at grid times",
            passed=semigroup_worst == 0.0,
            residual=semigroup_worst,
            tolerance=0.0,
        )
    )
    checks.append(
        CheckResult(
            check="interior_isometry",
            description="V(t)*V(t) = 1 after interior compression",
            passed=isometry_worst <= 1e-12,
            residual=isometry_worst,
            tolerance=1e-12,
        )
    )
    checks.append(
        CheckResult(
            check="kernel_dimension_matches",
            description="dim ker V(t)* = (tM)·dim ker sigma* for fractional t",
            passed=kernel_ok,
        )
    )
    checks.append(
        CheckResult(
            check="adjoint_pairing",
            description="<V(t)* xi, eta> = <xi, V(t) eta> on random vectors",
            passed=pairing_worst <= 1e-12,
            residual=float(pairing_worst),
            tolerance=1e-12,
        )
    )
    return checks


def _grid_pair_cocycle_dim(
    space: CocycleSpace, m: int, tol: ToleranceConfig
) -> tuple[int, float]:
    """Solve the generator-pair cocycle system of the 2-d grid semigroup of
    ``space.rep`` and measure how far the lifted cocycles of the base space
    are from spanning it."""
    rep = space.rep
    grid = induce_2d(rep, m)
    solved = cocycle_pair_basis(grid.V(1 / m, 0), grid.V(0, 1 / m), tol)

    lifts = [lift_cocycle_2d(coc, rep, m, tol) for coc in space.basis]
    if not lifts:
        return solved.shape[1], 0.0
    stacked = np.array([np.concatenate([f.at(1 / m, 0), f.at(0, 1 / m)]) for f in lifts]).T
    # worst distance of a lifted generator pair from the solved span
    span_dev = float(np.max(np.abs(stacked - solved @ (solved.conj().T @ stacked))))
    return solved.shape[1], span_dev


def _suite_induced2d(tol: ToleranceConfig, seed: int) -> list[CheckResult]:
    rep = _example2_rep()
    m_cells = 2
    grid = induce_2d(rep, m_cells)
    checks = []

    adjoint_worst = 0.0
    for j1 in range(0, 2 * m_cells + 1):
        for j2 in range(0, 2 * m_cells + 1):
            s, t = j1 / m_cells, j2 / m_cells
            adjoint_worst = max(
                adjoint_worst,
                float(np.max(np.abs(adjoint_2d(grid, s, t) - grid.V(s, t).conj().T))),
            )
    checks.append(
        CheckResult(
            check="adjoint_region_formula_2d",
            description="four-region adjoint equals the conjugate transpose",
            passed=adjoint_worst <= 1e-12,
            residual=adjoint_worst,
            tolerance=1e-12,
        )
    )
    flip = grid.flip()
    g1x = induce_1d(rep.W1, m_cells)
    flip_worst = 0.0
    for j in range(0, m_cells + 1):
        s = j / m_cells
        lhs = flip @ np.kron(np.eye(m_cells), g1x.V(s)) @ flip
        flip_worst = max(flip_worst, float(np.max(np.abs(lhs - grid.V(s, 0)))))
    checks.append(
        CheckResult(
            check="axis_flip_identity",
            description="x-translations are the flip conjugates of ampliated "
            "1-d translations",
            passed=flip_worst == 0.0,
            residual=flip_worst,
            tolerance=0.0,
        )
    )
    space = cocycle_space(rep, tol)
    additivity_worst = 0.0
    for coc in space.basis:
        lift = lift_cocycle_2d(coc, rep, m_cells, tol)
        for js in range(m_cells + 1):
            for jt in range(m_cells + 1):
                st1 = (js / m_cells, jt / m_cells)
                st2 = ((m_cells - js) / m_cells, (m_cells - jt) / m_cells)
                additivity_worst = max(
                    additivity_worst, lift.additivity_residual(st1, st2)
                )
    checks.append(
        CheckResult(
            check="lifted_cocycle_additivity_2d",
            description="lifted step cocycles satisfy 2-d additivity at grid pairs",
            passed=additivity_worst <= 1e-10,
            residual=additivity_worst,
            tolerance=1e-10,
        )
    )
    dim, span_dev = _grid_pair_cocycle_dim(space, m_cells, tol)
    checks.append(
        CheckResult(
            check="grid_pair_cocycles_match_base",
            description="the grid generator-pair cocycle space has the base dimension "
            "and is spanned by the lifted cocycles",
            passed=dim == space.dim and span_dev <= 1e-10,
            residual=span_dev,
            tolerance=1e-10,
            values={"grid_dim": dim, "base_dim": space.dim},
        )
    )
    report = induced_commutant_check_2d(rep, m_cells, tol, seed)
    checks.append(
        CheckResult(
            check="grid_commutant_is_ampliated",
            description="both inclusions between the grid commutant and the "
            "ampliated base commutant hold",
            passed=report.ok and report.structured_dim == 1,
            values=report.as_dict(),
        )
    )
    return checks


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
    checks = []
    vrep = validate(rep, tol)
    checks.append(
        CheckResult(
            check="pair_validates",
            description="interior isometry and commutation of the generators",
            passed=vrep.ok,
            # np.max propagates a NaN deviation; Python max() drops one not first
            residual=np.max(
                [vrep.isometry_dev_w1, vrep.isometry_dev_w2, vrep.commutation_dev]
            ),
            tolerance=tol.identity_tol,
        )
    )
    if not vrep.ok:
        # nothing downstream is meaningful for an invalid pair
        return SuiteReport(preset=f"induce_m{m}", seed=seed, checks=tuple(checks))
    grid = induce_2d(rep, m)
    adjoint_worst = 0.0
    semigroup_worst = 0.0
    for j1 in range(0, m + 1):
        for j2 in range(0, m + 1):
            s, t = j1 / m, j2 / m
            adjoint_worst = max(
                adjoint_worst,
                float(np.max(np.abs(adjoint_2d(grid, s, t) - grid.V(s, t).conj().T))),
            )
            semigroup_worst = max(
                semigroup_worst,
                float(
                    np.max(
                        np.abs(grid.V(s, t) @ grid.V(t, s) - grid.V(s + t, s + t))
                    )
                ),
            )
    checks.append(
        CheckResult(
            check="adjoint_region_formula_2d",
            description="four-region adjoint equals the conjugate transpose",
            passed=adjoint_worst <= 1e-12,
            residual=adjoint_worst,
            tolerance=1e-12,
        )
    )
    checks.append(
        CheckResult(
            check="semigroup_law_exact",
            description="V(s,t)V(t,s) = V(s+t,s+t) entrywise at grid times",
            passed=semigroup_worst == 0.0,
            residual=semigroup_worst,
            tolerance=0.0,
        )
    )
    space = cocycle_space(rep, tol)
    dim, span_dev = _grid_pair_cocycle_dim(space, m, tol)
    checks.append(
        CheckResult(
            check="grid_pair_cocycles_match_base",
            description="grid generator-pair cocycle dimension matches the base space",
            passed=dim == space.dim and span_dev <= 1e-10,
            residual=span_dev,
            tolerance=1e-10,
            values={"grid_dim": dim, "base_dim": space.dim},
        )
    )
    if rep.family is not None and rep.family.kind == "finite":
        report = induced_commutant_check_2d(rep, m, tol, seed)
        checks.append(
            CheckResult(
                check="grid_commutant_is_ampliated",
                description="both inclusions between the grid commutant and the "
                "ampliated base commutant hold",
                passed=report.ok,
                values=report.as_dict(),
            )
        )
    return SuiteReport(preset=f"induce_m{m}", seed=seed, checks=tuple(checks))
