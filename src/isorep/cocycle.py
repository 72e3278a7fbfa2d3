"""Additive cocycles of a commuting isometry pair and their dimension.

A cocycle of the pair (W1, W2) is determined by two vectors
eta10 ∈ ker(W1*), eta01 ∈ ker(W2*) satisfying the compatibility relation
eta10 + W1·eta01 = eta01 + W2·eta10; all other lattice values follow by
additivity. The space of such pairs is solved kernel first: the compatibility
relation is imposed only in the k1+k2 coordinates of ker W1* ⊕ ker W2*. It is
restricted to the interior so truncation artifacts in the guard band cannot
inflate the dimension. The index of the representation is that dimension,
certified by agreement at two truncation levels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, adjoint_kernel, matrix_to_json, nullspace
from .repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    certify_two_truncations,
    reparametrize,
    validate,
)

__all__ = [
    "Cocycle2",
    "CocycleSpace",
    "IndexResult",
    "InconsistentCocycleError",
    "cocycle_space",
    "cocycle_pair_basis",
    "index",
    "index_formula_projection_family",
    "evaluate",
    "evaluate_along_path",
    "restrict_to_subsemigroup",
    "extend_cocycle",
    "family_cocycle_from_vector",
    "family_witness_residual",
    "probe_truncation",
]


class InconsistentCocycleError(ValueError):
    """Raised when lattice evaluation is path-dependent beyond tolerance."""


@dataclass(frozen=True)
class Cocycle2:
    """The generator pair (eta_{(1,0)}, eta_{(0,1)}) of an additive cocycle."""

    eta10: np.ndarray
    eta01: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.eta10, self.eta01])

    def residuals(self, rep: IsoRep2) -> dict[str, float]:
        """Max-abs residuals of the two kernel constraints and compatibility."""
        k1 = rep.W1.conj().T @ self.eta10
        k2 = rep.W2.conj().T @ self.eta01
        compat = self.eta10 + rep.W1 @ self.eta01 - self.eta01 - rep.W2 @ self.eta10
        return {
            "kernel_w1": float(np.max(np.abs(k1))),
            "kernel_w2": float(np.max(np.abs(k2))),
            "compatibility": float(np.max(np.abs(compat))),
        }

    def max_residual(self, rep: IsoRep2) -> float:
        # np.max propagates a NaN, where max() drops one that is not first
        return float(np.max(list(self.residuals(rep).values())))

    def to_json(self) -> dict:
        return {
            "eta10": matrix_to_json(self.eta10.reshape(-1, 1)),
            "eta01": matrix_to_json(self.eta01.reshape(-1, 1)),
        }


@dataclass(frozen=True)
class CocycleSpace:
    basis: tuple[Cocycle2, ...]
    rep: IsoRep2 = field(compare=False, repr=False)
    stable: bool
    discarded: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def max_residual(self) -> float:
        return float(np.max([c.max_residual(self.rep) for c in self.basis], initial=0.0))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "stable": self.stable,
            "basis": [c.to_json() for c in self.basis],
            "residuals": {"max": self.max_residual()},
        }


def cocycle_pair_basis(
    w1: np.ndarray, w2: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis (2N×dim) of the stacked cocycle pairs of (w1, w2).

    Kernel first: K1, K2 span ker w1*, ker w2* (``adjoint_kernel``: a sketch
    of 1 − ww* sized by N − ‖w‖_F², kept when its rank is exactly that size
    and w* annihilates it, an SVD of w* otherwise), and the compatibility
    relation is solved over their k1+k2 coordinates,
    [(1 - w2)K1 | (w1 - 1)K2]. That cutoff is anchored at the
    isometries' scale 1: when w2 is the identity up to rounding, the matrix is
    noise that a purely relative cutoff counts as rank.
    """
    k1, k2 = adjoint_kernel(w1, tol), adjoint_kernel(w2, tol)
    return pair_basis_from_kernels(k1, k2, w1 @ k2, w2 @ k1, tol)


def pair_basis_from_kernels(
    k1: np.ndarray, k2: np.ndarray, w1k2: np.ndarray, w2k1: np.ndarray, tol: ToleranceConfig
) -> np.ndarray:
    """The compatibility solve of ``cocycle_pair_basis``, given orthonormal
    kernels K1, K2 of w1*, w2* and the products w1·K2, w2·K1."""
    if k1.shape[1] + k2.shape[1] == 0:
        return np.zeros((2 * k1.shape[0], 0), dtype=complex)
    coeffs = nullspace(np.hstack([k1 - w2k1, w1k2 - k2]), tol, scale=1.0)
    return np.vstack([k1 @ coeffs[: k1.shape[1]], k2 @ coeffs[k1.shape[1] :]])


def cocycle_space(rep: IsoRep2, tol: ToleranceConfig = DEFAULT_TOL) -> CocycleSpace:
    """Interior-supported solutions of the three cocycle constraints.

    The kernel-first pair solve gives an orthonormal basis of all solutions;
    the interior ones are the kernel of its guard-band rows (cutoff at scale
    1, the basis's norm), so the basis stays orthonormal. Solutions touching
    the guard band are truncation suspects; they are dropped and the space is
    flagged unstable when any were present.
    """
    report = validate(rep, tol)
    if not report.ok:
        raise ValueError(f"representation fails validation: {report.as_dict()}")
    full = cocycle_pair_basis(rep.W1, rep.W2, tol)
    guard_rows = full[~np.tile(rep.trunc.level_mask(), 2)]
    inner = full if guard_rows.size == 0 else full @ nullspace(guard_rows, tol, scale=1.0)
    n = rep.dim
    basis = tuple(Cocycle2(eta10=v[:n], eta01=v[n:]) for v in inner.T.copy())
    discarded = full.shape[1] - len(basis)
    return CocycleSpace(basis=basis, rep=rep, stable=discarded == 0, discarded=discarded)


@dataclass(frozen=True)
class IndexResult:
    """Index verdict: finite(k), unbounded_with_truncation, or unstable."""

    kind: str
    value: int | None = None
    dims: tuple[int, ...] = ()
    detail: str = ""

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def to_json(self) -> dict:
        if self.kind == "finite":
            body: dict = {"finite": self.value}
        elif self.kind == "unbounded_with_truncation":
            body = {"unbounded_with_truncation": {"dims": list(self.dims)}}
        else:
            body = {"unstable": {"dims": list(self.dims)}}
        if self.detail:
            body["detail"] = self.detail
        return body


def probe_truncation(n: int, d: int) -> TruncationParams:
    """Lean truncation for growth probes: guard ≥ d-1 keeps the cocycle
    system exact while L stays proportional to d."""
    return TruncationParams(n=n, L=2 * d + 4, guard=d + 1)


_UNSTABLE = "dimension or guard filtering disagrees across truncation levels"


def _certified_cocycle_dim(
    rep: IsoRep2, tol: ToleranceConfig
) -> tuple[tuple[int, ...], bool]:
    def measure(r: IsoRep2) -> tuple[int, bool]:
        space = cocycle_space(r, tol)
        return space.dim, space.stable

    return certify_two_truncations(rep, measure, tol)


def index(rep: IsoRep2, tol: ToleranceConfig = DEFAULT_TOL) -> IndexResult:
    """Cocycle-space dimension, certified across two truncation levels.

    Representations tagged as truncations of an infinite family are probed at
    twice their current size instead: a dimension that keeps growing is the
    finite shadow of an infinite index.
    """
    fam = rep.family
    if fam is not None and fam.kind == "truncated_infinite":
        return _index_growth_probe(fam, tol)
    dims, certified = _certified_cocycle_dim(rep, tol)
    if certified:
        return IndexResult(kind="finite", value=dims[0], dims=dims)
    if rep.rebuild is None:
        detail = "no rebuild recipe; dimension observed at a single truncation"
    else:
        detail = _UNSTABLE
    return IndexResult(kind="unstable", dims=dims, detail=detail)


def _index_growth_probe(fam: ProjectionFamily, tol: ToleranceConfig) -> IndexResult:
    dims: tuple[int, ...] = ()
    for size in (fam.n, 2 * fam.n):
        fam_s = fam if size == fam.n else fam.regenerate(size)
        rep = build_projection_family_rep(fam_s, probe_truncation(size, fam_s.d), tol)
        pair, certified = _certified_cocycle_dim(rep, tol)
        if not certified:
            return IndexResult(
                kind="unstable", dims=dims + pair, detail=f"{_UNSTABLE} at n={size}"
            )
        dims += pair[:1]
    if dims[1] > dims[0]:
        return IndexResult(kind="unbounded_with_truncation", dims=dims)
    return IndexResult(kind="finite", value=dims[0], dims=dims)


def index_formula_projection_family(
    fam: ProjectionFamily, tol: ToleranceConfig = DEFAULT_TOL
) -> int:
    """dim ker(U - 1); for finite families this is the cocycle dimension.

    U - 1 is a difference of unit-scale operators, so the rank decision is
    anchored at scale 1 rather than at the largest (possibly pure-noise)
    singular value.
    """
    u = np.asarray(fam.unitary, dtype=complex)
    return nullspace(u - np.eye(u.shape[0]), tol, scale=1.0).shape[1]


def evaluate_along_path(c: Cocycle2, rep: IsoRep2, path: list[int]) -> np.ndarray:
    """Accumulate eta along a monotone lattice path (steps 1 → e1, 2 → e2)."""
    eta = np.zeros(rep.dim, dtype=complex)
    for step in path:
        if step == 1:
            eta = c.eta10 + rep.W1 @ eta
        elif step == 2:
            eta = c.eta01 + rep.W2 @ eta
        else:
            raise ValueError("path steps must be 1 or 2")
    return eta


def evaluate(
    c: Cocycle2,
    rep: IsoRep2,
    point: tuple[int, int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """eta at a lattice point, asserting path-independence of the additivity
    recursion along the two extreme monotone paths."""
    m, n = int(point[0]), int(point[1])
    if m < 0 or n < 0:
        raise ValueError("lattice point must be nonnegative")
    rows_first = evaluate_along_path(c, rep, [1] * m + [2] * n)
    cols_first = evaluate_along_path(c, rep, [2] * n + [1] * m)
    dev = float(np.max(np.abs(rows_first - cols_first))) if rows_first.size else 0.0
    if dev > tol.identity_tol:
        raise InconsistentCocycleError(
            f"path-dependent evaluation at {point}: deviation {dev:.3e}"
        )
    return rows_first


def restrict_to_subsemigroup(
    c: Cocycle2,
    rep: IsoRep2,
    a: tuple[int, int],
    b: tuple[int, int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> dict[tuple[int, int], np.ndarray]:
    """Values of the cocycle on the generators of the sub-semigroup <a, b>."""
    a = (int(a[0]), int(a[1]))
    b = (int(b[0]), int(b[1]))
    return {a: evaluate(c, rep, a, tol), b: evaluate(c, rep, b, tol)}


def _decompose(
    g: tuple[int, int], a: tuple[int, int], b: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Coefficients (p, q), (p', q') ≥ 0 with g = (p·a + q·b) − (p'·a + q'·b).

    g = α·a + β·b has integer coordinates because det [a; b] = ±1; the
    positive parts of (α, β) give the first point, the negative parts the
    second.
    """
    det = a[0] * b[1] - a[1] * b[0]
    alpha = (g[0] * b[1] - g[1] * b[0]) // det
    beta = (a[0] * g[1] - a[1] * g[0]) // det
    return (max(alpha, 0), max(beta, 0)), (max(-alpha, 0), max(-beta, 0))


def extend_cocycle(
    rep: IsoRep2,
    a: tuple[int, int],
    b: tuple[int, int],
    eta_on_q: Mapping[tuple[int, int], np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Cocycle2:
    """Extend a cocycle of the sub-semigroup <a, b> back to the full lattice.

    For each standard generator g, writes g = x - y with x, y in <a, b>,
    evaluates the given cocycle at x and y by additivity, and sets
    xi_g = eta_x - V_g eta_y. Well-definedness is checked against a second
    decomposition, and the result must satisfy the cocycle constraints of the
    ambient pair.
    """
    a = (int(a[0]), int(a[1]))
    b = (int(b[0]), int(b[1]))
    rep_q = reparametrize(rep, a, b)
    c_q = Cocycle2(
        eta10=np.asarray(eta_on_q[a], dtype=complex).ravel(),
        eta01=np.asarray(eta_on_q[b], dtype=complex).ravel(),
    )
    if not np.isfinite(c_q.stacked()).all():
        raise ValueError("eta_on_q must have finite entries")
    # the tests below are written so that a NaN deviation fails them
    worst = c_q.max_residual(rep_q)
    if not (worst <= tol.identity_tol):
        raise ValueError(
            f"eta_on_q is not a cocycle of the reparametrized pair (residual {worst:.3e})"
        )

    xi: dict[tuple[int, int], np.ndarray] = {}
    for g, v_g in (((1, 0), rep.W1), ((0, 1), rep.W2)):
        (p, q), (pp, qq) = _decompose(g, a, b)
        eta_x = evaluate(c_q, rep_q, (p, q), tol)
        eta_y = evaluate(c_q, rep_q, (pp, qq), tol)
        value = eta_x - v_g @ eta_y
        # second decomposition (shift both sides by a) must give the same xi_g
        eta_x2 = evaluate(c_q, rep_q, (p + 1, q), tol)
        eta_y2 = evaluate(c_q, rep_q, (pp + 1, qq), tol)
        value2 = eta_x2 - v_g @ eta_y2
        dev = float(np.max(np.abs(value - value2)))
        if not (dev <= tol.identity_tol):
            raise InconsistentCocycleError(
                f"extension of {g} depends on the decomposition (deviation {dev:.3e})"
            )
        xi[g] = value

    result = Cocycle2(eta10=xi[(1, 0)], eta01=xi[(0, 1)])
    worst = result.max_residual(rep)
    if not (worst <= tol.identity_tol):
        raise InconsistentCocycleError(
            f"extended pair violates the cocycle constraints (residual {worst:.3e})"
        )
    return result


def family_cocycle_from_vector(
    fam: ProjectionFamily, x: np.ndarray, rep: IsoRep2
) -> Cocycle2:
    """The canonical cocycle of a projection-family pair attached to
    x ∈ ker(U-1): eta10 = x ⊗ δ_0, eta01 = Σ_j U Q_{j+1} x ⊗ δ_j."""
    x = np.asarray(x, dtype=complex).ravel()
    n, L = rep.trunc.n, rep.trunc.L
    eta10 = np.zeros(n * L, dtype=complex)
    eta10[0::L] = x
    eta01 = np.zeros(n * L, dtype=complex)
    for j in range(fam.d - 1):
        yj = fam.unitary @ fam.q_complement(j + 1) @ x
        eta01[j::L] = yj
    return Cocycle2(eta10=eta10, eta01=eta01)


def family_witness_residual(
    c: Cocycle2, fam: ProjectionFamily, rep: IsoRep2
) -> float:
    """How far a cocycle is from the canonical ker(U-1) parametrization.

    Recovers x from the δ_0 slice of eta10 and rebuilds both components from
    it; the max-abs gap is zero exactly when the witness structure holds.
    """
    n, L = rep.trunc.n, rep.trunc.L
    x = c.eta10[0::L].copy()
    rebuilt = family_cocycle_from_vector(fam, x, rep)
    dev_eta10 = float(np.max(np.abs(c.eta10 - rebuilt.eta10)))
    dev_eta01 = float(np.max(np.abs(c.eta01 - rebuilt.eta01)))
    dev_fixed = float(np.max(np.abs(fam.unitary @ x - x))) if n else 0.0
    return max(dev_eta10, dev_eta01, dev_fixed)
