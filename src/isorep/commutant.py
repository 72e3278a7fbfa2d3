"""Commutants, irreducibility, and unitary equivalence.

Two spaces, one solver. The structured space is the commutant on C^n of U and
every P_i; the truncated oracle's is the star commutant of the pair on the
full C^n ⊗ C^L, an upper-bound heuristic at fixed truncation, certified only
by agreement with the structured answer. That cross-check compares different
matrices; the solver itself is tested against ``linalg.intertwiner_space``.

The solver gives the *-intertwiners {T : A T = T B, A* T = T B*} of two lists
of generators, and the star commutant is its case B = A. It works by
eigenspace refinement (Murota, Kanno, Kojima & Kojima, JJIAM 27, 2010), as
``star_intertwiner_basis`` describes. A checked family needs two generators:
its P_i are the spectral projections of H = Σ_i (i/d)·P_i, and T U = U T gives
T U* = U* T for unitary U. Unitary equivalence takes the polar factor of one
generic intertwiner as its witness and accepts it only when it intertwines to
within ``identity_tol``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, matrix_to_json, nullspace
from .repmodel import IsoRep2, ProjectionFamily, certify_two_truncations

__all__ = [
    "EquivalenceVerdict",
    "structured_commutant_dim",
    "structured_commutant_basis",
    "truncated_commutant_oracle",
    "star_commutant_basis",
    "star_intertwiner_basis",
    "is_irreducible",
    "are_unitarily_equivalent",
]


def structured_commutant_basis(
    fam: ProjectionFamily, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Orthonormal basis of {T0 on C^n : T0 U = U T0, T0 P_i = P_i T0 for all i}."""
    return star_commutant_basis(_checked_generators(fam, tol), tol)


def _checked_generators(fam: ProjectionFamily, tol: ToleranceConfig) -> list[np.ndarray]:
    """[U, H] with H = Σ_i (i/d)·P_i, whose spectral projections are the checked P_i."""
    fam.check(tol)
    levels = enumerate(fam.projections, start=1)
    return [fam.unitary, sum((i / fam.d) * np.asarray(p, dtype=complex) for i, p in levels)]


def structured_commutant_dim(fam: ProjectionFamily, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    return len(structured_commutant_basis(fam, tol))


def _random_algebra_element(
    mats: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """A generically-spectrumed self-adjoint element of the *-algebra
    generated by ``mats`` (first- and second-order words with random
    coefficients)."""
    n = mats[0].shape[0]
    words = list(mats) + [a @ b for a in mats for b in mats]
    h = np.zeros((n, n), dtype=complex)
    for w in words:
        c1, c2 = rng.normal(), rng.normal()
        h += c1 * (w + w.conj().T) + c2 * 1j * (w - w.conj().T)
    return h


def _matched_entries(
    w_a: np.ndarray, w_b: np.ndarray, gap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (alpha, beta) of the entries T may use: w_a[alpha]
    and w_b[beta] fall in one cluster of the joint sorted spectrum, clustered
    at ``gap``.

    Entries come column-major. Merging near-degenerate eigenvalues keeps every
    true intertwiner representable in these coordinates.
    """
    joint = np.concatenate([w_a, w_b])
    order = np.argsort(joint, kind="stable")
    cluster = np.empty(joint.size, dtype=int)
    cluster[order] = np.concatenate([[0], np.cumsum(np.diff(joint[order]) > gap)])
    beta, alpha = np.nonzero(cluster[w_a.size :, None] == cluster[None, : w_a.size])
    return alpha, beta


def _eigenbasis(mats: list[np.ndarray], seed: int):
    """Spectrum w and eigenbasis q of the seeded random algebra element, and
    the generators Â = q* A q in it."""
    w, q = np.linalg.eigh(_random_algebra_element(mats, np.random.default_rng(seed)))
    return w, q, [q.conj().T @ a @ q for a in mats]


def star_intertwiner_basis(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> list[np.ndarray]:
    """Orthonormal basis of {T : A T = T B and A* T = T B* for all (A, B)};
    equal sizes only.

    The same seeded random word gives self-adjoint h_A and h_B with
    h_A T = T h_B, so in their eigenbases q_A, q_B, T lives on the m entries
    (α_k, β_k) whose eigenvalues share a cluster (``_matched_entries``). With
    Â = q_A* A q_A, B̂ = q_B* B q_B, S = ÂÂ* + Â*Â and
    X_kl = Â[α_k,α_l]·conj(B̂[β_k,β_l]), the constraints vec(T B̂ − Â T) =
    vec(T B̂* − Â* T) = 0 have the m×m Gram matrix G_kl = Σ δ(α_k,α_l)·S_B[β_l,β_k]
    + δ(β_k,β_l)·S_A[α_k,α_l] − 2·(X_kl + conj(X_lk)). Its eigenvectors with
    λ = σ² ≤ rank_tol·scale² are candidates, whose direct residuals decide the
    rank at σ ≤ rank_tol·scale; scale ≥ max |A_ij|, |B_ij| lets rounding noise
    keep the full space. When every pair is (A, A), the B side reuses the A
    side's eigenbasis, Â and S. Generators are named W1, W2, … in order when
    one has non-finite entries.
    """
    commutant = all(a is b for a, b in pairs)
    lhs = [np.asarray(a, dtype=complex) for a, _ in pairs]
    rhs = lhs if commutant else [np.asarray(b, dtype=complex) for _, b in pairs]
    if lhs[0].shape[0] != rhs[0].shape[0]:
        raise ValueError("star_intertwiner_basis needs equal dimensions")
    for i, (a, b) in enumerate(zip(lhs, rhs), start=1):
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError(f"W{i} has non-finite entries")
    side_a = w_a, q_a, hats_a = _eigenbasis(lhs, seed)
    w_b, q_b, hats_b = side_a if commutant else _eigenbasis(rhs, seed)
    scale = max(1.0, float(np.max(np.abs(w_a))), float(np.max(np.abs(w_b))))
    alpha, beta = _matched_entries(w_a, w_b, gap=1e-8 * scale)
    if not alpha.size:
        return []
    aa, bb = np.ix_(alpha, alpha), np.ix_(beta, beta)
    same_alpha, same_beta = alpha[:, None] == alpha, beta[:, None] == beta
    gram = np.zeros((alpha.size, alpha.size), dtype=complex)
    for a_hat, b_hat in zip(hats_a, hats_b):
        sa = a_hat @ a_hat.conj().T + a_hat.conj().T @ a_hat
        sb = sa if commutant else b_hat @ b_hat.conj().T + b_hat.conj().T @ b_hat
        x = a_hat[aa] * b_hat[bb].conj()
        gram += same_alpha * sb[bb].conj() + same_beta * sa[aa] - 2 * (x + x.conj().T)
    lam, vecs = np.linalg.eigh(gram)
    op_scale = max([np.sqrt(max(lam[-1], 0.0))] + [np.max(np.abs(a)) for a in lhs + rhs])
    candidates = vecs[:, lam <= tol.rank_tol * op_scale**2]
    if not candidates.shape[1]:
        return []
    t = np.zeros((candidates.shape[1], w_a.size, w_b.size), dtype=complex)
    t[:, alpha, beta] = candidates.T
    residuals = [
        t @ g - f @ t
        for a, b in zip(hats_a, hats_b)
        for f, g in ((a, b), (a.conj().T, b.conj().T))
    ]
    flat = np.vstack([r.reshape(len(t), -1).T for r in residuals])
    kernel = nullspace(flat, tol, scale=float(op_scale))
    return list(q_a @ np.tensordot(kernel.T, t, axes=1) @ q_b.conj().T)


def star_commutant_basis(
    mats: list[np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> list[np.ndarray]:
    """Orthonormal basis of {T : A T = T A and A* T = T A* for all A}: the
    *-intertwiners of the pairs (A, A)."""
    return star_intertwiner_basis([(a, a) for a in mats], tol, seed)


def truncated_commutant_oracle(
    rep: IsoRep2, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> int:
    """Commutant dimension of the pair on the full truncated space: the
    number of independent T commuting with W1, W2 and their adjoints.

    No interior filter is applied: an element T0 ⊗ 1 of the structured
    commutant preserves shift levels, so its interior compression commutes
    with the compressed generators anyway. Heuristic at fixed L; trust it
    only when it agrees with the structured formula or is stable in L.
    """
    return len(star_commutant_basis([rep.W1, rep.W2], tol, seed))


def is_irreducible(
    obj: IsoRep2 | ProjectionFamily, tol: ToleranceConfig = DEFAULT_TOL
) -> bool | None:
    """True iff the commutant is one-dimensional.

    Families (and representations built from one) use the structured formula.
    Anything else falls back to the truncated oracle at two truncation
    levels; disagreement yields None (inconclusive).
    """
    if isinstance(obj, ProjectionFamily):
        return structured_commutant_dim(obj, tol) == 1
    if obj.family is not None and obj.family.kind == "finite":
        return structured_commutant_dim(obj.family, tol) == 1
    return oracle_irreducibility(obj, tol)[1]


def oracle_irreducibility(
    rep: IsoRep2, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> tuple[tuple[int, ...], bool | None]:
    """Truncated-oracle commutant dims at two truncations and the verdict
    they support: None unless the two dims certify."""
    dims, certified = certify_two_truncations(
        rep, lambda r: (truncated_commutant_oracle(r, tol, seed), True), tol
    )
    return dims, dims[0] == 1 if certified else None


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str  # equivalent | inequivalent | inconclusive
    witness: np.ndarray | None = field(default=None, compare=False)
    diagnostics: dict = field(default_factory=dict, compare=False)
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None else matrix_to_json(self.witness),
            "residuals": self.diagnostics,
            "seed": self.seed,
        }


def _equivalence_from_basis(
    basis: list[np.ndarray],
    check_pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: ToleranceConfig,
    seed: int,
) -> EquivalenceVerdict:
    """Decide whether the intertwiner space contains a unitary.

    The intertwiners of two equivalent *-representations are W·C, W unitary
    and C in the commutant, so a generic element T (the basis element of a
    one-dimensional space, else one seeded random combination) is invertible
    and its polar factor intertwines as well. That factor is the witness only
    if it intertwines every pair to within ``identity_tol``; otherwise the
    verdict is inconclusive.
    """
    if not basis:
        return EquivalenceVerdict(
            status="inequivalent", diagnostics={"intertwiner_dim": 0}, seed=seed
        )
    t = basis[0]
    if len(basis) > 1:
        rng = np.random.default_rng(seed)
        coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        t = sum(c * b for c, b in zip(coeff, basis))
    u, s, vh = np.linalg.svd(t)
    witness = u @ vh
    resid = {
        f"intertwine_{k}": float(np.max(np.abs(a @ witness - witness @ b)))
        for k, (a, b) in enumerate(check_pairs)
    }
    worst = float(np.max(list(resid.values())))
    if not worst <= tol.identity_tol:
        diagnostics = {
            "intertwiner_dim": len(basis),
            "best_cond": float(s[0] / s[-1]) if s[-1] > 0 else np.inf,
            "best_residual": worst,
        }
        return EquivalenceVerdict(status="inconclusive", diagnostics=diagnostics, seed=seed)
    resid["unitarity"] = float(
        np.max(np.abs(witness.conj().T @ witness - np.eye(witness.shape[1])))
    )
    resid["intertwiner_dim"] = len(basis)
    return EquivalenceVerdict(status="equivalent", witness=witness, diagnostics=resid, seed=seed)


def are_unitarily_equivalent(
    a: ProjectionFamily | IsoRep2,
    b: ProjectionFamily | IsoRep2,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> EquivalenceVerdict:
    """Unitary equivalence of two pairs, via their intertwiner space.

    Checked families sharing one projection list reduce to operators T0 on
    C^n intertwining the unitaries and commuting with H; an empty space
    settles inequivalence, a space containing a unitary (checked against
    every P_i) equivalence. Full truncated pairs of equal dimension go
    through the generic (heuristic) route.
    """
    if isinstance(a, ProjectionFamily) and isinstance(b, ProjectionFamily):
        (u_a, h), (u_b, _) = _checked_generators(a, tol), _checked_generators(b, tol)
        if a.n != b.n:
            raise ValueError(f"families live on different spaces: {a.n} vs {b.n}")
        if a.d != b.d or any(
            np.max(np.abs(p - q)) > tol.identity_tol
            for p, q in zip(a.projections, b.projections)
        ):
            raise ValueError("structured equivalence needs a shared projection list")
        solve = [(u_b, u_a), (h, h)]
        pairs = solve[:1] + [(p, p) for p in a.projections]
    elif isinstance(a, IsoRep2) and isinstance(b, IsoRep2):
        if a.dim != b.dim:
            raise ValueError(f"representations have different dimensions: {a.dim} vs {b.dim}")
        solve = pairs = [(b.W1, a.W1), (b.W2, a.W2)]
    else:
        raise TypeError("arguments must be two families or two representations")
    return _equivalence_from_basis(star_intertwiner_basis(solve, tol, seed), pairs, tol, seed)
