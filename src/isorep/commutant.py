"""Commutants, irreducibility, and unitary equivalence.

Two routes are kept deliberately separate: the structured route works on the
small space C^n via the generating unitary and projections, while the
truncated oracle works on the full C^n ⊗ C^L and is documented as an
upper-bound heuristic at fixed truncation, certified only by agreement with
the structured answer.

The star commutant of a set of generators is always solved by eigenspace
refinement (Murota, Kanno, Kojima & Kojima, JJIAM 27, 2010): a commutant
element is block diagonal in the eigenspaces of a random self-adjoint element
of the generated *-algebra, so only its m block entries are unknown, and
clustering eigenvalues conservatively can only enlarge that candidate space.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, intertwiner_space, matrix_to_json, nullspace
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

_UNITARY_COND_SLACK = 1e-6
_RANDOM_COMBINATIONS = 32


def structured_commutant_basis(
    fam: ProjectionFamily, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Basis of {T0 on C^n : T0 U = U T0, T0 P_i = P_i T0 for all i}."""
    fam.check(tol)
    pairs = [(fam.unitary, fam.unitary)]
    pairs += [(p, p) for p in fam.projections]
    return intertwiner_space(pairs, tol)


def structured_commutant_dim(
    fam: ProjectionFamily, tol: ToleranceConfig = DEFAULT_TOL
) -> int:
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


def _block_entries(w: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (alpha, beta) of the entries a block-diagonal T
    may use, for the blocks of the sorted spectrum ``w`` clustered at ``gap``.

    Blocks come in order and entries within a block column-major. Merging
    near-degenerate eigenvalues keeps every true commutant element
    representable in block coordinates.
    """
    block = np.concatenate([[0], np.cumsum(np.diff(w) > gap)])
    beta, alpha = np.nonzero(block[:, None] == block[None, :])
    return alpha, beta


def star_commutant_basis(
    mats: list[np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> list[np.ndarray]:
    """Orthonormal basis of {T : A T = T A and A* T = T A* for all A}.

    T lives on the m block entries (α_k, β_k) of the eigenbasis q of a random
    self-adjoint algebra element. With Â = q* A q, S = ÂÂ* + Â*Â and
    X_kl = Â[α_k,α_l]·conj(Â[β_k,β_l]), the constraints vec(T Â − Â T) =
    vec(T Â* − Â* T) = 0 have the m×m Gram matrix G_kl = Σ_A δ(α_k,α_l)·S[β_l,β_k]
    + δ(β_k,β_l)·S[α_k,α_l] − 2·(X_kl + conj(X_lk)). Its eigenvectors with λ = σ²
    ≤ rank_tol·scale² are candidates, whose direct residuals decide the rank at
    σ ≤ rank_tol·scale; scale ≥ max |A_ij| lets rounding noise keep the full space.
    Generators are named W1, W2, … in order when one has non-finite entries.
    """
    mats = [np.asarray(a, dtype=complex) for a in mats]
    for i, a in enumerate(mats, start=1):
        if not np.isfinite(a).all():
            raise ValueError(f"W{i} has non-finite entries")
    n = mats[0].shape[0]
    h = _random_algebra_element(mats, np.random.default_rng(seed))
    w, q = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(w))))
    alpha, beta = _block_entries(w, gap=1e-8 * scale)
    aa, bb = np.ix_(alpha, alpha), np.ix_(beta, beta)
    same_alpha, same_beta = alpha[:, None] == alpha, beta[:, None] == beta
    hats = [q.conj().T @ a @ q for a in mats]
    gram = np.zeros((alpha.size, alpha.size), dtype=complex)
    for a_hat in hats:
        s = a_hat @ a_hat.conj().T + a_hat.conj().T @ a_hat
        x = a_hat[aa] * a_hat[bb].conj()
        gram += same_alpha * s[bb].conj() + same_beta * s[aa] - 2 * (x + x.conj().T)
    lam, vecs = np.linalg.eigh(gram)
    op_scale = max([np.sqrt(max(lam[-1], 0.0))] + [np.max(np.abs(a)) for a in mats])
    candidates = vecs[:, lam <= tol.rank_tol * op_scale**2]
    t = np.zeros((candidates.shape[1], n, n), dtype=complex)
    t[:, alpha, beta] = candidates.T
    residuals = [t @ g - g @ t for a in hats for g in (a, a.conj().T)]
    flat = np.vstack([r.reshape(len(t), -1).T for r in residuals])
    kernel = nullspace(flat, tol, scale=float(op_scale))
    return list(q @ np.tensordot(kernel.T, t, axes=1) @ q.conj().T)


def star_intertwiner_basis(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> list[np.ndarray]:
    """Basis of {T : A_i T = T B_i and A_i* T = T B_i* for all i}.

    Computed as the off-diagonal corner of the commutant of the direct sums
    diag(A_i, B_i); equal sizes only.
    """
    a0, b0 = pairs[0]
    n = a0.shape[0]
    if b0.shape[0] != n:
        raise ValueError("star_intertwiner_basis needs equal dimensions")
    sums = []
    for a, b in pairs:
        s = np.zeros((2 * n, 2 * n), dtype=complex)
        s[:n, :n] = a
        s[n:, n:] = b
        sums.append(s)
    corners = [x[:n, n:] for x in star_commutant_basis(sums, tol, seed)]
    stacked = np.array([c.ravel(order="F") for c in corners])
    if stacked.size == 0:
        return []
    # orthonormalize; an intertwiner's corner has singular value 1, noise ~0
    u, s, vh = np.linalg.svd(stacked, full_matrices=False)
    keep = s > tol.rank_tol
    return [vh[j].reshape((n, n), order="F") for j in range(int(np.sum(keep)))]


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


def _unitary_candidate(t: np.ndarray) -> tuple[bool, np.ndarray | None, float]:
    s = np.linalg.svd(t, compute_uv=False)
    if s[0] == 0.0:
        return False, None, np.inf
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if cond <= 1.0 + _UNITARY_COND_SLACK:
        return True, t / s[0], cond
    return False, None, cond


def _equivalence_from_basis(
    basis: list[np.ndarray],
    check_pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: ToleranceConfig,
    seed: int,
) -> EquivalenceVerdict:
    """Decide whether the intertwiner space contains a unitary.

    Deciding that exactly is nonconvex; a one-dimensional space reduces to a
    condition-number test on its generator, and higher dimensions are probed
    with seeded random combinations. A well-conditioned candidate is the
    witness only if it intertwines every pair to within ``identity_tol``.
    """
    if not basis:
        return EquivalenceVerdict(
            status="inequivalent", diagnostics={"intertwiner_dim": 0}, seed=seed
        )
    rng = np.random.default_rng(seed)
    if len(basis) == 1:
        candidates = [basis[0]]
    else:
        candidates = []
        for _ in range(_RANDOM_COMBINATIONS):
            coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            candidates.append(sum(c * t for c, t in zip(coeff, basis)))
    best_cond = np.inf
    rejected = []  # worst residuals of well-conditioned non-intertwiners
    for t in candidates:
        ok, witness, cond = _unitary_candidate(t)
        best_cond = min(best_cond, cond)
        if not ok:
            continue
        resid = {
            f"intertwine_{k}": float(np.max(np.abs(a @ witness - witness @ b)))
            for k, (a, b) in enumerate(check_pairs)
        }
        worst = float(np.max(list(resid.values())))
        if not worst <= tol.identity_tol:
            rejected.append(worst)
            continue
        resid["unitarity"] = float(
            np.max(np.abs(witness.conj().T @ witness - np.eye(witness.shape[1])))
        )
        resid["intertwiner_dim"] = len(basis)
        return EquivalenceVerdict(
            status="equivalent", witness=witness, diagnostics=resid, seed=seed
        )
    diagnostics = {"intertwiner_dim": len(basis), "best_cond": best_cond}
    if rejected:
        diagnostics["best_residual"] = min(rejected)
    return EquivalenceVerdict(status="inconclusive", diagnostics=diagnostics, seed=seed)


def are_unitarily_equivalent(
    a: ProjectionFamily | IsoRep2,
    b: ProjectionFamily | IsoRep2,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> EquivalenceVerdict:
    """Unitary equivalence of two pairs, via their intertwiner space.

    Families sharing one projection list reduce to operators T0 on C^n
    intertwining the unitaries and commuting with every projection; an empty
    space settles inequivalence, a space containing a unitary settles
    equivalence. Full truncated pairs of equal dimension go through the
    generic (heuristic) route.
    """
    if isinstance(a, ProjectionFamily) and isinstance(b, ProjectionFamily):
        if a.n != b.n:
            raise ValueError(f"families live on different spaces: {a.n} vs {b.n}")
        if a.d != b.d or any(
            np.max(np.abs(p - q)) > tol.identity_tol
            for p, q in zip(a.projections, b.projections)
        ):
            raise ValueError("structured equivalence needs a shared projection list")
        pairs = [(b.unitary, a.unitary)]
        pairs += [(p, p) for p in a.projections]
        basis = intertwiner_space(pairs, tol)
        return _equivalence_from_basis(basis, pairs, tol, seed)
    if isinstance(a, IsoRep2) and isinstance(b, IsoRep2):
        if a.dim != b.dim:
            raise ValueError(f"representations have different dimensions: {a.dim} vs {b.dim}")
        pairs = [(b.W1, a.W1), (b.W2, a.W2)]
        basis = star_intertwiner_basis(pairs, tol, seed)
        return _equivalence_from_basis(basis, pairs, tol, seed)
    raise TypeError("arguments must be two families or two representations")
