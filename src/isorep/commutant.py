"""Commutants, irreducibility, and unitary equivalence.

One solver, three spaces. The structured space is the commutant on C^n of U
and every P_i. The pair's star commutant on the full C^n ⊗ C^L is exact
algebra on the truncation when W1 is the bare level shift 1 ⊗ S and W2 is
Σ_k A_k ⊗ S^k: S and S* generate M_L, so every element is T0 ⊗ 1 with T0
in the star commutant of the A_k on C^n, since the S^k, k < L, are
independent. The truncated oracle and the grid check count that space by
its T0 (``_symbol_star_commutant``), forming no T0 ⊗ 1; any other pair takes
the dense solve of (W1, W2) on C^{nL}. The preset cross-checks compare the
count with the structured answer, and the solver itself is tested against
``linalg.intertwiner_space``.

The solver gives the *-intertwiners {T : A T = T B, A* T = T B*} of two lists
of generators, and the star commutant is its case B = A. It works by
eigenspace refinement (Murota, Kanno, Kojima & Kojima, JJIAM 27, 2010), as
``star_intertwiner_basis`` describes. A checked family needs two generators:
its P_i are the spectral projections of H = Σ_i (i/d)·P_i, and T U = U T gives
T U* = U* T for unitary U. Unitary equivalence takes the polar factor of one
generic intertwiner as its witness and accepts it only when it intertwines to
within ``identity_tol``; two level-shift pairs at one truncation solve it on
their symbols, on C^n. The level-shift routes read the pair's symbols
(``IsoRep2.pair_symbol``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, kron, matrix_to_json, nullspace
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


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Σ_k terms[k], added one at a time from zero in k order."""
    total = np.zeros(terms.shape[1:], dtype=complex)
    for term in terms:
        total += term
    return total


def _random_algebra_element(
    mats: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """A generically-spectrumed self-adjoint element of the *-algebra
    generated by ``mats``: Σ_w c1·(w + w*) + c2·i(w − w*) over the words w,
    the generators and then every product a·b, a the outer index. The
    words draw their (c1, c2) in that order and are summed in it."""
    gens = np.asarray(mats, dtype=complex)
    words = np.concatenate([gens, (gens[:, None] @ gens).reshape(-1, *gens.shape[1:])])
    c1, c2 = rng.normal(size=(len(words), 2, 1, 1)).transpose(1, 0, 2, 3)
    adj = _adjoints(words)
    terms = words + adj
    terms *= c1
    odd = words - adj
    odd *= c2 * 1j
    terms += odd
    return _ordered_sum(terms)


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


def _eigenbasis(mats: np.ndarray, seed: int):
    """Spectrum w and eigenbasis q of the seeded random algebra element of a
    stack of generators, and the stack of Â = q* A q in it."""
    w, q = np.linalg.eigh(_random_algebra_element(mats, np.random.default_rng(seed)))
    return w, q, q.conj().T @ mats @ q


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
    lhs = np.array([a for a, _ in pairs], dtype=complex)
    rhs = lhs if commutant else np.array([b for _, b in pairs], dtype=complex)
    if lhs.shape[1] != rhs.shape[1]:
        raise ValueError("star_intertwiner_basis needs equal dimensions")
    finite = np.isfinite(lhs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"W{np.argmin(finite) + 1} has non-finite entries")
    side_a = w_a, q_a, hats_a = _eigenbasis(lhs, seed)
    w_b, q_b, hats_b = side_a if commutant else _eigenbasis(rhs, seed)
    scale = max(1.0, float(np.max(np.abs(w_a))), float(np.max(np.abs(w_b))))
    alpha, beta = _matched_entries(w_a, w_b, gap=1e-8 * scale)
    if not alpha.size:
        return []
    # S and X of every generator at once; their Gram terms add in generator order
    adj_a = _adjoints(hats_a)
    adj_b = adj_a if commutant else _adjoints(hats_b)
    sa = hats_a @ adj_a + adj_a @ hats_a
    sb = sa if commutant else hats_b @ adj_b + adj_b @ hats_b
    aa, bb = (slice(None), alpha[:, None], alpha), (slice(None), beta[:, None], beta)
    same_alpha, same_beta = alpha[:, None] == alpha, beta[:, None] == beta
    x = hats_a[aa] * hats_b[bb].conj()
    terms = same_alpha * sb[bb].conj() + same_beta * sa[aa] - 2 * (x + _adjoints(x))
    lam, vecs = np.linalg.eigh(_ordered_sum(terms))
    op_scale = max(np.sqrt(max(lam[-1], 0.0)), np.max(np.abs(lhs)), np.max(np.abs(rhs)))
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
    basis = (kernel.T @ t.reshape(len(t), -1)).reshape(-1, *t.shape[1:])
    return list(q_a @ basis @ q_b.conj().T)


def star_commutant_basis(
    mats: list[np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> list[np.ndarray]:
    """Orthonormal basis of {T : A T = T A and A* T = T A* for all A}: the
    *-intertwiners of the pairs (A, A)."""
    return star_intertwiner_basis([(a, a) for a in mats], tol, seed)


def _symbol_star_commutant(rep: IsoRep2, tol: ToleranceConfig, seed: int) -> list | None:
    """The T0 of a level-shift pair's star commutant T0 ⊗ 1, exact on the
    truncation: one ``star_commutant_basis`` of the nonzero A_k of
    ``IsoRep2.pair_symbol`` on C^n. None for any other pair."""
    blocks = rep.pair_symbol
    if blocks is None:
        return None
    # W2 = 0 leaves T0 free: the star commutant of the zero block is M_n
    nonzero = [a for a in blocks if a.any()] or [blocks[0]]
    return star_commutant_basis(nonzero, tol, seed)


def truncated_commutant_oracle(
    rep: IsoRep2, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> int:
    """Commutant dimension of the pair on the full truncated space: the
    number of independent T commuting with W1, W2 and their adjoints,
    counted by the T0 of its elements T0 ⊗ 1 (``_symbol_star_commutant``)
    for a level-shift pair. No interior filter is applied: an element
    T0 ⊗ 1 of the structured commutant preserves shift levels, so its interior
    compression commutes with the compressed generators anyway. It is a
    count at fixed L; trust it only when it agrees with the structured
    formula or is stable in L.
    """
    t0s = _symbol_star_commutant(rep, tol, seed)
    return len(star_commutant_basis([rep.W1, rep.W2], tol, seed) if t0s is None else t0s)


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
    levels: int = 1,
) -> EquivalenceVerdict:
    """Decide whether the intertwiner space contains a unitary.

    The intertwiners of two equivalent *-representations are W·C, W unitary
    and C in the commutant, so a generic element T (the basis element of a
    one-dimensional space, else one seeded random combination) is invertible
    and its polar factor intertwines as well. That factor is the witness only
    if it intertwines every pair to within ``identity_tol``; otherwise the
    verdict is inconclusive. A pair of stacks (a symbol pair) is checked
    on every block. A symbol solve gives T0 on C^n, and its witness is T0's
    polar factor ⊗ 1 over ``levels`` shift levels.
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
    if levels > 1:
        witness = kron(witness, np.eye(levels))
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
    every P_i) equivalence.

    Two level-shift pairs at one truncation (``IsoRep2.pair_symbol``: W1 =
    1 ⊗ S and W2 = Σ_k A_k ⊗ S^k, and Σ_k B_k ⊗ S^k for b) are compared on
    their symbols: every *-intertwiner of 1 ⊗ S with itself is T0 ⊗ 1, and
    since the S^k, k < L, are independent, T0 ⊗ 1 intertwines W2 and W2*
    iff B_k T0 = T0 A_k and B_k* T0 = T0 A_k* for every k. That is one
    solve on C^n over the offsets where either block is nonzero, exact on
    the truncation. The witness's residuals are read on the symbols: on W1
    exactly 0, and on W2 the worst |B_k T0 − T0 A_k|. Other full truncated
    pairs of equal dimension go through the generic (heuristic) route.
    """
    levels = 1
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
        sym_a, sym_b = a.pair_symbol, b.pair_symbol
        if a.trunc == b.trunc and sym_a is not None and sym_b is not None:
            solve = [(y, x) for x, y in zip(sym_a, sym_b) if x.any() or y.any()]
            solve = solve or [(sym_b[0], sym_a[0])]
            # W1's symbol pair leaves a residual of exactly 0
            pairs = [(b.symbols[0], a.symbols[0]), (sym_b, sym_a)]
            levels = a.trunc.L
        else:
            solve = pairs = [(b.W1, a.W1), (b.W2, a.W2)]
    else:
        raise TypeError("arguments must be two families or two representations")
    basis = star_intertwiner_basis(solve, tol, seed)
    return _equivalence_from_basis(basis, pairs, tol, seed, levels)
