"""Commuting isometry pairs on truncated spaces.

The model space is C^n ⊗ C^L, a truncation of H ⊗ ℓ²(N) that keeps the first
L shift levels. Index convention throughout: (h, level) ↦ h*L + level, i.e.
operators are Kronecker products kron(op_on_H, op_on_levels).

The truncated shift fails to be an isometry on its top level, so every
operator identity is asserted only after compression to the *interior*
H ⊗ span{δ_0, …, δ_{L-guard-1}}. With guard ≥ d-1 the generators built here
satisfy their identities exactly on the interior, not merely approximately.

The generators are level-shift invariant: W1 = 1 ⊗ S and W2 = Σ_i U P_i ⊗
S^{i-1} are Σ_k A_k ⊗ S^k, so each n×n level block equals the one a level
down and to the left, and with guard ≥ d-1 every offset k lies in 0 … guard.
The stacked A_0 … A_guard are the generator's *symbol*. A family pair is
built from its symbols, A_1 = 1 for W1 and A_k = U P_{k+1} for W2, and its
dense W1 and W2 are formed only when read. For a pair whose generators both
have a symbol, every interior block of W*W − 1 repeats one of block row 0
or its adjoint, the block diagonals Σ_k A_k* A_{k+δ} of the symbol Gram
(``IsoRep2.gram_diagonals``, formed once per pair and shared with the
cocycle solve's fallback), and every interior block of [W1, W2] repeats
one of block column 0 or is 0, so ``validate`` reads or multiplies only
those. When W1 is exactly 1 ⊗ S, its isometry and commutation deviations
are exactly 0, and only W2's Gram diagonals are read. Any other pair takes
the masked dense products. A pair with a non-finite entry fails before
anything is multiplied.

``level_shift_symbol`` tells, exactly, whether a matrix is Σ_k A_k ⊗ S^k,
and returns the A_k; ``is_level_shift`` whether it is the bare level shift
1 ⊗ S, the symbol (0, 1, 0, …). ``IsoRep2.symbols`` reads them at most once
per pair. The validation, the cocycle solve, the pair star commutant and
equivalence read the pair's symbols, never ``rep.family``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, matrix_from_json, numerical_rank

__all__ = [
    "TruncationParams",
    "ProjectionFamily",
    "IsoRep2",
    "ValidationReport",
    "PurityReport",
    "truncated_shift",
    "default_truncation",
    "reflection_family",
    "truncated_infinite_reflection_family",
    "uniform_profile",
    "direct_sum_family",
    "build_projection_family_rep",
    "build_reflection_rep",
    "is_level_shift",
    "level_shift_symbol",
    "validate",
    "interior_isometry_deviation",
    "strong_purity_check",
    "reparametrize",
    "sigma_power",
    "family_from_config",
    "rep_from_config",
]


@dataclass(frozen=True)
class TruncationParams:
    """Truncation metadata: H = C^n, shift levels δ_0…δ_{L-1}, guard band.

    The guard band is the top ``guard`` levels; identity checks exclude it.
    """

    n: int
    L: int
    guard: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (1 <= self.guard < self.L):
            raise ValueError(f"need 1 <= guard < L, got guard={self.guard}, L={self.L}")

    @property
    def dim(self) -> int:
        return self.n * self.L

    @property
    def interior_levels(self) -> int:
        return self.L - self.guard

    @property
    def interior_dim(self) -> int:
        return self.n * self.interior_levels

    def level_mask(self) -> np.ndarray:
        """Boolean mask over C^{nL} selecting interior coordinates."""
        levels = np.arange(self.L) < self.interior_levels
        return np.tile(levels, self.n)


def default_truncation(n: int, d: int) -> TruncationParams:
    """House rule L = 8d, guard = 2d: keeps cocycle supports (≤ d-1 levels)
    well inside the interior and the interior identities exact (guard ≥ d-1)."""
    return TruncationParams(n=n, L=8 * d, guard=2 * d)


def truncated_shift(L: int) -> np.ndarray:
    """L×L lower shift: S e_j = e_{j+1}, S e_{L-1} = 0."""
    s = np.zeros((L, L), dtype=complex)
    for j in range(L - 1):
        s[j + 1, j] = 1.0
    return s


def is_level_shift(w: np.ndarray, trunc: TruncationParams) -> bool:
    """Whether w is exactly 1 ⊗ S on C^n ⊗ C^L: its symbol
    (``level_shift_symbol``) is (0, 1, 0, …)."""
    return _is_shift_symbol(level_shift_symbol(w, trunc), trunc)


def level_shift_symbol(w: np.ndarray, trunc: TruncationParams) -> np.ndarray | None:
    """The blocks A_0 … A_guard, stacked, when w is exactly Σ_k A_k ⊗ S^k on
    C^n ⊗ C^L over 0 ≤ k ≤ guard with finite entries; else None.

    The test is exact: each level block equals the one a level down and to
    the left, level 0's row is zero right of the diagonal (no offset below
    0), and level 0's column is zero above level ``guard`` (no offset above
    it). Every entry of such a w is 0 or an entry of some A_k = w[level k,
    level 0], so a NaN anywhere fails the test and an infinity shows in the
    A_k.
    """
    if np.shape(w) != (trunc.dim, trunc.dim):
        return None
    n, L = trunc.n, trunc.L
    w = np.ascontiguousarray(w, dtype=complex)
    # tested as (re, im) float pairs, which numpy runs through SIMD loops
    f = w.view(float).reshape(n, L, n, L, 2)
    if not (
        (f[:, 1:, :, 1:] == f[:, :-1, :, :-1]).all()
        and not f[:, 0, :, 1:].any()
        and not f[:, trunc.guard + 1 :, :, 0].any()
    ):
        return None
    blocks = w.reshape(n, L, n, L)[:, : trunc.guard + 1, :, 0].transpose(1, 0, 2)
    return blocks if np.isfinite(blocks).all() else None


@dataclass(frozen=True)
class ProjectionFamily:
    """A unitary U together with mutually orthogonal projections summing to 1.

    ``kind`` is "truncated_infinite" for a size-n snapshot of an infinite
    family, whose ``regenerate`` recipe rebuilds it at another n so index
    computations can report growth instead of a single number, else "finite".
    """

    projections: tuple[np.ndarray, ...]
    unitary: np.ndarray
    regenerate: Callable[[int], "ProjectionFamily"] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def kind(self) -> str:
        return "finite" if self.regenerate is None else "truncated_infinite"

    @property
    def n(self) -> int:
        return self.unitary.shape[0]

    @property
    def d(self) -> int:
        return len(self.projections)

    def check(self, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        """Raise ValueError if the family invariants fail at identity_tol."""
        u = np.asarray(self.unitary, dtype=complex)
        n = u.shape[0]
        if u.shape != (n, n):
            raise ValueError("unitary must be square")
        if not np.isfinite(u).all():
            raise ValueError("U has non-finite entries")
        eye = np.eye(n)
        if max(_dev(u.conj().T @ u, eye), _dev(u @ u.conj().T, eye)) > tol.identity_tol:
            raise ValueError("U is not unitary at identity_tol")
        ps = [np.asarray(p, dtype=complex) for p in self.projections]
        for i, p in enumerate(ps):
            if p.shape != (n, n):
                raise ValueError(f"P_{i + 1} has shape {p.shape}, expected {(n, n)}")
        stack = np.array(ps).reshape(len(ps), n, n)

        def first(fails: np.ndarray, what: str) -> None:
            # each test runs on all P_i at once and names the first that fails it
            if fails.any():
                raise ValueError(f"P_{fails.argmax() + 1} {what}")

        first(~np.isfinite(stack).all(axis=(1, 2)), "has non-finite entries")
        first(_devs(stack, stack.conj().transpose(0, 2, 1), tol), "is not self-adjoint")
        first(_devs(stack @ stack, stack, tol), "is not idempotent")
        # P_i against [P_1 … P_{i−1}] side by side: O(d·n²) memory, no d²n² Gram
        side_by_side = stack.transpose(1, 0, 2).reshape(n, -1)
        for i in range(1, len(ps)):
            products = (stack[i] @ side_by_side[:, : i * n]).reshape(n, i, n)
            fails = _devs(products.transpose(1, 0, 2), 0.0, tol)
            if fails.any():
                j = fails.argmax()
                raise ValueError(f"P_{i + 1} P_{j + 1} != 0: projections not orthogonal")
        if _dev(stack.sum(axis=0), eye) > tol.identity_tol:
            raise ValueError("projections do not sum to the identity")

    def q_complement(self, k: int) -> np.ndarray:
        """Q_k = 1 - sum_{i<=k} P_i (Q_0 = 1, Q_d = 0)."""
        q = np.eye(self.n, dtype=complex)
        for p in self.projections[:k]:
            q = q - p
        return q


def _dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _devs(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """For each matrix of the stack a − b, whether its max-abs entry exceeds
    identity_tol."""
    return np.abs(a - b).max(axis=(1, 2), initial=0.0) > tol.identity_tol


@dataclass(frozen=True, init=False)
class IsoRep2:
    """A pair of commuting isometries (W1, W2) on C^n ⊗ C^L.

    ``family`` is set when the pair came from a projection-family build and
    enables the structured commutant/index formulas; the cocycle solve does
    not read it. ``rebuild`` reconstructs the same representation at a
    different truncation, which is what the two-level stability protocol
    needs.

    ``symbols`` is each generator's stacked A_0 … A_guard when it is exactly
    Σ_k A_k ⊗ S^k (``level_shift_symbol``), else None, read off the matrix
    at most once per pair. A pair built from its symbols
    (``build_projection_family_rep``) forms the dense W1 and W2 only when
    they are read, and marks them read-only. No array of a pair may be
    changed after construction: its symbols would no longer describe it.
    """

    W1: np.ndarray
    W2: np.ndarray
    trunc: TruncationParams
    family: ProjectionFamily | None = field(default=None, compare=False)
    rebuild: Callable[[TruncationParams], "IsoRep2"] | None = field(
        default=None, compare=False, repr=False
    )

    def __init__(self, W1, W2, trunc, family=None, rebuild=None) -> None:
        for name, value in (("trunc", trunc), ("family", family), ("rebuild", rebuild)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_dense", [W1, W2])
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _from_symbols(cls, symbols, trunc, family=None, rebuild=None) -> "IsoRep2":
        """The pair (Σ_k A_k ⊗ S^k, Σ_k B_k ⊗ S^k) of two stacked symbols
        A_0 … A_guard and B_0 … B_guard; no dense array is formed."""
        rep = cls(None, None, trunc, family, rebuild)
        rep._memo["symbols"] = tuple(map(_read_only, symbols))
        return rep

    def _generator(self, i: int) -> np.ndarray:
        if self._dense[i] is None:
            # only a pair built from its symbols has no dense generator
            self._dense[i] = _read_only(_level_scatter(self._memo["symbols"][i], self.trunc.L))
        return self._dense[i]

    W1 = property(lambda self: self._generator(0))
    W2 = property(lambda self: self._generator(1))

    @property
    def dim(self) -> int:
        return self.trunc.dim

    @property
    def symbols(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Each generator's stacked A_0 … A_guard, or None; read-only."""
        if "symbols" not in self._memo:
            self._memo["symbols"] = tuple(
                None if s is None else _read_only(s.copy())
                for s in (level_shift_symbol(w, self.trunc) for w in self._dense)
            )
        return self._memo["symbols"]

    @property
    def w1_is_shift(self) -> bool:
        """Whether W1 is exactly 1 ⊗ S: its symbol is (0, 1, 0, …); read at
        most once per pair."""
        if "w1_is_shift" not in self._memo:
            self._memo["w1_is_shift"] = _is_shift_symbol(self.symbols[0], self.trunc)
        return self._memo["w1_is_shift"]

    @property
    def pair_symbol(self) -> np.ndarray | None:
        """W2's symbol when the pair is a level-shift pair, W1 exactly 1 ⊗ S
        and W2 exactly Σ_k A_k ⊗ S^k; else None."""
        return self.symbols[1] if self.w1_is_shift else None

    def gram_diagonals(self, i: int) -> np.ndarray | None:
        """The block diagonals G_δ = Σ_k A_k* A_{k+δ} of generator i's
        symbol Gram, for 0 ≤ δ ≤ guard (G_{−δ} = G_δ*), or None without a
        symbol; formed at most once per pair, read-only."""
        key = ("gram", i)
        if key not in self._memo:
            blocks = self.symbols[i]
            self._memo[key] = (
                None if blocks is None else _read_only(_gram_diagonals(blocks, self.trunc))
            )
        return self._memo[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _gram_diagonals(blocks: np.ndarray, trunc: TruncationParams) -> np.ndarray:
    """``IsoRep2.gram_diagonals`` of a symbol, read off block row 0 of W*W:
    block (0, δ) is G_δ*. It is the product of W's block column 0 with the
    block-Toeplitz matrix of the symbol, whose sums run over the rows in W's
    order, as the dense route's do, which keeps their roundings close. The
    lags that ``validate`` reads, δ below min(guard + 1, interior levels),
    are one product of their own: BLAS can round a column differently in a
    wider product, and a short truncation reads fewer lags than the solve."""
    n, rows = trunc.n, trunc.guard + 1
    read = min(rows, trunc.interior_levels) * n
    col0 = _block_toeplitz(blocks, rows, 1).conj().T
    toeplitz = _block_toeplitz(blocks, rows, rows)
    row0 = np.hstack([col0 @ np.ascontiguousarray(toeplitz[:, :read]), col0 @ toeplitz[:, read:]])
    return row0.reshape(n, rows, n).transpose(1, 2, 0).conj()


def _shift_symbol(trunc: TruncationParams) -> np.ndarray:
    """The symbol (0, 1, 0, …) of 1 ⊗ S."""
    blocks = np.zeros((trunc.guard + 1, trunc.n, trunc.n), dtype=complex)
    blocks[1] = np.eye(trunc.n)
    return blocks


def _is_shift_symbol(blocks: np.ndarray | None, trunc: TruncationParams) -> bool:
    return blocks is not None and np.array_equal(blocks, _shift_symbol(trunc))


def _level_scatter(blocks: np.ndarray, L: int) -> np.ndarray:
    """Σ_k A_k ⊗ S^k on C^n ⊗ C^L: A_k on level offset k. `+=` keeps the
    bytes of the summed Kronecker products, whose +0.0 start turns a −0.0
    entry of A_k into +0.0."""
    n = blocks.shape[1]
    w = np.zeros((n, L, n, L), dtype=complex)
    for offset, a in enumerate(blocks[:L]):
        if a.any():
            levels = np.arange(L - offset)
            w[:, levels + offset, :, levels] += a
    return w.reshape(n * L, n * L)


def certify_two_truncations(
    rep: IsoRep2,
    measure: Callable[[IsoRep2], tuple[int, bool]],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[tuple[int, ...], bool]:
    """Measure a dimension at L and again rebuilt at L + stabilization_delta.

    ``measure`` returns (dim, stable). Returns the observed dims and whether
    they certify: both stable and equal. A representation without a rebuild
    recipe is measured once and never certifies.
    """
    first, stable = measure(rep)
    if rep.rebuild is None:
        return (first,), False
    bigger = replace(rep.trunc, L=rep.trunc.L + tol.stabilization_delta)
    second, stable2 = measure(rep.rebuild(bigger))
    return (first, second), stable and stable2 and first == second


def sigma_power(rep: IsoRep2, m: int, n: int) -> np.ndarray:
    """The lattice-point operator W1^m W2^n (the generators commute)."""
    if m < 0 or n < 0:
        raise ValueError("lattice exponents must be nonnegative")
    if not n:
        return np.linalg.matrix_power(rep.W1, m) if m else np.eye(len(rep.W1), dtype=rep.W1.dtype)
    out = np.linalg.matrix_power(rep.W2, n)
    return np.linalg.matrix_power(rep.W1, m) @ out if m else out


def build_projection_family_rep(
    fam: ProjectionFamily,
    trunc: TruncationParams | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> IsoRep2:
    """W1 = 1 ⊗ S, W2 = Σ_i (U P_i) ⊗ S^{i-1} on the truncation.

    Requires d ≤ L - guard so the highest shift power still acts inside the
    interior. The default truncation additionally keeps guard ≥ d-1, which
    makes the isometry/commutation identities exact on the interior.
    """
    fam.check(tol)
    return _assemble_family_rep(fam, _fit_truncation(fam, trunc))


def _assemble_family_rep(fam: ProjectionFamily, trunc: TruncationParams) -> IsoRep2:
    """The pair of a checked family at a fitted truncation, built from its
    symbols: A_1 = 1 for W1, and A_k = U P_{k+1} for W2. Offsets above the
    guard have no symbol within it, so such a pair is assembled densely. Its
    rebuild fits the new truncation and assembles again, with no second
    family check."""

    def rebuild(tr: TruncationParams) -> IsoRep2:
        return _assemble_family_rep(fam, _fit_truncation(fam, tr))

    w2 = np.array([fam.unitary @ p for p in fam.projections], dtype=complex)
    if fam.d - 1 > trunc.guard:
        w1 = _level_scatter(_shift_symbol(trunc), trunc.L)
        return IsoRep2(w1, _level_scatter(w2, trunc.L), trunc, family=fam, rebuild=rebuild)
    blocks = np.zeros((trunc.guard + 1, fam.n, fam.n), dtype=complex)
    blocks[: fam.d] = w2
    return IsoRep2._from_symbols((_shift_symbol(trunc), blocks), trunc, fam, rebuild)


def _fit_truncation(
    fam: ProjectionFamily, trunc: TruncationParams | None
) -> TruncationParams:
    if trunc is None:
        return default_truncation(fam.n, fam.d)
    if trunc.n != fam.n:
        raise ValueError(f"truncation n={trunc.n} does not match family n={fam.n}")
    if fam.d > trunc.interior_levels:
        raise ValueError(
            f"need d <= L - guard, got d={fam.d}, L-guard={trunc.interior_levels}"
        )
    return trunc


def reflection_family(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> ProjectionFamily:
    """Standard-basis projections with U = 1 - 2|a><a| for a unit vector a.

    Warns when some <a|e_i> vanishes: the irreducibility of the resulting
    representation needs every coordinate of a to be nonzero.
    """
    a = np.asarray(a, dtype=complex).ravel()
    n = a.size
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("reflection vector must be nonzero")
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"reflection vector must be unit norm, got ||a|| = {norm}")
    if np.min(np.abs(a)) <= tol.rank_tol:
        warnings.warn(
            "reflection vector has a vanishing coordinate; the representation "
            "need not be irreducible",
            stacklevel=2,
        )
    u = np.eye(n, dtype=complex) - 2.0 * np.outer(a, a.conj())
    projections = tuple(_coordinate_projection(n, i) for i in range(n))
    return ProjectionFamily(projections=projections, unitary=u)


def _coordinate_projection(n: int, i: int) -> np.ndarray:
    p = np.zeros((n, n), dtype=complex)
    p[i, i] = 1.0
    return p


def build_reflection_rep(
    a: np.ndarray,
    trunc: TruncationParams | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> IsoRep2:
    """Projection-family representation of the reflection family of ``a``."""
    return build_projection_family_rep(reflection_family(a, tol), trunc, tol)


def uniform_profile(n: int) -> np.ndarray:
    """All-coordinates-equal unit vector; every <a|e_i> = 1/sqrt(n) != 0."""
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def truncated_infinite_reflection_family(
    n: int,
    profile: Callable[[int], np.ndarray] = uniform_profile,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ProjectionFamily:
    """Size-n snapshot of an infinite reflection family.

    ``profile`` supplies the reflection vector at any size, so the snapshot
    can be regenerated at larger n to witness index growth.
    """
    base = reflection_family(profile(n), tol)

    def regenerate(m: int) -> ProjectionFamily:
        return truncated_infinite_reflection_family(m, profile, tol)

    return ProjectionFamily(
        projections=base.projections,
        unitary=base.unitary,
        regenerate=regenerate,
    )


def direct_sum_family(a: ProjectionFamily, b: ProjectionFamily) -> ProjectionFamily:
    """Blockwise direct sum; both families must have the same number of projections."""
    if a.d != b.d:
        raise ValueError("direct sum needs families of equal length")
    projections = tuple(
        _block_diag(p, q) for p, q in zip(a.projections, b.projections)
    )
    return ProjectionFamily(
        projections=projections, unitary=_block_diag(a.unitary, b.unitary)
    )


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


@dataclass(frozen=True)
class ValidationReport:
    isometry_dev_w1: float
    isometry_dev_w2: float
    commutation_dev: float
    tol: float

    @property
    def isometry_ok(self) -> bool:
        # a comparison with NaN is False; max() would drop a NaN that is not first
        return self.isometry_dev_w1 <= self.tol and self.isometry_dev_w2 <= self.tol

    @property
    def commutation_ok(self) -> bool:
        return self.commutation_dev <= self.tol

    @property
    def ok(self) -> bool:
        return self.isometry_ok and self.commutation_ok

    def as_dict(self) -> dict:
        return {
            "isometry_dev_w1": self.isometry_dev_w1,
            "isometry_dev_w2": self.isometry_dev_w2,
            "commutation_dev": self.commutation_dev,
            "tolerance": self.tol,
            "isometry_ok": self.isometry_ok,
            "commutation_ok": self.commutation_ok,
            "ok": self.ok,
        }


def interior_isometry_deviation(w: np.ndarray, mask: np.ndarray) -> float:
    """Largest entry of W*W − 1 on the rows and columns ``mask`` selects."""
    cols = w[:, mask]
    gram = cols.conj().T @ cols
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def validate(rep: IsoRep2, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Interior-compressed isometry and commutation deviations of the pair.

    The deviations are max|P(W*W − 1)P| per generator and max|P[W1, W2]P|,
    P the interior projector. A pair whose generators are both level-shift
    invariant (``level_shift_symbol``: W = Σ_k A_k ⊗ S^k with 0 ≤ k ≤ guard)
    takes them from its symbols:

    - the Gram block of interior levels (ℓ, ℓ + δ) is Σ_k A_k* A_{k−δ} for
      every ℓ, since the rows it sums over stop at ℓ + guard ≤ L − 1, so
      every interior block of W*W − 1 is a copy, or the adjoint of a copy,
      of one in block row 0, read off the block diagonals of the symbol
      Gram (``IsoRep2.gram_diagonals``);
    - the commutator block (ℓ + δ, ℓ) is Σ_k A1_{δ−k} A2_k − (swap), whose
      inner levels ℓ … ℓ + δ all exist, so every interior block of
      [W1, W2] on or below the diagonal is a copy of one in block column 0,
      and those above it are 0.

    When W1 is exactly 1 ⊗ S (``IsoRep2.pair_symbol``), only W2's Gram is
    read: 1 ⊗ S is an isometry on the interior, and Σ_k A_k ⊗ S^k commutes
    with it, so both other deviations are exactly 0.0, as the routes
    above return them (their terms are A_k times 0 or 1).

    Any other pair takes the masked dense products. The two routes agree up
    to the order of their sums. A non-finite entry anywhere, guard band
    included, makes every deviation NaN and the report fail; a symbol is
    finite.
    """
    tr = rep.trunc
    a1, a2 = rep.symbols
    if rep.pair_symbol is not None:
        devs = (0.0, _gram_isometry_deviation(rep.gram_diagonals(1), tr), 0.0)
    elif a1 is not None and a2 is not None:
        devs = (
            _gram_isometry_deviation(rep.gram_diagonals(0), tr),
            _gram_isometry_deviation(rep.gram_diagonals(1), tr),
            _symbol_commutation_deviation(a1, a2, tr),
        )
    elif not all(np.isfinite(w).all() for w in (rep.W1, rep.W2)):
        nan = float("nan")
        return ValidationReport(nan, nan, nan, tol=tol.identity_tol)
    else:
        mask = tr.level_mask()
        comm = rep.W1[mask] @ rep.W2[:, mask] - rep.W2[mask] @ rep.W1[:, mask]
        devs = (
            interior_isometry_deviation(rep.W1, mask),
            interior_isometry_deviation(rep.W2, mask),
            np.abs(comm).max(),
        )
    return ValidationReport(*map(float, devs), tol=tol.identity_tol)


def _gram_isometry_deviation(diagonals: np.ndarray, trunc: TruncationParams) -> float:
    """max|W*W − 1| over block row 0 of the interior, from the block
    diagonals of the symbol Gram (``IsoRep2.gram_diagonals``): block (0, δ)
    is Σ_k A_k* A_{k−δ} = G_δ*, for δ below min(guard + 1, interior
    levels); the blocks right of those have no term and are exactly 0."""
    row = diagonals[: min(trunc.guard + 1, trunc.interior_levels)].copy()
    row[0] -= np.eye(trunc.n)
    return np.abs(row).max()


def _block_toeplitz(blocks: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The level blocks (ℓ < rows, j < cols) of Σ_k A_k ⊗ S^k, block (ℓ, j)
    = A_{ℓ−j}, as a (n·rows)×(cols·n) matrix: rows (h, ℓ) as in W, columns
    (j, h)."""
    n = blocks.shape[1]
    out = np.zeros((n, rows, cols, n), dtype=complex)
    for j in range(min(cols, rows)):
        width = min(len(blocks), rows - j)
        out[:, j : j + width, j] = blocks[:width].transpose(1, 0, 2)
    return out.reshape(n * rows, cols * n)


def _symbol_commutation_deviation(
    a1: np.ndarray, a2: np.ndarray, trunc: TruncationParams
) -> float:
    """max|[W1, W2]| over block column 0 of the interior, summed over the
    inner levels below k = min(guard + 1, interior levels) that reach it;
    the interior levels from guard + k on have no term and are exactly 0."""
    n, k = trunc.n, min(trunc.guard + 1, trunc.interior_levels)
    rows = min(trunc.interior_levels, trunc.guard + k)

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _block_toeplitz(a, rows, k) @ b[:k].reshape(k * n, n)

    return np.abs(product(a1, a2) - product(a2, a1)).max()


@dataclass(frozen=True)
class PurityReport:
    verdict: str  # strongly_pure | not_pure | inconclusive
    generator_verdicts: tuple[str, str]
    multiplicities: tuple[int, int]
    rank_sequences: tuple[tuple[int, ...], tuple[int, ...]]
    faithful_depths: tuple[int, int]
    interior_dim: int

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "generator_verdicts": list(self.generator_verdicts),
            "multiplicities": list(self.multiplicities),
            "rank_sequences": [list(r) for r in self.rank_sequences],
            "faithful_depths": list(self.faithful_depths),
            "interior_dim": self.interior_dim,
        }


def level_climb(w: np.ndarray, trunc: TruncationParams, cutoff: float = 1e-12) -> int:
    """Largest shift-level raise among the nonzero blocks of ``w``.

    The generators built here are graded by shift level; a generator that
    climbs c levels per application keeps the interior compression of its
    powers faithful only up to depth (L - guard) / c.
    """
    # max|entry| of each n×n level block, indexed (out level, in level)
    table = np.abs(w).reshape(trunc.n, trunc.L, trunc.n, trunc.L).max(axis=0).max(axis=1)
    out_lv, in_lv = np.nonzero(table > cutoff)
    if out_lv.size == 0:
        return 0
    return int(np.max(out_lv - in_lv))


def strong_purity_check(
    rep: IsoRep2, depth: int, tol: ToleranceConfig = DEFAULT_TOL
) -> PurityReport:
    """Classify each generator by the decay of its interior-compressed range.

    A pure isometry of multiplicity m loses exactly m interior range
    dimensions per power: rank(P_int W^k) = max(0, interior_dim - k*m), while
    a unitary direct summand makes the rank stall above zero. Both patterns
    are only read off at depths where the interior compression still reflects
    the untruncated operator (k * level_climb ≤ L - guard); beyond that the
    guard band leaks into the ranks. The verdict is three-valued because a
    finite truncation can never certify purity outright.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > rep.trunc.interior_levels:
        raise ValueError(
            f"depth {depth} exceeds interior levels {rep.trunc.interior_levels}"
        )
    for name, w in (("W1", rep.W1), ("W2", rep.W2)):
        if not np.isfinite(w).all():
            raise ValueError(f"{name} has non-finite entries")
    mask = rep.trunc.level_mask()
    interior_dim = rep.trunc.interior_dim

    # dim ker W* at adjoint_kernel's cutoff, without its singular vectors
    mults = [rep.dim - numerical_rank(w, tol) for w in (rep.W1, rep.W2)]
    verdicts: list[str] = []
    rank_seqs: list[tuple[int, ...]] = []
    faithful: list[int] = []
    for w, m in zip((rep.W1, rep.W2), mults):
        # the interior rows of W^k, formed as (P W^(k-1)) W
        powers = accumulate([w[mask]] + [w] * (depth - 1), np.matmul)
        ranks = [numerical_rank(power, tol) for power in powers]
        climb = level_climb(w, rep.trunc)
        k_max = min(depth, rep.trunc.interior_levels // max(climb, 1))
        expected = [max(0, interior_dim - k * m) for k in range(1, k_max + 1)]
        if m == 0:
            verdicts.append("not_pure")
        elif k_max >= 1 and ranks[:k_max] == expected:
            verdicts.append("pure")
        elif any(r2 == r1 > 0 for r1, r2 in zip(ranks[:k_max], ranks[1:k_max])):
            verdicts.append("not_pure")
        else:
            verdicts.append("inconclusive")
        rank_seqs.append(tuple(ranks))
        faithful.append(k_max)

    if all(v == "pure" for v in verdicts):
        overall = "strongly_pure"
    elif any(v == "not_pure" for v in verdicts):
        overall = "not_pure"
    else:
        overall = "inconclusive"
    return PurityReport(
        verdict=overall,
        generator_verdicts=(verdicts[0], verdicts[1]),
        multiplicities=(mults[0], mults[1]),
        rank_sequences=(rank_seqs[0], rank_seqs[1]),
        faithful_depths=(faithful[0], faithful[1]),
        interior_dim=interior_dim,
    )


def reparametrize(
    rep: IsoRep2,
    a: tuple[int, int],
    b: tuple[int, int],
) -> IsoRep2:
    """Pair (W1^{a1} W2^{a2}, W1^{b1} W2^{b2}) viewed as new generators.

    a and b must generate a sub-semigroup spanning Z^2, checked via
    det [a; b] = ±1; ``extend_cocycle`` needs that to reach both standard
    generators. The guard widens by the larger level climb of the two new
    generators, so the interior identities stay exact for the reparametrized
    pair.
    """
    a = (int(a[0]), int(a[1]))
    b = (int(b[0]), int(b[1]))
    for point in (a, b):
        if point == (0, 0):
            raise ValueError("reparametrization points must be nonzero")
        if min(point) < 0:
            raise ValueError("reparametrization points must be nonnegative")
    det = a[0] * b[1] - a[1] * b[0]
    if abs(det) != 1:
        raise ValueError(f"semigroup generated by {a}, {b} does not span Z^2 (det {det})")
    if (a, b) == ((1, 0), (0, 1)):
        return rep

    old = rep.trunc
    climb1 = level_climb(rep.W1, old)
    climb2 = level_climb(rep.W2, old)
    widen = max(
        a[0] * climb1 + a[1] * climb2,
        b[0] * climb1 + b[1] * climb2,
        1,
    )
    if old.guard + widen >= old.L:
        raise ValueError(
            f"guard {old.guard}+{widen} would swallow the truncation L={old.L}; "
            "rebuild at a larger L first"
        )
    new_trunc = replace(old, guard=old.guard + widen)
    w1 = sigma_power(rep, *a)
    w2 = sigma_power(rep, *b)

    base_rebuild = rep.rebuild
    rebuild = None
    if base_rebuild is not None:

        def rebuild(tr: TruncationParams) -> IsoRep2:
            base_tr = replace(tr, guard=tr.guard - widen)
            return reparametrize(base_rebuild(base_tr), a, b)

    return IsoRep2(W1=w1, W2=w2, trunc=new_trunc, family=None, rebuild=rebuild)


def _config_matrix(obj, name: str) -> np.ndarray:
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"config field {name}: {exc}") from exc


def _config_int(config: dict, name: str, default: int | None = None) -> int:
    value = config.get(name, default)
    # bool is an int subclass, and a float such as 8.5 must not be truncated
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"config field {name}: expected an integer, got {value!r}")
    return value


def family_from_config(
    config: dict, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[ProjectionFamily | None, TruncationParams | None]:
    """Check every field of a JSON wire config and return its family (None
    for a custom config) and truncation, without assembling the pair.

    Schema: {"family": "projection" | "reflection" | "custom", "n", "L",
    "guard", "unitary": Matrix, "projections": [Matrix, …] | "standard_basis",
    "a_vector": […], "W1": Matrix, "W2": Matrix, "kind": "finite" |
    "truncated_infinite"}. Reflection vectors are normalized here so callers
    can pass unnormalized coordinates. A truncated_infinite reflection config
    takes the uniform profile at every size, so its a_vector must be uniform:
    one vector cannot fix the profile at other sizes. Only reflection configs
    describe a family at other sizes, so the other families must be finite.
    Without L the family's default truncation is taken, so guard needs L,
    and a given n must equal the family's size.
    """
    family = config.get("family")
    if family not in ("reflection", "projection", "custom"):
        raise ValueError(f"config field family: unknown kind {family!r}")
    kind = config.get("kind", "finite")
    if kind not in ("finite", "truncated_infinite"):
        raise ValueError(f"config field kind: unknown kind {kind!r}")
    if kind != "finite" and family != "reflection":
        raise ValueError(
            f"config field kind: {kind} needs family reflection, got {family!r}"
        )
    if "guard" in config and "L" not in config:
        raise ValueError("config field guard: needs L, the truncation it guards")
    trunc = None
    if "L" in config:
        trunc = TruncationParams(
            n=_config_int(config, "n") if "n" in config else _config_n(config),
            L=_config_int(config, "L"),
            guard=_config_int(config, "guard", 2),
        )
    if family == "custom":
        return None, trunc
    if family == "reflection":
        a = np.asarray(config["a_vector"], dtype=complex)
        norm = np.linalg.norm(a)
        if not np.isfinite(a).all() or norm == 0.0:
            raise ValueError("config field a_vector: need finite entries, not all zero")
        a = a / norm
        if kind == "finite":
            fam = reflection_family(a, tol)
        elif np.max(np.abs(a - a[0])) > tol.identity_tol:
            raise ValueError(
                "config field a_vector: kind truncated_infinite needs equal "
                "coordinates (the uniform profile)"
            )
        else:
            fam = truncated_infinite_reflection_family(a.size, tol=tol)
    else:
        unitary = _config_matrix(config["unitary"], "unitary")
        projections = config.get("projections", "standard_basis")
        if projections == "standard_basis":
            n = unitary.shape[0]
            projections = [_coordinate_projection(n, i) for i in range(n)]
        else:
            projections = [
                _config_matrix(p, f"projections[{i}]") for i, p in enumerate(projections)
            ]
        fam = ProjectionFamily(projections=tuple(projections), unitary=unitary)
    if "n" in config and _config_int(config, "n") != fam.n:
        raise ValueError(f"config field n: {config['n']} does not match family n={fam.n}")
    return fam, _fit_truncation(fam, trunc)


def rep_from_config(config: dict, tol: ToleranceConfig = DEFAULT_TOL) -> IsoRep2:
    """The representation of a JSON wire config (see family_from_config)."""
    fam, trunc = family_from_config(config, tol)
    if fam is not None:
        return build_projection_family_rep(fam, trunc, tol)
    w1 = _config_matrix(config["W1"], "W1")
    w2 = _config_matrix(config["W2"], "W2")
    if trunc is None:
        raise ValueError("config field L: required for custom representations")
    if w1.shape != (trunc.dim, trunc.dim) or w2.shape != (trunc.dim, trunc.dim):
        raise ValueError("config fields W1/W2: shape does not match n*L")
    return IsoRep2(W1=w1, W2=w2, trunc=trunc)


def _config_n(config: dict) -> int:
    if "a_vector" in config:
        return len(config["a_vector"])
    if "unitary" in config:
        return _config_matrix(config["unitary"], "unitary").shape[0]
    raise ValueError("config field n: required")
