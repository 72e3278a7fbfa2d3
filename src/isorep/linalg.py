"""Dense complex linear algebra substrate.

Everything downstream (representation builders, cocycle solves, commutant
computations) reduces to Kronecker products and rank-revealing nullspaces
over dense complex matrices; ``intertwiner_space`` is the tests' dense
reference. Problem sizes stay in the low thousands, so dense storage and
SVDs are the right tool for a general kernel.

The kernel of an adjoint W* is the one exception. Every generator the library
builds is a partial isometry on the truncation, so ker W* is the range of the
projection 1 − WW*, of rank k = N − ‖W‖_F². ``adjoint_kernel`` reads that
range off an N×(k+8) Gaussian sketch (Halko, Martinsson & Tropp, SIAM Review
53, 2011) instead of an N×N SVD, and forms no N×N product. Two tests on the
sketch are the gate: its singular values show exactly rank k at the usual
cutoff, and W* annihilates the result at that cutoff. Together they imply that
WW* is a projection. Any input that fails either test, a custom pair's
generator say, falls back to ``nullspace(w*)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "kron",
    "nullspace",
    "numerical_rank",
    "adjoint_kernel",
    "intertwiner_space",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds shared across the library.

    rank_tol: relative singular-value cutoff; singular values below
        ``rank_tol * s_max`` count as zero. All operators handled here have
        exact 0/±1/unitary entries, so the spectral gap is large and a tight
        default avoids phantom dimensions.
    identity_tol: max-abs deviation allowed when asserting operator
        identities.
    stabilization_delta: truncation-level increment used when a dimension has
        to agree at two truncation levels before being reported.
    """

    rank_tol: float = 1e-9
    identity_tol: float = 1e-10
    stabilization_delta: int = 4

    def __post_init__(self) -> None:
        if not (0.0 < self.rank_tol < 1.0):
            raise ValueError(f"rank_tol must lie in (0, 1), got {self.rank_tol}")
        if not (0.0 < self.identity_tol < 1.0):
            raise ValueError(f"identity_tol must lie in (0, 1), got {self.identity_tol}")
        if self.stabilization_delta < 1:
            raise ValueError("stabilization_delta must be a positive integer")


DEFAULT_TOL = ToleranceConfig()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the (A ⊗ B)(x ⊗ y) = Ax ⊗ By convention."""
    return np.kron(np.asarray(a), np.asarray(b))


def _as_complex_matrix(a: np.ndarray) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m


def nullspace(
    a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``a``.

    Returns an (n, k) array whose columns span {v : a @ v ≈ 0}. The rank
    decision is relative: singular values below ``rank_tol * s_max`` are
    treated as zero, and a zero matrix yields the full identity basis.

    When ``a`` is a difference of unit-scale operators (e.g. U - 1 for a
    unitary U) pass ``scale=1.0``: otherwise a numerically-zero matrix has
    only rounding noise for singular values and the relative cutoff mistakes
    that noise for rank.
    """
    a = _as_complex_matrix(a)
    if a.size == 0:
        raise ValueError("nullspace of an empty matrix is undefined")
    # the full vh is needed to read kernel rows; the left factor is not, and
    # for tall systems the reduced form already carries all of vh
    full = a.shape[0] < a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    rank = _rank_from_singular_values(s, tol, scale)
    return vh[rank:].conj().T


def numerical_rank(
    a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> int:
    """Rank at the same singular-value cutoff as ``nullspace``."""
    a = _as_complex_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return _rank_from_singular_values(s, tol, scale)


# columns of the sketch beyond k, and its fixed seed: reports stay deterministic
_SKETCH_OVERSAMPLE = 8
_SKETCH_SEED = 0


def adjoint_kernel(w: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker w*, the same space as ``nullspace(w.conj().T)``.

    For a partial isometry w, ker w* is the range of the projection 1 − ww*,
    of rank k = N − ‖w‖_F². For any w, the columns of Y = Ω − w(w*Ω), for an
    N×min(N, k+8) complex Gaussian Ω from a fixed seed, lie in
    range(1 − ww*) ⊇ ker w*. Y's first k left singular vectors Q are returned
    when two tests pass. Y's singular values give exactly rank k at the usual
    cutoff, anchored at Ω's largest column norm, so Q spans all of
    range(1 − ww*). And ‖w*Q‖_F ≤ rank_tol·‖w‖_F/√N ≤ rank_tol·‖w‖₂ puts that
    range inside ker w* at ``nullspace``'s cutoff. Together they say that ww*
    is a projection. A k outside [0, N], or a failed test, takes the full SVD
    route. w* is applied as (x*w)*, so no N×N product or copy is formed.
    """
    w = _as_complex_matrix(w)
    if not np.isfinite(w).all():
        raise ValueError("adjoint_kernel needs finite entries")
    n = w.shape[0]
    deficit = n - float(np.vdot(w, w).real)
    # ‖w‖_F² ≥ 0 keeps k ≤ N; an overfull w, or one whose norm overflows,
    # has k < 0 and no sketch
    if not deficit >= -0.5:
        return nullspace(w.conj().T, tol)
    k = int(round(deficit))
    rng = np.random.default_rng(_SKETCH_SEED)
    shape = (n, min(n, k + _SKETCH_OVERSAMPLE))
    omega = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    u, s, _ = np.linalg.svd(omega - w @ (omega.conj().T @ w).conj().T, full_matrices=False)
    kernel = u[:, :k]
    scale = float(np.max(np.linalg.norm(omega, axis=0)))
    if _rank_from_singular_values(s, tol, scale) != k or not (
        np.linalg.norm(kernel.conj().T @ w) <= tol.rank_tol * np.sqrt((n - deficit) / n)
    ):
        return nullspace(w.conj().T, tol)
    return kernel


def _rank_from_singular_values(
    s: np.ndarray, tol: ToleranceConfig, scale: float
) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * max(float(s[0]), scale)))


def intertwiner_space(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Basis of {T : A_i T = T B_i for all pairs (A_i, B_i)}: the tests' dense
    reference for the commutant solver, which no library path calls.

    Each A_i must be square of one size p and each B_i square of one size q;
    the returned T's are p×q, and an empty list means only T = 0 works. Uses
    column-stacking vectorization: vec(A T) = (I ⊗ A) vec T, vec(T B) = (Bᵀ ⊗ I) vec T.
    """
    if not pairs:
        raise ValueError("need at least one pair of matrices")
    mats = [(_as_complex_matrix(a), _as_complex_matrix(b)) for a, b in pairs]
    p = mats[0][0].shape[0]
    q = mats[0][1].shape[0]
    for a, b in mats:
        if a.shape != (p, p) or b.shape != (q, q):
            raise ValueError(
                f"all A_i must be {p}x{p} and all B_i {q}x{q}; got {a.shape}, {b.shape}"
            )
    blocks = [np.kron(np.eye(q), a) - np.kron(b.T, np.eye(p)) for a, b in mats]
    # anchor the rank cutoff at the operator scale: when every commutator is
    # rounding noise the kernel is the whole space, not empty
    scale = max(float(np.max(np.abs(m))) for a, b in mats for m in (a, b))
    basis = nullspace(np.vstack(blocks), tol, scale)
    return [basis[:, j].reshape((p, q), order="F") for j in range(basis.shape[1])]


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize to the row-major {"rows", "cols", "re", "im"} wire format."""
    a = _as_complex_matrix(a)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.ravel(order="C").tolist(),
        "im": a.imag.ravel(order="C").tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, with shape validation."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    for name, size in (("rows", rows), ("cols", cols)):
        # bool is an int subclass, and a size such as 2.5 must not be truncated
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise ValueError(
                f"matrix field {name}: expected a non-negative integer, got {size!r}"
            )
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"matrix entries have length {re.size}/{im.size}, expected {rows * cols}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return (re + 1j * im).reshape((rows, cols), order="C")
