"""Dense complex linear algebra substrate.

Everything downstream (representation builders, cocycle solves, commutant
computations) reduces to Kronecker products and rank-revealing nullspaces
over dense complex matrices; ``intertwiner_space`` is the tests' dense
reference. Problem sizes stay in the low thousands, so dense storage and
SVDs are the right tool for a general kernel. ``adjoint_kernel`` is the SVD
of W*, for a matrix without known structure; the cocycle solve of a pair
whose W1 is the level shift 1 ⊗ S needs no adjoint kernel at all.
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
    treated as zero, and a zero matrix yields the full identity basis. A
    matrix with more rows than columns is first reduced to the R factor of
    its QR, whose SVD has the same singular values and right vectors, and a
    tall single column needs only its norm; wide and square matrices take
    the SVD directly.

    When ``a`` is a difference of unit-scale operators (e.g. U - 1 for a
    unitary U) pass ``scale=1.0``: otherwise a numerically-zero matrix has
    only rounding noise for singular values and the relative cutoff mistakes
    that noise for rank.
    """
    a = _as_complex_matrix(a)
    if a.size == 0:
        raise ValueError("nullspace of an empty matrix is undefined")
    if a.shape[1] == 1 < a.shape[0]:
        return _column_nullspace(a, tol, scale)
    if a.shape[0] > a.shape[1]:
        # a = QR with Q's columns orthonormal, so the square R has a's
        # singular values and right vectors, and its SVD forms no tall U
        a = np.linalg.qr(a, mode="r")
    # the full vh is needed to read kernel rows of a wide matrix
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = _rank_from_singular_values(s, tol, scale)
    return vh[rank:].conj().T


def _column_nullspace(a: np.ndarray, tol: ToleranceConfig, scale: float) -> np.ndarray:
    """``nullspace`` of a tall one-column matrix, whose one singular value
    is its 2-norm: the kernel is C (the basis [1]) or 0, as the SVD route
    gives them, byte for byte. The norm is taken of the column scaled by its
    largest entry, so tiny and huge columns neither underflow nor overflow.
    A NaN fails as the SVD route fails on it; an infinite entry makes that
    route's singular value NaN, which the rank rule counts as zero."""
    if np.isnan(a).any():
        raise np.linalg.LinAlgError("SVD did not converge")
    moduli = np.abs(a)
    top = moduli.max()
    norm = top * np.linalg.norm(moduli / top) if 0.0 < top < np.inf else top
    rank = _rank_from_singular_values(np.array([norm]), tol, scale)
    return np.ones((1, 1 - rank), dtype=complex).conj()


def numerical_rank(
    a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> int:
    """Rank at the same singular-value cutoff as ``nullspace``."""
    a = _as_complex_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return _rank_from_singular_values(s, tol, scale)


def adjoint_kernel(w: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker w*: ``nullspace(w.conj().T)``, the dense route
    for a matrix without known structure."""
    w = _as_complex_matrix(w)
    if not np.isfinite(w).all():
        raise ValueError("adjoint_kernel needs finite entries")
    return nullspace(w.conj().T, tol)


def _rank_from_singular_values(
    s: np.ndarray, tol: ToleranceConfig, scale: float
) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * max(float(s[0]), scale)))


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
