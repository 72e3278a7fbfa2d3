"""``generator_kernel`` against the dense kernel of W*, with its route.

Shared by test_linalg (random generators) and test_induced (altered pairs).
"""
from unittest import mock

import numpy as np

import isorep.linalg
import isorep.repmodel
from isorep.linalg import DEFAULT_TOL, nullspace
from isorep.repmodel import generator_kernel


def low_level_width(w, trunc):
    """n·g when w is exactly Σ_{0≤k≤g} A_k ⊗ S^k with g ≤ guard and g below the
    interior levels, and Σ_k A_k* A_{k+δ} = δ_{δ0}·1 at identity_tol; None
    otherwise. Read block by block, apart from the library's own tests."""
    n, L = trunc.n, trunc.L
    blocks = w.reshape(n, L, n, L).transpose(1, 3, 0, 2)  # (out level, in level, n, n)
    symbol = blocks[:, 0]
    zero = np.zeros((n, n))
    for i in range(L):
        for j in range(L):
            if not np.array_equal(blocks[i, j], symbol[i - j] if i >= j else zero):
                return None
    g = max((k for k in range(L) if symbol[k].any()), default=0)
    if g > trunc.guard or g >= trunc.interior_levels:
        return None
    for delta in range(g + 1):
        gram = sum(symbol[k].conj().T @ symbol[k + delta] for k in range(g + 1 - delta))
        if np.abs(gram - (delta == 0) * np.eye(n)).max() > DEFAULT_TOL.identity_tol:
            return None
    return n * g


def check_generator_kernel(w, trunc):
    """Assert that ``generator_kernel(w, trunc)`` has the dimension of
    nullspace(w*), an orthonormal basis and a projector gap ≤ 1e-12, and
    that ``nullspace`` saw no square system wider than n·g for a
    shift-invariant generator with an inner symbol, the N-wide one otherwise.
    Returns n·g, or None for the dense route."""
    shapes = []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return nullspace(a, *args, **kwargs)

    with mock.patch.object(isorep.repmodel, "nullspace", spy), mock.patch.object(
        isorep.linalg, "nullspace", spy
    ):
        basis = generator_kernel(w, trunc)
    reference = nullspace(w.conj().T)
    assert basis.shape == reference.shape
    k = basis.shape[1]
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(k)), initial=0.0) <= 1e-12
    gap = basis @ basis.conj().T - reference @ reference.conj().T
    assert np.max(np.abs(gap), initial=0.0) <= 1e-12
    width = low_level_width(w, trunc)
    if width is None:
        assert w.shape in shapes
    else:
        assert all(max(shape) <= width for shape in shapes)
    return width
