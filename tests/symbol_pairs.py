"""Random pairs whose W1 is exactly the level shift 1 ⊗ S and whose W2 is
Σ_k A_k ⊗ S^k for a random inner symbol, shared by the cocycle and
commutant tests, and the pair star commutant basis they check the T0 count
against."""
from functools import reduce

import numpy as np

from isorep import commutant
from isorep.linalg import DEFAULT_TOL, kron
from isorep.repmodel import IsoRep2, TruncationParams, truncated_shift


def unitary(rng, n, fixed=0):
    """Haar unitary, or one with ker(U - 1) of dimension ``fixed`` planted and
    the other eigenvalues kept away from 1."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    if not fixed:
        return q
    phases = np.exp(1j * rng.uniform(0.3, 2 * np.pi - 0.3, size=n - fixed))
    return q @ np.diag(np.concatenate([np.ones(fixed), phases])) @ q.conj().T


def random_rank_projections(rng, n):
    """d ∈ [1, n + 1] projections of random ranks (zero allowed) onto the
    coordinate blocks of a random basis."""
    basis = unitary(rng, n)
    d = int(rng.integers(1, n + 2))
    cuts = np.sort(rng.integers(0, n + 1, size=d - 1))
    bounds = [0, *cuts, n]
    return tuple(
        basis[:, lo:hi] @ basis[:, lo:hi].conj().T for lo, hi in zip(bounds, bounds[1:])
    )


def inner_shift_pair(rng, n, factors, guard, interior):
    """W1 = 1 ⊗ S and W2 = Σ_k A_k ⊗ S^k for the inner symbol
    Θ = Π_j U_j(P_j + zQ_j), P_j a random projection of random rank,
    Q_j = 1 − P_j, and random unitaries U_j whose product Θ(1) has a planted
    fixed space of random dimension: the cocycles are a ⊗ δ_0 with Θ(1)a = a."""
    units = [unitary(rng, n) for _ in range(factors - 1)]
    head = reduce(np.matmul, units, np.eye(n))
    units.append(head.conj().T @ unitary(rng, n, int(rng.integers(0, n + 1))))
    coeffs = [np.eye(n, dtype=complex)]
    for u in units:
        v = unitary(rng, n)[:, : rng.integers(0, n + 1)]
        p = v @ v.conj().T
        factor = (u @ p, u @ (np.eye(n) - p))
        coeffs = [
            sum(coeffs[i] @ factor[k - i] for i in range(len(coeffs)) if 0 <= k - i <= 1)
            for k in range(len(coeffs) + 1)
        ]
    trunc = TruncationParams(n, guard + interior, guard)
    w2 = np.zeros((n, trunc.L, n, trunc.L), dtype=complex)
    for offset, a in enumerate(coeffs):
        levels = np.arange(trunc.L - offset)
        w2[:, levels + offset, :, levels] = a
    w1 = kron(np.eye(n), truncated_shift(trunc.L))
    return IsoRep2(W1=w1, W2=w2.reshape(trunc.dim, trunc.dim), trunc=trunc)


def pair_star_commutant_basis(rep, tol=DEFAULT_TOL, seed=0):
    """Orthonormal basis of the pair's star commutant on C^n ⊗ C^L: every T
    with T W = W T and T W* = W* T for W = W1, W2. A level-shift pair's is
    T0 ⊗ 1_L/√L over the T0 of ``commutant._symbol_star_commutant``; every
    other pair takes the dense solve of (W1, W2)."""
    t0s = commutant._symbol_star_commutant(rep, tol, seed)
    if t0s is None:
        return commutant.star_commutant_basis([rep.W1, rep.W2], tol, seed)
    levels = np.eye(rep.trunc.L) / np.sqrt(rep.trunc.L)
    return [kron(t0, levels) for t0 in t0s]
