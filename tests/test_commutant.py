import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isorep.commutant
import isorep.induced
import isorep.linalg
from isorep.commutant import (
    _equivalence_from_basis,
    _matched_entries,
    _random_algebra_element,
    are_unitarily_equivalent,
    is_irreducible,
    star_commutant_basis,
    star_intertwiner_basis,
    structured_commutant_basis,
    structured_commutant_dim,
    truncated_commutant_oracle,
)
from isorep.cli import main
from isorep.induced import induce_2d, induced_commutant_check_2d
from isorep.linalg import DEFAULT_TOL, intertwiner_space, nullspace
from isorep.repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    build_projection_family_rep,
    build_reflection_rep,
    direct_sum_family,
    reflection_family,
    reparametrize,
)
from isorep.suites import seeded_random_family, verify_suite

EX2_VECTOR = np.array([0.5, 0.5, 0.5, 0.5])


def coord_projections(n):
    return tuple(np.diag([1.0 + 0j if i == j else 0.0 for i in range(n)]) for j in range(n))


def identity_family(n):
    return ProjectionFamily(projections=coord_projections(n), unitary=np.eye(n, dtype=complex))


# --- structured commutant -------------------------------------------------------


def test_structured_example2_is_scalar():
    assert structured_commutant_dim(reflection_family(EX2_VECTOR)) == 1


def test_structured_identity_unitary_diagonal():
    assert structured_commutant_dim(identity_family(3)) == 3


def test_structured_scalar_case():
    assert structured_commutant_dim(identity_family(1)) == 1


def test_structured_dim_of_a_large_doubled_sum():
    # n = 64: the dense n²×n² route would need a 17 GB system
    fam = reflection_family(np.full(32, 1 / np.sqrt(32)))
    assert structured_commutant_dim(direct_sum_family(fam, fam)) == 4


# --- structured route against the dense reference ------------------------------------


def _unit_vector(rng, n):
    """Complex unit vector whose coordinates all have modulus ≥ 0.2 before
    normalization, so reflection_family never warns."""
    v = rng.uniform(0.2, 1.0, size=n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=n))
    return v / np.linalg.norm(v)


@st.composite
def structured_families(draw):
    """Checked families on C^n, n ≤ 6: seeded random unitaries over coordinate
    projections, complex reflections, equal and distinct direct sums of
    either, and non-coordinate projections of rank 1–3 with U a random
    unitary, P1 + iP2, 1 or P1 − P2 (the identity on the other blocks)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "reflection", "equal_sum", "distinct_sum", "blocks"]))
    makers = {
        "random": lambda n: seeded_random_family(rng, n),
        "reflection": lambda n: reflection_family(_unit_vector(rng, n)),
    }
    if kind in makers:
        return makers[kind](draw(st.integers(1, 6)))
    if kind != "blocks":
        make, n = makers[draw(st.sampled_from(sorted(makers)))], draw(st.integers(1, 3))
        first = make(n)
        return direct_sum_family(first, first if kind == "equal_sum" else make(n))
    n, ranks = draw(st.integers(1, 6)), []
    while sum(ranks) < n:
        ranks.append(draw(st.integers(1, min(3, n - sum(ranks)))))
    q, cuts = _random_unitary(rng, n), np.cumsum([0] + ranks)
    projections = tuple(q[:, i:j] @ q[:, i:j].conj().T for i, j in zip(cuts, cuts[1:]))
    second = projections[1] if len(projections) > 1 else 0.0
    unitary = {
        "random": _random_unitary(rng, n),
        "phase": np.eye(n) + (1j - 1) * second,
        "one": np.eye(n, dtype=complex),
        "flip": np.eye(n) - 2 * second,
    }[draw(st.sampled_from(["random", "phase", "one", "flip"]))]
    return ProjectionFamily(projections=projections, unitary=unitary)


def _structured_pairs(fam_a, fam_b):
    return [(fam_b.unitary, fam_a.unitary)] + [(p, p) for p in fam_a.projections]


@settings(max_examples=80, deadline=None)
@given(structured_families())
def test_structured_basis_matches_dense_reference(fam):
    pairs = _structured_pairs(fam, fam)
    basis = structured_commutant_basis(fam)
    assert len(basis) == len(intertwiner_space(pairs))
    for t in basis:
        assert _star_residual(t, pairs) <= 1e-8


@st.composite
def structured_family_pairs(draw):
    """(a, b) over a's projections: b is a conjugated by a unitary commuting
    with every P_i (equivalent), a redrawn unitary, or, on a direct sum, a
    redrawn unitary on the second summand only."""
    fam = draw(structured_families())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(["conjugate", "redraw", "half"]))
    if how == "conjugate":
        x = rng.normal(size=(fam.n, fam.n)) + 1j * rng.normal(size=(fam.n, fam.n))
        v = _exp_i(sum(p @ (x + x.conj().T) @ p for p in fam.projections))
        unitary = v @ fam.unitary @ v.conj().T
    elif how == "redraw":
        unitary = _random_unitary(rng, fam.n)
    else:
        half = seeded_random_family(rng, draw(st.integers(1, 3)))
        fam = direct_sum_family(half, seeded_random_family(rng, half.n))
        unitary = fam.unitary.copy()
        unitary[half.n :, half.n :] = _random_unitary(rng, half.n)
    return fam, ProjectionFamily(projections=fam.projections, unitary=unitary), how


@settings(max_examples=60, deadline=None)
@given(structured_family_pairs())
def test_family_equivalence_matches_dense_reference(case):
    fam_a, fam_b, how = case
    pairs = _structured_pairs(fam_a, fam_b)
    reference = _equivalence_from_basis(intertwiner_space(pairs), pairs, DEFAULT_TOL, 0)
    verdict = are_unitarily_equivalent(fam_a, fam_b)
    assert verdict.status == reference.status
    assert verdict.diagnostics["intertwiner_dim"] == reference.diagnostics["intertwiner_dim"]
    if how == "conjugate":
        assert verdict.status == "equivalent"
    if verdict.status == "equivalent":
        assert set(verdict.diagnostics) == set(reference.diagnostics)
        assert _star_residual(verdict.witness, pairs) <= DEFAULT_TOL.identity_tol


def _nan_unitary_family():
    u = np.eye(2, dtype=complex)
    u[0, 1] = np.nan
    return ProjectionFamily(projections=coord_projections(2), unitary=u)


UNCHECKED_FAMILIES = {
    "scaled_unitary": (
        lambda: ProjectionFamily(projections=coord_projections(2), unitary=2 * np.eye(2)),
        "not unitary",
    ),
    "non_projection": (
        lambda: ProjectionFamily(
            projections=(np.diag([1.0, 0.0]), np.diag([0.0, 0.5])), unitary=np.eye(2)
        ),
        "P_2 is not idempotent",
    ),
    "nan_unitary": (_nan_unitary_family, "non-finite"),
}


@pytest.mark.parametrize("name", UNCHECKED_FAMILIES)
@pytest.mark.parametrize("bad_side", ["both", "second"])
def test_family_equivalence_checks_its_families(name, bad_side):
    # unchecked, the first two were called equivalent and the NaN raised
    # numpy's LinAlgError
    make, message = UNCHECKED_FAMILIES[name]
    first = make() if bad_side == "both" else identity_family(2)
    with pytest.raises(ValueError, match=message):
        are_unitarily_equivalent(first, make())


def _forbid_dense_intertwiner_solve(monkeypatch):
    """Make every isorep module's intertwiner_space raise."""
    dense = isorep.linalg.intertwiner_space

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense intertwiner_space was reached")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isorep" and getattr(module, "intertwiner_space", None) is dense:
            monkeypatch.setattr(module, "intertwiner_space", forbidden)


def _doubled_example2_dim():
    fam = reflection_family(EX2_VECTOR)
    return structured_commutant_dim(direct_sum_family(fam, fam)) == 4


def _twisted_example2_status():
    twisted = reflection_family(np.exp(1j * 1.3) * EX2_VECTOR)
    return are_unitarily_equivalent(reflection_family(EX2_VECTOR), twisted).status == "equivalent"


GUARDED_ROUTES = {
    "structured_dim": _doubled_example2_dim,
    "family_equivalence": _twisted_example2_status,
    "example2": lambda: verify_suite("example2").passed,
    "example3_trunc": lambda: verify_suite("example3_trunc").passed,
    "projection_random": lambda: verify_suite("projection_random").passed,
    "cli_irreducible": lambda: main(["irreducible", "--a", "0.5,0.5,0.5,0.5"]) == 0,
    "cli_equivalent": lambda: main(["equivalent", "--a", "0.6,0.8", "--b", "0.8,0.6"]) == 0,
    "cli_induce": lambda: main(
        ["induce", "--a", "0.6,0.8", "--L", "8", "--guard", "2", "--grid", "2"]
    ) == 0,
}


@pytest.mark.parametrize("route", GUARDED_ROUTES)
def test_library_never_reaches_the_dense_intertwiner_solve(monkeypatch, capsys, route):
    _forbid_dense_intertwiner_solve(monkeypatch)
    assert GUARDED_ROUTES[route]()


# --- truncated oracle -------------------------------------------------------------


def test_oracle_example2_agrees():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 16, 8))
    assert truncated_commutant_oracle(rep) == 1


def test_oracle_identity_family():
    rep = build_projection_family_rep(identity_family(2), TruncationParams(2, 16, 4))
    assert truncated_commutant_oracle(rep) == 2


def test_oracle_direct_sum_sees_matrix_units():
    fam = reflection_family(EX2_VECTOR)
    doubled = direct_sum_family(fam, fam)
    rep = build_projection_family_rep(doubled, TruncationParams(8, 16, 4))
    assert truncated_commutant_oracle(rep) >= 4
    assert structured_commutant_dim(doubled) == 4


@pytest.mark.parametrize("name", ["W1", "W2"])
def test_oracle_rejects_non_finite_generator(name):
    rep = build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2))
    gens = {"W1": rep.W1.copy(), "W2": rep.W2.copy()}
    gens[name][3, 5] = np.nan
    bad = IsoRep2(W1=gens["W1"], W2=gens["W2"], trunc=rep.trunc)
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        truncated_commutant_oracle(bad)


def test_oracle_matches_structured_for_random_families():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(z)
        k = int(rng.integers(0, n + 1))
        phases = np.exp(1j * rng.uniform(0.3, 5.9, size=n - k))
        u = q @ np.diag(np.concatenate([np.ones(k), phases])) @ q.conj().T
        fam = ProjectionFamily(projections=coord_projections(n), unitary=u)
        rep = build_projection_family_rep(fam, TruncationParams(n, 16, min(2 * n, 15 - n)))
        assert truncated_commutant_oracle(rep) == structured_commutant_dim(fam)


def test_star_commutant_refinement_matches_dense():
    # same space computed by the dense vectorized solve and by the
    # eigenspace-refinement route
    rng = np.random.default_rng(77)
    for n in (6, 12):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = np.diag(rng.normal(size=n))
        dense = intertwiner_space(
            [(a, a), (b, b), (a.conj().T, a.conj().T), (b.conj().T, b.conj().T)]
        )
        refined = star_commutant_basis([a, b])
        assert len(dense) == len(refined)
        for t in refined:
            assert np.max(np.abs(a @ t - t @ a)) < 1e-9
            assert np.max(np.abs(b @ t - t @ b)) < 1e-9


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(z)[0]


def _rotated_sum(blocks, u):
    """u (blocks[0] ⊕ blocks[1] ⊕ …) u*."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        out[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    return u @ out @ u.conj().T


@st.composite
def repeated_sums(draw):
    """Generators u(A ⊕ … ⊕ A ⊕ B)u* with A repeated 1–3 times, of size 1–19.

    A repeated summand gives the random algebra element eigen-clusters
    larger than one; most draws stay at size 16 or below.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, m, rest = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 4))
    rotate = draw(st.booleans())
    summands = [
        (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)),
         rng.normal(size=(rest, rest)) + 1j * rng.normal(size=(rest, rest)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return rng, m, summands, rotate


def _star_residual(t, pairs):
    return max(
        float(np.max(np.abs(g @ t - t @ h)))
        for a, b in pairs
        for g, h in ((a, b), (a.conj().T, b.conj().T))
    )


@settings(max_examples=30, deadline=None)
@given(repeated_sums())
def test_star_commutant_matches_dense_reference(case):
    rng, m, summands, rotate = case
    n = m * summands[0][0].shape[0] + summands[0][1].shape[0]
    u = _random_unitary(rng, n) if rotate else np.eye(n)
    gens = [_rotated_sum([a] * m + [b], u) for a, b in summands]
    dense = intertwiner_space([(g, g) for g in gens] + [(g.conj().T, g.conj().T) for g in gens])
    basis = star_commutant_basis(gens)
    assert len(basis) == len(dense) == m * m + (1 if summands[0][1].size else 0)
    for t in basis:
        assert _star_residual(t, [(g, g) for g in gens]) < 1e-8


@settings(max_examples=30, deadline=None)
@given(repeated_sums(), st.booleans())
def test_star_intertwiner_matches_dense_reference(case, same_rest):
    # the second side shares the repeated summand and, when same_rest, the
    # remainder, in a different orthonormal basis
    rng, m, summands, rotate = case
    n = m * summands[0][0].shape[0] + summands[0][1].shape[0]
    u = _random_unitary(rng, n) if rotate else np.eye(n)
    v = _random_unitary(rng, n)
    pairs = []
    for a, b in summands:
        b2 = b if same_rest else rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        pairs.append((_rotated_sum([a] * m + [b], u), _rotated_sum([a] * m + [b2], v)))
    dense = intertwiner_space(pairs + [(a.conj().T, b.conj().T) for a, b in pairs])
    basis = star_intertwiner_basis(pairs)
    assert len(basis) == len(dense) == m * m + (1 if same_rest and summands[0][1].size else 0)
    for t in basis:
        assert _star_residual(t, pairs) < 1e-8


@settings(max_examples=30, deadline=None)
@given(repeated_sums(), st.booleans())
def test_polar_witness_decides_rotated_sums(case, same_rest):
    # u(A ⊕ … ⊕ A ⊕ B)u* and v(A ⊕ … ⊕ A ⊕ B')v* are equivalent when B' = B or
    # B is empty: then the polar factor of a generic intertwiner intertwines.
    # Otherwise every intertwiner is singular and no witness passes.
    rng, m, summands, rotate = case
    n = m * summands[0][0].shape[0] + summands[0][1].shape[0]
    u = _random_unitary(rng, n) if rotate else np.eye(n)
    v = _random_unitary(rng, n)
    pairs = []
    for a, b in summands:
        b2 = b if same_rest else rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        pairs.append((_rotated_sum([a] * m + [b], u), _rotated_sum([a] * m + [b2], v)))
    verdict = _equivalence_from_basis(star_intertwiner_basis(pairs), pairs, DEFAULT_TOL, 0)
    if same_rest or not summands[0][1].size:
        assert verdict.status == "equivalent"
        assert _star_residual(verdict.witness, pairs) <= DEFAULT_TOL.identity_tol
    else:
        assert verdict.status == "inconclusive"
        assert verdict.diagnostics["best_residual"] > DEFAULT_TOL.identity_tol


def stacked_qr_commutant(mats, tol=DEFAULT_TOL, seed=0):
    """Reference solve in the same block coordinates: the n²×m constraint
    vec(T Â − Â T) of every generator and adjoint, each QR-reduced to its
    m×m triangle, stacked, and its kernel taken by SVD."""
    mats = [np.asarray(a, dtype=complex) for a in mats]
    n = mats[0].shape[0]
    w, q = np.linalg.eigh(_random_algebra_element(mats, np.random.default_rng(seed)))
    alpha, beta = _matched_entries(w, w, gap=1e-8 * max(1.0, float(np.max(np.abs(w)))))
    rows = np.arange(n)[:, None]
    cols = np.arange(alpha.size)[None, :]
    reduced = []
    for a in mats:
        for gen in (a, a.conj().T):
            a_hat = q.conj().T @ gen @ q
            c = np.zeros((n * n, alpha.size), dtype=complex)
            c[rows * n + alpha, cols] = a_hat[beta, :].T
            c[beta * n + rows, cols] -= a_hat[:, alpha]
            reduced.append(np.linalg.qr(c, mode="r"))
    op_scale = max(float(np.max(np.abs(a))) for a in mats)
    kernel = nullspace(np.vstack(reduced), tol, scale=op_scale)
    t = np.zeros((kernel.shape[1], n, n), dtype=complex)
    t[:, alpha, beta] = kernel.T
    return list(q @ t @ q.conj().T)


def assert_matches_stacked_qr(gens):
    basis = star_commutant_basis(gens)
    reference = stacked_qr_commutant(gens)
    assert len(basis) == len(reference)
    b = np.array([t.ravel() for t in basis])
    r = np.array([t.ravel() for t in reference])
    assert np.allclose(b @ b.conj().T, np.eye(len(b)), rtol=0.0, atol=1e-10)
    # for subspaces of equal dimension ‖P_b − P_r‖₂ = ‖(1 − P_b) P_r‖₂,
    # computed without forming the n²×n² projectors
    assert np.linalg.norm(r - (r @ b.conj().T) @ b, 2) <= 1e-8
    for t in basis:
        assert _star_residual(t, [(g, g) for g in gens]) <= 1e-8
    return basis


@settings(max_examples=30, deadline=None)
@given(repeated_sums())
def test_gram_solve_matches_stacked_qr_on_repeated_sums(case):
    rng, m, summands, rotate = case
    n = m * summands[0][0].shape[0] + summands[0][1].shape[0]
    u = _random_unitary(rng, n) if rotate else np.eye(n)
    assert_matches_stacked_qr([_rotated_sum([a] * m + [b], u) for a, b in summands])


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gram_solve_matches_stacked_qr_on_grid_generators(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 1.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    grid = induce_2d(build_reflection_rep(a / np.linalg.norm(a), TruncationParams(2, 8, 2)), 2)
    gens = [grid.V(1 / 2, 0), grid.V(0, 1 / 2)]
    w = np.linalg.eigh(_random_algebra_element(gens, np.random.default_rng(0)))[0]
    alpha, beta = _matched_entries(w, w, gap=1e-8 * max(1.0, float(np.max(np.abs(w)))))
    assert alpha.size == grid.dim  # every eigenspace block is 1×1
    assert len(assert_matches_stacked_qr(gens)) == 1


@pytest.mark.parametrize("c", [0.0, 1.0, 1e-6, 3.7, 1e6])
def test_scalar_generator_commutes_with_everything(c):
    # c·u u* is c·1 up to rounding, so its Gram matrix is pure noise: without
    # the generator-scale anchor that noise counts as rank
    u = _random_unitary(np.random.default_rng(3), 5)
    for gen in (c * np.eye(5), c * (u @ u.conj().T)):
        assert len(star_commutant_basis([gen])) == 25


def test_commutant_dimension_does_not_depend_on_generator_scale():
    rng = np.random.default_rng(5)
    u = _random_unitary(rng, 5)
    a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    gens = [_rotated_sum([a, a, a[:1, :1]], u), _rotated_sum([b, b, b[:1, :1]], u)]
    assert len(star_commutant_basis(gens)) == 5
    for scale in (1e-6, 1e6):
        assert len(star_commutant_basis([scale * g for g in gens])) == 5
    rng_pair = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2)]
    for scale in (1.0, 1e-6, 1e6):
        assert len(star_commutant_basis([scale * g for g in rng_pair])) == 1


def _exp_i(h):
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(1j * w)) @ v.conj().T


def perturbed_pair(seed, spectrum):
    """Single-projection reps of exp(iA) and exp(i(A + 1e-6·E)).

    Their unitaries differ by about 1e-6, so near-commutants and
    near-intertwiners have constraint residuals between rank_tol and
    √rank_tol: a cutoff on the Gram eigenvalues λ = σ² alone keeps them.
    """
    rng = np.random.default_rng(seed)
    u = _random_unitary(rng, 3)
    e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = u @ np.diag(spectrum) @ u.conj().T
    return [
        build_projection_family_rep(
            ProjectionFamily(projections=(np.eye(3, dtype=complex),), unitary=_exp_i(h)),
            TruncationParams(3, 8, 2),
        )
        for h in (a, a + 1e-6 * (e + e.conj().T))
    ]


@pytest.mark.parametrize("seed", range(32))
def test_unitaries_1e6_apart_stay_inequivalent(seed):
    # at seed 29 the m×m Gram cutoff alone finds a spurious unit corner
    rep_a, rep_b = perturbed_pair(seed, [0.3, 1.1, 2.0])
    verdict = are_unitarily_equivalent(rep_a, rep_b)
    assert verdict.status == "inequivalent"
    assert verdict.diagnostics["intertwiner_dim"] == 0


@pytest.mark.parametrize(
    "spectrum, seed", [([-1.0, 0.2, 1.5], 29), ([-1.0, 0.2, 1.5], 61), ([0.5, 0.5, 0.5], 6)]
)
def test_near_pairs_share_no_eigenvalue_cluster(spectrum, seed):
    # the two random algebra elements' spectra are 1e-6 apart, so no entry is
    # matched; the direct-sum corners used to straddle rank_tol here
    rep_a, rep_b = perturbed_pair(seed, spectrum)
    verdict = are_unitarily_equivalent(rep_a, rep_b)
    assert verdict.status == "inequivalent"
    assert verdict.diagnostics["intertwiner_dim"] == 0


@pytest.mark.parametrize("phases", [(0.0, 0.0, 0.0), (0.3, 0.3, 1.0)])
@pytest.mark.parametrize("as_rep", [False, True])
def test_reducible_pair_is_equivalent_to_itself(phases, as_rep):
    # the commutant is the diagonal algebra, where no random combination is
    # unitary; the polar factor of one is
    fam = ProjectionFamily(
        projections=coord_projections(3), unitary=np.diag(np.exp(1j * np.array(phases)))
    )
    a = b = fam
    pairs = [(fam.unitary, fam.unitary)] + [(p, p) for p in fam.projections]
    if as_rep:
        a, b = (build_projection_family_rep(fam, TruncationParams(3, 8, 3)) for _ in range(2))
        pairs = [(b.W1, a.W1), (b.W2, a.W2)]
    verdict = are_unitarily_equivalent(a, b)
    assert verdict.status == "equivalent"
    assert verdict.diagnostics["intertwiner_dim"] == 3
    assert _star_residual(verdict.witness, pairs) <= DEFAULT_TOL.identity_tol
    assert verdict.diagnostics["unitarity"] <= DEFAULT_TOL.identity_tol


def test_well_conditioned_non_intertwiner_is_no_witness():
    # the identity is unitary but misses Q ~ Q + 5e-8·E by 6.8e-8, far above
    # identity_tol; the condition number alone would call the pair equivalent
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    e = rng.normal(size=(3, 3))
    basis = [np.eye(3, dtype=complex)]
    verdict = _equivalence_from_basis(basis, [(q, q + 5e-8 * e)], DEFAULT_TOL, 0)
    assert verdict.status == "inconclusive"
    assert verdict.witness is None
    assert verdict.diagnostics["best_residual"] == pytest.approx(6.8e-8, rel=0.01)
    exact = _equivalence_from_basis(basis, [(q, q)], DEFAULT_TOL, 0)
    assert exact.status == "equivalent"
    assert exact.diagnostics["intertwine_0"] <= DEFAULT_TOL.identity_tol


@pytest.mark.parametrize("seed", range(6))
def test_perturbed_reducible_pair_keeps_reference_dims(monkeypatch, seed):
    # exp(iA) with a doubled eigenvalue is reducible; 1e-6 off it the rank
    # decision must stay the stacked-QR one, σ ≤ rank_tol·scale
    rep = perturbed_pair(seed, [1.0, 1.0, 2.0])[1]
    gens = [rep.W1, rep.W2]
    assert len(star_commutant_basis(gens)) == len(stacked_qr_commutant(gens))
    oracle = truncated_commutant_oracle(rep)
    monkeypatch.setattr(isorep.commutant, "star_commutant_basis", stacked_qr_commutant)
    assert oracle == truncated_commutant_oracle(rep) >= 1


def nonpure_rep():
    fam = ProjectionFamily(projections=coord_projections(2), unitary=np.eye(2, dtype=complex))
    return build_projection_family_rep(fam, TruncationParams(2, 8, 2))


@pytest.mark.parametrize("m, expected", [(2, 3), (3, 4)])
def test_grid_survivor_count_ignores_basis_choice(monkeypatch, m, expected):
    assert induced_commutant_check_2d(induce_2d(nonpure_rep(), m)).grid_commutant_dim == expected
    _rotate_returned_bases(monkeypatch)
    for _ in range(3):
        assert induced_commutant_check_2d(induce_2d(nonpure_rep(), m)).grid_commutant_dim == expected


def test_oracle_survivor_count_ignores_basis_choice(monkeypatch):
    fam = reflection_family(EX2_VECTOR)
    rep = build_projection_family_rep(direct_sum_family(fam, fam), TruncationParams(8, 16, 4))
    assert truncated_commutant_oracle(rep) == 4
    _rotate_returned_bases(monkeypatch)
    for _ in range(3):
        assert truncated_commutant_oracle(rep) == 4


def test_oracle_count_on_perturbed_pair_ignores_basis_choice(monkeypatch):
    # 1e-6 off a doubled eigenvalue, the count must not depend on which
    # orthonormal basis of the commutant the solver returns
    rep = perturbed_pair(4, [1.0, 1.0, 2.0])[1]
    assert structured_commutant_dim(rep.family) == 3
    _rotate_returned_bases(monkeypatch)
    assert [truncated_commutant_oracle(rep) for _ in range(8)] == [3] * 8


def _rotate_returned_bases(monkeypatch):
    """Make star_commutant_basis return its basis rotated by a fresh random
    unitary on every call: another orthonormal basis of the same space."""
    solve = star_commutant_basis
    rng = np.random.default_rng(11)

    def rotated(mats, tol=DEFAULT_TOL, seed=0):
        basis = solve(mats, tol, seed)
        u = _random_unitary(rng, len(basis))
        return list(np.einsum("ij,ikl->jkl", u, np.array(basis)))

    monkeypatch.setattr(isorep.commutant, "star_commutant_basis", rotated)
    monkeypatch.setattr(isorep.induced, "star_commutant_basis", rotated)


# --- irreducibility ---------------------------------------------------------------


def test_example2_irreducible():
    assert is_irreducible(reflection_family(EX2_VECTOR)) is True


def test_identity_family_reducible():
    assert is_irreducible(identity_family(2)) is False


def test_scalar_family_irreducible():
    assert is_irreducible(identity_family(1)) is True


def test_rep_without_family_uses_oracle():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 16, 3))
    sub = reparametrize(rep, (1, 1), (2, 1))
    assert sub.family is None
    assert is_irreducible(sub) is True


def test_rep_without_rebuild_is_inconclusive():
    rep = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 16, 3))
    raw = IsoRep2(W1=rep.W1, W2=rep.W2, trunc=rep.trunc)
    assert is_irreducible(raw) is None


# --- unitary equivalence -----------------------------------------------------------


def test_equivalent_to_itself_with_identity_witness():
    fam = reflection_family(EX2_VECTOR)
    verdict = are_unitarily_equivalent(fam, fam)
    assert verdict.status == "equivalent"
    w = verdict.witness
    assert np.max(np.abs(w - w[0, 0] * np.eye(4))) <= 1e-10
    assert verdict.diagnostics["unitarity"] <= 1e-10


def test_moduli_mismatch_is_inequivalent():
    b = np.array([0.8, 0.1, 0.1, 0.1])
    fam_a = reflection_family(EX2_VECTOR)
    fam_b = reflection_family(b / np.linalg.norm(b))
    verdict = are_unitarily_equivalent(fam_a, fam_b)
    assert verdict.status == "inequivalent"
    assert verdict.diagnostics["intertwiner_dim"] == 0


def test_phase_twisted_vector_is_equivalent():
    fam = reflection_family(EX2_VECTOR)
    twisted = reflection_family(np.exp(1j * 1.3) * EX2_VECTOR)
    verdict = are_unitarily_equivalent(fam, twisted)
    assert verdict.status == "equivalent"


def test_equivalence_status_is_symmetric():
    b = np.array([0.8, 0.1, 0.1, 0.1])
    pairs = [
        (reflection_family(EX2_VECTOR), reflection_family(b / np.linalg.norm(b))),
        (reflection_family(EX2_VECTOR), reflection_family(EX2_VECTOR)),
        (identity_family(3), identity_family(3)),
    ]
    for fam_a, fam_b in pairs:
        assert (
            are_unitarily_equivalent(fam_a, fam_b).status
            == are_unitarily_equivalent(fam_b, fam_a).status
        )


def test_equivalence_witness_intertwines():
    fam = reflection_family(EX2_VECTOR)
    verdict = are_unitarily_equivalent(fam, fam)
    t = verdict.witness
    assert np.max(np.abs(t @ fam.unitary - fam.unitary @ t)) <= 1e-10
    for p in fam.projections:
        assert np.max(np.abs(t @ p - p @ t)) <= 1e-10


def test_equivalence_generic_rep_path():
    rep_a = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3))
    rep_b = build_reflection_rep(EX2_VECTOR, TruncationParams(4, 8, 3))
    verdict = are_unitarily_equivalent(rep_a, rep_b)
    assert verdict.status == "equivalent"


def test_equivalence_dimension_mismatch_raises():
    fam_a = reflection_family(EX2_VECTOR)
    fam_b = reflection_family(np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(ValueError, match="different spaces"):
        are_unitarily_equivalent(fam_a, fam_b)


def test_verdict_json_shape():
    fam = reflection_family(EX2_VECTOR)
    obj = are_unitarily_equivalent(fam, fam, seed=7).to_json()
    assert set(obj) == {"status", "witness", "residuals", "seed"}
    assert obj["seed"] == 7
    assert obj["witness"]["rows"] == 4


# --- Schur consistency --------------------------------------------------------------


def test_irreducible_index_one_has_unique_cocycle_ray():
    # scalar commutant + one-dimensional cocycle space: the basis is unique up
    # to scale, so any two runs agree up to a phase
    from isorep.cocycle import cocycle_space

    a = np.array([1.0, 1.0]) / np.sqrt(2)
    rep = build_reflection_rep(a, TruncationParams(2, 8, 2))
    assert is_irreducible(rep.family) is True
    space = cocycle_space(rep)
    assert space.dim == 1
    again = cocycle_space(rep).basis[0].stacked()
    first = space.basis[0].stacked()
    overlap = abs(np.vdot(first, again)) / (np.linalg.norm(first) * np.linalg.norm(again))
    assert overlap == pytest.approx(1.0, abs=1e-10)
