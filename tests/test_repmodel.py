import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorep.commutant import star_commutant_basis, truncated_commutant_oracle
from isorep.linalg import DEFAULT_TOL, kron, matrix_to_json, numerical_rank
from isorep.repmodel import (
    IsoRep2,
    ProjectionFamily,
    TruncationParams,
    ValidationReport,
    build_projection_family_rep,
    build_reflection_rep,
    default_truncation,
    reflection_family,
    rep_from_config,
    reparametrize,
    strong_purity_check,
    truncated_shift,
    validate,
)


def coord_projections(n):
    return tuple(np.diag([1.0 + 0j if i == j else 0.0 for i in range(n)]) for j in range(n))


EX2_VECTOR = np.array([0.5, 0.5, 0.5, 0.5])


def example2_rep(L=8, guard=3):
    return build_reflection_rep(EX2_VECTOR, TruncationParams(4, L, guard))


# --- truncation & shift --------------------------------------------------------


def test_truncation_validation():
    with pytest.raises(ValueError):
        TruncationParams(n=1, L=4, guard=0)
    with pytest.raises(ValueError):
        TruncationParams(n=1, L=4, guard=4)
    with pytest.raises(ValueError):
        TruncationParams(n=0, L=4, guard=1)


def test_truncated_shift_action():
    s = truncated_shift(4)
    e = np.eye(4)
    assert np.array_equal(s @ e[:, 0], e[:, 1])
    assert np.array_equal(s @ e[:, 3], np.zeros(4))


def test_shift_powers_compose_exactly():
    s = truncated_shift(6)
    for a in range(4):
        for b in range(4):
            lhs = np.linalg.matrix_power(s, a) @ np.linalg.matrix_power(s, b)
            assert np.array_equal(lhs, np.linalg.matrix_power(s, a + b))


# --- builders -------------------------------------------------------------------


def test_single_projection_family():
    fam = ProjectionFamily(projections=(np.eye(1, dtype=complex),), unitary=np.eye(1, dtype=complex))
    rep = build_projection_family_rep(fam, TruncationParams(1, 4, 1))
    assert np.array_equal(rep.W1, truncated_shift(4))
    assert np.array_equal(rep.W2, np.eye(4))
    # the second generator is unitary and therefore not pure
    assert strong_purity_check(rep, 3).verdict == "not_pure"


def test_two_projection_basis_action():
    fam = ProjectionFamily(projections=coord_projections(2), unitary=np.eye(2, dtype=complex))
    trunc = TruncationParams(2, 4, 1)
    rep = build_projection_family_rep(fam, trunc)
    L = trunc.L

    def basis_vec(h, level):
        v = np.zeros(trunc.dim, dtype=complex)
        v[h * L + level] = 1.0
        return v

    for j in range(L):
        assert np.array_equal(rep.W2 @ basis_vec(0, j), basis_vec(0, j))
    for j in range(L - 1):
        assert np.array_equal(rep.W2 @ basis_vec(1, j), basis_vec(1, j + 1))


@st.composite
def projection_families_with_truncations(draw):
    """A coordinate family, or a rank-1 projection and its complement, under a
    random unitary, with a truncation that fits it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    if draw(st.booleans()):
        projections = coord_projections(n)
    else:
        v = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        p = v @ v.conj().T / np.vdot(v, v).real
        projections = (p, np.eye(n) - p)
    guard = draw(st.integers(1, 6))
    L = draw(st.integers(guard + len(projections), guard + len(projections) + 8))
    return ProjectionFamily(projections=projections, unitary=u), TruncationParams(n, L, guard)


@settings(max_examples=60, deadline=None)
@given(projection_families_with_truncations())
def test_scattered_generators_equal_the_kronecker_sums(case):
    # byte for byte: the scatter must also keep the sums' +0.0 signs
    fam, trunc = case
    rep = build_projection_family_rep(fam, trunc)
    s = truncated_shift(trunc.L)
    w2 = sum(
        (kron(fam.unitary @ p, np.linalg.matrix_power(s, i)) for i, p in enumerate(fam.projections)),
        start=np.zeros((trunc.dim, trunc.dim), dtype=complex),
    )
    assert rep.W1.tobytes() == kron(np.eye(fam.n), s).tobytes()
    assert rep.W2.tobytes() == w2.tobytes()


def test_example2_reflection_unitary():
    rep = example2_rep()
    u = rep.family.unitary
    assert np.allclose(u, np.eye(4) - 0.5 * np.ones((4, 4)))
    # dim ker(U_a - 1) = n - 1
    w = np.linalg.eigvalsh(u)
    assert int(np.sum(np.abs(w - 1) < 1e-12)) == 3


def test_reflection_two_dim_unitary():
    fam = reflection_family(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(fam.unitary, np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_reflection_coordinate_vector_warns():
    with pytest.warns(UserWarning, match="vanishing coordinate"):
        fam = reflection_family(np.array([1.0, 0.0]))
    assert np.allclose(fam.unitary, np.diag([-1.0, 1.0]))


def test_reflection_rejects_bad_vectors():
    with pytest.raises(ValueError, match="nonzero"):
        reflection_family(np.zeros(3))
    with pytest.raises(ValueError, match="unit norm"):
        reflection_family(np.array([1.0, 1.0]))


def test_builder_rejects_invalid_family():
    bad = ProjectionFamily(
        projections=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
        unitary=np.eye(2, dtype=complex),
    )
    with pytest.raises(ValueError, match="orthogonal"):
        build_projection_family_rep(bad, TruncationParams(2, 8, 2))
    not_unitary = ProjectionFamily(
        projections=coord_projections(2), unitary=2.0 * np.eye(2, dtype=complex)
    )
    with pytest.raises(ValueError, match="unitary"):
        build_projection_family_rep(not_unitary, TruncationParams(2, 8, 2))


def test_builder_rejects_overlong_family():
    fam = ProjectionFamily(projections=coord_projections(4), unitary=np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="L - guard"):
        build_projection_family_rep(fam, TruncationParams(4, 6, 3))


def test_default_truncation_rule():
    tr = default_truncation(4, 4)
    assert (tr.L, tr.guard) == (32, 8)
    assert tr.interior_levels >= 4


# --- validation ------------------------------------------------------------------


def test_validate_exact_on_built_reps():
    report = validate(example2_rep())
    assert report.ok
    assert max(report.isometry_dev_w1, report.isometry_dev_w2, report.commutation_dev) <= 1e-12


def test_validate_catches_scaled_generator():
    rep = example2_rep()
    bad = IsoRep2(W1=2.0 * rep.W1, W2=rep.W2, trunc=rep.trunc)
    report = validate(bad)
    assert not report.isometry_ok
    assert report.isometry_dev_w1 == pytest.approx(3.0)


def test_validate_reports_commutation_noise_magnitude():
    rep = example2_rep()
    rng = np.random.default_rng(0)
    u = np.zeros(rep.dim)
    v = np.zeros(rep.dim)
    # interior-supported rank-one noise
    u[0] = 1.0
    v[1] = 1.0
    bad = IsoRep2(W1=rep.W1, W2=rep.W2 + 1e-3 * np.outer(u, v), trunc=rep.trunc)
    report = validate(bad)
    assert not report.commutation_ok
    assert 1e-5 < report.commutation_dev < 1e-1


# --- purity ----------------------------------------------------------------------


def test_purity_shift_is_pure():
    rep = example2_rep(L=16, guard=3)
    report = strong_purity_check(rep, depth=4)
    assert report.verdict == "strongly_pure"
    # the first generator loses n interior dimensions per power
    n, interior = 4, rep.trunc.interior_dim
    assert report.rank_sequences[0] == tuple(interior - n * k for k in range(1, 5))


@pytest.mark.parametrize("name", ["W1", "W2"])
def test_purity_rejects_non_finite_generator(name):
    rep = build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2))
    gens = {"W1": rep.W1.copy(), "W2": rep.W2.copy()}
    gens[name][3, 5] = np.nan
    bad = IsoRep2(W1=gens["W1"], W2=gens["W2"], trunc=rep.trunc)
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        strong_purity_check(bad, depth=2)


def test_purity_depth_validation():
    rep = example2_rep()
    with pytest.raises(ValueError):
        strong_purity_check(rep, depth=0)
    with pytest.raises(ValueError):
        strong_purity_check(rep, depth=rep.trunc.interior_levels + 1)
    # the boundary depth itself is a valid call
    report = strong_purity_check(rep, depth=rep.trunc.interior_levels)
    assert report.verdict in {"strongly_pure", "not_pure", "inconclusive"}


def test_purity_random_families_match_rank_oracle():
    # every nondegenerate family with d >= 2 classifies strongly pure, and the
    # interior range ranks agree with an independent brute-force computation
    rng = np.random.default_rng(17)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(z)
        fam = ProjectionFamily(projections=coord_projections(n), unitary=q)
        rep = build_projection_family_rep(fam)
        report = strong_purity_check(rep, depth=3)
        assert report.verdict == "strongly_pure"
        p_int = np.diag(rep.trunc.level_mask().astype(complex))
        for gen_idx, w in enumerate((rep.W1, rep.W2)):
            m = rep.dim - np.linalg.matrix_rank(w, tol=1e-9)
            power = np.eye(rep.dim, dtype=complex)
            for k in range(1, 4):
                power = w @ power
                brute = np.linalg.matrix_rank(p_int @ power, tol=1e-9)
                assert report.rank_sequences[gen_idx][k - 1] == brute
                if k <= report.faithful_depths[gen_idx]:
                    assert brute == max(0, rep.trunc.interior_dim - k * m)


def test_purity_mixed_summand_is_a_truncation_blind_spot():
    # W2 fixes the first coordinate fiber (a unitary summand), but inside the
    # faithful window its interior range ranks still decay exactly at the
    # multiplicity rate: the pure part only exhausts at the window boundary,
    # so a uniform truncation cannot see the stall. The check answers with the
    # rank evidence it actually has.
    fam = ProjectionFamily(
        projections=(np.diag([1.0 + 0j, 0, 0]), np.diag([0, 1.0 + 0j, 1.0])),
        unitary=np.eye(3, dtype=complex),
    )
    rep = build_projection_family_rep(fam, TruncationParams(3, 12, 2))
    report = strong_purity_check(rep, depth=6)
    interior, m = report.interior_dim, report.multiplicities[1]
    assert m == 2
    assert report.rank_sequences[1] == tuple(interior - m * k for k in range(1, 7))
    assert report.generator_verdicts[1] == "pure"


# --- reparametrization -------------------------------------------------------------


def test_reparametrize_identity_is_identity():
    rep = example2_rep()
    again = reparametrize(rep, (1, 0), (0, 1))
    assert again is rep


def test_reparametrize_default_pair():
    rep = example2_rep(L=16, guard=3)
    sub = reparametrize(rep, (1, 1), (2, 1))
    # widened by the climb of W1^2 W2: 2*1 + 1*(d-1) = 5
    assert sub.trunc.guard == 3 + 5
    assert np.allclose(sub.W1, rep.W1 @ rep.W2)
    assert np.allclose(sub.W2, rep.W1 @ rep.W1 @ rep.W2)
    assert validate(sub).ok
    assert strong_purity_check(sub, depth=2).verdict == "strongly_pure"


def test_reparametrize_rejects_non_spanning():
    rep = example2_rep(L=16, guard=3)
    with pytest.raises(ValueError, match="det"):
        reparametrize(rep, (2, 0), (0, 2))


def test_reparametrize_rejects_zero():
    rep = example2_rep()
    with pytest.raises(ValueError, match="nonzero"):
        reparametrize(rep, (0, 0), (0, 1))


# --- phase invariance ----------------------------------------------------------------


def test_phase_twist_scales_second_generator():
    fam = reflection_family(EX2_VECTOR)
    phase = np.exp(1j * 0.9)
    twisted = ProjectionFamily(projections=fam.projections, unitary=phase * fam.unitary)
    trunc = TruncationParams(4, 8, 3)
    rep = build_projection_family_rep(fam, trunc)
    rep_twisted = build_projection_family_rep(twisted, trunc)
    assert np.allclose(rep_twisted.W2, phase * rep.W2)
    assert validate(rep_twisted).ok


# --- config loader --------------------------------------------------------------------


def test_rep_from_config_reflection():
    rep = rep_from_config(
        {"family": "reflection", "a_vector": [0.5, 0.5, 0.5, 0.5], "L": 8, "guard": 3}
    )
    assert rep.trunc == TruncationParams(4, 8, 3)
    assert validate(rep).ok


def test_rep_from_config_normalizes():
    rep = rep_from_config({"family": "reflection", "a_vector": [1, 1, 1, 1], "L": 8, "guard": 3})
    assert np.allclose(rep.family.unitary, np.eye(4) - 0.5 * np.ones((4, 4)))


def test_rep_from_config_projection_standard_basis():
    from isorep.linalg import matrix_to_json

    rep = rep_from_config(
        {
            "family": "projection",
            "unitary": matrix_to_json(np.eye(3)),
            "projections": "standard_basis",
            "n": 3,
            "L": 12,
            "guard": 3,
        }
    )
    assert rep.family.d == 3
    assert validate(rep).ok


def test_rep_from_config_unknown_family():
    with pytest.raises(ValueError, match="family"):
        rep_from_config({"family": "mystery"})


@pytest.mark.parametrize("family", ["projection", "custom"])
def test_rep_from_config_rejects_truncated_infinite_without_profile(family):
    # only a reflection config describes the family at other sizes; the others
    # used to ignore kind and answer as finite families
    config = {
        "family": family,
        "unitary": matrix_to_json(np.eye(2)),
        "W1": matrix_to_json(np.eye(12)),
        "W2": matrix_to_json(np.eye(12)),
        "n": 2,
        "L": 6,
        "kind": "truncated_infinite",
    }
    with pytest.raises(ValueError, match="config field kind:"):
        rep_from_config(config)
    with pytest.raises(ValueError, match="config field kind:"):
        rep_from_config({**config, "kind": "infinite"})


@pytest.mark.parametrize("field", ["n", "L", "guard"])
@pytest.mark.parametrize("bad", [float("nan"), "x", 8.5, 8.0, True, None])
def test_rep_from_config_requires_integer_sizes(field, bad):
    config = {"family": "reflection", "a_vector": [0.5, 0.5, 0.5, 0.5], "n": 4, "L": 8, "guard": 3}
    config[field] = bad
    with pytest.raises(ValueError, match=f"config field {field}: expected an integer"):
        rep_from_config(json.loads(json.dumps(config)))


@pytest.mark.parametrize("bad", [2.7, 2.0])
def test_rep_from_config_requires_integer_unitary_rows(bad):
    unitary = {"rows": bad, "cols": 2, "re": [0.0, 1.0, 1.0, 0.0], "im": [0.0] * 4}
    config = {"family": "projection", "unitary": unitary, "L": 8, "guard": 2}
    with pytest.raises(ValueError, match="config field unitary: matrix field rows"):
        rep_from_config(config)


def test_rep_from_config_rejects_non_uniform_truncated_infinite_vector():
    config = {"family": "reflection", "a_vector": [0.9, 0.1, 0.3, 0.2], "kind": "truncated_infinite"}
    with pytest.raises(ValueError, match="a_vector"):
        rep_from_config(config)
    config["a_vector"] = [3.0, 3.0, 3.0, 3.0]
    assert rep_from_config(config).family.kind == "truncated_infinite"


# --- non-finite input -----------------------------------------------------------

_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def non_finite_configs(draw):
    """A config with one non-finite number, and the field that must name it."""
    family = draw(st.sampled_from(["reflection", "projection", "custom"]))
    bad = draw(_NON_FINITE)
    if family == "reflection":
        n = draw(st.integers(1, 5))
        a = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        a[draw(st.integers(0, n - 1))] = bad
        return {"family": "reflection", "a_vector": a}, "a_vector"
    n = draw(st.integers(1, 3))
    size = n if family == "projection" else n * 6
    mats = [np.eye(size, dtype=complex) for _ in range(2 if family == "custom" else n + 1)]
    which = draw(st.integers(0, len(mats) - 1))
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    mats[which][i, j] = bad * (1j if draw(st.booleans()) else 1.0)
    wire = [matrix_to_json(m) for m in mats]
    if family == "custom":
        config = {"family": "custom", "n": n, "L": 6, "guard": 2, "W1": wire[0], "W2": wire[1]}
        return config, ("W1", "W2")[which]
    config = {"family": "projection", "unitary": wire[0], "projections": wire[1:]}
    return config, "unitary" if which == 0 else f"projections[{which - 1}]"


@settings(max_examples=60, deadline=None)
@given(non_finite_configs())
def test_non_finite_config_rejected_after_json_roundtrip(case):
    config, field = case
    wire = json.loads(json.dumps(config))  # NaN and Infinity survive the JSON text
    with pytest.raises(ValueError, match=re.escape(f"config field {field}:")):
        rep_from_config(wire)


@pytest.mark.parametrize("where", ["unitary", "projection"])
def test_family_check_rejects_non_finite(where):
    u = np.eye(2, dtype=complex)
    projections = list(coord_projections(2))
    if where == "unitary":
        u = np.full((2, 2), np.nan, dtype=complex)
    else:
        projections[1] = projections[1] * np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ProjectionFamily(projections=tuple(projections), unitary=u).check()


@pytest.mark.parametrize("devs", [(0.0, np.nan, 0.0), (np.nan, 0.0, 0.0), (0.0, 0.0, np.nan)])
def test_validation_verdicts_are_nan_safe(devs):
    assert not ValidationReport(*devs, tol=1e-10).ok


# --- interior masks against the dense projector -------------------------------------


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mask_route_matches_dense_projector(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    fam = ProjectionFamily(projections=coord_projections(n), unitary=q)
    rep = build_projection_family_rep(fam, TruncationParams(n, 16, 2 * n))
    p = np.diag(rep.trunc.level_mask().astype(complex))
    eye = np.eye(rep.dim)

    # a perturbed pair makes every deviation sizeable
    g = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    for pair in (rep, IsoRep2(W1=rep.W1 + 0.1 * g, W2=rep.W2, trunc=rep.trunc)):
        report = validate(pair)
        dense = [
            np.max(np.abs(p @ (w.conj().T @ w - eye) @ p)) for w in (pair.W1, pair.W2)
        ]
        dense.append(np.max(np.abs(p @ (pair.W1 @ pair.W2 - pair.W2 @ pair.W1) @ p)))
        masked = [report.isometry_dev_w1, report.isometry_dev_w2, report.commutation_dev]
        np.testing.assert_allclose(masked, dense, rtol=1e-12, atol=1e-15)

    purity = strong_purity_check(rep, depth=3)
    for w, ranks in zip((rep.W1, rep.W2), purity.rank_sequences):
        powers = [np.linalg.matrix_power(w, k) for k in range(1, 4)]
        assert list(ranks) == [numerical_rank(p @ x) for x in powers]

    w_int = [p @ rep.W1 @ p, p @ rep.W2 @ p]
    survivors = 0
    for t in star_commutant_basis([rep.W1, rep.W2]):
        t_int = p @ t @ p
        dev = max(np.max(np.abs(t_int @ w - w @ t_int)) for w in w_int)
        survivors += dev <= DEFAULT_TOL.identity_tol
    assert truncated_commutant_oracle(rep) == survivors
