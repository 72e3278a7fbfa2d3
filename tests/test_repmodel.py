import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isorep.commutant import star_commutant_basis, truncated_commutant_oracle
from isorep.linalg import DEFAULT_TOL, kron, matrix_to_json, numerical_rank
from isorep import repmodel
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
    truncated_infinite_reflection_family,
    truncated_shift,
    validate,
)
from symbol_pairs import random_rank_projections, unitary


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


@pytest.mark.parametrize(
    "fields, name",
    [({"n": 3}, "n"), ({"guard": 5}, "guard"), ({"n": 2, "guard": 5}, "guard")],
)
@pytest.mark.parametrize("family", ["reflection", "projection"])
def test_rep_from_config_rejects_n_or_guard_it_would_ignore(family, fields, name):
    # without L the default truncation is taken, which used to drop both fields
    base = {
        "reflection": {"family": "reflection", "a_vector": [0.6, 0.8]},
        "projection": {"family": "projection", "unitary": matrix_to_json(np.eye(2))},
    }[family]
    with pytest.raises(ValueError, match=f"config field {name}:"):
        rep_from_config({**base, **fields})
    assert rep_from_config({**base, "n": 2}).trunc == default_truncation(2, 2)


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


def _looped_check(fam, tol=DEFAULT_TOL):
    """The projection tests of ``ProjectionFamily.check`` one P_i at a time,
    each P_i against every earlier one: the reference for the batched tests."""
    n = fam.n
    total = np.zeros((n, n), dtype=complex)
    for i, p in enumerate(fam.projections):
        p = np.asarray(p, dtype=complex)
        if p.shape != (n, n):
            raise ValueError(f"P_{i + 1} has shape {p.shape}, expected {(n, n)}")
        if not np.isfinite(p).all():
            raise ValueError(f"P_{i + 1} has non-finite entries")
        if np.max(np.abs(p - p.conj().T)) > tol.identity_tol:
            raise ValueError(f"P_{i + 1} is not self-adjoint")
        if np.max(np.abs(p @ p - p)) > tol.identity_tol:
            raise ValueError(f"P_{i + 1} is not idempotent")
        for j, q in enumerate(fam.projections[:i]):
            if np.max(np.abs(p @ q)) > tol.identity_tol:
                raise ValueError(f"P_{i + 1} P_{j + 1} != 0: projections not orthogonal")
        total += p
    if np.max(np.abs(total - np.eye(n))) > tol.identity_tol:
        raise ValueError("projections do not sum to the identity")


def _message(check, fam):
    try:
        check(fam)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def single_fault_families(draw):
    """A family of random-rank projections with one P_i broken in one way:
    wrong shape, a NaN, not self-adjoint, not idempotent, overlapping the
    others, or left out; or none broken."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    projections = list(random_rank_projections(rng, n))
    i = draw(st.integers(0, len(projections) - 1))
    p = projections[i].copy()
    fault = draw(
        st.sampled_from(["none", "shape", "nan", "adjoint", "idempotent", "overlap", "missing"])
    )
    if fault == "shape":
        p = np.eye(n + 1, dtype=complex)
    elif fault == "nan":
        p[int(rng.integers(n)), int(rng.integers(n))] = np.nan
    elif fault == "adjoint":
        p[0, -1] += 1e-6j
    elif fault == "idempotent":
        p = 1.5 * p
    elif fault == "overlap":
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = np.outer(v, v.conj()) / np.vdot(v, v)
    projections[i] = p
    if fault == "missing":
        del projections[i]
    return ProjectionFamily(projections=tuple(projections), unitary=unitary(rng, n))


@settings(max_examples=150, deadline=None)
@given(single_fault_families())
def test_family_check_names_a_single_fault_as_the_looped_tests_do(fam):
    assert _message(ProjectionFamily.check, fam) == _message(_looped_check, fam)


@pytest.mark.parametrize("devs", [(0.0, np.nan, 0.0), (np.nan, 0.0, 0.0), (0.0, 0.0, np.nan)])
def test_validation_verdicts_are_nan_safe(devs):
    assert not ValidationReport(*devs, tol=1e-10).ok


# --- interior masks against the dense projector -------------------------------------


def _dense_deviations(pair):
    """max|p(W*W − 1)p| per generator and max|p[W1, W2]p|, p the interior projector."""
    p = np.diag(pair.trunc.level_mask().astype(complex))
    eye = np.eye(pair.dim)
    dense = [np.max(np.abs(p @ (w.conj().T @ w - eye) @ p)) for w in (pair.W1, pair.W2)]
    dense.append(np.max(np.abs(p @ (pair.W1 @ pair.W2 - pair.W2 @ pair.W1) @ p)))
    return dense


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

    # a perturbed pair makes every deviation sizeable
    g = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    for pair in (rep, IsoRep2(W1=rep.W1 + 0.1 * g, W2=rep.W2, trunc=rep.trunc)):
        report = validate(pair)
        masked = [report.isometry_dev_w1, report.isometry_dev_w2, report.commutation_dev]
        np.testing.assert_allclose(masked, _dense_deviations(pair), rtol=1e-12, atol=1e-15)

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


# --- symbol and dense routes of validate -------------------------------------------


def _level_banded(rng, trunc, offsets):
    """A random matrix whose nonzero level blocks sit at the level offsets
    (out − in) given, each block drawn on its own, so not shift invariant."""
    n, L = trunc.n, trunc.L
    g = np.zeros((n, L, n, L), dtype=complex)
    for off in offsets:
        for level in range(max(0, -off), min(L, L - off)):
            g[:, level + off, :, level] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g.reshape(trunc.dim, trunc.dim)


def _invariant_term(rng, trunc, offset):
    """B ⊗ S^offset for a random n×n B, S* in place of S at a negative offset:
    level-shift invariant."""
    s = truncated_shift(trunc.L)
    s = np.linalg.matrix_power(s if offset >= 0 else s.T, abs(offset))
    return kron(rng.normal(size=(trunc.n, trunc.n)) + 1j * rng.normal(size=(trunc.n, trunc.n)), s)


def _route_pairs(kind, seed):
    """A family pair and the same pair altered, each with the route validate
    must take. The family pair is level-shift invariant, so "symbol", unless
    its guard is below W2's band of level offsets 0 … n − 1. A reparametrized
    pair is invariant only when the products W1^a W2^b round alike at every
    level, which depends on the BLAS, so its route is left open (None).
    Every alteration but an invariant term at offsets 0 … guard breaks the
    invariance, so "dense"."""
    rng = np.random.default_rng(seed)
    # a guard of n − 2 ≥ 1 sits below the band
    n = int(rng.integers(3 if kind == "guard_below_band" else 2, 6))
    L = int(rng.integers(2 * n, 16)) if kind == "short_truncation" else int(rng.integers(24, 41))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    fam = ProjectionFamily(projections=coord_projections(n), unitary=np.linalg.qr(z)[0])
    guard = n - 2 if kind == "guard_below_band" else n
    rep = build_projection_family_rep(fam, TruncationParams(n, L, guard))
    route = "dense" if kind == "guard_below_band" else "symbol"
    if kind == "reparametrized":
        rep = reparametrize(rep, (1, 1), ((2, 1), (1, 2))[seed % 2])
        route = None
    gens, altered = [rep.W1, rep.W2], "dense"
    # each level block drawn on its own, at every offset the symbol route
    # admits (0 … guard)
    in_band = 0.1 * _level_banded(rng, rep.trunc, range(rep.trunc.guard + 1))
    if kind == "invariant_terms":
        offsets = range(rep.trunc.guard + 1)
        gens = [w + 0.1 * sum(_invariant_term(rng, rep.trunc, k) for k in offsets) for w in gens]
        altered = "symbol"
    elif kind == "above_diagonal":
        gens[1] = gens[1] + 0.1 * _level_banded(rng, rep.trunc, [-2, -1])
    elif kind == "dense":
        gens[0] = gens[0] + 0.1 * _level_banded(rng, rep.trunc, range(1 - L, L))
    elif kind == "guard_entry":
        which = int(rng.integers(2))
        row = int(rng.integers(n)) * L + int(rng.integers(rep.trunc.interior_levels, L))
        gens[which] = gens[which].copy()
        gens[which][row, int(rng.integers(rep.dim))] += 1e-3
    elif kind == "negative_offset":
        gens[1] = gens[1] + 0.1 * _invariant_term(rng, rep.trunc, -int(rng.integers(1, 3)))
    elif kind == "w2_only":
        gens[1] = gens[1] + in_band
    else:
        gens = [w + in_band for w in gens]
    return [(rep, route), (IsoRep2(W1=gens[0], W2=gens[1], trunc=rep.trunc), altered)]


def _validate_with_route(pair):
    """``validate`` of the pair and the route it took: the dense route is the
    one that calls ``interior_isometry_deviation``."""
    calls = []
    real = repmodel.interior_isometry_deviation

    def spy(w, mask):
        calls.append(w)
        return real(w, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repmodel, "interior_isometry_deviation", spy)
        report = validate(pair)
    return report, "dense" if calls else "symbol"


@pytest.mark.parametrize(
    "kind",
    [
        "short_truncation",
        "long_truncation",
        "reparametrized",
        "invariant_terms",
        "above_diagonal",
        "dense",
        "guard_below_band",
        "guard_entry",
        "negative_offset",
        "w2_only",
    ],
)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_band_route_matches_dense_projector(kind, seed):
    for pair, route in _route_pairs(kind, seed):
        report, taken = _validate_with_route(pair)
        assert route is None or taken == route
        got = [report.isometry_dev_w1, report.isometry_dev_w2, report.commutation_dev]
        dense = _dense_deviations(pair)
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-15)
        assert report.ok == (max(dense) <= report.tol)


def test_validate_of_growth_probe_stays_below_half_a_square_array():
    # the n = 16 growth-probe pair (N = 640) takes the symbol route, which
    # forms no N×N product, copy or |W|
    rep = build_projection_family_rep(
        truncated_infinite_reflection_family(16), TruncationParams(16, 40, 17)
    )
    tracemalloc.start()
    try:
        report = validate(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < rep.W1.nbytes / 2


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry", [(1, 0), (1, 7), (7, 7)], ids=["interior", "guard_column", "guard"]
)
@pytest.mark.parametrize("name", ["W1", "W2"])
def test_validate_fails_non_finite_entries(name, entry, value):
    # (1, 7) is an interior row in a guard column, (7, 7) a guard row and
    # column: no interior product reads the latter
    rep = example2_rep()
    gens = {"W1": rep.W1.copy(), "W2": rep.W2.copy()}
    gens[name][entry] = value
    report = validate(IsoRep2(W1=gens["W1"], W2=gens["W2"], trunc=rep.trunc))
    assert not report.ok
    devs = [report.isometry_dev_w1, report.isometry_dev_w2, report.commutation_dev]
    assert np.isnan(devs).all()
