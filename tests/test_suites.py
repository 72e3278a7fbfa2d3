import json
import math

import numpy as np
import pytest

from isorep.repmodel import IsoRep2, TruncationParams, build_reflection_rep
from isorep.suites import PRESETS, induce_report, verify_suite


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_passes_and_serializes(preset):
    report = verify_suite(preset, seed=0)
    failed = [c.check for c in report.checks if not c.passed]
    assert report.passed, f"failed checks: {failed}"
    # every report must survive strict JSON serialization (numpy scalars leak
    # easily through comparisons)
    json.dumps(report.to_json(), allow_nan=False)


INDUCE_CHECKS = (
    "pair_validates",
    "adjoint_region_formula_2d",
    "semigroup_law_exact",
    "grid_pair_cocycles_match_base",
    "grid_commutant_is_ampliated",
)
PRESET_CHECKS = {
    "example2": (
        "index_stable_across_truncations",
        "index_equals_fixed_space_dim",
        "cocycle_witness_structure",
        "commutant_is_scalar",
        "generators_strongly_pure",
        "moduli_mismatch_inequivalent",
    ),
    "example3_trunc": ("index_grows_with_size", "snapshot_irreducible"),
    "projection_random": ("random_family_index_formula", "random_family_commutant_agreement"),
    "reparam": (
        "restriction_preserves_index",
        "restriction_preserves_commutant",
        "reparametrized_generators_pure",
        "extend_restrict_roundtrip",
    ),
    "induced1d": (
        "grid_cocycle_dim_equals_multiplicity",
        "lifted_cocycle_additivity",
        "adjoint_region_formula_1d",
        "semigroup_law_exact",
        "interior_isometry",
        "kernel_dimension_matches",
        "adjoint_pairing",
    ),
    "induced2d": (
        "adjoint_region_formula_2d",
        "axis_flip_identity",
        "lifted_cocycle_additivity_2d",
        "grid_pair_cocycles_match_base",
        "grid_commutant_is_ampliated",
    ),
}


def test_every_preset_has_a_pinned_inventory():
    assert set(PRESET_CHECKS) == set(PRESETS)


@pytest.mark.parametrize("preset", sorted(PRESET_CHECKS))
def test_preset_check_inventory(preset):
    report = verify_suite(preset, seed=0)
    assert tuple(c.check for c in report.checks) == PRESET_CHECKS[preset]


def _reflection_pair():
    return build_reflection_rep(np.array([0.6, 0.8]), TruncationParams(2, 8, 2))


def _custom_pair():
    rep = _reflection_pair()
    return IsoRep2(W1=rep.W1, W2=rep.W2, trunc=rep.trunc)


def _nan_pair():
    rep = _reflection_pair()
    w2 = rep.W2.copy()
    w2[1, 0] = np.nan
    return IsoRep2(W1=rep.W1, W2=w2, trunc=rep.trunc)


@pytest.mark.parametrize(
    "make_rep, expected",
    [
        # a finite family adds the grid commutant check
        (_reflection_pair, INDUCE_CHECKS),
        # a custom pair has no family to ampliate
        (_custom_pair, INDUCE_CHECKS[:-1]),
        # nothing runs past a pair that fails validation
        (_nan_pair, INDUCE_CHECKS[:1]),
    ],
    ids=["finite_family", "custom_pair", "invalid_pair"],
)
def test_induce_report_check_inventory(make_rep, expected):
    report = induce_report(make_rep(), 2)
    assert tuple(c.check for c in report.checks) == expected


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        verify_suite("nope")


def test_report_json_shape():
    report = verify_suite("example2", seed=5)
    obj = report.to_json()
    assert obj["preset"] == "example2"
    assert obj["seed"] == 5
    assert isinstance(obj["checks"], list) and obj["checks"]
    for check in obj["checks"]:
        assert {"check", "description", "passed"} <= set(check)


def test_induce_report_residual_keeps_a_nan_deviation():
    # the NaN sits in W2, so it is not the first of the three deviations
    rep = build_reflection_rep(np.array([1.0, 1.0]) / np.sqrt(2), TruncationParams(2, 8, 2))
    w2 = rep.W2.copy()
    w2[1, 0] = np.nan
    report = induce_report(IsoRep2(W1=rep.W1, W2=w2, trunc=rep.trunc), 2)
    check = report.checks[0]
    assert check.check == "pair_validates"
    assert check.passed is False
    assert math.isnan(check.residual)
