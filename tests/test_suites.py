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
