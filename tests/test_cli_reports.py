"""The CLI reports pinned leaf by leaf: every verify-suite preset at two seeds
and the build, induce, index, irreducible and equivalent commands at fixed
flags, run in process through ``isorep.cli.main``. Each report's exit code,
stderr and every leaf outside ``meta`` that is not a float (ints, bools,
strings and nulls: the integers and verdicts) must match
``cli_reports.json``. Floats are residuals, which rounding may move.
A census run over the same reports, and over ``index()`` at the house
truncations, asserts that every level-shift pair there takes the cocycle
solve's closed form, never its distinct-block fallback.

Regenerate the file with ``PYTHONPATH=src python tests/test_cli_reports.py``,
only for a change meant to alter a report.
"""
import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from isorep import cocycle
from isorep.cli import main
from isorep.cocycle import index
from isorep.repmodel import (
    ProjectionFamily,
    build_projection_family_rep,
    truncated_infinite_reflection_family,
)
from isorep.suites import PRESETS

EXPECTED = Path(__file__).with_name("cli_reports.json")

PAIR = ["--a", "0.5,0.5,0.5,0.5", "--L", "8", "--guard", "3"]
REPORTS = [
    *(["verify-suite", "--preset", p, "--seed", s] for p in sorted(PRESETS) for s in ("0", "1")),
    ["build", *PAIR],
    *(["induce", *PAIR, "--grid", m] for m in ("2", "3", "4")),
    ["index", "--a", "0.6,0.8,0.1"],
    ["irreducible", "--a", "0.6,0.8,0.1"],
    ["equivalent", "--a", "0.6,0.8", "--b=-0.6,0.8"],
]


def _leaves(node, path=""):
    """path → value of every non-float leaf, paths joined by '/'."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {} if isinstance(node, float) else {path: node}
    out = {}
    for key, child in items:
        out.update(_leaves(child, f"{path}/{key}"))
    return out


def run_report(argv):
    """Exit code, stderr and the non-float leaves outside ``meta``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue()) if out.getvalue().strip() else {}
    report.pop("meta", None)
    return {"exit": code, "stderr": err.getvalue(), "leaves": _leaves(report)}


def test_the_pinned_set_has_nineteen_reports():
    assert len(REPORTS) == 19 == len(json.loads(EXPECTED.read_text()))


@pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
def test_cli_report_keeps_its_integers_and_verdicts(argv):
    expected = json.loads(EXPECTED.read_text())[" ".join(argv)]
    got = run_report(argv)
    assert (got["exit"], got["stderr"]) == (expected["exit"], expected["stderr"])
    assert got["leaves"] == expected["leaves"]


def test_level_shift_pairs_of_the_reports_and_house_truncations_take_the_closed_form():
    # every preset, CLI command and index() at the default truncation
    # (L = 8d, guard 2d) and at the growth probe's (L = 2d + 4, guard d + 1)
    rng = np.random.default_rng(0)
    families = []
    for n in (2, 3, 5):
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        families.append(ProjectionFamily(tuple(np.diag(np.eye(n)[i]) for i in range(n)), q))
    with mock.patch.object(
        cocycle, "_closed_form_solve", wraps=cocycle._closed_form_solve
    ) as closed, mock.patch.object(
        cocycle, "_symbol_pair_solve", wraps=cocycle._symbol_pair_solve
    ) as fallback:
        for argv in REPORTS:
            run_report(argv)
        for fam in families:
            index(build_projection_family_rep(fam))
        probe = index(build_projection_family_rep(truncated_infinite_reflection_family(4)))
    assert probe.kind == "unbounded_with_truncation"
    assert fallback.call_count == 0
    assert closed.call_count > 0


if __name__ == "__main__":
    reports = {" ".join(argv): run_report(argv) for argv in REPORTS}
    EXPECTED.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
