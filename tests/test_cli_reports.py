"""The CLI reports pinned leaf by leaf: every verify-suite preset at two seeds
and the build, induce, index, irreducible and equivalent commands at fixed
flags, run in process through ``isorep.cli.main``. Each report's exit code,
stderr and every leaf outside ``meta`` that is not a float (ints, bools,
strings and nulls: the integers and verdicts) must match
``cli_reports.json``. Floats are residuals, which rounding may move.

Regenerate the file with ``PYTHONPATH=src python tests/test_cli_reports.py``,
only for a change meant to alter a report.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from isorep.cli import main
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


if __name__ == "__main__":
    reports = {" ".join(argv): run_report(argv) for argv in REPORTS}
    EXPECTED.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
