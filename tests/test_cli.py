import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isorep.cli
import isorep.commutant
from isorep.cli import main
from isorep.linalg import matrix_to_json
from isorep.repmodel import TruncationParams, build_reflection_rep


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_index_reflection(capsys):
    code, report = run_cli(
        ["index", "--family", "reflection", "--a", "0.5,0.5,0.5,0.5"], capsys
    )
    assert code == 0
    assert report["results"]["index"] == {"finite": 3}
    assert report["results"]["stable"] is True
    assert report["tool"]["name"] == "isorep"


def test_equivalent_identical_configs(capsys):
    code, report = run_cli(
        ["equivalent", "--a", "0.5,0.5,0.5,0.5", "--b", "0.5,0.5,0.5,0.5"], capsys
    )
    assert code == 0
    assert report["results"]["status"] == "equivalent"


def test_equivalent_moduli_mismatch(capsys):
    code, report = run_cli(
        ["equivalent", "--a", "0.5,0.5,0.5,0.5", "--b", "0.8,0.1,0.1,0.1"], capsys
    )
    assert code == 0
    assert report["results"]["status"] == "inequivalent"


def test_irreducible_command(capsys):
    code, report = run_cli(
        ["irreducible", "--family", "reflection", "--a", "0.5,0.5,0.5,0.5",
         "--L", "8", "--guard", "3"],
        capsys,
    )
    assert code == 0
    results = report["results"]
    assert results["irreducible"] is True
    assert results["structured_commutant_dim"] == 1
    assert results["oracle_commutant_dim"] == 1


def test_build_command_reports_validation(capsys):
    code, report = run_cli(
        ["build", "--family", "reflection", "--a", "0.5,0.5,0.5,0.5",
         "--L", "8", "--guard", "3"],
        capsys,
    )
    assert code == 0
    assert report["results"]["validation"]["ok"] is True
    assert report["results"]["trunc"] == {"n": 4, "L": 8, "guard": 3}


def test_induce_command(capsys):
    code, report = run_cli(
        ["induce", "--family", "reflection",
         "--a", "0.70710678118654752,0.70710678118654752",
         "--L", "8", "--guard", "2", "--grid", "2"],
        capsys,
    )
    assert code == 0
    assert report["results"]["passed"] is True
    names = {c["check"] for c in report["results"]["checks"]}
    assert "adjoint_region_formula_2d" in names
    assert "grid_commutant_is_ampliated" in names


def test_induce_command_at_default_grid(capsys):
    # no --grid: the battery runs at the CLI default of 4 cells per unit
    code, report = run_cli(
        ["induce", "--family", "reflection", "--a", "0.6,0.8", "--L", "8", "--guard", "2"],
        capsys,
    )
    assert code == 0
    assert report["config"]["grid"] == 4
    assert report["results"]["passed"] is True
    (check,) = [c for c in report["results"]["checks"] if c["check"] == "grid_commutant_is_ampliated"]
    assert check["values"]["structured_dim"] == 1


def test_verify_suite_exit_zero(capsys):
    code, report = run_cli(["verify-suite", "--preset", "example2"], capsys)
    assert code == 0
    assert report["results"]["passed"] is True


def test_unknown_family_is_input_error(capsys):
    code = main(["index", "--family", "bogus"])
    capsys.readouterr()
    assert code == 1


def test_missing_family_is_input_error(capsys):
    code = main(["index"])
    err = capsys.readouterr().err
    assert code == 1
    assert "family" in err


def test_malformed_config_file(tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text("{not json")
    code = main(["index", "--config", str(cfg)])
    capsys.readouterr()
    assert code == 1


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "projection",
                "unitary": matrix_to_json(np.eye(2)),
                "projections": "standard_basis",
                "n": 2,
                "L": 8,
                "guard": 2,
            }
        )
    )
    code, report = run_cli(["index", "--config", str(cfg)], capsys)
    assert code == 0
    assert report["results"]["index"] == {"finite": 2}


def test_report_written_to_file_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "resid.csv"
    code = main(
        ["verify-suite", "--preset", "example2", "--out", str(out), "--csv", str(csv_path)]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["passed"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header == "check,residual,tolerance,passed"


def _invalid_custom_config(tmp_path):
    from isorep.repmodel import TruncationParams, truncated_shift
    from isorep.linalg import kron

    n, L = 1, 6
    w = kron(np.eye(n), truncated_shift(L))
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "custom",
                "n": n,
                "L": L,
                "guard": 2,
                "W1": matrix_to_json(2.0 * w),  # not an isometry
                "W2": matrix_to_json(np.eye(n * L)),
            }
        )
    )
    return cfg


def test_build_invalid_rep_exits_two(tmp_path, capsys):
    cfg = _invalid_custom_config(tmp_path)
    code, report = run_cli(["build", "--config", str(cfg)], capsys)
    assert code == 2
    assert report["results"]["validation"]["ok"] is False


def test_induce_invalid_rep_exits_two(tmp_path, capsys):
    cfg = _invalid_custom_config(tmp_path)
    code, report = run_cli(["induce", "--config", str(cfg), "--grid", "2"], capsys)
    assert code == 2
    assert report["results"]["passed"] is False
    assert report["results"]["checks"][0]["check"] == "pair_validates"


def test_repeated_runs_identical_modulo_meta(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["verify-suite", "--preset", "example2", "--seed", "3", "--out", str(p)])
        assert code == 0
    capsys.readouterr()
    reports = []
    for p in paths:
        obj = json.loads(p.read_text())
        obj.pop("meta")
        reports.append(json.dumps(obj, sort_keys=True))
    assert reports[0] == reports[1]


def _custom_example2_config(tmp_path):
    rep = build_reflection_rep(np.full(4, 0.5), TruncationParams(4, 8, 3))
    cfg = tmp_path / "custom.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "custom",
                "n": 4,
                "L": 8,
                "guard": 3,
                "W1": matrix_to_json(rep.W1),
                "W2": matrix_to_json(rep.W2),
            }
        )
    )
    return ["--config", str(cfg)]


@pytest.mark.parametrize(
    "case, oracle_levels, irreducible",
    [
        # the structured formula decides; the oracle is reported at L only
        ("finite", [8], True),
        # oracle at L and at L + stabilization_delta, each solved once
        ("truncated_infinite", [8, 12], True),
        # no rebuild recipe: one solve, no verdict
        ("custom", [8], None),
    ],
)
def test_irreducible_solves_each_truncation_once(
    case, oracle_levels, irreducible, tmp_path, monkeypatch, capsys
):
    flags = {
        "finite": ["--a", "0.5,0.5,0.5,0.5", "--L", "8", "--guard", "3"],
        "truncated_infinite": [
            "--a", "0.5,0.5,0.5", "--kind", "truncated_infinite", "--L", "8", "--guard", "3",
        ],
    }
    args = flags[case] if case in flags else _custom_example2_config(tmp_path)
    real = isorep.commutant.truncated_commutant_oracle
    levels = []

    def counting(rep, *rest, **kwargs):
        levels.append(rep.trunc.L)
        return real(rep, *rest, **kwargs)

    monkeypatch.setattr(isorep.commutant, "truncated_commutant_oracle", counting)
    monkeypatch.setattr(isorep.cli, "truncated_commutant_oracle", counting)
    code, report = run_cli(["irreducible", *args], capsys)
    assert code == 0
    assert levels == oracle_levels
    assert report["results"]["oracle_commutant_dim"] == 1
    assert report["results"]["irreducible"] is irreducible


@pytest.mark.parametrize(
    "args",
    [
        ["index", "--a", "nan,1,1,1"],
        ["build", "--a", "1,inf,1,1", "--L", "8", "--guard", "3"],
        ["equivalent", "--a", "0.5,0.5,0.5,0.5", "--b", "0.5,-inf,0.5,0.5"],
        ["index", "--a", "0.9,0.1,0.3,0.2", "--kind", "truncated_infinite"],
    ],
)
def test_bad_a_vector_exits_one_naming_the_field(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "a_vector" in json.loads(captured.err)["error"]


def test_non_finite_unitary_file_exits_one_naming_the_field(tmp_path, capsys):
    u = np.eye(2, dtype=complex)
    u[0, 1] = np.nan
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_json(u)))
    code = main(["index", "--unitary-file", str(path)])
    assert code == 1
    assert "unitary" in json.loads(capsys.readouterr().err)["error"]


def _unitary_config(tmp_path, **fields):
    cfg = tmp_path / "rep.json"
    config = {"family": "projection", "unitary": matrix_to_json(np.eye(2)), **fields}
    cfg.write_text(json.dumps(config))
    return cfg


def test_projection_config_with_truncated_infinite_kind_exits_one(tmp_path, capsys):
    cfg = _unitary_config(tmp_path, kind="truncated_infinite")
    code = main(["index", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "config field kind" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("bad", [float("nan"), "x", 8.5])
def test_non_integer_L_in_config_exits_one_naming_the_field(tmp_path, capsys, bad):
    cfg = _unitary_config(tmp_path, n=2, L=bad, guard=2)
    code = main(["build", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "config field L" in json.loads(captured.err)["error"]


def test_uniform_truncated_infinite_vector_probes_growth(capsys):
    code, report = run_cli(
        ["index", "--a", "2,2,2,2", "--kind", "truncated_infinite"], capsys
    )
    assert code == 0
    assert report["results"]["index"] == {"unbounded_with_truncation": {"dims": [3, 7]}}


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"L": 8.5, "kind": "bogus"}, "kind"),
        ({"L": 8.5}, "L"),
        ({"guard": None, "L": 12}, "guard"),
        # without L the default truncation is taken: n must fit, guard is refused
        ({"n": 5}, "n"),
        ({"guard": 3}, "guard"),
    ],
)
@pytest.mark.parametrize("position", ["--config", "--config2"])
def test_equivalent_checks_both_reflection_configs(tmp_path, capsys, fields, name, position):
    good = {"family": "reflection", "a_vector": [0.5, 0.5, 0.5, 0.5]}
    configs = {"--config": good, "--config2": good, position: {**good, **fields}}
    args = ["equivalent"]
    for flag, config in configs.items():
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(config))
        args += [flag, str(path)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"config field {name}" in json.loads(captured.err)["error"]


def test_equivalent_rejects_reflection_config_whose_truncation_does_not_fit(tmp_path, capsys):
    config = tmp_path / "rep.json"
    fields = {"family": "reflection", "a_vector": [1, 1, 1, 1], "n": 5, "L": 12}
    config.write_text(json.dumps(fields))
    code = main(["equivalent", "--config", str(config), "--b", "1,1,1,1"])
    assert code == 1
    assert "does not match" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "args, field",
    [
        (["build", "--a=0.6,0.8", "--n", "3"], "n"),
        (["index", "--a=0.6,0.8", "--n", "3"], "n"),
        (["build", "--a=0.6,0.8", "--guard", "5"], "guard"),
        (["irreducible", "--a=0.6,0.8", "--n", "2", "--guard", "5"], "guard"),
        (["equivalent", "--a=0.6,0.8", "--n", "3", "--b=0.8,0.6"], "n"),
    ],
)
def test_n_or_guard_without_L_exits_one_naming_the_field(args, field, capsys):
    # both used to be echoed in the config and ignored by the computation
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"config field {field}" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--L", "12", "--guard", "3", "--a=0.5,0.5,0.5,0.5"], "--L, --guard, --a"),
        (["--family", "reflection"], "--family"),
        (["--n", "4"], "--n"),
        (["--kind", "finite"], "--kind"),
        (["--unitary-file", "u.json"], "--unitary-file"),
        (["--projections-file", "p.json"], "--projections-file"),
    ],
)
def test_config_excludes_the_representation_flags(tmp_path, capsys, flags, named):
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"family": "reflection", "a_vector": [0.5, 0.5, 0.5, 0.5]}))
    code = main(["build", "--config", str(cfg), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith(f"{named}: not allowed with --config")


def test_config2_excludes_b_but_config_takes_it(tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"family": "reflection", "a_vector": [0.6, 0.8]}))
    code = main(["equivalent", "--a=0.6,0.8", "--config2", str(cfg), "--b=0.8,0.6"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("--b: not allowed with --config2")
    # --config and --b describe the two different representations
    code, report = run_cli(["equivalent", "--config", str(cfg), "--b=-0.6,0.8"], capsys)
    assert code == 0
    assert report["results"]["status"] == "equivalent"


# --- one parser per process -------------------------------------------------------

# every subcommand, with --help, --version and usage errors in between
_SEQUENCE = [
    ["index", "--a=0.6,0.8"],
    ["--help"],
    ["build", "--family", "reflection", "--a=0.6,0.8", "--L", "8", "--guard", "3"],
    ["--version"],
    ["irreducible", "--a=0.6,0.8", "--L", "8", "--guard", "3"],
    ["index", "--bogus"],
    ["equivalent", "--a=0.6,0.8", "--b=-0.6,0.8"],
    ["induce", "--help"],
    ["induce", "--a=0.6,0.8", "--L", "8", "--guard", "2", "--grid", "2"],
    ["frobnicate"],
    ["verify-suite", "--preset", "example2", "--seed", "1"],
    ["index", "--a=0.6,0.8", "--seed", "2"],
]


def _run_modulo_meta(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    try:
        report = json.loads(out)
    except ValueError:  # help and version text
        return code, out, err
    report.pop("meta")
    return code, report, err


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "isorep":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    isorep.cli.build_parser.cache_clear()
    shared = [_run_modulo_meta(argv, capsys) for argv in _SEQUENCE]
    assert len(built) == 1
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    for argv, outcome in zip(_SEQUENCE, shared):
        isorep.cli.build_parser.cache_clear()
        assert _run_modulo_meta(argv, capsys) == outcome, argv


# --- the entry point as its own process -------------------------------------------

_SRC = Path(__file__).resolve().parents[1] / "src"


def _isorep_process(*argv):
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "isorep.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_entry_point_process_exit_codes_and_streams():
    run = _isorep_process("index", "--a=0.6,0.8")
    assert run.returncode == 0
    assert run.stderr == ""
    assert json.loads(run.stdout)["results"]["index"] == {"finite": 1}  # one JSON report

    # argparse's own exit 2 is an input error here
    run = _isorep_process("index", "--a=0.6,0.8", "--bogus")
    assert run.returncode == 1
    assert run.stdout == ""
    assert "--bogus" in json.loads(run.stderr)["error"]

    run = _isorep_process("build", "--a=0.6,0.8", "--n", "3")
    assert run.returncode == 1
    assert run.stdout == ""
    assert "config field n" in json.loads(run.stderr)["error"]

    run = _isorep_process("--version")
    assert run.returncode == 0
    assert run.stdout.startswith("isorep ")
