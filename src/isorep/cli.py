"""Command-line front end.

Every command reads a representation description (flags or a JSON config
file), dispatches into the library, and writes a deterministic JSON report.
Exit codes: 0 success, 1 input error, 2 verification failure. Reports are
byte-identical across runs with the same config and seed except for the
``meta`` block (timestamp and timings).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .cocycle import index
from .commutant import (
    are_unitarily_equivalent,
    oracle_irreducibility,
    structured_commutant_dim,
    truncated_commutant_oracle,
)
from .linalg import ToleranceConfig
from .repmodel import family_from_config, rep_from_config, strong_purity_check, validate
from .suites import PRESETS, induce_report, verify_suite

__all__ = ["main"]


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


# the destinations of the flags _add_rep_flags gives the first representation,
# all of which --config replaces
_REP_FLAGS = ("family", "n", "L", "guard", "kind", "a", "unitary_file", "projections_file")


def _add_rep_flags(p: argparse.ArgumentParser, suffix: str = "") -> None:
    p.add_argument(f"--config{suffix}", help="representation config JSON file")
    if suffix == "":
        p.add_argument("--family", choices=["reflection", "projection", "custom"])
        p.add_argument("--n", type=int)
        p.add_argument("--L", type=int)
        p.add_argument("--guard", type=int)
        p.add_argument("--kind", choices=["finite", "truncated_infinite"])
        p.add_argument("--a", type=_comma_floats, help="reflection vector (comma floats)")
        p.add_argument("--unitary-file", help="matrix JSON file with the unitary")
        p.add_argument(
            "--projections-file",
            help='JSON file: list of matrices, or the string "standard_basis"',
        )
    else:
        p.add_argument("--b", type=_comma_floats, help="second reflection vector")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse prints usage and exits 2 here, but this tool reserves 2 for
        # verification failures: a usage error is an input error like any other
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``isorep`` parser, built on first use and shared by every later
    call of the process, so callers must not change it. Parsing stores
    nothing on it; help, version and usage errors leave it as it was."""
    parser = _Parser(
        prog="isorep",
        description="Commuting-isometry models: index, commutants, equivalence, "
        "induced grid semigroups.",
    )
    parser.add_argument("--version", action="version", version=f"isorep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=1e-9)
    common.add_argument("--tol-id", type=float, default=1e-10)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--csv", help="also write a residual table as CSV")

    p = sub.add_parser("build", parents=[common], help="build and validate a pair")
    _add_rep_flags(p)

    p = sub.add_parser("index", parents=[common], help="cocycle-space dimension")
    _add_rep_flags(p)

    p = sub.add_parser("irreducible", parents=[common], help="commutant dimensions")
    _add_rep_flags(p)

    p = sub.add_parser("equivalent", parents=[common], help="unitary equivalence")
    _add_rep_flags(p)
    _add_rep_flags(p, suffix="2")

    p = sub.add_parser(
        "induce",
        parents=[common],
        help="grid-induced verification",
        description="semigroup_law_exact needs a residual of exactly 0.0. A custom pair "
        "whose generators commute only to rounding, not exactly as family-built pairs do, "
        "almost always fails it at about 1e-16, and the command then exits 2.",
    )
    _add_rep_flags(p)
    p.add_argument("--grid", type=int, default=4, help="cells per unit interval")

    p = sub.add_parser("verify-suite", parents=[common], help="run a named battery")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))

    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.config:
        given = [f"--{k.replace('_', '-')}" for k in _REP_FLAGS if getattr(args, k) is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: not allowed with --config")
        with open(args.config, encoding="utf-8") as fh:
            return json.load(fh)
    config: dict = {}
    if args.family:
        config["family"] = args.family
    if args.a is not None:
        config.setdefault("family", "reflection")
        config["a_vector"] = args.a
    if args.unitary_file:
        config.setdefault("family", "projection")
        with open(args.unitary_file, encoding="utf-8") as fh:
            config["unitary"] = json.load(fh)
    if args.projections_file:
        with open(args.projections_file, encoding="utf-8") as fh:
            config["projections"] = json.load(fh)
    for key in ("n", "L", "guard", "kind"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if "family" not in config:
        raise ValueError("config field family: missing (pass --family or --config)")
    return config


def _second_config(args: argparse.Namespace) -> dict:
    if args.config2:
        if args.b is not None:
            raise ValueError("--b: not allowed with --config2")
        with open(args.config2, encoding="utf-8") as fh:
            return json.load(fh)
    if args.b is not None:
        return {"family": "reflection", "a_vector": args.b}
    raise ValueError("config field b: second representation missing (pass --b or --config2)")


def cmd_build(args, tol: ToleranceConfig):
    config = _config_from_args(args)
    rep = rep_from_config(config, tol)
    report = validate(rep, tol)
    purity = strong_purity_check(rep, depth=min(2, rep.trunc.interior_levels), tol=tol)
    results = {
        "trunc": {"n": rep.trunc.n, "L": rep.trunc.L, "guard": rep.trunc.guard},
        "validation": report.as_dict(),
        "purity": purity.as_dict(),
    }
    return config, results, 0 if report.ok else 2


def cmd_index(args, tol: ToleranceConfig):
    config = _config_from_args(args)
    rep = rep_from_config(config, tol)
    result = index(rep, tol)
    return config, {"index": result.to_json(), "stable": result.kind != "unstable"}, 0


def cmd_irreducible(args, tol: ToleranceConfig):
    config = _config_from_args(args)
    rep = rep_from_config(config, tol)
    results: dict = {}
    if rep.family is not None:
        results["structured_commutant_dim"] = structured_commutant_dim(rep.family, tol)
    if rep.family is not None and rep.family.kind == "finite":
        # the structured formula decides; the oracle is reported at L only
        results["oracle_commutant_dim"] = truncated_commutant_oracle(rep, tol, args.seed)
        results["irreducible"] = results["structured_commutant_dim"] == 1
    else:
        dims, results["irreducible"] = oracle_irreducibility(rep, tol, args.seed)
        results["oracle_commutant_dim"] = dims[0]
    return config, results, 0


def cmd_equivalent(args, tol: ToleranceConfig):
    config = _config_from_args(args)
    config2 = _second_config(args)
    if config.get("family") == config2.get("family") == "reflection":
        # every field is checked as rep_from_config checks it, but the
        # structured verdict needs only the families, not the assembled pairs
        first, second = family_from_config(config, tol)[0], family_from_config(config2, tol)[0]
    else:
        first, second = rep_from_config(config, tol), rep_from_config(config2, tol)
    verdict = are_unitarily_equivalent(first, second, tol, args.seed)
    return {"first": config, "second": config2}, verdict.to_json(), 0


def cmd_induce(args, tol: ToleranceConfig):
    config = _config_from_args(args)
    rep = rep_from_config(config, tol)
    suite = induce_report(rep, args.grid, tol, args.seed)
    config["grid"] = args.grid
    return config, suite.to_json(), 0 if suite.passed else 2


def cmd_verify_suite(args, tol: ToleranceConfig):
    suite = verify_suite(args.preset, tol, args.seed)
    return {"preset": args.preset}, suite.to_json(), 0 if suite.passed else 2


_COMMANDS = {
    "build": cmd_build,
    "index": cmd_index,
    "irreducible": cmd_irreducible,
    "equivalent": cmd_equivalent,
    "induce": cmd_induce,
    "verify-suite": cmd_verify_suite,
}


def _write_csv(path: str, results: dict) -> None:
    import csv

    rows = results.get("checks", [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "residual", "tolerance", "passed"])
        for row in rows:
            writer.writerow(
                [
                    row.get("check"),
                    row.get("residual", ""),
                    row.get("tolerance", ""),
                    row.get("passed"),
                ]
            )


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        tol = ToleranceConfig(rank_tol=args.tol_rank, identity_tol=args.tol_id)
        config_echo, results, code = _COMMANDS[args.command](args, tol)
    except SystemExit as exc:
        # --help and --version print, then exit 0
        return exc.code
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    report = {
        "tool": {"name": "isorep", "version": __version__},
        "command": args.command,
        "config": config_echo,
        "seed": args.seed,
        "results": results,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": round(time.perf_counter() - started, 6),
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.csv:
        _write_csv(args.csv, results if isinstance(results, dict) else {})
    return code


if __name__ == "__main__":
    sys.exit(main())
