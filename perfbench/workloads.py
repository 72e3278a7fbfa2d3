"""Seeded job lists for the three certification workloads.

A job is one call into isorep's public API together with the answer known
from how its input was built, never from a run of the code under test. The
seed changes matrix entries and vectors, never sizes, so a job's cost does
not depend on the seed. Every job draws from its own generator, seeded by
(seed, workload, job number), so one job's input does not depend on the
others.

Library functions are looked up on the ``isorep`` package when a job runs, so
the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import isorep
import isorep.cli

WORKLOADS = ("index-certify", "grid-commutant", "small-certify")
_TAGS = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass
class Job:
    kind: str
    sizes: dict
    call: Callable[[], object]
    expected: object
    record: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {"kind": self.kind, **self.sizes, **self.record}


def _rng(seed: int, workload: str, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload], job])


def _signed_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit vector whose coordinates all have modulus ≥ 0.4/‖·‖, so the
    reflection family is irreducible and strongly pure."""
    v = rng.uniform(0.4, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return v / np.linalg.norm(v)


def _planted_family(rng: np.random.Generator, n: int, k: int) -> isorep.ProjectionFamily:
    """Random unitary with ker(U - 1) of dimension exactly k over the standard
    projections; the other eigenvalues stay at angle ≥ 0.3 from 1."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    angles = rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k)
    u = q @ np.diag(np.concatenate([np.ones(k), np.exp(1j * angles)])) @ q.conj().T
    projections = tuple(np.diag(np.eye(n)[i]).astype(complex) for i in range(n))
    return isorep.ProjectionFamily(projections=projections, unitary=u)


def _seeded_profile(seed: int, job: int) -> Callable[[int], np.ndarray]:
    """Reflection vector at any size n with every coordinate nonzero."""

    def profile(n: int) -> np.ndarray:
        rng = np.random.default_rng([seed, _TAGS["index-certify"], job, n])
        v = rng.uniform(0.5, 1.5, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
        return v / np.linalg.norm(v)

    return profile


# ---------------------------------------------------------------- index-certify


def _finite_index_job(seed: int, job: int, n: int) -> Job:
    """Finite projection family at the default truncation; index = k."""
    rng = _rng(seed, "index-certify", job)
    k = int(rng.integers(0, n + 1))
    rep = isorep.build_projection_family_rep(_planted_family(rng, n, k))
    tr = rep.trunc
    return Job(
        kind="index.finite",
        sizes={"n": n, "L": tr.L, "guard": tr.guard, "N": [tr.dim, n * (tr.L + 4)]},
        call=lambda: isorep.index(rep).to_json(),
        expected={"finite": k},
        record={"k": k},
    )


def _growth_probe_job(seed: int, job: int, n: int) -> Job:
    """Truncated-infinite reflection family; the probe solves at sizes n and
    2n, two truncations each, and sees the index n-1 grow to 2n-1."""
    fam = isorep.truncated_infinite_reflection_family(n, _seeded_profile(seed, job))
    rep = isorep.build_projection_family_rep(fam)
    probes = [isorep.cocycle.probe_truncation(m, m) for m in (n, 2 * n)]
    return Job(
        kind="index.growth_probe",
        sizes={
            "n": n,
            "L": [p.L for p in probes],
            "guard": [p.guard for p in probes],
            "N": [p.n * (p.L + extra) for p in probes for extra in (0, 4)],
        },
        call=lambda: isorep.index(rep).to_json(),
        expected={"unbounded_with_truncation": {"dims": [n - 1, 2 * n - 1]}},
    )


def _index_certify(seed: int, smoke: bool) -> tuple[list[Job], Job]:
    # one probe, eight n=5 and two n=6 jobs: the median falls inside the n=5
    # group and the 90th percentile on the n=6 jobs, never on the probe, and
    # a pass is short enough for three passes per run, whose median shrugs
    # off a slow spell of the shared machine
    if smoke:
        return [_growth_probe_job(seed, 0, 3), _finite_index_job(seed, 1, 2)], _finite_index_job(
            seed, 99, 2
        )
    jobs = [_growth_probe_job(seed, 0, 8)]
    jobs += [_finite_index_job(seed, j, 5) for j in range(1, 9)]
    jobs += [_finite_index_job(seed, j, 6) for j in range(9, 11)]
    return jobs, _finite_index_job(seed, 99, 5)


# --------------------------------------------------------------- grid-commutant


def _induce_job(seed: int, job: int, n: int, L: int, guard: int, m: int) -> Job:
    """``isorep induce`` battery on an irreducible reflection pair: it passes
    and the grid commutant is the ampliated scalar one."""
    a = _signed_vector(_rng(seed, "grid-commutant", job), n)
    rep = isorep.build_reflection_rep(a, isorep.TruncationParams(n, L, guard))

    def call():
        suite = isorep.induce_report(rep, m)
        dims = [c.values.get("structured_dim") for c in suite.checks if c.check == "grid_commutant_is_ampliated"]
        return {"passed": suite.passed, "structured_dim": dims}

    return Job(
        kind=f"induce.M{m}",
        sizes={"n": n, "L": L, "guard": guard, "M": m, "N": m * m * n * L},
        call=call,
        expected={"passed": True, "structured_dim": [1]},
    )


def _grid_commutant(seed: int, smoke: bool) -> tuple[list[Job], Job]:
    # two M=3 jobs per pass keep the 90th percentile inside the M=3 cluster;
    # M=4 (the CLI default, ~95 s) does not fit the run length
    if smoke:
        return [_induce_job(seed, 0, 2, 8, 2, 2)], _induce_job(seed, 99, 2, 8, 2, 2)
    jobs = [_induce_job(seed, j, 4, 8, 3, 3) for j in range(2)]
    jobs += [_induce_job(seed, j, 4, 8, 3, 2) for j in range(2, 8)]
    return jobs, _induce_job(seed, 99, 4, 8, 3, 2)


# ---------------------------------------------------------------- small-certify


def _cli_job(kind: str, sizes: dict, argv: list[str], pick: Callable[[dict], object], answer) -> Job:
    """``isorep <argv>`` run in process; the answer is the exit code and the
    picked part of the JSON report."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = isorep.cli.main(argv)
        return {"exit": code, "answer": pick(json.loads(buf.getvalue())["results"]) if code == 0 else None}

    return Job(kind, sizes, call, {"exit": 0, "answer": answer})


def _floats(flag: str, v: np.ndarray) -> str:
    # one token, so a leading minus is not taken for an option
    return f"{flag}=" + ",".join(repr(float(x)) for x in v)


def _small_set(seed: int, job: int, smoke: bool) -> list[Job]:
    """One seeded vector a, run through every small job kind.

    b flips signs of a (same coordinate moduli: unitarily equivalent), c
    rescales one coordinate (different moduli: inequivalent, and a ⊕ c has
    commutant dimension 2 while a ⊕ a has 4).
    """
    rng = _rng(seed, "small-certify", job)
    n = 3 if smoke else 4
    a = _signed_vector(rng, n)
    b = a * rng.choice([-1.0, 1.0], size=n)
    c = a.copy()
    c[int(rng.integers(n))] *= rng.uniform(1.5, 2.5)
    c /= np.linalg.norm(c)
    a2 = _signed_vector(rng, 2)
    fa, fb, fc = (isorep.reflection_family(v) for v in (a, b, c))
    tr = isorep.TruncationParams(n, 8, 3)
    ra, rb, rc = (isorep.build_projection_family_rep(f, tr) for f in (fa, fb, fc))
    r_oracle = isorep.build_projection_family_rep(fa, isorep.TruncationParams(n, 16, 8))
    r_sub = isorep.build_projection_family_rep(fa, isorep.TruncationParams(n, 16, 3))
    second, verdict = (b, "equivalent") if job % 2 == 0 else (c, "inequivalent")
    small = {"n": n, "L": 8, "guard": 3, "N": n * 8}
    default = {"n": n, "L": 8 * n, "guard": 2 * n, "N": 8 * n * n}

    def roundtrip():
        space = isorep.cocycle_space(r_sub)
        worst = 0.0
        for coc in space.basis:
            values = isorep.restrict_to_subsemigroup(coc, r_sub, (1, 1), (2, 1))
            back = isorep.extend_cocycle(r_sub, (1, 1), (2, 1), values)
            worst = max(worst, float(np.max(np.abs(back.stacked() - coc.stacked()))))
        return {"dim": space.dim, "roundtrip_ok": worst <= 1e-10}

    trunc_flags = ["--L", "8", "--guard", "3"]
    return [
        _cli_job("cli.index", default, ["index", _floats("--a", a)], lambda r: r["index"], {"finite": n - 1}),
        _cli_job(
            "cli.irreducible",
            small,
            ["irreducible", _floats("--a", a), *trunc_flags],
            lambda r: r,
            {"structured_commutant_dim": 1, "oracle_commutant_dim": 1, "irreducible": True},
        ),
        _cli_job(
            "cli.equivalent",
            {"n": n},
            ["equivalent", _floats("--a", a), _floats("--b", second)],
            lambda r: r["status"],
            verdict,
        ),
        _cli_job(
            "cli.build",
            small,
            ["build", "--family", "reflection", _floats("--a", a), *trunc_flags],
            lambda r: [r["validation"]["ok"], r["purity"]["verdict"]],
            [True, "strongly_pure"],
        ),
        _cli_job(
            "cli.induce",
            {"n": 2, "L": 8, "guard": 2, "M": 2, "N": 2 * 2 * 2 * 8},
            ["induce", _floats("--a", a2), "--L", "8", "--guard", "2", "--grid", "2"],
            lambda r: r["passed"],
            True,
        ),
        Job("lib.structured_dim", {"n": n}, lambda: isorep.structured_commutant_dim(fa), 1),
        Job(
            "lib.structured_dim_sum_equal",
            {"n": 2 * n},
            lambda: isorep.structured_commutant_dim(isorep.direct_sum_family(fa, fa)),
            4,
        ),
        Job(
            "lib.structured_dim_sum_distinct",
            {"n": 2 * n},
            lambda: isorep.structured_commutant_dim(isorep.direct_sum_family(fa, fc)),
            2,
        ),
        Job("lib.equivalent_families", {"n": n}, lambda: isorep.are_unitarily_equivalent(fa, fb).status, "equivalent"),
        Job("lib.inequivalent_families", {"n": n}, lambda: isorep.are_unitarily_equivalent(fa, fc).status, "inequivalent"),
        Job("lib.equivalent_reps", small, lambda: isorep.are_unitarily_equivalent(ra, rb).status, "equivalent"),
        Job("lib.inequivalent_reps", small, lambda: isorep.are_unitarily_equivalent(ra, rc).status, "inequivalent"),
        Job(
            "lib.oracle",
            {"n": n, "L": 16, "guard": 8, "N": 16 * n},
            lambda: isorep.truncated_commutant_oracle(r_oracle),
            1,
        ),
        Job("lib.validate", small, lambda: isorep.validate(ra).ok, True),
        Job("lib.purity", small, lambda: isorep.strong_purity_check(ra, 3).verdict, "strongly_pure"),
        Job(
            "lib.restrict_extend",
            {"n": n, "L": 16, "guard": 3, "N": 16 * n},
            roundtrip,
            {"dim": n - 1, "roundtrip_ok": True},
        ),
    ]


# every preset except example3_trunc, which index-certify covers; presets run
# at their default seed 0 because projection_random draws its sizes from it
PRESETS = ("example2", "projection_random", "reparam", "induced1d", "induced2d")


def _preset_job(preset: str) -> Job:
    return _cli_job(f"cli.verify_suite.{preset}", {}, ["verify-suite", "--preset", preset], lambda r: r["passed"], True)


def _small_certify(seed: int, smoke: bool) -> tuple[list[Job], Job]:
    # six vector sets (96 jobs) plus five presets: with 101 jobs per pass the
    # 90th percentile has ten jobs beyond it
    sets = 1 if smoke else 6
    presets = PRESETS[:1] if smoke else PRESETS
    jobs = [job for j in range(sets) for job in _small_set(seed, j, smoke)]
    jobs += [_preset_job(p) for p in presets]
    return jobs, _small_set(seed, 99, smoke)[0]


_BUILDERS = {
    "index-certify": _index_certify,
    "grid-commutant": _grid_commutant,
    "small-certify": _small_certify,
}


def build(workload: str, seed: int, smoke: bool = False) -> tuple[list[Job], Job]:
    """The fixed job list of one pass, and the untimed warm-up job."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed, smoke)
