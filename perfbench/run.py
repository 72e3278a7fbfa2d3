"""isorep benchmark: time to a certified answer on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload index-certify --seed 1 --seconds 40 --trace 0

One client runs the workload's fixed job list (a *pass*) in a closed loop,
repeating whole passes while another one still fits in ``--seconds``; every
job's answer is checked against the answer known from how its input was
built. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, and reports the per-layer metrics (see ``tracing.py``).

The last line of standard output is the result object; the line before it is
the run record (seed, environment, every job's sizes, pass walls, failures).
Exit status: 0 when every job is correct, 1 when some job failed, 2 when the
benchmark could not run (for instance, no ``src/isorep`` in the checkout).
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
# setup is measured this many times per run (this process plus fresh ones)
SETUP_SAMPLES = 3


def _limit_blas_threads() -> int:
    """BLAS gets no more threads than the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_library():
    """Import isorep from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "isorep" / "__init__.py").is_file():
        raise RuntimeError(f"no isorep sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import isorep
    import workloads

    if Path(isorep.__file__).resolve().parent != (src / "isorep").resolve():
        raise RuntimeError(f"imported isorep from {isorep.__file__}, not from {src}")
    return isorep, workloads


def run_pass(jobs, tracer=None, first_job: int = 0) -> dict:
    """Run every job once; latencies and failures of this pass."""
    latencies, failures = [], []
    started = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_job + i
        t0 = time.perf_counter()
        try:
            answer = job.call()
        except Exception as exc:  # a raising job is a failed job, not a crash
            answer = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if answer != job.expected:
            failures.append({"job": i, "kind": job.kind, "got": repr(answer), "want": repr(job.expected)})
    return {"wall": time.perf_counter() - started, "latencies": latencies, "failures": failures}


def run_timeboxed(jobs, seconds: float, tracer=None) -> list[dict]:
    """Whole passes while the longest pass so far still fits; at least one."""
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, tracer, first_job=len(passes) * len(jobs)))
        elapsed = time.perf_counter() - started
        if elapsed + max(p["wall"] for p in passes) > seconds:
            return passes


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics at (n-1)·0.9."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def p90_tail(count: int) -> int:
    """How many of ``count`` samples lie beyond the 90th percentile."""
    return count - 1 - math.floor(0.9 * (count - 1))


def setup(workload: str, seed: int, smoke: bool) -> tuple[dict, list, dict]:
    """Import, inputs, warm-up: phases in seconds, plus the pass job list."""
    t0 = time.perf_counter()
    _, workloads = _import_library()
    t1 = time.perf_counter()
    jobs, warmup = workloads.build(workload, seed, smoke)
    t2 = time.perf_counter()
    warm = run_pass([warmup])
    t3 = time.perf_counter()
    phases = {
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "warmup_s": t3 - t2,
        "total_s": t3 - PROCESS_START,
    }
    return phases, jobs, warm


def setup_sample(args) -> dict:
    """Set up once more in a fresh process, as a user starting a run would."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup sample failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(nproc: int) -> dict:
    """What a comparison across machines needs to know about this one."""
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    try:
        llc = int(ctypes.CDLL(None).sysconf(194))  # glibc _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        llc = None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "llc_bytes": llc if llc and llc > 0 else None,
        "mem_total_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
    }


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(passes: list[dict], setups: list[dict], peak_mb: float, attempted: int, failed: int) -> dict:
    return {
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_p50_s": statistics.median(statistics.median(p["latencies"]) for p in passes),
        "job_p90_s": statistics.median(p90(p["latencies"]) for p in passes),
        "peak_rss_mb": peak_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="index-certify, grid-commutant or small-certify")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass per phase")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = _limit_blas_threads()
    try:
        phases, jobs, warm = setup(args.workload, args.seed, args.smoke)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(phases))
        return 0

    declared = _declared_metrics()
    seconds = 0.0 if args.smoke else args.seconds
    tracer = None
    if args.trace:
        import tracing

        plain = run_timeboxed(jobs, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install([m for name, m in sys.modules.items() if name == "isorep" or name.startswith("isorep.")])
        try:
            passes = run_timeboxed(jobs, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        measured = plain + passes
    else:
        passes = run_timeboxed(jobs, seconds)
        measured = passes
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups = [phases] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    attempted = 1 + sum(len(p["latencies"]) for p in measured)
    failures = warm["failures"] + [f for p in measured for f in p["failures"]]
    failed = len(failures)

    if args.trace:
        values = tracer.layer_metrics(len(passes))
        for phase in ("import_s", "inputs_s", "warmup_s"):
            values[f"setup.{phase}"] = statistics.median(s[phase] for s in setups)
        values["trace.overhead_s"] = statistics.median(p["wall"] for p in passes) - statistics.median(
            p["wall"] for p in plain
        )
        spec = declared["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = end_to_end(passes, setups, peak, attempted, failed)
        spec = declared["end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics nothing measures: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}

    count = len(jobs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(nproc),
        "jobs_per_pass": count,
        "passes": len(passes),
        "untraced_passes": len(measured) - len(passes),
        "p90_samples_beyond": p90_tail(count),
        "jobs": [job.describe() for job in jobs],
        "latency_by_kind_s": {
            kind: statistics.median(p["latencies"][i] for p in measured for i, j in enumerate(jobs) if j.kind == kind)
            for kind in dict.fromkeys(j.kind for j in jobs)
        },
        "pass_walls_s": [p["wall"] for p in measured],
        "setup_samples": setups,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
    }
    if args.trace:
        record["layers"] = values
    print(json.dumps({"record": record}))
    for name, m in metrics.items():
        print(f"{name:>40} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':>40} {failed / attempted:14.6g} 1  ({failed}/{attempted} jobs)", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
