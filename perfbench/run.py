"""char2kit benchmark: one workload per process, a closed loop of exact-checked jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: acceptance, spectrum, fieldsums, curves (see README.md).  One
client runs the jobs one after another in this process, single-threaded;
each job starts from an empty field cache.  The run length sets how many
rounds of jobs run, so every run of a workload does the same work.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same jobs once
untraced and once traced and prints the per-layer metrics.  Every metric is
printed by name with its unit, then a machine note, the job list, and as the
last line one JSON object {correct, attempted, failed, metrics}.  The exit
code is 1 if any check failed and 2 if the program cannot be found or run.
Results and spans are also written to .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RUN_SECONDS = 45    # the run length the round counts in workloads.WORKLOADS are for
MIN_JOBS = 12       # so that job_s_tail has a percentile with 10 jobs beyond it
LIMIT_FACTOR = 1.5  # no new round starts after LIMIT_FACTOR * --seconds of jobs
SETUP_REPEATS = 9
TAIL_BEYOND = 10

# Set-up as a user pays it: import the package and load both catalogs.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import char2kit
from char2kit import crosscorr, curves, expsums, gf2m, zeta
for name in curves.catalog_curve_names():
    curves.catalog_curve(name)
for name in zeta.catalog_lpoly_names():
    zeta.catalog_lpoly(name)
print(time.perf_counter() - t0, char2kit.__file__)
"""


class BenchError(RuntimeError):
    """The program under test cannot be found, imported or measured."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHAR2KIT_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"char2kit was imported from {path}, not from {SRC}")


def import_program():
    """Import char2kit from this checkout's src/, never from anywhere else."""
    if not (SRC / "char2kit" / "__init__.py").is_file():
        raise BenchError(f"no char2kit package under {SRC}")
    os.environ.pop("CHAR2KIT_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import char2kit

    _check_origin(char2kit.__file__)


def setup_seconds() -> float:
    """Set-up time of a fresh interpreter, timed inside it."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    seconds, path = proc.stdout.split()
    _check_origin(path)
    return float(seconds)


def tail(times: list[float]) -> tuple[float, int]:
    """(value, p): the highest whole percentile p with TAIL_BEYOND jobs beyond it.

    Nearest rank: the p-th percentile is the ceil(p n / 100)-th smallest time.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} jobs leave no percentile with {TAIL_BEYOND} jobs beyond it")
    p = 100 * (n - TAIL_BEYOND) // n
    return sorted(times)[max(1, math.ceil(p * n / 100)) - 1], p


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": "single-threaded closed loop, one client",
        "CHAR2KIT_WORKERS": "removed from the environment",
        "reduction_overrides": "never set (set_reduction_overrides is not called)",
        "field_cache": "cleared before every job",
    }


def run_phase(plan, ck, runner, get_field, limit_s, tracer=None, setup_at=()):
    """Run the rounds of the plan in order; returns per-job records and set-up times.

    A set-up sample is taken before each job whose index is in setup_at, so
    that the samples spread over the run like the jobs do.  No new round
    starts once the jobs have taken limit_s and MIN_JOBS have run: a bound on
    a run's length when the machine or the program is far slower than usual.
    """
    records, setup = [], []
    for rnd in plan:
        if len(records) >= MIN_JOBS and sum(r["s"] for r in records) > limit_s:
            break
        for job in rnd:
            if len(records) in setup_at:
                setup.append(setup_seconds())
            get_field.cache_clear()
            tables = tracer.counts["gf2m.table_bytes"] if tracer else 0
            first_span = len(tracer.spans) if tracer else 0
            failed = ck.failed
            t0 = time.perf_counter()
            runner(job, ck)
            seconds = time.perf_counter() - t0
            if tracer:  # the job's root span, so that self times add up to it exactly
                _, start, end, _ = tracer.spans[first_span]
                seconds = end - start
            info = get_field.cache_info()
            records.append({"job": job, "s": seconds, "failed": ck.failed - failed,
                            "hits": info.hits, "misses": info.misses,
                            "table_bytes": tracer.counts["gf2m.table_bytes"] - tables if tracer else 0})
    return records, setup


def rounds_run(plan, jobs: int) -> list:
    """The rounds of the plan that hold the first `jobs` jobs."""
    out = []
    for rnd in plan:
        if jobs <= 0:
            break
        out.append(rnd)
        jobs -= len(rnd)
    return out


def e2e_metrics(records, ck, setup) -> dict:
    times = [r["s"] for r in records]
    tail_s, p = tail(times)
    busy = sum(times)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
        "job_s_p50": (statistics.median(times), "s", f"{len(times)} jobs"),
        "job_s_tail": (tail_s, "s", f"p{p} of {len(times)} jobs"),
        "checks_per_s": (ck.attempted / busy, "1/s", f"{ck.attempted} checks in {busy:.2f} s of jobs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "getrusage"),
    }


def layer_metrics(untraced, traced, tracer) -> dict:
    from spans import LAYERS

    n = len(traced)
    self_s = tracer.self_times()
    counts = tracer.counts
    layer = {name: sum(v for b, v in self_s.items() if b.split(".")[0] == name) / n
             for name in LAYERS}
    job_s = sum(r["s"] for r in traced) / n
    unattributed = job_s - sum(layer.values())
    if abs(unattributed) > 1e-6:
        raise BenchError(f"layer self times miss {unattributed:.3g} s of the traced job time")
    hits = sum(r["hits"] for r in traced)
    lookups = hits + sum(r["misses"] for r in traced)
    per_job = "per traced job"
    return {
        "gf2m.build_s": (self_s["gf2m.build"] / n, "s/job", "self time of Field construction"),
        "gf2m.builds": (counts["gf2m.builds"] / n, "count/job", per_job),
        "gf2m.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio",
                                 f"{hits} hits of {lookups} get_field calls"),
        "gf2m.table_mb": (max(r["table_bytes"] for r in traced) / 2**20, "MB",
                          "largest table bytes built in one job"),
        "gf2m.self_s": (layer["gf2m"], "s/job", "build, get_field and vector operations"),
        "expsums.self_s": (layer["expsums"], "s/job", per_job),
        "expsums.calls": (counts["expsums.calls"] / n, "count/job", "kloosterman, c_sum, g_sum, k_prime"),
        "expsums.elements": (counts["expsums.elements"] / n, "count/job", "sum of domain_size"),
        "crosscorr.spectrum_s": (self_s["crosscorr.spectrum"] / n, "s/job", per_job),
        "crosscorr.spectrum_shifts": (counts["crosscorr.spectrum_shifts"] / n, "count/job",
                                      "sum of 2^m - 1 over sweeps"),
        "crosscorr.a1_brute_s": (self_s["crosscorr.a1_brute"] / n, "s/job", per_job),
        "crosscorr.a1_triples": (counts["crosscorr.a1_triples"] / n, "count/job",
                                 "sum of 8^m, computed"),
        "crosscorr.formula_s": (self_s["crosscorr.formula"] / n, "s/job",
                                "a1_formula and theorem1_multiplicities"),
        "crosscorr.self_s": (layer["crosscorr"], "s/job", per_job),
        "curves.count_s": (self_s["curves.count"] / n, "s/job", "generic and fast counters"),
        "curves.chart_points": (counts["curves.chart_points"] / n, "count/job",
                                "sum of 4^s + 2^s + 1 over counts"),
        "curves.singular_s": (self_s["curves.singular"] / n, "s/job", per_job),
        "curves.self_s": (layer["curves"], "s/job", per_job),
        "zeta.self_s": (layer["zeta"], "s/job", per_job),
        "bench.self_s": (layer["bench"], "s/job", "the benchmark's own checks and loops"),
        "trace.job_s": (job_s, "s/job", "traced job time = sum of the self times above"),
        "trace.overhead_s": (statistics.median(r["s"] for r in traced)
                             - statistics.median(r["s"] for r in untraced), "s",
                             "traced minus untraced job_s_p50"),
        "trace.spans": (len(tracer.spans) / n, "count/job", per_job),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("acceptance", "spectrum", "fieldsums", "curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
        import spans
        import workloads
        from char2kit import gf2m

        get_field = gf2m.get_field  # the cached function itself, never a traced wrapper
        per_round = len(workloads.rounds(args.workload, args.seed, 1)[0])
        base = workloads.WORKLOADS[args.workload][1]
        count = max(math.ceil(MIN_JOBS / per_round), round(base * args.seconds / RUN_SECONDS))
        ck = workloads.Checks()
        limit_s = LIMIT_FACTOR * args.seconds
        if args.trace:
            plan = workloads.rounds(args.workload, args.seed, max(1, count // 2))
            untraced, _ = run_phase(plan, ck, workloads.run_job, get_field, limit_s / 2)
            plan = rounds_run(plan, len(untraced))
            tracer = spans.Tracer()
            patches = spans.install(tracer)
            try:
                traced, _ = run_phase(plan, ck, tracer.wrap(workloads.run_job, "bench"),
                                      get_field, math.inf, tracer)
            finally:
                spans.uninstall(patches)
            metrics = layer_metrics(untraced, traced, tracer)
            records = untraced + traced
        else:
            plan = workloads.rounds(args.workload, args.seed, count)
            jobs = sum(map(len, plan))
            setup_at = {jobs * i // SETUP_REPEATS for i in range(SETUP_REPEATS)}
            records, setup = run_phase(plan, ck, workloads.run_job, get_field, limit_s,
                                       setup_at=setup_at)
            plan = rounds_run(plan, len(records))
            metrics = e2e_metrics(records, ck, setup)
            tracer = None
        note = machine_note(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = max(map(len, metrics))
    for name, (value, unit, detail) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}  ({detail})")
    ratio = ck.failed / ck.attempted
    print(f"{'failed_ratio':<{width}}  {ratio:.6g}  ({ck.failed} of {ck.attempted} checks)")
    for message in ck.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print("# machine " + json.dumps(note))
    for i, rnd in enumerate(plan, 1):
        print(f"# round {i}: " + ", ".join(map(workloads.describe, rnd)))

    result = {
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "failed_ratio": ratio, "machine": note, "failures": ck.failures,
                   "details": {name: detail for name, (_, _, detail) in metrics.items()},
                   "jobs": [[workloads.describe(r["job"]), r["s"]] for r in records],
                   "spans": tracer.spans if tracer else []}, fh)
    print(json.dumps(result))
    return 0 if ck.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
