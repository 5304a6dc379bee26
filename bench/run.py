"""Closed-loop benchmark of the redplan command line.

One client runs one CLI job at a time, in process, through
`redplan.cli.main(argv)` with `--threads 1`, on a scenario file generated
from the workload seed. Every job's report is checked; the last line of
standard output is one JSON object with the run's result.

    python3 bench/run.py --workload plan-dense --seed 0 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (set-up time, median job time,
throughput, peak memory). Their times are in reference seconds: wall time
scaled by a calibration kernel run next to it (see hostspeed.py). --trace 1
alternates untraced and traced jobs and prints the per-layer metrics plus
the tracing overhead, and writes every span to .bench_runs/. --smoke shrinks each workload for a quick check.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads, so the numbers measure redplan
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
sys.path.insert(0, BENCH_DIR)

import hostspeed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_scenario  # noqa: E402

SETUP_PROBES = 11
ATTRIBUTION_TOL = 1e-9

# a fresh interpreter that does everything a first job needs before it runs
_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import numpy
import redplan.cli
from workloads import write_scenario
write_scenario({workload!r}, {seed!r}, {smoke!r}, {directory!r})
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken scenario; skips the committed sha256 table")
    return p.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "redplan", "__init__.py")):
        raise SystemExit(f"redplan sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import numpy
    import redplan
    import redplan.cli
    if os.path.dirname(os.path.abspath(redplan.__file__)) != os.path.join(SRC, "redplan"):
        raise SystemExit(f"imported redplan from {redplan.__file__}, not from {SRC}")
    return numpy, redplan


def _environment(numpy, redplan, args) -> dict:
    return {"cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "redplan": redplan.__version__, "platform": platform.platform(),
            "threads_env": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "trace": args.trace, "seconds": args.seconds}


def _setup_times(args, directory: str):
    """Wall and reference seconds of fresh interpreters that import numpy
    and redplan and write the workload's scenario file."""
    code = _PROBE.format(src=SRC, bench=BENCH_DIR, workload=args.workload,
                         seed=args.seed, smoke=args.smoke, directory=directory)
    wall = []
    kernel_before = hostspeed.measure()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        wall.append(time.perf_counter() - start)
    kernel_after = hostspeed.measure()
    return wall, [hostspeed.to_reference(w, kernel_before, kernel_after) for w in wall]


def _invariants(command: str, doc: dict) -> list:
    """Properties every seed's report must have."""
    problems = []
    if command in ("plan", "baseline"):
        if not (math.isfinite(doc["cost"]) and doc["cost"] > 0.0):
            problems.append(f"plan cost {doc['cost']!r} is not finite and positive")
        if len(doc["node_ids"]) != doc["parameters"]["n_stages"] + 1:
            problems.append("plan chain length differs from n_stages + 1")
    if command == "baseline":
        if not math.isfinite(doc["unified_cost"]):
            problems.append("unified cost is not finite")
        tolerance = doc["parameters"]["baseline"]["tolerance"]
        if not doc["resolution"]["residual_max"] <= tolerance:
            problems.append(f"baseline residual {doc['resolution']['residual_max']!r}"
                            f" above tolerance {tolerance!r}")
    if command == "verify":
        gap = doc["gap"]
        if not gap >= 0.0:
            problems.append(f"verify gap {gap!r} is negative")
        if abs(doc["dp_cost"] - doc["oracle_cost"] - gap) > ATTRIBUTION_TOL:
            problems.append("gap differs from dp_cost - oracle_cost")
        total = sum(doc["attribution"].values())
        if abs(total - gap) > ATTRIBUTION_TOL * max(1.0, abs(gap)):
            problems.append(f"attribution sums to {total!r}, gap is {gap!r}")
    return problems


def _check(command: str, report_path: str, code, expected_sha, reference):
    """Problems with one job's outcome, and the report bytes it wrote."""
    if code != 0:
        return [f"exit code {code!r}"], None
    try:
        with open(report_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"no report: {exc}"], None
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if expected_sha is not None and digest != expected_sha:
        problems.append(f"report sha256 {digest} differs from the committed "
                        f"table ({expected_sha})")
    if reference is not None and data != reference:
        problems.append("report differs from the run's first report")
    try:
        problems += _invariants(command, json.loads(data))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return problems, data


def _run_job(main, argv):
    """One CLI job: (wall seconds, exit code or None, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, err.getvalue()


def _expected_sha(args):
    if args.smoke or args.seed != DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH_DIR, "expected_sha256.json")) as fh:
        return json.load(fh)[args.workload]


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    args = _parse(argv)
    numpy, redplan = _import_program()
    from redplan import cli
    import tracing

    workload = WORKLOADS[args.workload]
    env = _environment(numpy, redplan, args)
    print("environment " + json.dumps(env, sort_keys=True))
    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=RUNS)
    try:
        setup_wall, setup_ref = _setup_times(args, os.path.join(work, "probe"))
        scenario = write_scenario(args.workload, args.seed, args.smoke, work)
        out_dir = os.path.join(work, "out")
        report_path = os.path.join(out_dir, workload.report)
        argv = [workload.command, "--scenario", scenario, "--out", out_dir,
                "--threads", "1"]
        expected = _expected_sha(args)
        tracer = tracing.Tracer() if args.trace else None

        attempted = failed = 0
        reference = None
        timed, untraced_s = [], []
        # untraced runs: each job's reference seconds and whether it passed
        job_ref_s, passed = [], []

        def job(k: int, traced: bool):
            nonlocal attempted, failed, reference
            if os.path.exists(report_path):
                os.remove(report_path)
            if traced:
                with tracer.job(k) as run:
                    seconds, code, err = _run_job(lambda a: run(cli.main, a), argv)
            else:
                seconds, code, err = _run_job(cli.main, argv)
            problems, data = _check(workload.command, report_path, code, expected,
                                    reference)
            attempted += 1
            if problems:
                failed += 1
                print(f"job {k} failed: {'; '.join(problems)}\n{err}", file=sys.stderr)
            elif reference is None:
                reference = data
            return seconds, not problems

        job(0, traced=False)               # warm-up; its report is the reference
        kernel = hostspeed.measure() if tracer is None else None
        start = time.perf_counter()
        k = 1
        while True:
            traced = tracer is not None and k % 2 == 0
            seconds, ok = job(k, traced)
            if not traced:
                untraced_s.append(seconds)
            timed.append(seconds)
            if kernel is not None:
                kernel_after = hostspeed.measure()
                job_ref_s.append(hostspeed.to_reference(seconds, kernel, kernel_after))
                passed.append(ok)
                kernel = kernel_after
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and (tracer is None or k > 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = failed / attempted
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_ref_s), "unit": "s"},
            "jobs_per_s": {"value": sum(passed) / sum(job_ref_s), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        wall = {"setup_s": statistics.median(setup_wall),
                "job_p50_s": statistics.median(timed),
                "jobs_per_s": sum(passed) / sum(timed)}
        notes = {"setup_s": f"median of {len(setup_ref)} fresh interpreters",
                 "job_p50_s": f"median of {len(timed)} jobs",
                 "jobs_per_s": f"{sum(passed)} correct jobs"}
        for name, m in metrics.items():
            note = notes.get(name, "")
            if name in wall:
                note += f"; in reference seconds, wall clock {wall[name]:.6g} {m['unit']}"
            _line(name, m["value"], m["unit"], note)
    else:
        table = tracer.layer_table()
        metrics = tracing.per_layer_metrics(table, untraced_s)
        excess = tracing.self_time_excess(table)
        nested = tracing.nesting_check(tracer.spans)
        for name, m in metrics.items():
            _line(name, m["value"], m["unit"])
        print(f"trace traced_jobs {len(table)} untraced_jobs {len(untraced_s)} "
              f"spans {len(tracer.spans)} self_time_excess_s {excess:.3g} "
              f"nested {nested}")
        if tracer.missing:
            print("trace missing hook points: " + ", ".join(tracer.missing),
                  file=sys.stderr)
        tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        tracer.write(os.path.join(RUNS, f"trace-{tag}.json"),
                     {"environment": env, "metrics": metrics, "per_job": table,
                      "self_time_excess_s": excess, "nested": nested})
    _line("error_rate", error_rate, "ratio", f"{failed} of {attempted} jobs failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
