"""entkit benchmark: user-level CLI jobs timed end to end, module calls traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload qubit3 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics; the last line of standard output is one JSON object.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fixed before numpy loads, here and in the set-up processes that inherit it.
# One thread: with two, OpenBLAS threads spin at barriers, and a pass that
# shares its two cores with any other process can take many times longer.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path[:0] = [str(SRC), str(BENCH)]

SETUP_REPEATS = (3, 5)     # at least 3 set-ups; up to 5 while they total under 10 s
MAX_MEASURE_S = 150.0      # never start another pass after this, whatever --seconds says

# entkit, numpy and the modules next to this file are imported inside the
# functions, after main() has checked that src/entkit exists.


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values):
    """(percentile, value): the highest percentile with ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# --------------------------------------------------------------------------
# Set-up: a fresh process imports entkit and writes one pass's input files
# --------------------------------------------------------------------------

# Host-speed control for setup_s: a fresh process that does the same kind of
# work as a set-up, without entkit.  It imports numpy and writes
# SETUP_CONTROL_LINES amplitude lines in the state-file format.  setup_s is
# the measured set-up time scaled to the host speed at which this takes
# SETUP_CONTROL_S seconds (see workloads.CONTROL_S for the passes).
SETUP_CONTROL_LINES = 2 ** 15
SETUP_CONTROL_S = 0.3
SETUP_CONTROL = """import sys
import numpy as np
lines = int(sys.argv[2])
a = np.random.default_rng(0).standard_normal(2 * lines)
with open(sys.argv[1], "w", encoding="utf-8", newline="\\n") as fh:
    fh.write("dims " + " ".join(["2"] * 15) + "\\n")
    for i in range(lines):
        fh.write(f"{i:015b} {float(a[2 * i])!r} {float(a[2 * i + 1])!r}\\n")
"""


def _timed(cmd):
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120)
    return time.perf_counter() - start


def _timed_setup(workload, seed, workdir):
    """Wall times of a fresh process that imports entkit and writes pass 0's
    inputs, and of the set-up control right after it."""
    shutil.rmtree(workdir, ignore_errors=True)
    seconds = _timed([sys.executable, str(Path(__file__).resolve()), "--generate", str(workdir),
                      "--workload", workload, "--seed", str(seed)])
    control = _timed([sys.executable, "-c", SETUP_CONTROL,
                      str(workdir.parent / "control.state"), str(SETUP_CONTROL_LINES)])
    return seconds, control


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

def _run_pass(jobs, report_path, failures, tracer=None):
    """Run every job once, with its control work just before and after it and its check.

    Returns (seconds per job, seconds of the check and control work per job);
    both run outside the jobs' timed region.  Control work on both sides of
    a long job samples the host's speed at its start and at its end.
    """
    import entkit.cli
    import oracle
    times, control_times = [], []
    for job in jobs:
        if report_path.exists():
            report_path.unlink()
        if tracer is not None:
            tracer.job = job.name
        error, mps = None, None
        before = time.perf_counter()
        if job.control is not None:
            job.control()
        start = time.perf_counter()
        try:
            rc = entkit.cli.main(job.argv + ["--out", str(report_path)])
            if job.out_mps and rc in (0, 2):
                mps = entkit.mps.read_mps_file(job.out_mps)
        except Exception as exc:      # a job failure never aborts the pass
            rc, error = None, exc
        end = time.perf_counter()
        times.append(end - start)
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            text = report_path.read_text(encoding="utf-8") if report_path.exists() else ""
            try:
                problems = job.check(rc, oracle.parse_report(text), mps)
            except Exception as exc:  # a malformed report is a failed job
                problems = [f"check raised {exc!r}"]
        if job.control is not None:
            job.control()
        control_times.append(time.perf_counter() - end + start - before)
        if problems:
            failures.append((job.name, problems))
    return times, control_times


def _provenance():
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "entkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def _print_table(rows):
    print(f"{'metric':<34} {'value':>14} {'unit':<13} {'n':>5} {'q1':>12} {'q3':>12}")
    for name, value, unit, n, q1, q3 in rows:
        q = f"{q1:>12.6g} {q3:>12.6g}" if q1 is not None else ""
        print(f"{name:<34} {value:>14.6g} {unit:<13} {n:>5} {q}")


def _end_to_end(args, workdir, failures):
    import workloads
    setup, setup_control = [], []
    while len(setup) < SETUP_REPEATS[0] or (len(setup) < SETUP_REPEATS[1] and sum(setup) < 10):
        seconds, control = _timed_setup(args.workload, args.seed, workdir / "p0")
        setup.append(seconds)
        setup_control.append(control)
    setup_scaled = [s * SETUP_CONTROL_S / c for s, c in zip(setup, setup_control)]
    report = workdir / "report.txt"
    control_s = workloads.CONTROL_S[args.workload]
    pass_walls, pass_measured, pass_control, job_times, attempted = [], [], [], [], 0
    while True:
        p = len(pass_walls)
        passdir = workdir / f"p{p}"
        jobs = workloads.build(args.workload, args.seed, p, str(passdir), write=p > 0)
        times, control_times = _run_pass(jobs, report, failures)
        shutil.rmtree(passdir, ignore_errors=True)
        # scale the pass to the host speed at which its checks and control
        # work take control_s seconds (see workloads.CONTROL_S)
        pass_walls.append(sum(times) * control_s / sum(control_times))
        pass_measured.append(sum(times))
        pass_control.append(sum(control_times))
        job_times += times
        attempted += len(jobs)
        spent = sum(pass_measured)
        if spent + spent / len(pass_walls) > args.seconds or spent > MAX_MEASURE_S:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_ms = [1e3 * t for t in job_times]
    gated = [("setup_s", statistics.median(setup_scaled), "s", len(setup),
              *_quartiles(setup_scaled)),
             ("wall_s", statistics.median(pass_walls), "s", len(pass_walls),
              *_quartiles(pass_walls)),
             ("peak_rss_mib", rss, "MiB", 1, None, None)]
    # printed, not gated: the times as measured and those of their controls;
    # the median job, a few-millisecond, interpreter-bound job whose run-to-run
    # spread on a shared host exceeds any usable bound; the failed share
    printed = [("setup_measured_s", statistics.median(setup), "s", len(setup),
                *_quartiles(setup)),
               ("setup_control_s", statistics.median(setup_control), "s", len(setup_control),
                *_quartiles(setup_control)),
               ("wall_measured_s", statistics.median(pass_measured), "s", len(pass_measured),
                *_quartiles(pass_measured)),
               ("control_s", statistics.median(pass_control), "s", len(pass_control),
                *_quartiles(pass_control)),
               ("job_ms_p50", statistics.median(job_ms), "ms", len(job_ms), *_quartiles(job_ms)),
               ("fail_frac", len(failures) / attempted, "ratio", attempted, None, None)]
    _print_table(gated + printed)
    print("pass wall_s: " + " ".join(f"{w:.4f}" for w in pass_walls))
    print("pass wall_measured_s: " + " ".join(f"{w:.4f}" for w in pass_measured))
    print("pass control_s: " + " ".join(f"{w:.4f}" for w in pass_control))
    print(f"wall_s = wall_measured_s x {control_s} s / control_s, per pass; "
          f"setup_s = setup_measured_s x {SETUP_CONTROL_S} s / setup_control_s, per set-up")
    tail = _tail(job_ms)
    if tail is None:
        print(f"job_ms_tail: not reported, {len(job_ms)} jobs leave no percentile "
              "with ten beyond it")
    else:
        p, value = tail
        print(f"job_ms_tail: p{p:.4g} = {value:.6g} ms over {len(job_ms)} jobs, 10 beyond it")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, *_ in gated}
    return attempted, metrics


def _per_layer(args, workdir, failures):
    import workloads
    from tracer import COUNTERS, LAYERS, REPORTED, Tracer
    tracer = Tracer()
    report = workdir / "report.txt"
    # traced set-up: spans of write_state_file land under job "setup"
    tracer.install()
    tracer.job = "setup"
    jobs = workloads.build(args.workload, args.seed, 0, str(workdir / "p0"), write=True)
    tracer.uninstall()
    untraced = sum(_run_pass(jobs, report, failures)[0])
    tracer.install()
    traced = sum(_run_pass(jobs, report, failures, tracer)[0])
    tracer.uninstall()
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    summary = tracer.summary()
    metrics = {}
    for name in REPORTED:
        row = summary["functions"][name]
        for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"), ("errors", "count")):
            metrics[f"{name}.{key}"] = {"value": row[key], "unit": unit}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": summary["layers"][layer], "unit": "s"}
    for name, unit in COUNTERS:
        metrics[name] = {"value": summary["counters"][name], "unit": unit}
    metrics["trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
    top = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
    print(f"traced pass {traced:.4f} s, untraced pass {untraced:.4f} s on the same inputs; "
          f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    print("no layer has a queue, so no waiting time is reported")
    print("largest self time per function:")
    for name, row in top:
        print(f"  {name:<34} {row['self_s']:10.4f} s  {row['calls']:7d} calls")
    print("self time per layer: " + ", ".join(
        f"{layer} {summary['layers'][layer]:.4f} s" for layer in LAYERS))
    return 2 * len(jobs), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("qubit3", "dmrg", "compress",
                                                               "manysite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", metavar="DIR",
                        help="internal: write pass 0's inputs into DIR and exit")
    args = parser.parse_args(argv)
    if not (SRC / "entkit" / "__init__.py").is_file():
        _fail(f"no entkit sources under {SRC}; run from a checkout of the repository")
    if args.generate:
        import workloads
        workloads.build(args.workload, args.seed, 0, args.generate, write=True)
        return 0
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    failures = []
    try:
        workdir.mkdir(parents=True)
        if args.trace:
            attempted, metrics = _per_layer(args, workdir, failures)
        else:
            attempted, metrics = _end_to_end(args, workdir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, problems in failures[:20]:
        print(f"FAILED {name}: {'; '.join(problems[:3])}")
    print("provenance " + json.dumps(_provenance(), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
