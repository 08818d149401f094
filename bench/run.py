"""flatpencil benchmark: seeded closed-loop workloads, end to end and by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload pencil-3d --seed 1 --seconds 30 --trace 0

One process and one client drive a closed loop: the next job starts when the
previous one has returned, with no thread pool and no ``--parallel``.  Jobs
are checked after the timed loop.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` every second job runs
under the span tracer (``tracing.py``) and the line carries per-layer
metrics, normalised per traced job, plus the tracing overhead measured
against the untraced jobs in between.  Results, the environment fingerprint
and (traced runs) the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
WARMUP = 2  # first jobs pay one-off library and BLAS start-up; not timed
MIN_JOBS = 100  # timed jobs, so that ten lie beyond job_p90_s
SETUP_SAMPLES = 5  # this process plus four fresh ones


def setup(workload, seed, workdir):
    """Import flatpencil and build the workload's inputs.

    Returns the workload and the seconds this took.
    """
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    return wl, perf_counter() - t0


def setup_probe(args):
    """Set-up time of a fresh interpreter, as a child process measures it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def run_loop(wl, seconds, tracer):
    """Warm up, then run jobs until `seconds` have passed and MIN_JOBS ran.

    Returns records (k, seconds, traced, warm-up, output or failure).  With a
    tracer each input runs twice, untraced and traced in alternating order,
    so that the tracing overhead is measured on the same inputs.
    """
    records = []

    def one(k, warm, traced):
        wl.prepare(k)
        ctx = tracer.job(k, wl.points(k)) if traced else nullcontext()
        t0 = perf_counter()
        try:
            with ctx:
                out = wl.run(k)
        except Exception:  # a failing job is counted, and the loop goes on
            out = JobError(traceback.format_exc())
        records.append((k, perf_counter() - t0, traced, warm, out))

    for k in range(WARMUP):
        one(k, True, False)
    k = WARMUP
    start = perf_counter()
    while (perf_counter() - start < seconds
           or len(records) < WARMUP + MIN_JOBS):
        if tracer is None:
            one(k, False, False)
        else:
            for traced in ((False, True) if k % 2 else (True, False)):
                one(k, False, traced)
        k += 1
    return records


class JobError(Exception):
    """A job raised; carries the formatted traceback."""


def check_all(wl, records):
    """Failure text per record index, for every job that raised or failed."""
    failures = {}
    for i, (k, _, _, _, out) in enumerate(records):
        if isinstance(out, JobError):
            failures[i] = f"job {k}: {out.args[0]}"
            continue
        try:
            reason = wl.check(k, out)
        except Exception:
            reason = traceback.format_exc()
        if reason is not None:
            failures[i] = f"job {k}: {reason}"
    return failures


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, failures, setup_samples, peak_rss_mb):
    timed = [i for i, r in enumerate(records) if not r[3]]
    durations = [records[i][1] for i in timed]
    ok = sum(1 for i in timed if i not in failures)
    return {
        "jobs_per_s": (ok / sum(durations), "1/s"),
        "job_p50_s": (statistics.median(durations), "s"),
        "job_p90_s": (percentile(durations, 90), "s"),
        "ok_rate": (1.0 - len(failures) / len(records), "frac"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _git_sha():
    """Commit of a git work tree; None in a plain checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "flatpencil", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _blas_threads(np):
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def fingerprint(args):
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pencil-3d", "dressing", "manifest-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flatpencil", "__init__.py")):
        print(f"error: no flatpencil sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        tracer = None
        setup_samples = [setup_s]
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        else:
            setup_samples += [setup_probe(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        records = run_loop(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_all(wl, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in records if not r[3]]
    if tracer is None:
        metrics = end_to_end(records, failures, setup_samples, peak_rss_mb)
    else:
        def mean(traced):
            return statistics.fmean(r[1] for r in timed if r[2] == traced)

        metrics = tracing.layer_metrics(tracer, mean(False), mean(True))
    env = fingerprint(args)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"env": env, "timed_jobs": len(timed),
                   "failures": list(failures.values()),
                   **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{tag}.spans.jsonl"), {"env": env})

    print(json.dumps({"env": env}))
    print(f"timed jobs: {len(timed)}; error_rate: "
          f"{len(failures) / len(records):.6g} "
          f"({len(failures)} of {len(records)} jobs failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    for i in sorted(failures)[:5]:
        print(f"failed: {failures[i]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
