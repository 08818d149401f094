"""Regenerate bench/golden/pencil-3d.json, the reference for pencil-3d checks.

Run from the root of a checkout, at a commit whose verdicts and residuals
are the reference:

    python3 bench/make_golden.py

Every pool entry of the workload is evaluated once; the file keeps its input
digest, the four verdicts and every max residual.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    entries = {}
    keys = ([f"lame/{i}" for i in range(workloads.LAME_POOL)]
            + [f"random/{i}" for i in range(workloads.RANDOM_POOL)])
    for key in keys:
        g1, g2, points = workloads.pool_entry(key)
        rep = workloads.pencil_job(g1, g2, points)
        # The workload is meant to hold flat pencils and generic pairs.
        expected = key.startswith("lame/")
        if rep.flat_pencil != expected or rep.almost_compatible != expected:
            raise SystemExit(f"{key}: unexpected verdicts {rep}")
        entries[key] = {"digest": workloads.entry_digest(g1, g2, points),
                        **workloads.report_summary(rep)}
    os.makedirs(os.path.dirname(workloads.GOLDEN), exist_ok=True)
    with open(workloads.GOLDEN, "w") as fh:
        json.dump({"pool_seed": workloads.POOL_SEED, "tol": workloads.TOL,
                   "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {workloads.GOLDEN}")


if __name__ == "__main__":
    main()
