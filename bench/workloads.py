"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Each workload builds its inputs from the workload seed as expression text and
numbers; a job hands only those to flatpencil.  Library functions are looked
up as module attributes at call time so that the tracer's wrappers see them.

* ``pencil-3d``: one ``full_report`` per job on a 3-D contravariant pair at 8
  sample points, in a fixed 2:1 cycle of spherical Lame flat pencils and
  random full linear+exp pairs.  Pointwise ``compat``/``geometry`` work.
* ``dressing``: ``dressing_rotation`` on the criterion-7 potentials at m=64
  around a seeded base point, then ``lame_residuals`` there.  Batched
  ``expr`` evaluation and the ``zakharov`` finite-difference path.
* ``manifest-mix``: one in-process ``flatpencil run`` of a single-job
  manifest, drawn from a shuffled deck of the six job kinds at dim 2.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from flatpencil import cli, compat, expr, geometry, lame, zakharov

SEQUENCE = 512  # inputs built at set-up; longer runs cycle through them
TOL = compat.DEFAULT_TOL

# Explicit pencil samples: l2/l1 is never a negative real, so no member of a
# pair of positive definite metrics is degenerate.
LAMBDAS = [(1.0, 1.0), (2.0, 3.0), (1.0, 0.5j), (1.0 + 0.5j, 1.0)]
LAMBDA_TEXT = [[str(a), str(b)] for a, b in LAMBDAS]


def _finite(values):
    return all(math.isfinite(abs(v)) for v in values)


# ---------------------------------------------------------------------------
# pencil-3d

POOL_SEED = 20020
LAME_POOL = 64
RANDOM_POOL = 32
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "pencil-3d.json")

# Spherical coordinates: H = (1, u1, u1 sin u2), f = (1, 1, 2), written as the
# contravariant diagonals g2 = 1/H^2 and g1 = f/H^2.
LAME_G1 = ["1", "u1^-2", "2*(u1*sin(u2))^-2"]
LAME_G2 = ["1", "u1^-2", "(u1*sin(u2))^-2"]
# Diagonal constants far apart keep the pencil eigenvalues separated; the
# small coefficients keep both metrics diagonally dominant on [0.4, 1.2]^3.
G1_DIAGONAL = (2, 5, 9)
G2_DIAGONAL = (3, 3, 3)


def _random_entry(rng, base):
    c = rng.uniform(-0.05, 0.05, size=5) if base else rng.uniform(
        -0.03, 0.03, size=5)
    k = int(rng.integers(1, 4))
    rate = rng.uniform(-0.5, 0.5)
    head = str(base) if base else f"({c[0]:.6f})"
    return (f"{head}+({c[1]:.6f})*u1+({c[2]:.6f})*u2+({c[3]:.6f})*u3"
            f"+({c[4]:.6f})*exp(({rate:.6f})*u{k})")


def pool_entry(key):
    """(g1 texts, g2 texts, points) of pool entry ``lame/<i>``/``random/<i>``.

    Texts are the upper-triangle entries of each metric in row order.
    """
    kind, index = key.split("/")
    rng = np.random.default_rng([POOL_SEED, int(kind == "random"), int(index)])
    upper = [(i, j) for i in range(3) for j in range(i, 3)]
    if kind == "lame":
        g1 = [LAME_G1[i] if i == j else "0" for i, j in upper]
        g2 = [LAME_G2[i] if i == j else "0" for i, j in upper]
    else:
        g1 = [_random_entry(rng, G1_DIAGONAL[i] if i == j else 0)
              for i, j in upper]
        g2 = [_random_entry(rng, G2_DIAGONAL[i] if i == j else 0)
              for i, j in upper]
    points = rng.uniform(0.4, 1.2, size=(8, 3))
    return g1, g2, points


def entry_digest(g1, g2, points):
    text = json.dumps([g1, g2, points.tolist()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pencil_job(g1, g2, points):
    upper = [(i, j) for i in range(3) for j in range(i, 3)]

    def metric(texts):
        fields = {ij: expr.parse(t, 3) for ij, t in zip(upper, texts)}
        return geometry.MetricField.from_upper(fields, geometry.CONTRAVARIANT)

    pair = compat.MetricPair(metric(g1), metric(g2), points,
                             lambda_samples=LAMBDAS, tol=TOL)
    return compat.full_report(pair)


def report_summary(rep):
    return {
        "verdicts": {
            "almost_compatible": bool(rep.almost_compatible),
            "compatible": bool(rep.compatible),
            "flat_pencil": bool(rep.flat_pencil),
            "nonsingular": bool(rep.nonsingular),
        },
        "residuals": {k: float(v) for k, v in rep.max_residuals.items()},
    }


class Pencil3D:
    name = "pencil-3d"

    def __init__(self, seed, workdir):
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)["entries"]
        rng = np.random.default_rng(seed)
        lame_idx = rng.integers(0, LAME_POOL, size=SEQUENCE)
        rand_idx = rng.integers(0, RANDOM_POOL, size=SEQUENCE)
        # Fixed 2:1 cycle: two Lame pencils, then one random pair.
        keys = [f"random/{rand_idx[k]}" if k % 3 == 2
                else f"lame/{lame_idx[k]}" for k in range(SEQUENCE)]
        entries = {key: pool_entry(key) for key in set(keys)}
        self.jobs = [(key, entries[key]) for key in keys]

    def points(self, k):
        return len(self.jobs[k % SEQUENCE][1][2])

    def prepare(self, k):
        pass

    def run(self, k):
        return pencil_job(*self.jobs[k % SEQUENCE][1])

    def check(self, k, rep):
        """None when verdicts and residuals match the golden entry."""
        key, (g1, g2, points) = self.jobs[k % SEQUENCE]
        gold = self.golden[key]
        if gold["digest"] != entry_digest(g1, g2, points):
            return f"{key}: input differs from the golden input"
        got = report_summary(rep)
        if got["verdicts"] != gold["verdicts"]:
            return f"{key}: verdicts {got['verdicts']} != {gold['verdicts']}"
        if set(got["residuals"]) != set(gold["residuals"]):
            return f"{key}: residual names differ"
        for name, ref in gold["residuals"].items():
            val = got["residuals"][name]
            if not math.isfinite(val):
                return f"{key}: residual {name} is {val}"
            if not ((val < TOL and ref < TOL)
                    or abs(val - ref) <= 1e-6 * abs(ref)):
                return f"{key}: residual {name} {val!r} vs golden {ref!r}"
        return None


# ---------------------------------------------------------------------------
# dressing

# Criterion-7 potentials of the acceptance suite.
PHI = {
    (0, 1): "0.05*exp(-40*((u1+0.2)^2 + (u2+0.3)^2))",
    (0, 0): "0.05*(u1-u2)*exp(-30*((u1+0.25)^2 + (u2+0.25)^2))",
    (1, 1): "0.04*(u1-u2)*exp(-30*((u1+0.35)^2 + (u2+0.35)^2))",
}
NODES = 64


def dressing_problem(u):
    phi = {ij: expr.parse(t, 2) for ij, t in PHI.items()}
    f = [expr.parse("u1", 1), expr.parse("u1", 1)]
    return zakharov.DressingProblem(2, phi, u, 0.0, 1.0, NODES, f)


class Dressing:
    name = "dressing"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.base = np.array([0.3, 0.4]) + rng.uniform(
            -0.05, 0.05, size=(SEQUENCE, 2))

    def points(self, k):
        return 1

    def prepare(self, k):
        pass

    def run(self, k):
        u = self.base[k % SEQUENCE]
        b = zakharov.dressing_rotation(dressing_problem(u))
        return b, lame.lame_residuals(b, [u])

    def check(self, k, out):
        """Beta row against the Neumann oracle; Lame residual below 1e-4."""
        b, residuals = out
        u = self.base[k % SEQUENCE]
        if not _finite(residuals) or max(residuals) >= 1e-4:
            return f"lame residuals {residuals} not below 1e-4"
        kernel = zakharov.build_kernel(dressing_problem(u))
        ref = zakharov.neumann_solution(kernel, 0)[:, :, 0].T
        beta = b.value(u)
        gap = float(np.max(np.abs(beta - ref)))
        if not _finite(beta.ravel()) or not gap < 1e-8:
            return f"beta row differs from the Neumann solution by {gap}"
        return None


# ---------------------------------------------------------------------------
# manifest-mix

# Deck of 20 slots, shuffled per round, ordered here by job time.  The weights
# put p50 inside the pair-check cluster (10-65% of jobs, identities overlap
# it) and p90 inside the lame-check/two-component cluster (75-100%).
DECK = {
    "dressing": 2,
    "identities": 1,
    "pair-check": 10,
    "flat-pencil": 2,
    "lame-check": 1,
    "two-component": 4,
}


def _manifest(kind, rng):
    a, b = (f"{x:.4f}" for x in rng.uniform(0.5, 1.5, size=2))
    metrics = {}
    if kind == "flat-pencil":
        metrics = {"g": {"diagonal": [f"{a}*u1+0.3", f"{b}*u2+0.5"]},
                   "eye": {"identity": True}}
        job = {"g1": "g", "g2": "eye", "lambdas": LAMBDA_TEXT,
               "assert": {"almost_compatible": True, "compatible": True,
                          "flat_pencil": True}}
    elif kind == "pair-check":
        metrics = {"c": {"diagonal": ["conf", "conf"]},
                   "eye": {"identity": True}}
        job = {"g1": "c", "g2": "eye", "lambdas": LAMBDA_TEXT,
               "assert": {"almost_compatible": True, "compatible": False}}
    elif kind == "lame-check":
        job = {"H": [f"exp({a}*u1)", f"1+{b}*u2^2"], "f": ["u1", "u1"],
               "lambdas": LAMBDA_TEXT,
               "assert": {"flat_pencil": True, "equivalence": True}}
    elif kind == "two-component":
        job = {"b1": f"sqrt({a}*(u1-u2))", "b2": f"sqrt({a}*(u1-u2))",
               "F": "0.5*ln(u1-u2)", "eps": [-1, 1], "f1": "u1", "f2": "u1",
               "sampling": {"min_sep": 0.3}, "lambdas": LAMBDA_TEXT,
               "assert": {"flat_pencil": True, "equivalence": True}}
    elif kind == "identities":
        job = {"assert": {"all_identities_hold": True}}
    else:  # dressing
        u = np.array([0.3, 0.4]) + rng.uniform(-0.05, 0.05, size=2)
        job = {"phi": {f"{i},{j}": t for (i, j), t in PHI.items()},
               "u": u.tolist(), "m": 32, "assert": {"solved": True}}
    return {"version": 1, "dim": 2, "expressions": {"conf": f"exp({a}*u1*u2)"},
            "metrics": metrics, "jobs": [{"kind": kind, **job}]}


class ManifestMix:
    name = "manifest-mix"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        deck = [kind for kind, n in DECK.items() for _ in range(n)]
        kinds = []
        while len(kinds) < SEQUENCE:
            kinds += list(rng.permutation(deck))
        self.jobs = []
        for kind in kinds[:SEQUENCE]:
            manifest = _manifest(kind, rng)
            self.jobs.append((kind, json.dumps(manifest),
                              str(int(rng.integers(0, 2**31)))))
        self.manifest = os.path.join(workdir, "manifest.json")
        self.out = os.path.join(workdir, "report.ndjson")

    def points(self, k):
        # Default sampling count and default identity trials are both 10.
        return 1 if self.jobs[k % SEQUENCE][0] == "dressing" else 10

    def prepare(self, k):
        with open(self.manifest, "w") as fh:
            fh.write(self.jobs[k % SEQUENCE][1])

    def run(self, k):
        code = cli.main(["run", self.manifest, "--out", self.out,
                         "--seed", self.jobs[k % SEQUENCE][2]])
        with open(self.out) as fh:
            return code, fh.read()

    def check(self, k, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} report lines"
        report = json.loads(lines[0])
        if report["assertions_hold"] is not True:
            return f"assertions do not hold: {report['verdicts']}"
        if not _finite(_numbers(report["max_residuals"])):
            return f"non-finite residual: {report['max_residuals']}"
        return None


def _numbers(obj):
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, (int, float)) else []


WORKLOADS = {w.name: w for w in (Pencil3D, Dressing, ManifestMix)}

