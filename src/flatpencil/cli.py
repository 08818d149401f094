"""Batch front-end.

``flatpencil run <manifest>`` loads a JSON manifest describing metrics and
models as expression strings, runs the requested checks, and emits one JSON
report per job (newline-delimited) to stdout or --out.  Exit code 0 when all
job assertions hold, 1 when any verdict disagrees, 2 on input errors.

``flatpencil identities`` draws random metric pairs and verifies the
algebraic identities tying the Nijenhuis tensor to the obstruction tensor M,
plus the defining relations of metric connections and curvature
antisymmetries.  The report is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .compat import (
    _ALMOST,
    DEFAULT_TOL,
    MetricPair,
    _Worst,
    _below,
    _relative,
    check_compatible,
    check_flat_pencil,
    default_lambda_samples,
    full_report,
    sample_points,
)
from .errors import DegenerateMetric, FlatPencilError
from .expr import constant, exp, parse, variable
from .geometry import (
    CONTRAVARIANT,
    MetricField,
    PencilMembers,
    affinor_from_jets,
    geometry_jet,
    nijenhuis,
    tensor_M_from_jets,
)
from .lame import (
    LameData,
    lame_residuals,
    rotation_from_H,
    assemble_pair,
    write_beta_grid,
)
from .twocomp import TwoCompModel, assemble_two_metrics, check_lequa, check_sys
from .zakharov import (
    DressingProblem,
    build_kernel,
    extract_beta,
    solve_integral_equation,
)


class ManifestError(Exception):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _read(cfg, key, default, ok, what):
    """cfg[key] (or the default) if ok(value) holds; otherwise a
    ManifestError saying the field must be `what`."""
    value = cfg.get(key, default)
    if not ok(value):
        raise ManifestError(f"{key!r} must be {what}, not {value!r}")
    return value


def _real(cfg, key, default):
    return float(_read(cfg, key, default, _is_real, "a finite number"))


def _expressions(manifest):
    """The manifest's named expression texts."""
    return _read(manifest, "expressions", {}, lambda v: isinstance(v, dict)
                 and all(isinstance(t, str) for t in v.values()),
                 "an object of expression strings")


def _fields(job, key, expressions, dim):
    """job[key]: a list of expression strings, parsed over dim variables."""
    texts = _read(job, key, None, lambda v: isinstance(v, list) and all(
        isinstance(t, str) for t in v), "a list of expression strings")
    return [_parse_field(_resolve(t, expressions), dim, key) for t in texts]


def _positive_int(cfg, key, default):
    return _read(cfg, key, default, lambda v: _is_int(v) and v >= 1,
                 "a positive integer")


def _dim(job, manifest):
    return _positive_int(job, "dim", manifest.get("dim"))


def _parse_field(text, dim, name):
    try:
        return parse(text, dim)
    except FlatPencilError as exc:
        raise ManifestError(f"bad expression for {name!r}: {exc}") from exc


def _build_metric(job, key, manifest, dim):
    """The metric that job[key] names among the manifest's metrics."""
    name = job[key]
    metrics = _read(manifest, "metrics", {}, lambda v: isinstance(v, dict),
                    "an object of named metrics")
    if not isinstance(name, str) or name not in metrics:
        raise ManifestError(f"metric {name!r} is not defined")
    spec, expressions = metrics[name], _expressions(manifest)
    kinds = [k for k in ("identity", "diagonal", "entries")
             if isinstance(spec, dict) and k in spec]
    if len(kinds) != 1:
        raise ManifestError(f"metric {name!r}: need exactly one of "
                            "identity, diagonal or entries")
    if kinds == ["identity"]:
        if spec["identity"] is not True:
            raise ManifestError(f"metric {name!r}: identity must be true")
        return MetricField.from_constant(np.eye(dim))
    if kinds == ["diagonal"]:
        diagonal = spec["diagonal"]
        if not isinstance(diagonal, list) or len(diagonal) != dim:
            raise ManifestError(
                f"metric {name!r}: diagonal needs {dim} entries")
        return MetricField.diagonal(
            [_parse_field(_resolve(t, expressions), dim, name)
             for t in diagonal], CONTRAVARIANT)
    rows = spec["entries"]
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim for r in rows)):
        raise ManifestError(
            f"metric {name!r}: entries must be a {dim}x{dim} matrix")
    upper = {}
    for i in range(dim):
        for j in range(i, dim):
            if rows[i][j] != rows[j][i]:
                raise ManifestError(f"metric {name!r} not symmetric")
            upper[(i, j)] = _parse_field(
                _resolve(rows[i][j], expressions), dim, name
            )
    return MetricField.from_upper(upper, CONTRAVARIANT)


def _resolve(text, expressions):
    """A named expression's text; any other value is parsed (and rejected
    if it is not a string) as it stands."""
    return expressions.get(text, text) if isinstance(text, str) else text


def _sampling(job, dim, seed):
    cfg = _read(job, "sampling", {}, lambda v: isinstance(v, dict),
                "an object")
    box = {key: _real(cfg, key, None) for key in ("lo", "hi", "min_sep")
           if key in cfg}
    return sample_points(dim, _positive_int(cfg, "count", 10), seed=seed,
                         **box)


def _lambdas(job, seed):
    if "lambdas" not in job:
        return default_lambda_samples(seed)
    try:
        lambdas = [(complex(l1), complex(l2)) for l1, l2 in job["lambdas"]]
    except (TypeError, ValueError):
        lambdas = []
    if not lambdas:
        raise ManifestError(
            "'lambdas' must be a non-empty list of [l1, l2] number pairs, "
            f"not {job['lambdas']!r}")
    return lambdas


def _number(x):
    """A float as strict JSON carries it: non-finite values become the
    strings "NaN", "Infinity" and "-Infinity"."""
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, complex):
        if obj.imag == 0:
            return _number(obj.real)
        return {"re": _number(obj.real), "im": _number(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        return _number(obj)
    return obj


def _dumps(report):
    """One report line: strict JSON, keys sorted."""
    return json.dumps(_jsonify(report), sort_keys=True, allow_nan=False)


def _pair(job, g1, g2, pts, seed, tol):
    """The pair g1, g2 at pts with the job's lambdas and tolerance."""
    return MetricPair(g1, g2, pts, lambda_samples=_lambdas(job, seed),
                      tol=_real(job, "tol", tol))


def _equivalence(pair, residual_side, residuals):
    """Verdicts of a construction job: the flat-pencil check of its pair
    against the vanishing of the construction's own residuals, which fails
    closed on NaN (NaN < tol is False)."""
    flat = check_flat_pencil(pair)
    verdicts = {
        "flat_pencil": flat.passed,
        "residuals_vanish": residual_side,
        "equivalence": flat.passed == residual_side,
    }
    return verdicts, {**residuals, **flat.max_residuals}, flat.witnesses


def _run_pair_job(job, manifest, seed, tol):
    dim = _dim(job, manifest)
    g1, g2 = (_build_metric(job, key, manifest, dim) for key in ("g1", "g2"))
    pair = _pair(job, g1, g2, _sampling(job, dim, seed), seed, tol)
    if job["kind"] == "flat-pencil":
        rep = full_report(pair)
        verdicts = {k: getattr(rep, k) for k in (
            "almost_compatible", "compatible", "flat_pencil", "nonsingular")}
        return verdicts, rep.max_residuals, rep.witnesses
    comp = check_compatible(pair)
    verdicts = {"almost_compatible": _below(comp.max_residuals, _ALMOST,
                                            pair.tol),
                "compatible": comp.passed}
    return verdicts, comp.max_residuals, comp.witnesses


def _run_lame_job(job, manifest, seed, tol):
    dim = _dim(job, manifest)
    expressions = _expressions(manifest)
    H = _fields(job, "H", expressions, dim)
    f = _fields(job, "f", expressions, 1)
    data = LameData(H, f)
    pts = _sampling(job, dim, seed)
    r1, r2, r3 = lame_residuals(rotation_from_H(data), pts, f)
    pair = _pair(job, *assemble_pair(data), pts, seed, tol)
    return _equivalence(
        pair, all(r < pair.tol for r in (r1, r2, r3)),
        {"lam_system": r1, "lam_divergence": r2, "lam_reduction": r3})


def _run_twocomp_job(job, manifest, seed, tol):
    expressions = _expressions(manifest)
    field = lambda key, dim: _parse_field(_resolve(job[key], expressions),
                                          dim, key)
    eps = _read(job, "eps", [-1, 1],
                lambda v: isinstance(v, list) and len(v) == 2
                and all(_is_real(e) and e in (-1, 1) for e in v),
                "a pair of signs, each -1 or 1")
    m = TwoCompModel(field("b1", 2), field("b2", 2), field("F", 2),
                     *map(int, eps), field("f1", 1), field("f2", 1))
    pts = _sampling(job, 2, seed)
    job_tol = _real(job, "tol", tol)
    sys_check = check_sys(m, pts, job_tol)
    lequa_check = check_lequa(m, pts, job_tol)
    pair = _pair(job, *assemble_two_metrics(m), pts, seed, tol)
    return _equivalence(
        pair, sys_check.passed and lequa_check.passed,
        {**sys_check.max_residuals, **lequa_check.max_residuals})


def _potential_index(key, dim):
    """(i, j) of a potential key "i,j" with integers 0 <= i <= j < dim."""
    m = re.fullmatch(r"([0-9]+),([0-9]+)", key)
    if m is None or not int(m[1]) <= int(m[2]) < dim:
        raise ManifestError(f'potential key {key!r} must be "i,j" with '
                            f"integers 0 <= i <= j < {dim}")
    return int(m[1]), int(m[2])


def _run_dressing_job(job, manifest, seed, tol):
    expressions = _expressions(manifest)
    dim = _dim(job, manifest)
    phi = {}
    for key, text in _read(job, "phi", None, lambda v: isinstance(v, dict),
                           'an object of "i,j" potentials').items():
        phi[_potential_index(key, dim)] = _parse_field(
            _resolve(text, expressions), 2, key)
    f = _fields(job, "f", expressions, 1) if "f" in job else None
    u = _read(job, "u", None,
              lambda v: isinstance(v, list) and all(map(_is_real, v)),
              "a list of numbers")
    out_beta = _read(job, "out_beta", None, lambda v: v is None or (
        isinstance(v, str) and v), "a non-empty file name")
    p = DressingProblem(
        dim, phi, np.asarray(u, dtype=float),
        _real(job, "s_min", 0.0), _real(job, "s_max", 1.0),
        _read(job, "m", 64, _is_int, "an integer"), f
    )
    kernel = build_kernel(p)
    rows = _read(job, "rows", [0], lambda v: isinstance(v, list) and v,
                 "a non-empty list of node indices")
    sol = solve_integral_equation(kernel, rows=rows)
    beta = extract_beta(sol)
    if out_beta is not None:
        try:
            write_beta_grid(out_beta, beta, p.s_min, p.s_max)
        except OSError as exc:
            raise ManifestError(f"cannot write 'out_beta': {exc}") from exc
    verdicts = {"solved": True}
    residuals = {"condition_number": max(sol.cond.values())}
    return verdicts, residuals, {}


def _coefficient(x, dim):
    """x rounded to 6 decimals, as the literal "(%.6f)" parses: a negative
    one is the negation of its absolute value."""
    text = f"{x:.6f}"
    c = constant(float(text.lstrip("-")), dim)
    return -c if text.startswith("-") else c


def _random_poly_metric(rng, dim):
    """Random nondegenerate contravariant metric with bounded coefficients:
    entries c0 + c1*u1 + ... + c_dim*u_dim + c*exp(u1/4), plus 2.5 on the
    diagonal, built by field arithmetic."""
    u = [variable(k, dim) for k in range(dim)]
    tail = exp(u[0] / 4)
    upper = {}
    for i in range(dim):
        for j in range(i, dim):
            c = [_coefficient(x, dim)
                 for x in rng.uniform(-0.3, 0.3, size=dim + 2)]
            entry = c[0]
            for k in range(dim):
                entry = entry + c[k + 1] * u[k]
            entry = entry + c[-1] * tail
            if i == j:
                entry = entry + 2.5
            upper[(i, j)] = entry
    return MetricField.from_upper(upper, CONTRAVARIANT)


def identity_residuals(g1, g2, point):
    """Relative residuals of the structural identities at one point.

    Covers: the three contractions relating g1-lowered Nijenhuis components
    to sums of M-tensor permutations (mn1-mn3); metric-compatibility (ch1)
    and symmetry (ch2) of each Levi-Civita connection in contravariant
    form; curvature antisymmetries.  The contravariant kernel solves for
    ch1 and ch2 and antisymmetrizes R^{ij}_{kl} in (k, l), so those three
    hold by construction (kl exactly); mn1-mn3 and the (i, j)-antisymmetry
    stay independent checks of it.
    """
    jets = geometry_jet(PencilMembers(g1, g2, [], ends=True), point)
    j1, j2 = jets[0], jets[1]
    N = nijenhuis(affinor_from_jets(j1, j2))
    M = tensor_M_from_jets(j1, j2)
    lhs = np.einsum(
        "sp,prq,ri,qj,sk->ijk", j1.g_down, N, j2.g_up, j2.g_up, j2.g_up
    )
    mn1 = lhs - (
        np.einsum("kji->ijk", M) + np.einsum("ikj->ijk", M) + M
    )
    mn2 = 2 * (np.einsum("ikj->ijk", M) + M) - (
        lhs + np.einsum("ikj->ijk", lhs)
    )
    mn3 = 2 * np.einsum("kji->ijk", M) - (lhs - np.einsum("ikj->ijk", lhs))
    out = {f"mn{k}": _relative(mn, lhs, M, lead=0)
           for k, mn in enumerate((mn1, mn2, mn3), 1)}
    # g1 and g2 on the member axis of `jets`
    dg, gc, R = jets.dg_up, jets.gamma_contra, jets.riemann_upup
    comp = (np.einsum("...kij->...ijk", dg) + gc
            + np.einsum("...jik->...ijk", gc))
    symm = (np.einsum("...is,...jks->...ijk", jets.g_up, gc)
            - np.einsum("...js,...iks->...ijk", jets.g_up, gc))
    anti_kl = R + np.einsum("...ijkl->...ijlk", R)
    anti_ij = R + np.einsum("...ijkl->...jikl", R)
    for name, r in (("ch1", _relative(comp, dg, gc)),
                    ("ch2", _relative(symm, dg, gc)),
                    ("curv_antisym_kl", _relative(anti_kl, R)),
                    ("curv_antisym_ij", _relative(anti_ij, R))):
        out[f"{name}_g1"], out[f"{name}_g2"] = r
    return {k: float(v) for k, v in out.items()}


def run_identities(trials, seed):
    """Random-pair identity sweep; deterministic report for a fixed seed."""
    if not _is_int(trials) or trials < 1:
        raise ValueError(
            f"'trials' must be a positive integer, not {trials!r}")
    rng = np.random.default_rng(seed)
    worst = _Worst()
    checked = 0
    while checked < trials:
        dim = 2 if checked % 2 == 0 else 3
        g1 = _random_poly_metric(rng, dim)
        g2 = _random_poly_metric(rng, dim)
        point = rng.uniform(0.2, 1.0, size=dim)
        try:
            res = identity_residuals(g1, g2, point)
        except DegenerateMetric:
            continue
        for k, v in res.items():
            worst.update(k, v, point)
        checked += 1
    return {
        "job": "identities",
        "tool_version": __version__,
        "trials": trials,
        "seed": seed,
        "max_relative_residuals": dict(sorted(worst.res.items())),
        "all_below_1e-8": all(v < 1e-8 for v in worst.res.values()),
    }


def _run_identities_job(job, manifest, seed, tol):
    rep = run_identities(job.get("trials", 10), seed)
    return ({"all_identities_hold": rep["all_below_1e-8"]},
            rep["max_relative_residuals"], {})


def _run_job(idx, job, manifest, seed, tol):
    kind = job.get("kind")
    runners = {"pair-check": _run_pair_job, "flat-pencil": _run_pair_job,
               "lame-check": _run_lame_job, "two-component": _run_twocomp_job,
               "dressing": _run_dressing_job,
               "identities": _run_identities_job}
    if not isinstance(kind, str) or kind not in runners:
        raise ManifestError(f"job {idx}: unknown kind {kind!r}")
    assertions = _read(job, "assert", {}, lambda v: isinstance(v, dict),
                       "an object of expected verdicts")
    t0 = time.perf_counter()
    verdicts, residuals, witnesses = runners[kind](job, manifest, seed, tol)
    ok = True
    for key, expected in assertions.items():
        if key not in verdicts:
            raise ManifestError(f"job {idx}: no verdict named {key!r}")
        if verdicts[key] != expected:
            ok = False
    report = {
        "job": idx,
        "kind": kind,
        "tool_version": __version__,
        "seed": seed,
        "verdicts": verdicts,
        "max_residuals": residuals,
        "witnesses": witnesses,
        "assertions_hold": ok,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }
    return report, ok


def _error(message):
    """Report an input error on stderr; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args):
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _error(f"cannot load manifest: {exc}")
    if not isinstance(manifest, dict):
        return _error("manifest must be a JSON object")
    jobs = manifest.get("jobs", [])
    if not (isinstance(jobs, list) and all(isinstance(j, dict) for j in jobs)):
        return _error("manifest 'jobs' must be a list of objects")
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        return _error(f"cannot open output: {exc}")
    all_ok = True
    try:
        for idx, job in enumerate(jobs):
            report, ok = _run_job(idx, job, manifest, args.seed, args.tol)
            all_ok = all_ok and ok
            print(_dumps(report), file=out)
    except (ManifestError, KeyError, FlatPencilError, ValueError) as exc:
        return _error(exc)
    finally:
        if args.out:
            out.close()
    return 0 if all_ok else 1


def _cmd_identities(args):
    if args.trials < 1:
        return _error(
            f"--trials must be a positive integer, not {args.trials}")
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        return _error(f"cannot open output: {exc}")
    try:
        report = run_identities(args.trials, args.seed)
        print(_dumps(report), file=out)
    finally:
        if args.out:
            out.close()
    return 0 if report["all_below_1e-8"] else 1


@functools.cache
def _parser():
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="flatpencil",
        description="Compatibility checks for pencils of metrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run jobs from a JSON manifest")
    run_p.add_argument("manifest")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    id_p = sub.add_parser("identities", help="random identity sweep")
    id_p.add_argument("--trials", type=int, default=100)
    id_p.add_argument("--seed", type=int, default=0)
    id_p.add_argument("--out", default=None)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    # the command is looked up at call time, not bound into the parser
    command = _cmd_run if args.command == "run" else _cmd_identities
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
