"""Manifest runner: report stream, exit codes, determinism."""

import json

import numpy as np
import pytest

from flatpencil import cli, expr
from flatpencil.cli import main, run_identities
from flatpencil.compat import (
    MetricPair,
    default_lambda_samples,
    full_report,
    sample_points,
)
from flatpencil.expr import ScalarField
from flatpencil.geometry import (
    CONTRAVARIANT,
    MetricField,
    affinor_from_jets,
    geometry_jet,
    nijenhuis,
    tensor_M_from_jets,
)
from flatpencil.lame import read_beta_grid


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def pair_manifest(assertions):
    return {
        "version": 1,
        "dim": 2,
        "expressions": {"conf": "exp(u1*u2)"},
        "metrics": {
            "eye": {"identity": True},
            "conformal": {"diagonal": ["conf", "conf"]},
            "coord": {"diagonal": ["u1", "u2"]},
        },
        "jobs": [
            {
                "kind": "flat-pencil",
                "g1": "coord",
                "g2": "eye",
                "assert": assertions,
            }
        ],
    }


class TestRunCommand:
    def test_passing_manifest_exits_zero(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            pair_manifest({"flat_pencil": True, "almost_compatible": True}),
        )
        assert main(["run", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["verdicts"]["flat_pencil"] is True
        assert report["assertions_hold"] is True
        assert report["elapsed_s"] >= 0

    def test_failed_assertion_exits_one(self, tmp_path, capsys):
        path = write_manifest(tmp_path, pair_manifest({"flat_pencil": False}))
        assert main(["run", path]) == 1
        report = json.loads(capsys.readouterr().out.strip())
        assert report["assertions_hold"] is False

    def test_undefined_metric_exits_two(self, tmp_path, capsys):
        payload = pair_manifest({})
        payload["jobs"][0]["g1"] = "missing"
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 2
        assert "missing" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        assert "cannot load manifest" in capsys.readouterr().err

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        payload = pair_manifest({})
        payload["jobs"][0]["kind"] = "mystery"
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 2

    def test_out_file_receives_reports(self, tmp_path):
        path = write_manifest(tmp_path, pair_manifest({}))
        out = tmp_path / "reports.ndjson"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text().strip())
        assert report["kind"] == "flat-pencil"

    def test_parallel_matches_serial(self, tmp_path, capsys):
        path = write_manifest(tmp_path, pair_manifest({}))
        main(["run", path])
        serial = json.loads(capsys.readouterr().out.strip())
        main(["run", path, "--parallel"])
        parallel = json.loads(capsys.readouterr().out.strip())
        for key in ("verdicts", "max_residuals"):
            assert serial[key] == parallel[key]

    def test_multiple_jobs_stream_in_order(self, tmp_path, capsys):
        payload = pair_manifest({})
        payload["jobs"].append(
            {"kind": "pair-check", "g1": "conformal", "g2": "eye",
             "assert": {"almost_compatible": True, "compatible": False}}
        )
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(l)["job"] for l in lines] == [0, 1]

    def test_entries_metric_equals_the_library_pair(self, tmp_path, capsys):
        # a full symmetric matrix, one entry given by name
        payload = pair_manifest({})
        payload["metrics"]["full"] = {
            "entries": [["conf", "u1*u2/4"], ["u1*u2/4", "2+u2"]]}
        payload["jobs"][0]["g1"] = "full"
        assert main(["run", write_manifest(tmp_path, payload)]) == 0
        report = json.loads(capsys.readouterr().out)
        e = lambda text: expr.parse(text, 2)
        off = e("u1*u2/4")
        g1 = MetricField.from_upper(
            {(0, 0): e("exp(u1*u2)"), (0, 1): off, (1, 1): e("2+u2")},
            CONTRAVARIANT)
        pts = sample_points(2, 10, seed=0)
        rep = full_report(MetricPair(g1, MetricField.from_constant(
            np.eye(2)), pts, default_lambda_samples(0)))
        assert report["max_residuals"] == rep.max_residuals
        assert report["verdicts"]["compatible"] == rep.compatible

    def test_explicit_lambda_samples(self, tmp_path, capsys):
        payload = pair_manifest({"flat_pencil": True})
        payload["jobs"][0]["lambdas"] = [[1, 1], [3, 1], [2, 3]]
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 0


class TestLameAndTwoCompJobs:
    def test_lame_job_equivalence(self, tmp_path, capsys):
        payload = {
            "version": 1,
            "dim": 2,
            "jobs": [
                {
                    "kind": "lame-check",
                    "H": ["exp(u1)", "1+u2^2"],
                    "f": ["u1", "u1"],
                    "assert": {"flat_pencil": True, "equivalence": True},
                }
            ],
        }
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["verdicts"]["residuals_vanish"] is True

    def test_twocomp_job(self, tmp_path, capsys):
        payload = {
            "version": 1,
            "jobs": [
                {
                    "kind": "two-component",
                    "b1": "sqrt(u1-u2)",
                    "b2": "sqrt(u1-u2)",
                    "F": "0.5*ln(u1-u2)",
                    "eps": [-1, 1],
                    "f1": "u1",
                    "f2": "u1",
                    "sampling": {"count": 8, "lo": 0.2, "hi": 2.0,
                                 "min_sep": 0.3},
                    "assert": {"equivalence": True, "flat_pencil": True},
                }
            ],
        }
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 0


    def test_lame_job_evaluates_each_beta_entry_once(self, tmp_path,
                                                     monkeypatch, count_calls):
        rotations = []
        real_rotation = cli.rotation_from_H
        monkeypatch.setattr(
            cli, "rotation_from_H",
            lambda d: rotations.append(real_rotation(d)) or rotations[-1])
        calls = count_calls(ScalarField, "eval_jet")
        payload = {"version": 1, "dim": 2, "jobs": [{
            "kind": "lame-check", "H": ["exp(u1)", "1+u2^2"],
            "f": ["u1", "u1"], "sampling": {"count": 10},
        }]}
        assert main(["run", write_manifest(tmp_path, payload),
                     "--out", str(tmp_path / "out.ndjson")]) == 0
        beta = rotations[0].beta_fields
        entries = [beta[0][1], beta[1][0]]
        # one batched evaluation of all the entries: the system, divergence
        # and reduction residuals share one jet of beta
        hits = [c for c in calls if isinstance(c.ast, expr.Stack)
                and any(x is e for x in c.ast.fields for e in entries)]
        assert len(hits) == 1 and hits[0].ast.fields == tuple(entries)
        assert not any(c is e for c in calls for e in entries)


class TestResidualSideFailsClosed:
    def run_job(self, tmp_path, capsys, job):
        payload = {"version": 1, "dim": 2, "jobs": [job]}
        code = main(["run", write_manifest(tmp_path, payload)])
        return code, json.loads(capsys.readouterr().out.strip())

    def test_lame_nan_divergence(self, tmp_path, capsys, monkeypatch):
        real = cli.lame_residuals

        def nan_divergence(b, pts, f):
            system, _, reduction = real(b, pts, f)
            return system, float("nan"), reduction

        monkeypatch.setattr(cli, "lame_residuals", nan_divergence)
        code, report = self.run_job(tmp_path, capsys, {
            "kind": "lame-check", "H": ["exp(u1)", "1+u2^2"],
            "f": ["u1", "u1"],
            "assert": {"flat_pencil": True, "equivalence": True},
        })
        assert code == 1
        assert report["max_residuals"]["lam_divergence"] == "NaN"
        assert report["verdicts"]["residuals_vanish"] is False
        assert report["verdicts"]["equivalence"] is False

    def test_twocomp_nan_lequa(self, tmp_path, capsys, monkeypatch):
        # a NaN Hessian of F reaches only check_lequa, the one caller that
        # asks F for order 2; its verdict must fail and the job with it
        real = ScalarField.eval_jet

        def nan_hessian(self, point, order=3):
            jet = real(self, point, order)
            texts = [f.source_text for f in getattr(self.ast, "fields", ())]
            if "0.5*ln(u1-u2)" in texts and order == 2:  # F in a stack
                jet.hess = jet.hess.copy()
                jet.hess[texts.index("0.5*ln(u1-u2)")] = np.nan
            return jet

        monkeypatch.setattr(ScalarField, "eval_jet", nan_hessian)
        code, report = self.run_job(tmp_path, capsys, {
            "kind": "two-component", "b1": "sqrt(u1-u2)",
            "b2": "sqrt(u1-u2)", "F": "0.5*ln(u1-u2)", "eps": [-1, 1],
            "f1": "u1", "f2": "u1", "sampling": {"min_sep": 0.3},
            "assert": {"flat_pencil": True, "equivalence": True},
        })
        assert code == 1
        assert report["max_residuals"]["lequa"] == "NaN"
        assert report["verdicts"]["residuals_vanish"] is False
        assert report["verdicts"]["equivalence"] is False


class TestStrictJson:
    def test_nonfinite_residuals_encoded(self, tmp_path, capsys,
                                         monkeypatch):
        def fake_job(job, manifest, seed, tol):
            residuals = {"nan": float("nan"), "inf": np.float64(np.inf),
                         "ninf": -np.inf, "z": complex(1.0, np.nan)}
            return {"solved": True}, residuals, {}

        monkeypatch.setattr(cli, "_run_dressing_job", fake_job)
        payload = {"version": 1,
                   "jobs": [{"kind": "dressing", "assert": {"solved": True}}]}
        assert main(["run", write_manifest(tmp_path, payload)]) == 0

        def reject(name):
            raise ValueError(f"bare {name} in report")

        line = capsys.readouterr().out.strip()
        report = json.loads(line, parse_constant=reject)
        assert report["max_residuals"] == {
            "nan": "NaN", "inf": "Infinity", "ninf": "-Infinity",
            "z": {"re": 1.0, "im": "NaN"},
        }


class TestDressingJob:
    def test_beta_grid_written(self, tmp_path, capsys):
        out_beta = tmp_path / "beta.bin"
        payload = {
            "version": 1,
            "jobs": [
                {
                    "kind": "dressing",
                    "dim": 2,
                    "phi": {"0,1": "0.05*exp(-40*((u1+0.2)^2+(u2+0.3)^2))"},
                    "u": [0.3, 0.4],
                    "m": 33,
                    "rows": [0],
                    "out_beta": str(out_beta),
                    "assert": {"solved": True},
                }
            ],
        }
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 0
        beta, s_min, s_max = read_beta_grid(out_beta)
        assert beta.shape == (2, 2, 33)
        assert (s_min, s_max) == (0.0, 1.0)
        assert np.max(np.abs(beta[:, :, 0])) > 1e-6

    def test_unsolved_rows_are_nan(self, tmp_path):
        out_beta = tmp_path / "beta.bin"
        payload = {"version": 1, "jobs": [{
            "kind": "dressing", "dim": 2,
            "phi": {"0,1": "0.05*exp(-40*((u1+0.2)^2+(u2+0.3)^2))"},
            "u": [0.3, 0.4], "m": 9, "rows": [0],
            "out_beta": str(out_beta),
        }]}
        assert main(["run", write_manifest(tmp_path, payload),
                     "--out", str(tmp_path / "out.ndjson")]) == 0
        beta, _, _ = read_beta_grid(out_beta)
        # only row 0 was solved; the others are NaN, not a solved zero
        assert np.all(np.isfinite(beta[:, :, 0]))
        assert np.all(np.isnan(beta[:, :, 1:]))


def parent_identity_residuals(g1, g2, point, one_rule):
    """The parent's identity_residuals, one geometry_jet per metric and a
    loop over the two; with `one_rule` the connection residuals' scale is
    1 + max(max|dg|, max|Gamma|) in place of the parent's sum."""
    j1 = geometry_jet(g1, point)
    j2 = geometry_jet(g2, point)
    N = nijenhuis(affinor_from_jets(j1, j2))
    M = tensor_M_from_jets(j1, j2)
    lhs = np.einsum(
        "sp,prq,ri,qj,sk->ijk", j1.g_down, N, j2.g_up, j2.g_up, j2.g_up
    )
    scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(M)))
    mn1 = lhs - (np.einsum("kji->ijk", M) + np.einsum("ikj->ijk", M) + M)
    mn2 = 2 * (np.einsum("ikj->ijk", M) + M) - (
        lhs + np.einsum("ikj->ijk", lhs))
    mn3 = 2 * np.einsum("kji->ijk", M) - (lhs - np.einsum("ikj->ijk", lhs))
    out = {f"mn{k}": np.max(np.abs(mn)) / scale
           for k, mn in enumerate((mn1, mn2, mn3), 1)}
    for tag, j in (("g1", j1), ("g2", j2)):
        dg, gc = np.max(np.abs(j.dg_up)), np.max(np.abs(j.gamma_contra))
        sc = 1.0 + (max(dg, gc) if one_rule else dg + gc)
        comp = (np.einsum("kij->ijk", j.dg_up) + j.gamma_contra
                + np.einsum("jik->ijk", j.gamma_contra))
        symm = (np.einsum("is,jks->ijk", j.g_up, j.gamma_contra)
                - np.einsum("js,iks->ijk", j.g_up, j.gamma_contra))
        scr = 1.0 + np.max(np.abs(j.riemann_upup))
        anti_kl = j.riemann_upup + np.einsum("ijkl->ijlk", j.riemann_upup)
        anti_ij = j.riemann_upup + np.einsum("ijkl->jikl", j.riemann_upup)
        out[f"ch1_{tag}"] = np.max(np.abs(comp)) / sc
        out[f"ch2_{tag}"] = np.max(np.abs(symm)) / sc
        out[f"curv_antisym_kl_{tag}"] = np.max(np.abs(anti_kl)) / scr
        out[f"curv_antisym_ij_{tag}"] = np.max(np.abs(anti_ij)) / scr
    return {k: float(v).hex() for k, v in out.items()}


def parent_random_poly_metric(rng, dim):
    """The parent's random metric: each entry written as text with
    6-decimal coefficients, then parsed."""
    upper = {}
    monomials = [f"u{k+1}" for k in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            c = rng.uniform(-0.3, 0.3, size=dim + 2)
            terms = [f"({c[0]:.6f})"]
            terms += [
                f"({c[k+1]:.6f})*{monomials[k]}" for k in range(dim)
            ]
            terms.append(f"({c[-1]:.6f})*exp(u1/4)")
            if i == j:
                terms.append("2.5")
            upper[(i, j)] = expr.parse("+".join(terms), dim)
    return MetricField.from_upper(upper, CONTRAVARIANT)


class TestIdentities:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_member_axis_equals_per_metric_parent(self, dim):
        # g1 and g2 share one geometry evaluation; only the connection
        # residuals move, from the parent's sum scale to the one rule
        rng = np.random.default_rng(dim)
        for _ in range(3):
            g1 = cli._random_poly_metric(rng, dim)
            g2 = cli._random_poly_metric(rng, dim)
            point = rng.uniform(0.2, 1.0, size=dim)
            got = {k: v.hex()
                   for k, v in cli.identity_residuals(g1, g2, point).items()}
            assert got == parent_identity_residuals(g1, g2, point, True)
            parent = parent_identity_residuals(g1, g2, point, False)
            for k in got:
                if k.startswith("ch"):  # a smaller scale: never below
                    assert float.fromhex(got[k]) >= float.fromhex(parent[k])
                else:
                    assert got[k] == parent[k]
            assert got["ch1_g1"] != parent["ch1_g1"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_metrics_built_without_text_match_parsed_ones(self, dim):
        # the same draws, the same operations on the same literals
        a, b = np.random.default_rng(dim), np.random.default_rng(dim)
        point = np.linspace(0.2, 1.0, dim)
        for _ in range(5):
            g = cli._random_poly_metric(a, dim)
            ref = parent_random_poly_metric(b, dim)
            for x, y in zip(g.entry_jets(point, 2), ref.entry_jets(point, 2)):
                assert x.tobytes() == y.tobytes()

    def test_report_equals_text_route(self, monkeypatch):
        got = run_identities(40, 2)
        monkeypatch.setattr(cli, "_random_poly_metric",
                            parent_random_poly_metric)
        assert run_identities(40, 2) == got

    def test_report_deterministic_for_seed(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["identities", "--trials", "6", "--seed", "4",
                     "--out", str(out1)]) == 0
        assert main(["identities", "--trials", "6", "--seed", "4",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_residuals_below_threshold(self):
        rep = run_identities(10, seed=1)
        assert rep["all_below_1e-8"]
        assert set(rep["max_relative_residuals"]) >= {"mn1", "mn2", "mn3"}

    def test_identities_job_kind(self, tmp_path, capsys):
        payload = {
            "version": 1,
            "jobs": [
                {"kind": "identities", "trials": 4,
                 "assert": {"all_identities_hold": True}}
            ],
        }
        path = write_manifest(tmp_path, payload)
        assert main(["run", path]) == 0

    def test_nonfinite_residual_fails_closed(self, tmp_path, monkeypatch):
        real = cli.identity_residuals

        def nan_mn1(g1, g2, point):
            return {**real(g1, g2, point), "mn1": float("nan")}

        monkeypatch.setattr(cli, "identity_residuals", nan_mn1)
        out = tmp_path / "id.json"
        assert main(["identities", "--trials", "3", "--seed", "4",
                     "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["max_relative_residuals"]["mn1"] == "NaN"
        assert rep["all_below_1e-8"] is False


GAUSSIAN = "0.05*exp(-40*((u1+0.2)^2+(u2+0.3)^2))"


def _with_job(**fields):
    payload = pair_manifest({})
    payload["jobs"][0].update(fields)
    return payload


def _without_dim():
    payload = pair_manifest({})
    del payload["dim"]
    return payload


def _entries_not_square():
    payload = _with_job(g1="full")
    payload["metrics"]["full"] = {"entries": [["1", "0"]]}
    return payload


def _entries_not_symmetric():
    payload = _with_job(g1="full")
    payload["metrics"]["full"] = {"entries": [["1", "u1"], ["u2", "1"]]}
    return payload


def _run(payload):
    return lambda tmp: ["run", write_manifest(tmp, payload)]


def _one_job(**job):
    return _run({"version": 1, "dim": 2, "jobs": [job]})


LAME_JOB = {"kind": "lame-check", "H": ["exp(u1)", "1+u2^2"],
            "f": ["u1", "u1"]}
TWOCOMP_JOB = {"kind": "two-component", "b1": "sqrt(u1-u2)",
               "b2": "sqrt(u1-u2)", "F": "0.5*ln(u1-u2)", "f1": "u1",
               "f2": "u1", "sampling": {"min_sep": 0.3}}
DRESSING_JOB = {"kind": "dressing", "phi": {"0,1": GAUSSIAN},
                "u": [0.3, 0.4], "m": 9}


def _diagonal_too_long():
    payload = pair_manifest({})
    payload["metrics"]["coord"]["diagonal"].append("u1")
    return payload


# case: (argv from a temporary directory, text the error line must hold)
INPUT_ERRORS = {
    "manifest-not-object": (_run([]), "JSON object"),
    "job-not-object": (_run({**pair_manifest({}), "jobs": [1]}),
                       "list of objects"),
    "missing-dim": (_run(_without_dim()), "'dim'"),
    "entries-not-square": (_run(_entries_not_square()), "2x2"),
    "diagonal-too-long": (_run(_diagonal_too_long()), "2 entries"),
    "entries-not-symmetric": (_run(_entries_not_symmetric()),
                              "'full' not symmetric"),
    "assert-unknown-verdict": (
        _run(_with_job(**{"assert": {"flat": True}})), "no verdict named"),
    "count-not-integer": (_run(_with_job(sampling={"count": "x"})), "count"),
    "dressing-row-outside": (_run({"version": 1, "jobs": [{
        "kind": "dressing", "dim": 2, "phi": {"0,1": GAUSSIAN},
        "u": [0.3, 0.4], "m": 9, "rows": [100]}]}), "row 100"),
    "pair-entry-overflows": (_run({
        "version": 1, "dim": 2,
        "metrics": {"big": {"diagonal": ["exp(1000*u1)", "1"]},
                    "eye": {"identity": True}},
        "jobs": [{"kind": "pair-check", "g1": "big", "g2": "eye"}]}),
        "'exp(1000*u1)'"),
    "run-out-unwritable": (lambda tmp: [
        "run", write_manifest(tmp, pair_manifest({})),
        "--out", str(tmp / "missing" / "x")], "cannot open output"),
    "identities-out-unwritable": (lambda tmp: [
        "identities", "--trials", "2", "--out", str(tmp / "missing" / "x")],
        "cannot open output"),
    "pair-tol-not-number": (_run(_with_job(kind="pair-check", tol="x")),
                            "'tol'"),
    "twocomp-tol-not-number": (_one_job(**TWOCOMP_JOB, tol="x"), "'tol'"),
    "lambdas-not-pairs": (_run(_with_job(lambdas=3)), "'lambdas'"),
    "min-sep-not-number": (_run(_with_job(sampling={"min_sep": "x"})),
                           "'min_sep'"),
    "lame-H-not-list": (_one_job(**{**LAME_JOB, "H": 3}), "'H'"),
    "dressing-rows-not-list": (_one_job(**DRESSING_JOB, rows=3), "'rows'"),
    "dressing-rows-empty": (_one_job(**DRESSING_JOB, rows=[]), "'rows'"),
    "dressing-m-not-integer": (_one_job(**{**DRESSING_JOB, "m": "x"}),
                               "'m'"),
    "dressing-s-min-not-number": (_one_job(**DRESSING_JOB, s_min="x"),
                                  "'s_min'"),
    "dressing-phi-not-object": (_one_job(**{**DRESSING_JOB, "phi": 3}),
                                "'phi'"),
    "dressing-f-not-list": (_one_job(**DRESSING_JOB, f="u1"),
                            "'f' must be a list"),
    "identities-trials-not-integer": (
        _one_job(kind="identities", trials="x"), "'trials'"),
    "identities-trials-negative": (
        _one_job(kind="identities", trials=-1), "'trials'"),
    "identities-command-zero-trials": (
        lambda tmp: ["identities", "--trials", "0"], "--trials"),
    "assert-not-object": (_run(_with_job(**{"assert": 3})), "'assert'"),
    "flat-pencil-lambdas-empty": (_run(_with_job(lambdas=[])), "'lambdas'"),
    "pair-check-lambdas-empty": (
        _run(_with_job(kind="pair-check", lambdas=[])), "'lambdas'"),
    "expressions-not-object": (
        _run({**pair_manifest({}), "expressions": ["x"]}), "'expressions'"),
    "metrics-not-object": (
        _run({**pair_manifest({}), "metrics": ["coord"]}), "'metrics'"),
    "metric-not-object": (
        _run({**pair_manifest({}), "metrics": {"coord": 3, "eye": 4}}),
        "'coord'"),
    "diagonal-entry-not-string": (
        _run({**pair_manifest({}),
              "metrics": {"coord": {"diagonal": [["u1"], "u2"]},
                          "eye": {"identity": True}}}), "'coord'"),
    "dressing-potential-key-three-indices": (
        _one_job(**{**DRESSING_JOB, "phi": {"0,1,2": GAUSSIAN}}), "'0,1,2'"),
    "dressing-potential-key-descending": (
        _one_job(**{**DRESSING_JOB, "phi": {"1,0": GAUSSIAN}}), "'1,0'"),
    "dressing-potential-key-outside-dim": (
        _one_job(**{**DRESSING_JOB, "phi": {"0,2": GAUSSIAN}}), "'0,2'"),
    "dressing-potential-key-not-integers": (
        _one_job(**{**DRESSING_JOB, "phi": {"a,b": GAUSSIAN}}), "'a,b'"),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", list(INPUT_ERRORS))
    def test_exits_two_with_one_error_line(self, case, tmp_path, capsys):
        argv, named = INPUT_ERRORS[case]
        assert main(argv(tmp_path)) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named in lines[0]
        assert captured.out == ""


class TestSampling:
    @pytest.mark.parametrize("box", [{}, {"lo": 0.5},
                                     {"hi": 1.5, "min_sep": 0.1}])
    def test_box_defaults_are_sample_points_own(self, box):
        got = cli._sampling({"sampling": {"count": 4, **box}}, 3, 5)
        assert got.tobytes() == sample_points(3, 4, 5, **box).tobytes()


class TestParser:
    def test_built_once_and_dispatched_at_call_time(self, tmp_path,
                                                    monkeypatch):
        assert cli._parser() is cli._parser()
        seen = []
        monkeypatch.setattr(cli, "_cmd_run",
                            lambda args: seen.append(args.manifest) or 7)
        assert main(["run", "a.json"]) == 7
        assert main(["run", "b.json", "--seed", "3"]) == 7
        assert seen == ["a.json", "b.json"]
        out = tmp_path / "id.json"
        assert main(["identities", "--trials", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trials"] == 2
