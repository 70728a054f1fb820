"""Tests for the verification harness: family execution, consistency
chains, report schema, reproducibility and the CLI."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from ellsel.core import NomePair
from ellsel.binomials import TableCache
from ellsel.densities import ParamSet, an_selberg_rhs, selberg_average_normalizer
from ellsel.cli import _load_config, main
from ellsel.harness import (
    FAMILIES,
    SUITES,
    HarnessConfig,
    aflt_rhs,
    algebraic_checks,
    report_csv_row,
    reports_to_json,
    run_case,
    run_suite,
    sample_case,
    xselberg_rhs,
)
from ellsel.partitions import ZERO, Bipartition
from ellsel.symbols import SymbolContext, delta0_bi
from ellsel.interpolation import interp_hybrid

CFG = HarnessConfig()


class TestFamilies:
    @pytest.mark.parametrize(
        "family,opts",
        [
            ("beta_k1", {}),
            ("vdBult", {}),
            ("kernel_decomp", {}),
            ("key_theorem", {}),
            ("prop_RK", {}),
            ("an_aflt", {"n": 1}),
            ("kernel_consistency", {}),
        ],
    )
    def test_family_passes(self, family, opts):
        rep = run_case(sample_case(family, 0, CFG, **opts))
        assert rep.status == "pass", (rep.id, rep.rel_err, rep.notes)
        assert rep.rel_err <= rep.tol

    def test_infeasible_params_reported_not_thrown(self):
        # k = (0, 2) on the k = (1, 1) windows, which keep |t|^2 < |pq|: the level-2 balancing gives |t3 t4| =
        # |pq| / (|t|^2 |t5 t6 t7 t8|) > 1, so a tower crosses on level 2.
        # That level carries two variables, so no residue term covers it
        # (tests/test_contours.py pins that diagnosis).
        case = sample_case("an_selberg", 0, CFG, n=2, k=(0, 2))
        rep = run_case(case)
        assert rep.status == "infeasible"
        assert "k=(0, 2)" in rep.notes
        assert "last violations" in rep.notes
        assert "vertex r=" in rep.notes

    def test_rank_three_an_selberg_reported_infeasible(self):
        # The an_selberg sampling windows cover ranks one and two only.
        rep = run_case(sample_case("an_selberg", 0, CFG, n=3, k=(1, 1, 1)))
        assert rep.status == "infeasible"
        assert rep.id == "an_selberg-n3k111-s0"
        assert "rank n=3 > 2" in rep.notes


    def test_rank_three_an_aflt_reported_infeasible(self):
        # no rank-three windows: refused at once, not after futile rank-2 draws
        rep = run_case(sample_case("an_aflt", 0, CFG, n=3))
        assert rep.status == "infeasible"
        assert rep.id == "an_aflt-n3-s0"
        assert rep.notes == "no sampling windows exist for rank n=3 > 2"


class TestRegistry:
    def test_suite_families_registered(self):
        for suite, entries in SUITES.items():
            for family, _ in entries:
                assert family in FAMILIES, (suite, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sampler_matches_family(self, family):
        assert sample_case(family, 0, CFG).family == family


class TestConsistencyChains:
    def test_an_selberg_n1_equals_selberg_closed_form(self):
        case = sample_case("an_selberg", 0, CFG, n=1, k=(2,))
        params = case.paramset
        a = an_selberg_rhs(params)
        b = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert abs(a - b) / abs(b) < 1e-12

    def test_aflt_mu_zero_reproduces_kadell(self):
        # an_aflt evaluated at mu = 0 must agree with the an_kadell value
        # at the same parameter point.
        case = sample_case("an_kadell", 0, CFG, n=1)
        params = case.paramset
        lam = case.shapes[0]
        ctx = SymbolContext(params.nomes, params.t)
        full = aflt_rhs(params, lam, ZERO, ctx)
        rep = run_case(case)
        assert rep.status == "pass"
        assert abs(full - rep.rhs) / abs(rep.rhs) <= 1e-8

    def test_hua_constraint_reproduces_hua_kadell(self):
        # The aflt evaluation (hybrid factor) at a hua-constrained draw
        # equals the hua family evaluation (plain factor) of the same case.
        case = sample_case("an_hua_kadell", 1, CFG, n=1)
        params = case.paramset
        t = params.t
        assert abs(params.ts[3] * params.ts[4] - t) < 1e-13
        rep = run_case(case)
        assert rep.status == "pass"
        aflt_case = sample_case("an_aflt", 0, CFG, n=1, shapes=case.shapes)
        aflt_case.paramset = params
        aflt_rep = run_case(aflt_case)
        assert aflt_rep.status == "pass"
        assert abs(aflt_rep.lhs - rep.lhs) / abs(rep.lhs) <= 1e-8
        assert abs(aflt_rep.rhs - rep.rhs) / abs(rep.rhs) <= 1e-12

    def test_key_theorem_is_xselberg_base_case(self):
        # The rank-one kernel-weighted closed form specialises to the key
        # identity under (c, t1, t2, t3, v1, v2) -> (d, t3, t6, t5, t4/t, t5/t).
        rng = np.random.default_rng(77)
        case = sample_case("prop_xselberg_base", 1, CFG, variant="base")
        pr = case.params
        mu = case.shapes[0]
        ctx = SymbolContext(NomePair(pr["p"], pr["q"]), pr["t"])
        cache = TableCache()
        ts6 = tuple(pr[f"t{i}"] for i in range(1, 7))
        d, x1, t = pr["d"], pr["x1"], pr["t"]
        rhs_x = xselberg_rhs(1, (1,), (x1,), ts6, d, mu, ctx, 1.0)

        # key-theorem right side at the substituted arguments
        from ellsel.core import elliptic_gamma_multi

        kt1, kt2, kt3 = ts6[2], ts6[5], ts6[4]
        v1, v2 = ts6[3] / t, ts6[4] / t
        kt4 = t * v1
        tl = (kt1, kt2, kt3, kt4)
        gargs = []
        for r in range(4):
            for s in range(r + 1, 4):
                gargs.append(tl[r] * tl[s])
            gargs += [d * tl[r] * x1, d * tl[r] / x1]
        rhs_k = elliptic_gamma_multi(gargs, ctx.nomes)
        head = t * kt1 * v1 * v2 / kt2
        rhs_k *= delta0_bi(mu, head, [t * kt1 * v1], ctx)
        rhs_k /= delta0_bi(mu, head, [d**2 * t * kt1 * v1], ctx)
        rhs_k *= interp_hybrid(
            mu, (x1,), (d * v1, v2 / d), d * t * kt1 * v1 * v2, d * kt2, ctx, cache
        )
        assert abs(rhs_x - rhs_k) / abs(rhs_k) < 1e-10

    def test_xselberg_closed_form_satisfies_recursion(self):
        # prefactor * rank-one closed form == rank-two closed form.
        case = sample_case("prop_xselberg_base", 1, CFG, variant="recursion")
        pr = case.params
        mu = case.shapes[0]
        ctx = SymbolContext(NomePair(pr["p"], pr["q"]), pr["t"])
        ts = tuple(pr[f"t{i}"] for i in range(1, 9))
        c, d, x1 = pr["c"], pr["d"], pr["x1"]
        from ellsel.core import elliptic_gamma_multi

        lhs = xselberg_rhs(2, (1, 1), (x1,), ts, d, mu, ctx, c)
        pref = elliptic_gamma_multi(
            [c * d * pr["t"] * x1 / ts[2], c * d * pr["t"] / (x1 * ts[2]),
             c * d * pr["t"] * x1 / ts[3], c * d * pr["t"] / (x1 * ts[3])],
            ctx.nomes,
        )
        rhs = pref * xselberg_rhs(1, (1,), (x1,), ts[2:], c * d, mu, ctx, 1.0)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10


class TestReports:
    def test_bit_identical_reruns(self):
        rep1 = run_case(sample_case("beta_k1", 3, CFG))
        rep2 = run_case(sample_case("beta_k1", 3, CFG))
        assert rep1.lhs == rep2.lhs
        assert rep1.rhs == rep2.rhs
        assert rep1.rel_err == rep2.rel_err

    def test_json_schema(self):
        rep = run_case(sample_case("beta_k1", 0, CFG))
        data = json.loads(reports_to_json([rep]))[0]
        for key in ("id", "family", "n", "k", "params", "shapes", "grid", "lhs",
                    "rhs", "rel_err", "doubling_estimate", "status", "seed", "runtime_ms"):
            assert key in data
        assert isinstance(data["lhs"], list) and len(data["lhs"]) == 2
        assert all(isinstance(v, list) and len(v) == 2 for v in data["params"].values())

    def test_csv_row_columns(self):
        from ellsel.harness import CSV_COLUMNS

        rep = run_case(sample_case("beta_k1", 0, CFG))
        row = report_csv_row(rep)
        assert list(row) == CSV_COLUMNS

    def test_run_suite_sorted_and_threaded(self):
        cfg = HarnessConfig(threads=2)
        reports = run_suite("integrals-1d", 1, cfg)
        assert [r.id for r in reports] == sorted(r.id for r in reports)
        assert all(r.status == "pass" for r in reports)
        serial = run_suite("integrals-1d", 1, HarnessConfig(threads=1))

        def without_runtime(reps):
            data = json.loads(reports_to_json(reps))
            for rep in data:
                del rep["runtime_ms"]
            return data

        assert without_runtime(reports) == without_runtime(serial)


class TestParamSetRoundTrip:
    def test_json_roundtrip_through_case(self):
        case = sample_case("an_selberg", 1, CFG, n=2, k=(1, 1))
        blob = case.paramset.to_json()
        assert ParamSet.from_json(blob) == case.paramset


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "ellsel.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_list(self):
        res = self.run_cli("list")
        assert res.returncode == 0
        for fam in FAMILIES:
            assert fam in res.stdout

    def test_eval_gamma(self):
        res = self.run_cli("eval", "--fn", "gamma", "--args", "z=0.5", "p=0.1", "q=0.2")
        assert res.returncode == 0

    def test_eval_interp_and_binomial(self):
        res = self.run_cli(
            "eval", "--fn", "interp", "--args",
            "lam=1|0", "x=0.9,0.43", "a=0.5", "b=0.3", "p=0.1", "q=0.2", "t=0.25",
        )
        assert res.returncode == 0 and "j" in res.stdout
        res = self.run_cli(
            "eval", "--fn", "binomial", "--args",
            "lam=1|1", "mu=1|0", "a=0.5", "b=0.3", "p=0.1", "q=0.2", "t=0.25",
        )
        assert res.returncode == 0

    def test_convergence_table(self, tmp_path):
        out = tmp_path / "conv.csv"
        res = self.run_cli("convergence", "--family", "beta_k1", "--seed", "0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("grid,value_re")
        assert len(lines) >= 4

    def test_verify_small_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        res = self.run_cli("verify", "--suite", "integrals-1d", "--seeds", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_text())
        assert all(r["status"] == "pass" for r in data)

    def test_verify_csv_format(self, tmp_path):
        out = tmp_path / "rep.csv"
        res = self.run_cli(
            "verify", "--suite", "algebraic", "--seeds", "1", "--out", str(out), "--format", "csv"
        )
        assert res.returncode == 0
        assert out.read_text().startswith("id,family")

    def test_case_infeasible_params_exit_2(self, tmp_path):
        case = sample_case("an_selberg", 0, CFG, n=2, k=(1, 1))
        bad = ParamSet(
            n=1, k=(1,),
            p=0.15, q=0.2, t=0.3,
            ts=(0.99, 0.4, 0.5, 0.45, 0.35, 0.15 * 0.2 / (0.99 * 0.4 * 0.5 * 0.45 * 0.35)),
        )
        pfile = tmp_path / "p.json"
        pfile.write_text(bad.to_json())
        res = self.run_cli("case", "--family", "beta_k1", "--params", str(pfile))
        assert res.returncode == 2
        data = json.loads(res.stdout)[0]
        assert data["status"] == "infeasible"
        assert "vertex" in data["notes"]

    def _k12_params_file(self, tmp_path):
        params = sample_case("an_selberg", 0, CFG, n=2, k=(1, 2)).paramset
        pfile = tmp_path / "k12.json"
        pfile.write_text(params.to_json())
        return params, pfile

    def test_case_params_run_on_corrected_contour(self, tmp_path):
        _, pfile = self._k12_params_file(tmp_path)
        res = self.run_cli("case", "--family", "an_selberg", "--params", str(pfile))
        assert res.returncode == 0, res.stderr
        data = json.loads(res.stdout)[0]
        assert data["status"] == "pass"
        assert data["grid"] == "48x48x48"
        assert "residue pairs" in data["notes"]

    def test_convergence_tabulates_corrected_sum(self, tmp_path):
        params, pfile = self._k12_params_file(tmp_path)
        out = tmp_path / "conv.csv"
        res = self.run_cli(
            "convergence", "--family", "an_selberg", "--params", str(pfile), "--out", str(out)
        )
        assert res.returncode == 0, res.stderr
        assert "residue pairs" in res.stderr
        last = out.read_text().splitlines()[-1].split(",")
        assert last[0] == "64x64x64"
        value = complex(float(last[1]), float(last[2]))
        rhs = an_selberg_rhs(params)
        assert abs(value - rhs) / abs(rhs) < 1e-8

    def test_convergence_refuses_residues_for_torus_only_family(self, tmp_path):
        _, pfile = self._k12_params_file(tmp_path)
        res = self.run_cli("convergence", "--family", "an_aflt", "--params", str(pfile))
        assert res.returncode == 2
        assert "unit torus only" in res.stderr

    def test_convergence_tabulates_family_integral(self, tmp_path):
        # an_aflt's main integral carries the interpolation factors; the
        # bare density would converge to the normalizer instead
        case = sample_case("an_aflt", 0, CFG)
        rep = run_case(case)
        out = tmp_path / "conv.csv"
        res = self.run_cli("convergence", "--family", "an_aflt", "--seed", "0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        last = out.read_text().splitlines()[-1].split(",")
        value = complex(float(last[1]), float(last[2]))
        norm = an_selberg_rhs(case.paramset)
        expected = rep.lhs * norm
        assert abs(value - expected) <= 1e-8 * abs(expected)
        assert abs(value - norm) > 0.1 * abs(norm)

    def test_convergence_refuses_family_without_main_integral(self):
        res = self.run_cli("convergence", "--family", "algebraic_suite")
        assert res.returncode == 3
        assert "no main integral" in res.stderr

    def test_unknown_suite_exit_3(self):
        res = self.run_cli("verify", "--suite", "nonsense")
        assert res.returncode == 3

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"grid_1d": 128, "threads": 1}))
        out = tmp_path / "rep.json"
        res = self.run_cli(
            "verify", "--suite", "integrals-1d", "--seeds", "1",
            "--config", str(cfgfile), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_text())
        assert any(r["grid"] == "128" for r in data)

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"grid_1d": 128, "eps_tail": 1e-13}, "unknown config keys eps_tail"),
            ({"grid_1d": "128"}, "config key grid_1d must be int"),
        ],
    )
    def test_bad_config_exit_3(self, tmp_path, config, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        res = self.run_cli("verify", "--suite", "algebraic", "--seeds", "1", "--config", str(cfgfile))
        assert res.returncode == 3
        assert message in res.stderr

    @pytest.mark.parametrize("family", ["beta_k1", "equal_k_recursion", "kernel_decomp"])
    def test_shapes_for_family_without_shapes_exit_3(self, family):
        res = self.run_cli("case", "--family", family, "--shapes", "1|0")
        assert res.returncode == 3
        assert f"family {family} takes no --shapes" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--grid", "0"], "--grid"),
            (["verify", "--grid", "1"], "--grid"),
            (["verify", "--tol", "0"], "--tol"),
            (["verify", "--tol", "-1"], "--tol"),
            (["verify", "--seeds", "0"], "--seeds"),
            (["verify", "--seeds", "-2"], "--seeds"),
            (["case", "--family", "beta_k1", "--grid", "0"], "--grid"),
            (["case", "--family", "beta_k1", "--tol", "0"], "--tol"),
            (["convergence", "--family", "beta_k1", "--levels", "0"], "--levels"),
        ],
    )
    def test_bad_numeric_flag_exit_3(self, capsys, argv, flag):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err

    def test_tol_reaches_only_tol_1d_families(self):
        cfg = HarnessConfig(tol_1d=1e-12)
        assert sample_case("beta_k1", 0, cfg).tol == 1e-12
        assert sample_case("vdBult", 0, cfg).tol == 1e-8

    def test_threads_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("ELLSEL_THREADS", "2")
        args = argparse.Namespace(config=None, grid=None, tol=None, threads=3)
        assert _load_config(args).threads == 3
        args.threads = None
        assert _load_config(args).threads == 2

    def test_threads_env_override(self, tmp_path):
        out = tmp_path / "rep.json"
        res = subprocess.run(
            [sys.executable, "-m", "ellsel.cli", "verify", "--suite", "integrals-1d",
             "--seeds", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={"ELLSEL_THREADS": "2", "PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)},
        )
        assert res.returncode == 0, res.stderr


class TestAlgebraicSuiteContents:
    def test_covers_required_identities(self):
        names = {name for name, _, _ in algebraic_checks(1)}
        required = {
            "gamma_reflection", "theta_quasi_periodicity", "gamma_functional_eq",
            "gamma_delta_bridge", "delta0_reflection", "binomial_endpoint_zero",
            "binomial_endpoint_full", "binomial_b1_delta", "binomial_strip_vanishing",
            "jackson_nu_zero", "skew_no_variables", "skew_unit_pair_drop",
            "skew_factorisation_ab_pq", "skew_branching", "hybrid_branching",
            "cauchy_nonskew", "cauchy_hybrid", "interp_vanishing", "interp_principal_spec",
        }
        assert required <= names
