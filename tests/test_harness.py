"""Tests for the verification harness: family execution, consistency
chains, report schema, reproducibility and the CLI."""

import argparse
import cmath
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ellsel import harness
from ellsel.core import NomePair
from ellsel.binomials import TableCache
from ellsel.densities import Contour, ParamSet, an_selberg_rhs, selberg_average_normalizer
from ellsel.cli import _load_config, main
from ellsel.harness import (
    AFLT_N1_SHAPES,
    FAMILIES,
    FAMILY_TABLE,
    SUITES,
    HarnessConfig,
    aflt_rhs,
    algebraic_checks,
    case_at,
    pool_size,
    report_csv_row,
    reports_to_csv,
    reports_to_json,
    run_case,
    run_suite,
    sample_case,
    xselberg_rhs,
)
from ellsel.partitions import ZERO, Bipartition
from ellsel.quadrature import BudgetError
from ellsel.symbols import SymbolContext, delta0_bi
from ellsel.interpolation import interp_hybrid

CFG = HarnessConfig()


def comparable(rep) -> dict:
    """A report's JSON record without runtime_ms."""
    return {key: val for key, val in rep.to_json_dict().items() if key != "runtime_ms"}


def pole_violating_set() -> ParamSet:
    """an_aflt seed 0's set with t2 scaled up to |t2| = |p| and t5 down by
    the same factor, keeping the balancing: the density stays
    torus-feasible, but the pole t2/p of the 1|0 interpolation factor
    sits on the unit circle, outside the margin."""
    params = sample_case("an_aflt", 0, CFG).paramset
    ts = list(params.ts)
    scale = abs(params.p / ts[1])
    assert scale > 1
    ts[1], ts[4] = ts[1] * scale, ts[4] / scale
    return ParamSet(1, (1,), params.p, params.q, params.t, tuple(ts))


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
        # k = (2, 2): the balancing gives |t1/c| |t2/c| = 1 / (|t| |t5 t6 t7
        # t8|) > 1, so a level-1 tower crosses the circle on every torus
        # set, and level 1 carries two variables, so no residue term
        # covers it.  The polytope LP certifies that no set exists.
        case = sample_case("an_selberg", 0, CFG, n=2, k=(2, 2))
        rep = run_case(case)
        assert rep.status == "infeasible"
        assert "k=(2, 2)" in rep.notes
        assert "cannot hold together" in rep.notes
        assert "vertex r=" in rep.notes

    def test_rank_three_an_selberg_passes(self):
        for seed in range(3):
            rep = run_case(sample_case("an_selberg", seed, CFG, n=3, k=(1, 1, 1)))
            assert (rep.status, rep.id) == ("pass", f"an_selberg-n3k111-s{seed}"), rep.notes
            assert rep.grid == "48x48x48"

    def test_level_without_variables_draws_pass(self):
        # k = (0, 2): level 1 carries no variable, so its towers bound
        # nothing, and level 2's towers fit on the torus
        for seed in range(3):
            rep = run_case(sample_case("an_selberg", seed, CFG, n=2, k=(0, 2)))
            assert (rep.status, rep.grid) == ("pass", "128x128"), rep.notes

    def test_rank_three_an_aflt_reported_infeasible(self):
        # the evaluator covers n <= 2: refused at once, without a draw
        rep = run_case(sample_case("an_aflt", 0, CFG, n=3))
        assert rep.status == "infeasible"
        assert rep.id == "an_aflt-n3-s0"
        assert rep.notes == "family an_aflt takes n=1 or n=2, not n=3"

    def test_an_selberg_rank_must_match_k(self):
        # the rank is len(k); an n that disagrees would only reseed the
        # draw and give one case id two parameter points
        with pytest.raises(ValueError, match=r"n=3 but k=\(1, 1\)"):
            sample_case("an_selberg", 0, CFG, n=3, k=(1, 1))


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
        pr = case.draw.values
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
        pr = case.draw.values
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


class TestOneDraw:
    """A case holds its parameter point once, as its draw, and both sides
    of its identity read it."""

    def test_replaced_draw_moves_both_sides(self):
        mu = Bipartition.of((1,), ())
        case, other = (sample_case("key_theorem", seed, CFG, mu=mu) for seed in (0, 1))
        case.draw = other.draw
        got, want = run_case(case), run_case(other)
        assert got.params == want.params
        for side in ("lhs", "rhs"):
            g, w = getattr(got, side), getattr(want, side)
            assert abs(g - w) <= 1e-12 * abs(w), (side, g, w)

    def test_assigned_paramset_rebuilds_the_draw(self):
        case = sample_case("an_aflt", 0, CFG, n=1)
        params = sample_case("an_aflt", 1, CFG, n=1).paramset
        assert params != case.paramset
        case.paramset = params
        values = harness._named(params)
        assert case.draw.values == values and case.draw.sets == [params]
        assert case.draw.factors == harness._aflt_factors(1, *case.shapes, False, values)

    def test_assigned_paramset_runs_the_params_checks(self):
        # the pole-violating set, assigned, reads as case_at reads it
        params = pole_violating_set()
        case = sample_case("an_aflt", 0, CFG)
        case.paramset = params
        rep = run_case(case)
        assert rep.status == "infeasible"
        assert rep.notes == case_at("an_aflt", 0, CFG, params).infeasible
        assert rep.notes.startswith("interpolation pole of R_1|0 comp1: b t^(1-1) q^0 p^-1:")

    def test_assigned_paramset_keeps_the_case_sizes(self):
        case = sample_case("an_aflt", 0, CFG, n=1)
        with pytest.raises(ValueError, match="cannot take a set that makes case an_aflt-n2-"):
            case.paramset = sample_case("an_aflt", 0, CFG, n=2).paramset

    def test_kernel_weighted_case_refuses_a_paramset(self):
        case = sample_case("vdBult", 0, CFG)
        with pytest.raises(ValueError, match="family vdBult draws no single parameter set"):
            case.paramset = sample_case("beta_k1", 0, CFG).paramset
        assert case.paramset is None and "x1" in case.draw.values


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
        assert list(data) == [
            "id", "family", "n", "k", "params", "shapes", "grid", "lhs", "rhs", "rel_err",
            "doubling_estimate", "status", "seed", "tol", "runtime_ms", "notes",
        ]
        assert isinstance(data["lhs"], list) and len(data["lhs"]) == 2
        assert all(isinstance(v, list) and len(v) == 2 for v in data["params"].values())
        # an infeasible report's lhs is the float 0.0: still written as a pair
        infeasible = json.loads(reports_to_json([run_case(sample_case("vdBult", 5, CFG))]))[0]
        assert (infeasible["status"], infeasible["lhs"], infeasible["k"]) == ("infeasible", [0.0, 0.0], None)

    def test_csv_row_columns(self):
        from ellsel.harness import CSV_COLUMNS

        rep = run_case(sample_case("beta_k1", 0, CFG))
        row = report_csv_row(rep)
        assert list(row) == CSV_COLUMNS
        assert reports_to_csv([rep]).splitlines()[0] == (
            "id,family,n,k,shapes,grid,lhs_re,lhs_im,rhs_re,rhs_im,rel_err,"
            "doubling_estimate,status,seed,tol,runtime_ms,notes"
        )

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

    def test_pool_reports_infeasible_cases_as_serial(self):
        def without_runtime(reps):
            return [{k: v for k, v in rep.items() if k != "runtime_ms"}
                    for rep in json.loads(reports_to_json(reps))]

        pooled = run_suite("integrals-1d", 6, HarnessConfig(threads=2))
        serial = run_suite("integrals-1d", 6, HarnessConfig(threads=1))
        assert without_runtime(pooled) == without_runtime(serial)
        for reps in (pooled, serial):
            assert {r.id: r.status for r in reps}["vdBult-s5"] == "infeasible"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_suite_raises_budget_error(self, threads):
        with pytest.raises(BudgetError, match="exceeds 20000000 points"):
            run_suite("integrals-1d", 1, HarnessConfig(grid_1d=30_000_000, threads=threads))

    @pytest.mark.parametrize(
        "threads,jobs,cpus,size",
        [(500, 14, 2, 2), (2, 1, 2, 1), (2, 14, 1, 1), (1, 14, 8, 1), (3, 14, 8, 3)],
    )
    def test_pool_size(self, threads, jobs, cpus, size):
        assert pool_size(threads, jobs, cpus) == size


class TestBuilders:
    """A drawn set, a --params file's set and an assigned paramset reach
    their case through one build-and-check step, so all three report
    alike."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_builder_matches_sampler(self, family, tmp_path, capsys):
        if FAMILY_TABLE[family].at is None:
            pfile = tmp_path / "p.json"
            pfile.write_text(sample_case("beta_k1", 0, CFG).paramset.to_json())
            assert main(["case", "--family", family, "--params", str(pfile)]) == 3
            assert f"family {family} takes no --params" in capsys.readouterr().err
            return
        runs = [(opts, {}) for name, opts in SUITES["all"] if name == family]
        if FAMILY_TABLE[family].shapes_option == "shapes":
            # an_kadell takes mu = 0|0 only
            shapes = {"shapes": AFLT_N1_SHAPES[0 if family == "an_kadell" else 2]}
            runs.append(({"n": 1, **shapes}, shapes))
        assert runs
        for options, at_options in runs:
            # a paramset carries the sizes n and k; only shapes are passed on
            for seed in range(3):
                case = sample_case(family, seed, CFG, **options)
                assert case.paramset is not None, case.infeasible
                want = comparable(run_case(case))
                built = case_at(family, seed, CFG, case.paramset, **at_options)
                assert comparable(run_case(built)) == want, case.id
                # a stale draw, contour and note are all replaced
                assigned = replace(case, draw=None, contour=Contour(), infeasible="stale")
                assigned.paramset = case.paramset
                assert comparable(run_case(assigned)) == want, case.id


class TestParamsFiles:
    """Files run through `ellsel case --params`, sized by their own n and k."""

    def run_file(self, capsys, tmp_path, family, params, code=0):
        pfile = tmp_path / "p.json"
        pfile.write_text(params.to_json())
        assert main(["case", "--family", family, "--params", str(pfile)]) == code
        return json.loads(capsys.readouterr().out)[0]

    def test_an_aflt_rank_two_file(self, capsys, tmp_path):
        params = sample_case("an_aflt", 0, CFG, n=2).paramset
        rep = self.run_file(capsys, tmp_path, "an_aflt", params)
        assert (rep["status"], rep["grid"], rep["n"]) == ("pass", "256x256", 2)

    def test_selberg_A1_one_variable_file(self, capsys, tmp_path):
        params = sample_case("beta_k1", 0, CFG).paramset
        rep = self.run_file(capsys, tmp_path, "selberg_A1", params)
        assert (rep["status"], rep["grid"], rep["id"]) == ("pass", "256", "selberg_A1-k1-s0")

    def test_selberg_A1_three_variable_file_follows_the_density_rule(self, capsys, tmp_path):
        phase = cmath.exp
        p, q, t = 0.3 * phase(0.4j), 0.3 * phase(2.1j), 0.75 * phase(-1.3j)
        ts = [0.8 * phase(1j * a) for a in (0.2, 1.7, 2.9, -0.6, -2.2)]
        ts.append(p * q / (t**4 * math.prod(ts)))
        params = ParamSet(1, (3,), p, q, t, tuple(ts))
        rep = self.run_file(capsys, tmp_path, "selberg_A1", params)
        assert (rep["grid"], rep["tol"], rep["id"]) == ("48x48x48", CFG.tol_3d, "selberg_A1-k3-s0")
        assert rep["status"] == "pass"

    def test_selberg_A1_k3_draws_pass(self):
        for seed in range(3):
            rep = run_case(sample_case("selberg_A1", seed, CFG, k=3))
            assert (rep.status, rep.id, rep.grid) == ("pass", f"selberg_A1-k3-s{seed}", "48x48x48")

    def test_aflt_interpolation_pole_infeasible(self, capsys, tmp_path):
        assert str(sample_case("an_aflt", 0, CFG).shapes[0]) == "1|0"
        rep = self.run_file(capsys, tmp_path, "an_aflt", pole_violating_set(), code=2)
        assert rep["status"] == "infeasible"
        assert rep["notes"].startswith("interpolation pole of R_1|0 comp1: b t^(1-1) q^0 p^-1:")
        assert ">= 0.95" in rep["notes"]

    def test_aflt_file_with_several_variables_on_a_level_infeasible(self, capsys, tmp_path):
        params = sample_case("selberg_A1", 0, CFG, k=2).paramset
        rep = self.run_file(capsys, tmp_path, "an_aflt", params, code=2)
        assert rep["status"] == "infeasible"
        assert "needs every k_r = 1, not k=(2,)" in rep["notes"]

    @pytest.mark.parametrize(
        "family,source,message",
        [
            ("beta_k1", ("an_selberg", {}), "family beta_k1 takes n=1, k=(1,); got n=2, k=(1, 1)"),
            ("beta_k1", ("selberg_A1", {}), "family beta_k1 takes n=1, k=(1,); got n=1, k=(2,)"),
            ("selberg_A1", ("an_selberg", {}), "family selberg_A1 takes n=1; got n=2, k=(1, 1)"),
            ("an_hua_kadell", ("an_aflt", {"n": 1}), "family an_hua_kadell takes t_(2n+2) t_(2n+3) = t"),
        ],
    )
    def test_file_the_family_does_not_cover_exit_3(self, tmp_path, capsys, family, source, message):
        pfile = tmp_path / "p.json"
        pfile.write_text(sample_case(source[0], 0, CFG, **source[1]).paramset.to_json())
        assert main(["case", "--family", family, "--params", str(pfile)]) == 3
        assert message in capsys.readouterr().err


class TestParamSetRoundTrip:
    def test_json_roundtrip_through_case(self):
        case = sample_case("an_selberg", 1, CFG, n=2, k=(1, 1))
        blob = case.paramset.to_json()
        assert ParamSet.from_json(blob) == case.paramset

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"branch_tag": 0}, "branch_tag must be +1 or -1, got 0"),
            ({"branch_tag": 2}, "branch_tag must be +1 or -1, got 2"),
            ({"ts": None}, "params file is missing ts; it needs n, k, p, q, t, ts"),
            ({"ts": [0.5] * 8}, "params key ts[0] must be a finite [re, im] pair"),
            ({"p": 0.1}, "params key p must be a finite [re, im] pair"),
            (None, "a params file holds one JSON object"),
        ],
        ids=["branch_tag-0", "branch_tag-2", "missing-ts", "ts-numbers", "p-number", "list"],
    )
    def test_bad_params_file_exit_3(self, tmp_path, capsys, change, message):
        data = sample_case("an_selberg", 1, CFG, n=2, k=(1, 1)).paramset.to_json_dict()
        if change is None:
            data = [data]
        else:
            data = {key: val for key, val in (data | change).items() if val is not None}
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(data))
        assert main(["case", "--family", "an_selberg", "--params", str(pfile)]) == 3
        assert f"error: {message}" in capsys.readouterr().err


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "ellsel.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )

    def test_list(self):
        res = self.run_cli("list")
        assert res.returncode == 0
        for fam in FAMILIES:
            assert fam in res.stdout

    def test_eval_gamma(self):
        res = self.run_cli("eval", "--fn", "gamma", "--args", "z=0.5", "p=0.1", "q=0.2")
        assert res.returncode == 0

    def test_eval_at_a_gamma_pole_exits_3(self):
        res = self.run_cli("eval", "--fn", "gamma", "--args", "z=1", "p=0.1", "q=0.2")
        assert res.returncode == 3
        assert res.stderr.startswith("error: ") and "pole" in res.stderr
        assert "Traceback" not in res.stderr

    def test_eval_names_a_missing_key(self):
        res = self.run_cli("eval", "--fn", "theta", "--args", "p=0.1")
        assert res.returncode == 3
        assert res.stderr.strip() == "error: --fn theta is missing z; it needs z, p"

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

    def test_convergence_stdout_is_the_csv_file(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--family", "beta_k1", "--levels", "2", "--out", str(out)]) == 0
        assert main(["convergence", "--family", "beta_k1", "--levels", "2"]) == 0

        def without_runtime(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        printed = capsys.readouterr().out
        assert printed.startswith("grid,value_re,value_im,doubling_estimate,evals,runtime_ms")
        assert without_runtime(printed) == without_runtime(out.read_text())

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

    def test_explicit_format_overrides_out_suffix(self, tmp_path):
        out = tmp_path / "rep.csv"
        args = ["verify", "--suite", "algebraic", "--seeds", "1", "--out", str(out)]
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(out.read_text())[0]["family"]
        out = tmp_path / "rep.json"
        assert main(args[:-1] + [str(out), "--format", "csv"]) == 0
        assert out.read_text().startswith("id,family")

    def test_out_suffix_decides_without_format(self, tmp_path):
        args = ["verify", "--suite", "algebraic", "--seeds", "1", "--out"]
        assert main(args + [str(tmp_path / "rep.csv")]) == 0
        assert (tmp_path / "rep.csv").read_text().startswith("id,family")
        assert main(args + [str(tmp_path / "rep.txt")]) == 0
        assert json.loads((tmp_path / "rep.txt").read_text())[0]["family"]

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
            ({"threads": 0}, "config key threads must be at least 1, got 0"),
            ({"threads": -2}, "config key threads must be at least 1, got -2"),
            ({"tol_1d": -1}, "config key tol_1d must be positive and finite, got -1"),
            ({"tol_2d": 0}, "config key tol_2d must be positive and finite, got 0"),
            ({"tol_3d": float("inf")}, "config key tol_3d must be positive and finite, got inf"),
            ({"tol_1d": float("nan")}, "config key tol_1d must be positive and finite, got nan"),
            ({"grid_2d": 1}, "config key grid_2d must be at least 2, got 1"),
            ({"grid_1d": 0}, "config key grid_1d must be at least 2, got 0"),
        ],
    )
    def test_bad_config_exit_3(self, tmp_path, config, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        res = self.run_cli("verify", "--suite", "algebraic", "--seeds", "1", "--config", str(cfgfile))
        assert res.returncode == 3
        assert message in res.stderr

    @pytest.mark.parametrize(
        "values,message",
        [
            ({"tol_1d": -1}, "config key tol_1d must be positive and finite, got -1"),
            ({"threads": 0}, "config key threads must be at least 1, got 0"),
            ({"grid_2d": 1}, "config key grid_2d must be at least 2, got 1"),
        ],
    )
    def test_config_built_in_python_checks_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**values)

    @pytest.mark.parametrize("family", ["beta_k1", "equal_k_recursion", "kernel_decomp"])
    def test_shapes_for_family_without_shapes_exit_3(self, family):
        res = self.run_cli("case", "--family", family, "--shapes", "1|0")
        assert res.returncode == 3
        assert f"family {family} takes no --shapes" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "family,shapes,form",
        [("an_aflt", "1|0;1|0;1|0", "lam;mu"), ("vdBult", "1|0;2|0", "mu")],
        ids=["an_aflt", "vdBult"],
    )
    def test_more_shapes_than_the_family_takes_exit_3(self, capsys, family, shapes, form):
        assert main(["case", "--family", family, "--shapes", shapes]) == 3
        assert f"family {family} takes --shapes {form}, got '{shapes}'" in capsys.readouterr().err

    def test_an_kadell_nonzero_mu_exit_3(self, capsys, tmp_path):
        # an_kadell is the mu = 0 average; with another mu the case would be
        # an_aflt's integral filed under an_kadell
        assert main(["case", "--family", "an_kadell", "--shapes", "1|0;1|0", "--seed", "2"]) == 3
        assert "error: family an_kadell takes mu = 0|0, got mu = 1|0" in capsys.readouterr().err
        pfile = tmp_path / "p.json"
        pfile.write_text(sample_case("an_kadell", 2, CFG, n=1).paramset.to_json())
        assert main(["case", "--family", "an_kadell", "--params", str(pfile), "--shapes", "1|0;0|1"]) == 3
        assert "family an_kadell takes mu = 0|0, got mu = 0|1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family,shapes", [("vdBult", "1,1|0"), ("prop_RK", "1,1|0"), ("an_hua_kadell", "0|0;1,1|0")]
    )
    def test_two_row_shape_on_one_variable_exit_3(self, capsys, family, shapes):
        # a plain factor R*_mu(z; a, b) has one variable, so (1,1|0) would
        # make it vanish; an_hua_kadell's mu factor is plain too
        assert main(["case", "--family", family, "--shapes", shapes]) == 3
        assert "factor R*_1,1|0(z; a, b) takes one row per component" in capsys.readouterr().err

    def test_key_theorem_takes_a_two_row_mu(self):
        # its hybrid factor has the variables z, v1 and v2
        rep = run_case(sample_case("key_theorem", 0, mu=Bipartition.of((1, 1), ())))
        assert rep.status == "pass", rep.notes

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
            (["verify", "--threads", "0"], "--threads"),
            (["verify", "--threads", "-1"], "--threads"),
            (["verify", "--tol", "inf"], "--tol"),
            (["case", "--family", "beta_k1", "--tol", "inf"], "--tol"),
        ],
    )
    def test_bad_numeric_flag_exit_3(self, capsys, argv, flag):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_env_below_one_exit_3(self, monkeypatch, capsys, value):
        monkeypatch.setenv("ELLSEL_THREADS", value)
        assert main(["verify", "--suite", "algebraic", "--seeds", "1"]) == 3
        assert f"error: ELLSEL_THREADS must be at least 1, got {value}" in capsys.readouterr().err

    def test_threads_env_not_integer_exit_3(self, monkeypatch, capsys):
        monkeypatch.setenv("ELLSEL_THREADS", "abc")
        assert main(["verify", "--suite", "algebraic", "--seeds", "1"]) == 3
        assert "error: ELLSEL_THREADS must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["case", "--family", "beta_k1", "--grid", "30000000"],
            ["verify", "--suite", "integrals-1d", "--seeds", "1", "--grid", "30000000",
             "--threads", "1"],
            ["verify", "--suite", "integrals-1d", "--seeds", "1", "--grid", "30000000",
             "--threads", "2"],
        ],
    )
    def test_grid_over_max_points_exit_3(self, capsys, argv):
        assert main(argv) == 3
        assert "error: grid (30000000,) exceeds 20000000 points" in capsys.readouterr().err

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


class TestGiveUpNotes:
    def test_equal_k_s19_passes(self):
        # the hand windows gave up on this seed after 600 tries; the
        # polytope has a torus set, and its draw passes
        rep = run_case(sample_case("equal_k_recursion", 19))
        assert (rep.status, rep.id) == ("pass", "equal_k-0|1-0|1-s19"), rep.notes

    @pytest.mark.parametrize("family", ["vdBult", "key_theorem", "prop_RK"])
    def test_mixed_shape_refused_before_any_draw(self, monkeypatch, family):
        # mu = (1|1): the LP certifies the polytope empty, naming the cross
        # row pole among its binding bounds, and no draw is taken
        def no_draw(*args):
            raise AssertionError("drew from an empty polytope")

        monkeypatch.setattr(harness.SelbergPolytope, "draw", no_draw)
        case = sample_case(family, 0, mu=Bipartition.of((1,), (1,)))
        note = case.infeasible
        assert note.startswith(f"no parameter set for {family}-1|1-s0: the log-modulus polytope is empty")
        assert "cross row 1: b t^(1-1) p^-1 q^-1" in note and note.endswith("cannot hold together")
        assert case.id == f"{family}-s0"
