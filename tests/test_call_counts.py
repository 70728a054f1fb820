"""Call counts: a product of gamma factors is one elliptic gamma
evaluation, a sum of Delta0 symbols over many shapes is one theta call
per component, however many factors or shapes (a binomial table solve,
endpoints and holdout rows included, is one such call per attempt), and
every kernel-weighted draw passes through densities.contour_feasibility,
which accepts the very sets its evaluator integrates.  A binomial table
is solved only when an interior coefficient is read: endpoint reads and
nu = 0 columns come from their closed forms."""

import numpy as np
import pytest

from ellsel import binomials, core, densities, harness, kernel, symbols
from ellsel.core import NomePair, elliptic_gamma, elliptic_gamma_multi
from ellsel.densities import IntegrandDescriptor, vertex_unary_fn
from ellsel.interpolation import interp_skew
from ellsel.partitions import ZERO, Bipartition, sub_bipartitions
from ellsel.symbols import SymbolContext

NOMES = NomePair(0.2, 0.3 + 0.1j)


def counting(monkeypatch, module, name) -> list:
    """Replace module.name with a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_vertex_unary_factor_is_one_gamma_evaluation(monkeypatch):
    ts = (0.3, 0.4j, -0.5, 0.35 + 0.2j, 0.25 - 0.1j, 0.6)
    fn = vertex_unary_fn(ts, 0.45, NOMES)
    z = np.exp(2j * np.pi * (np.arange(64) + 0.25) / 64)
    calls = counting(monkeypatch, core, "_log_gamma")
    vals = fn(z)
    assert len(calls) == 1
    assert vals.shape == z.shape and np.all(np.isfinite(vals))


def test_density_tables_on_circles_make_no_grid_sized_gamma_call(monkeypatch):
    # every density factor evaluates its circles by FFT, so building the
    # tables of the 256^2 grid calls no pointwise gamma on a grid-sized
    # array, and the pair table is its two 256-point circles
    params = harness.sample_case("an_selberg", 0, n=2, k=(1, 1)).paramset
    integrand = IntegrandDescriptor(params).build()
    calls = counting(monkeypatch, core, "_log_gamma")
    tables = integrand.values(256, 0.5 * np.pi / 256)
    assert len(tables) == 3 and tables[2][0].at_prod.shape == tables[2][0].at_ratio.shape == (256,)
    assert all(np.size(args[0]) < 256 for args in calls)


def test_kernel_k2_inner_circle_makes_no_grid_sized_gamma_call(monkeypatch):
    # the inner one-pair kernel enters the Dixon factor as two more
    # parameters, so both branches' 128-point circles come from one FFT
    pr = harness.sample_case("kernel_consistency", 0, variant="c_factor").draw.values
    ctx = SymbolContext(NomePair(pr["p"], pr["q"]), pr["t"])
    calls = counting(monkeypatch, core, "_log_gamma")
    kernel.kernel_k2((pr["x1"], pr["x2"]), (pr["y1"], pr["y2"]), pr["c"], ctx, inner_grid=128)
    assert calls and all(np.size(args[0]) < 128 for args in calls)


def test_rank_three_edge_table_is_computed_once_per_grid(monkeypatch):
    # both edges of a k = (1, 1, 1) integrand share one factor function,
    # so values evaluates its product and ratio circles once
    params = harness.sample_case("an_selberg", 0, n=3, k=(1, 1, 1)).paramset
    integrand = IntegrandDescriptor(params).build()
    assert [(vi, vj) for vi, vj, _ in integrand.pairs] == [(0, 1), (1, 2)]
    edge = integrand.pairs[0][2]
    assert integrand.pairs[1][2] is edge
    calls = counting(monkeypatch, densities, "elliptic_gamma_circle")
    phase = 0.5 * np.pi / 48
    integrand.values(48, phase)
    assert [args[2] for args in calls if args[0] == edge.args] == [2.0 * phase, 0.0]


def test_gamma_product_is_one_gamma_evaluation(monkeypatch):
    zs = [0.3, 0.4 - 0.1j, 1.7, 0.05j, 2.5 + 1.0j, -0.8]
    want = np.prod([elliptic_gamma(z, NOMES) for z in zs])
    calls = counting(monkeypatch, core, "_log_gamma")
    got = elliptic_gamma_multi(zs, NOMES)
    assert len(calls) == 1
    assert abs(got - want) <= 1e-13 * abs(want)


def test_failing_gamma_product_still_names_its_factor(monkeypatch):
    calls = counting(monkeypatch, core, "_log_gamma")
    with pytest.raises(core.PoleError, match="factor 2"):
        elliptic_gamma_multi([0.3, 0.4, 1.0, 0.5], NOMES)
    assert len(calls) == 1 + 3  # the batch, then factors 0..2 one by one


TABLE_CTX = SymbolContext(NomePair(0.1, 0.2), 0.25)
TABLE_A, TABLE_B = 0.45 + 0.1j, 0.6 - 0.2j


@pytest.mark.parametrize(
    "lam",
    [Bipartition.of((2,), (1,)), Bipartition.of((2, 1), (1, 1)), Bipartition.of((2, 1), ())],
    ids=str,
)
def test_table_solve_takes_one_theta_call_per_component_per_attempt(monkeypatch, lam):
    # an attempt's rows are Delta0_lam on the right side plus Delta0_mu(a/b
    # | ...) for every mu inside lam on the left, its holdout rows the
    # same, and its endpoints Delta0_lam(a | b) and C+_lam at (a, a/b):
    # one grouped call, one theta call per nonempty component, for 4
    # interior shapes as for 13
    calls = counting(monkeypatch, symbols, "theta")
    table = binomials.solve_binomial_table(lam, TABLE_A, TABLE_B, TABLE_CTX)
    assert len(sub_bipartitions(lam)) in (5, 6, 15)
    assert table.resamples == 0
    assert len(calls) == sum(1 for part in (lam.first, lam.second) if part.size)


def test_resampled_table_takes_one_theta_call_per_component_per_attempt(
    monkeypatch, ill_conditioned
):
    ill_conditioned(1)
    calls = counting(monkeypatch, symbols, "theta")
    table = binomials.solve_binomial_table(Bipartition.of((2,), (1,)), TABLE_A, TABLE_B, TABLE_CTX)
    assert table.resamples == 1
    assert len(calls) == 2 * 2  # two nonempty components, two attempts


def test_bracketed_row_takes_one_theta_call_per_component(monkeypatch):
    # the bracket ratio Delta0_lam(a | v) / Delta0_mu(a/b | v) of every
    # live mu comes from one grouped call once the table is solved
    lam = Bipartition.of((2, 1), (1,))
    cache = binomials.TableCache()
    table = cache.get(lam, TABLE_A, TABLE_B, TABLE_CTX)
    bracket = (0.7 - 0.1j, 0.35j)
    calls = counting(monkeypatch, symbols, "theta")
    mus = sub_bipartitions(lam)
    row = binomials.binomial_row(lam, mus, TABLE_A, TABLE_B, TABLE_CTX, cache, bracket)
    assert len(calls) == 2
    num = symbols.delta0_bi(lam, TABLE_A, list(bracket), TABLE_CTX)
    for mu, val in zip(mus, row):
        den = symbols.delta0_bi(mu, TABLE_A / TABLE_B, list(bracket), TABLE_CTX)
        assert val == table[mu] * num / den


@pytest.mark.parametrize(
    "lam", [ZERO, Bipartition.of((1,), ()), Bipartition.of((1,), (1,)), Bipartition.of((2, 1), (1,))], ids=str
)
@pytest.mark.parametrize("bracket", [(), (0.7 - 0.1j, 0.35j)], ids=["plain", "bracketed"])
def test_endpoint_row_solves_no_table(monkeypatch, lam, bracket):
    # <lam over 0> and <lam over lam> have closed forms; a mu outside lam
    # reads zero without a table either
    calls = counting(monkeypatch, binomials, "solve_binomial_table")
    outside = Bipartition.of((3,), ())
    mus = [ZERO, lam, outside, lam]
    row = binomials.binomial_row(lam, mus, TABLE_A, TABLE_B, TABLE_CTX, binomials.TableCache(), bracket)
    assert calls == [] and row[2] == 0.0


def test_skew_with_empty_nu_solves_only_its_outer_table(monkeypatch):
    # every inner <mu over 0> is a closed form, from one Delta0 call
    lam = Bipartition.of((2,), (1,))
    calls = counting(monkeypatch, binomials, "solve_binomial_table")
    vs = (0.7 - 0.1j, 0.35j, 0.5 + 0.2j, 0.6)
    interp_skew(lam, ZERO, vs, TABLE_A, TABLE_B, TABLE_CTX, binomials.TableCache())
    assert [args[0] for args in calls] == [lam]


@pytest.mark.parametrize("seed, solves", [(0, 13), (1, 15), (2, 16)])
def test_algebraic_pass_table_solve_count(monkeypatch, seed, solves):
    # pinned at the solves one pass needs, none of them for an endpoint
    # alone: a change that solves a table for an endpoint again fails
    # here, with no timing run
    calls = counting(monkeypatch, binomials, "solve_binomial_table")
    harness.algebraic_checks(seed)
    assert len(calls) == solves


@pytest.mark.parametrize(
    "family, options",
    [
        ("vdBult", {}),
        ("key_theorem", {}),
        ("prop_RK", {}),
        ("kernel_decomp", {"variant": "theorem"}),
        ("kernel_decomp", {"variant": "corollary"}),
        ("prop_xselberg_base", {"variant": "base"}),
        ("prop_xselberg_base", {"variant": "recursion"}),
        ("equal_k_recursion", {}),
    ],
    ids=lambda v: v.get("variant", "") if isinstance(v, dict) else v,
)
def test_kernel_weighted_draw_runs_the_density_check(monkeypatch, family, options):
    # the accepted draw is the last one checked, and it passes
    calls = counting(monkeypatch, harness, "contour_feasibility")
    case = harness.sample_case(family, 0, **options)
    assert case.infeasible is None and calls
    (params,) = calls[-1]
    assert (params.p, params.q, params.t) == tuple(case.draw.values[key] for key in "pqt")
    accepted = {params for (params,) in calls if densities.contour_feasibility(params).ok}
    assert params in accepted

    # every set the evaluator integrates is one the sampler accepted:
    # equal_k's rank-two set and its right side's rank-one set, one set
    # for each other path
    integrated = []

    def recording(density, **kwargs):
        integrated.append(density)
        return IntegrandDescriptor(density, **kwargs)

    monkeypatch.setattr(harness, "IntegrandDescriptor", recording)
    assert harness.run_case(case).status == "pass"
    assert len(set(integrated)) == (2 if family == "equal_k_recursion" else 1)
    assert set(integrated) <= accepted
