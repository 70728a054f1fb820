"""Contour-placement findings: interpolation-weighted integrands and
the residue-corrected contour of the rank-two k = (1, 2) density.

A bipartition with boxes in both components leaves a net reciprocal
pole pair at b/(pq) and pq/b in the integrand (the density's single
Gamma(b z^+-) zero cancels only one of the two theta-denominator zeros).
The kernel-derivation contour must enclose b/(pq) while excluding its
reciprocal, which no BC-symmetric circle can do, so the unit torus is
never a valid contour for such shapes.  These tests pin both halves of
that statement: the identity holds on the residue-corrected contour,
and the feasibility machinery diagnoses the obstruction.

At rank two with k = (1, 2) the balancing gives |t1/c| |t2/c| =
1/|t5 t6 t7 t8| > 1, so a level-1 vertex tower always lies outside the
unit circle.  The contour-aware check turns each such tower into a
residue term; the tests below check the corrected value against the
closed form, the closed-form residue against a small-ring residue, and
the towers that stay diagnosed.

Hand-built rank-three sets check the closed form at n = 3, on the torus
and with one residue term, and run through `ellsel case --params`.
"""

import cmath
import json
import math

import numpy as np
import pytest

from ellsel.binomials import TableCache
from ellsel.cli import main
from ellsel.core import NomePair, elliptic_gamma, elliptic_gamma_multi
from ellsel.densities import (
    IntegrandDescriptor,
    ParamSet,
    an_density,
    an_selberg_rhs,
    contour_feasibility,
    feasibility_check,
    kappa,
    residue_constant,
    selberg_average_normalizer,
    vertex_unary_fn,
)
from ellsel.harness import HarnessConfig, run_case, sample_case
from ellsel.interpolation import interp_nonskew, pole_map
from ellsel.partitions import Bipartition
from ellsel.quadrature import GridSpec, TorusFactorizedIntegrand, integrate_torus
from ellsel.symbols import SymbolContext, delta0_bi
from oracles import expand_tables

MIXED = Bipartition.of((1,), (1,))


def test_mixed_shape_cross_pole_listed():
    ctx = SymbolContext(NomePair(0.3, 0.32), 0.11)
    b = 0.28 + 0.04j
    cross = [loc for loc, label in pole_map(MIXED, b, ctx.t, ctx.p, ctx.q) if "cross" in label]
    assert len(cross) == 1
    assert abs(cross[0] - b / (0.3 * 0.32)) < 1e-14


def test_mixed_shape_reported_infeasible():
    rep = run_case(sample_case("vdBult", 5, HarnessConfig(), mu=MIXED))
    assert rep.status == "infeasible"


def test_mixed_shape_identity_holds_on_corrected_contour():
    # Rebuild the torus-infeasible mixed case by hand and verify the
    # closed form against the quadrature corrected by the two residues
    # of the crossing pole pair.
    rng = np.random.default_rng(2024)

    def draw(lo, hi):
        return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())

    p, q = draw(0.29, 0.33), draw(0.29, 0.33)
    t = draw(0.1, 0.115)
    t2 = draw(0.26, 0.3)
    t1, t3 = draw(0.72, 0.78), draw(0.72, 0.78)
    t4 = t / (t1 * t2 * t3)
    c = np.sqrt(p * q / t)
    assert abs(t4) < 0.95 and abs(c) < 0.95
    x1 = np.exp(0.77j)
    ctx = SymbolContext(NomePair(p, q), t)
    cache = TableCache()
    unary = vertex_unary_fn((t1, t2, t3, t4, c * x1, c / x1), t, ctx.nomes)
    kap = kappa(1, ctx.nomes)

    def f(z):
        return kap * unary(z) * interp_nonskew(MIXED, (z,), t1, t2, ctx, cache)

    torus = integrate_torus(
        TorusFactorizedIntegrand(nvars=1, unary=[(0, f)]), GridSpec((768,))
    ).value

    def ring_residue(center, radius=1e-3, npts=4096):
        th = 2 * np.pi * np.arange(npts) / npts + 0.37 / npts
        z = center + radius * np.exp(1j * th)
        return complex(np.mean(f(z) * radius * np.exp(1j * th) / z))

    corrected = torus + ring_residue(t2 / (p * q)) - ring_residue(p * q / t2)

    rhs = interp_nonskew(MIXED, (x1,), c * t1, c * t2, ctx, cache)
    rhs *= delta0_bi(MIXED, t1 / t2, [t1 * t3, t1 * t4], ctx)
    gargs = []
    tl = (t1, t2, t3, t4)
    for r in range(4):
        for s in range(r + 1, 4):
            gargs.append(tl[r] * tl[s])
        gargs += [c * tl[r] * x1, c * tl[r] / x1]
    rhs *= elliptic_gamma_multi(gargs, ctx.nomes)

    assert abs(corrected - rhs) / abs(rhs) < 1e-10
    # and the torus alone is NOT the right contour here
    assert abs(torus - rhs) / abs(rhs) > 1e-2


def _phases(seed):
    rng = np.random.default_rng(seed)
    return lambda: cmath.exp(2j * math.pi * rng.uniform())


def _hand_built_k12(seed):
    """Balanced k = (1, 2) set: |p| = |q| = 0.3, |t| = 0.7,
    |t1/c| = |t2/c| = 2 and every other |t_i| near 0.72, random phases."""
    phase = _phases(seed)
    p, q, t = 0.3 * phase(), 0.3 * phase(), 0.7 * phase()
    c = cmath.sqrt(p * q / t)
    t1, t2 = 2 * abs(c) * phase(), 2 * abs(c) * phase()
    t3, t5, t6, t7 = (0.72 * phase() for _ in range(4))
    t8 = p * q / (t * t1 * t2 * t5 * t6 * t7)
    t4 = t1 * t2 / t3
    return ParamSet(2, (1, 2), p, q, t, (t1, t2, t3, t4, t5, t6, t7, t8))


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_k12_needs_residue_terms_for_both_level1_towers():
    params = _hand_built_k12(0)
    assert not feasibility_check(params).ok
    feas = contour_feasibility(params)
    assert feas.ok, feas.violations
    assert [(r.level, r.index) for r in feas.contour.residues] == [(1, 0), (1, 1)]
    assert "vertex r=1 parameter 1" in feas.contour.describe()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k12_corrected_contour_matches_closed_form(seed):
    params = _hand_built_k12(seed)
    contour = contour_feasibility(params).contour
    descriptor = IntegrandDescriptor(params)
    grid = GridSpec((48, 48, 48))
    corrected = integrate_torus(descriptor.build_on(contour), grid).value
    torus = integrate_torus(descriptor.build(), grid).value
    rhs = an_selberg_rhs(params)
    assert _rel(corrected, rhs) <= 1e-10
    assert _rel(torus, rhs) > 1e-2


def test_residue_constant_is_the_gamma_pole_residue():
    # (1 - x) Gamma(x) is analytic at x = 1; the symmetric mean of two
    # points 1e-5 away cancels its linear term.
    nomes = NomePair(0.3 * cmath.exp(1j), 0.28 * cmath.exp(-2j))
    eps = 1e-5

    def g(x):
        return (1 - x) * elliptic_gamma(x, nomes)

    assert _rel((g(1 - eps) + g(1 + eps)) / 2, residue_constant(nomes)) < 1e-9


def test_closed_form_residue_matches_small_ring():
    # The residue-term integrand at one torus point (w1, w2) of level 2
    # against Res_{z=u} - Res_{z=1/u} of the reference point density,
    # each residue taken as the mean of f(z) (z - z0) / z on a small ring.
    params = _hand_built_k12(0)
    term = contour_feasibility(params).contour.residues[0]
    n, phase = 4, 0.3
    closed = expand_tables(IntegrandDescriptor(params).build(pinned=term), n, phase)
    w = np.exp(1j * (2 * np.pi * np.arange(n) / n + phase))
    level2 = (w[1], w[2])

    def ring_residue(center, radius=1e-3, npts=64):
        th = 2 * np.pi * np.arange(npts) / npts + 0.37 / npts
        z = center + radius * np.exp(1j * th)
        f = an_density(((z,), level2), params)
        return complex(np.mean(f * radius * np.exp(1j * th) / z))

    at_u, at_inverse = ring_residue(term.base), ring_residue(1 / term.base)
    assert _rel(at_u - at_inverse, closed[1, 2]) < 1e-10
    # inversion symmetry: the two residues are negatives of each other
    assert _rel(-at_inverse, at_u) < 1e-10


def _rank_one_with_t1(modulus):
    """Balanced rank-one set with |t1| = modulus, t6 solved."""
    phase = _phases(7)
    p, q, t = 0.15 * phase(), 0.2 * phase(), 0.3 * phase()
    t1 = modulus * phase()
    t2, t3, t4, t5 = (0.45 * phase() for _ in range(4))
    t6 = p * q / (t1 * t2 * t3 * t4 * t5)
    return ParamSet(1, (1,), p, q, t, (t1, t2, t3, t4, t5, t6))


def test_rank_one_residue_term_matches_closed_form():
    # A single-variable level with nothing left to integrate: the
    # residue term is a number, and torus plus residues is the integral.
    params = _rank_one_with_t1(1.5)
    feas = contour_feasibility(params)
    assert feas.ok, feas.violations
    integrand = IntegrandDescriptor(params).build_on(feas.contour)
    value = integrate_torus(integrand, GridSpec((256,))).value
    rhs = selberg_average_normalizer(1, params.ts, params.t, params.nomes)
    assert _rel(value, rhs) < 1e-10


def test_tower_in_margin_band_stays_infeasible():
    params = _rank_one_with_t1(1.02)
    feas = contour_feasibility(params)
    assert not feas.ok
    assert not feas.contour.residues
    named = [v for v in feas.violations if v.startswith("vertex r=1 parameter 1")]
    assert named and all("margin band" in v for v in named)


def test_forced_crossing_on_two_variable_level_stays_infeasible():
    # k = (0, 2) with |t|^2 < |pq|: the level-2 balancing gives
    # |t3 t4| = |pq| / (|t|^2 |t5 t6 t7 t8|) > 1, so a level-2 tower
    # crosses, and level 2 carries two variables: no residue term covers
    # it.  Every level-1 tower stays inside the circle.
    phase = _phases(3)
    p, q, t = 0.35 * phase(), 0.35 * phase(), 0.25 * phase()
    t5, t6, t7, t8 = (0.8 * phase() for _ in range(4))
    tail = t5 * t6 * t7 * t8
    t1, t3 = 0.55 * phase(), 0.9 * phase()
    t2 = p * q / (t1 * tail)
    t4 = p * q / (t**2 * t3 * tail)
    params = ParamSet(2, (0, 2), p, q, t, (t1, t2, t3, t4, t5, t6, t7, t8))
    assert all(abs(v) < 0.95 for v in params.vertex_params(1))
    feas = contour_feasibility(params)
    assert not feas.ok
    assert feas.violations
    assert all(v.startswith("vertex r=2 parameter 2") for v in feas.violations)
    assert all("level 2 carries 2 variables" in v for v in feas.violations)


def test_residue_terms_on_two_levels_need_a_double_residue():
    # k = (1, 1) with a correctable crossing on each level: |t1/c| = 2 on
    # level 1 and |t5| = 2 on level 2.  Each residue term's integrand
    # still crosses the other term's tower, which only a double residue
    # would cover.
    phase = _phases(3)
    p, q, t = 0.3 * phase(), 0.3 * phase(), 0.5 * phase()
    c = cmath.sqrt(p * q / t)
    t1, t5 = 2 * abs(c) * phase(), 2 * phase()
    t6, t7, t8 = (0.63 * phase() for _ in range(3))
    tail = t5 * t6 * t7 * t8
    t3 = 0.3 * phase()
    t2 = p * q / (t1 * tail)
    t4 = p * q * t / (t3 * tail)
    params = ParamSet(2, (1, 1), p, q, t, (t1, t2, t3, t4, t5, t6, t7, t8))
    torus = feasibility_check(params).violations
    assert [v.split(":")[0] for v in torus] == [
        "vertex r=1 parameter 1",
        "vertex r=2 parameter 3",
    ]
    feas = contour_feasibility(params)
    assert not feas.ok
    assert not feas.contour.residues
    assert len(feas.violations) == 2
    assert all("needs a double residue" in v for v in feas.violations)
    assert any(
        v.startswith("residue term at vertex r=1 parameter 1: vertex r=2 parameter 3")
        for v in feas.violations
    )
    assert any(
        v.startswith("residue term at vertex r=2 parameter 3: vertex r=1 parameter 1")
        for v in feas.violations
    )


def test_residue_term_towers_are_rechecked():
    # |t1| = 0.97: the level-1 tower t1/c is correctable, but its residue
    # term leaves the tower c u = t1 on level 2 inside the margin band.
    phase = _phases(5)
    p, q, t = 0.3 * phase(), 0.3 * phase(), 0.7 * phase()
    c = cmath.sqrt(p * q / t)
    t1, t2 = 0.97 * phase(), 2 * abs(c) * phase()
    t3, t5, t6, t7 = 0.85 * phase(), *(0.72 * phase() for _ in range(3))
    t8 = p * q / (t * t1 * t2 * t5 * t6 * t7)
    params = ParamSet(2, (1, 2), p, q, t, (t1, t2, t3, t1 * t2 / t3, t5, t6, t7, t8))
    feas = contour_feasibility(params)
    assert not feas.ok
    assert feas.violations
    assert all(
        v.startswith("residue term at vertex r=1 parameter 1: edge r=2 parameter c u")
        for v in feas.violations
    )


def test_level_without_variables_has_no_vertex_towers():
    # k = (0, 1): level 1 carries no variable, so its towers are not
    # poles of the integrand, and the closed form does not depend on
    # them.  Here |t1/c| = 2 is the only torus condition they would
    # break; the set is feasible on the bare torus.
    phase = _phases(11)
    p, q, t = 0.3 * phase(), 0.3 * phase(), 0.5 * phase()
    c = cmath.sqrt(p * q / t)
    t5, t6, t7, t8 = (0.7 * phase() for _ in range(4))
    tail = t5 * t6 * t7 * t8
    t1, t3 = 2 * abs(c) * phase(), 0.6 * phase()
    t2, t4 = p * q * t / (t1 * tail), p * q / (t3 * tail)
    params = ParamSet(2, (0, 1), p, q, t, (t1, t2, t3, t4, t5, t6, t7, t8))
    assert abs(params.vertex_params(1)[0]) > 1.05
    assert feasibility_check(params).ok
    feas = contour_feasibility(params)
    assert feas.ok and not feas.contour.residues
    value = integrate_torus(IntegrandDescriptor(params).build(), GridSpec((256,))).value
    assert _rel(value, an_selberg_rhs(params)) < 1e-10


def hand_built_rank_three(seed, level1=None):
    """Balanced n = 3, k = (1, 1, 1) set: |p| = |q| = 0.35, |t| = 0.18,
    |t7..t10| = 0.78, random phases.  The level-1 pair t1, t2 splits
    |t1 t2| = |pq| / |t7 t8 t9 t10| evenly unless |t1| = level1 is given;
    t3 .. t6 split their pairs evenly.  Every vertex tower then lies
    inside 0.85, and |c| = 0.825."""
    phase = _phases(seed)
    p, q, t = 0.35 * phase(), 0.35 * phase(), 0.18 * phase()
    t7, t8, t9, t10 = (0.78 * phase() for _ in range(4))
    tail = t7 * t8 * t9 * t10
    t1 = (level1 or abs(cmath.sqrt(p * q / tail))) * phase()
    pair = abs(cmath.sqrt(p * q * t / tail))
    t3, t5 = pair * phase(), pair * phase()
    ts = (t1, p * q / (tail * t1), t3, p * q * t / (tail * t3), t5, p * q * t / (tail * t5))
    return ParamSet(3, (1, 1, 1), p, q, t, ts + (t7, t8, t9, t10))


def test_rank_three_torus_set_matches_closed_form():
    params = hand_built_rank_three(0)
    assert feasibility_check(params).ok
    value = integrate_torus(IntegrandDescriptor(params).build(), GridSpec((96, 96, 96))).value
    assert _rel(value, an_selberg_rhs(params)) < 1e-10


def test_rank_three_residue_term_matches_closed_form():
    # |t1| = 0.75 puts the level-1 tower t1/c^2 at |u| = 1.10, outside
    # the circle, while its residue term's edge tower c u = t1/c stays
    # at 0.91, inside the margin.
    params = hand_built_rank_three(0, level1=0.75)
    feas = contour_feasibility(params)
    assert feas.ok, feas.violations
    assert [(r.level, r.index) for r in feas.contour.residues] == [(1, 0)]
    integrand = IntegrandDescriptor(params).build_on(feas.contour)
    value = integrate_torus(integrand, GridSpec((96, 96, 96))).value
    assert _rel(value, an_selberg_rhs(params)) < 1e-6


def test_rank_three_params_file_runs(tmp_path, capsys):
    pfile = tmp_path / "n3.json"
    pfile.write_text(hand_built_rank_three(0).to_json())
    assert main(["case", "--family", "an_selberg", "--params", str(pfile)]) == 0
    rep = json.loads(capsys.readouterr().out)[0]
    assert (rep["status"], rep["grid"], rep["n"], rep["k"]) == ("pass", "48x48x48", 3, [1, 1, 1])
    assert rep["id"] == "an_selberg-n3k111-s0"
    assert "no sampling windows" not in rep["notes"]


def test_infeasible_params_file_reports_its_parameters(tmp_path, capsys):
    # |t1| = 1.016 |c|^2 puts the level-1 tower t1/c^2 into the margin
    # band, where no residue term applies.
    params = hand_built_rank_three(0, level1=1.016 * 0.35**2 / 0.18)
    pfile = tmp_path / "n3.json"
    pfile.write_text(params.to_json())
    assert main(["case", "--family", "an_selberg", "--params", str(pfile)]) == 2
    rep = json.loads(capsys.readouterr().out)[0]
    assert (rep["status"], rep["grid"], rep["n"], rep["k"]) == ("infeasible", "48x48x48", 3, [1, 1, 1])
    assert rep["params"]["t1"] == [params.ts[0].real, params.ts[0].imag]
    assert len(rep["params"]) == 14
    assert "vertex r=1 parameter 1" in rep["notes"] and "margin band" in rep["notes"]
