"""Tests for the log-modulus polytope: its Chebyshev LP against an
independent solver, the empty polytopes it certifies, and the draws the
samplers take from it, of the ParamSet families and of the
kernel-weighted ones."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ellsel import harness
from ellsel.densities import INWARD_CAP, contour_feasibility
from ellsel.harness import evaluate_case, sample_case
from ellsel.partitions import ZERO, Bipartition
from ellsel.polytope import Plan, SelbergPolytope, chebyshev_centre, selberg_plan

# the (n, k) table of ROADMAP item 1
TABLE = [
    (1, (1,)), (1, (2,)), (1, (3,)), (2, (1, 1)), (2, (0, 2)), (3, (1, 1, 1)),
    (4, (1, 1, 1, 1)), (6, (1,) * 6), (8, (1,) * 8),
    (2, (1, 2)), (2, (2, 2)), (3, (1, 1, 2)), (3, (1, 2, 2)), (3, (1, 2, 3)),
]


# each kernel-weighted family and variant, by its sampler options
KERNEL_WEIGHTED = [
    ("vdBult", {"mu": Bipartition.of((2,), ())}), ("key_theorem", {"mu": Bipartition.of((), (1,))}),
    ("prop_RK", {"mu": Bipartition.of((1,), ())}), ("kernel_decomp", {"variant": "theorem"}),
    ("kernel_decomp", {"variant": "corollary"}), ("prop_xselberg_base", {"variant": "base"}),
    ("prop_xselberg_base", {"variant": "recursion"}), ("equal_k_recursion", {}),
]


# the interpolation-average families, each with a shape that has boxes
AFLT = [
    ("an_aflt", {"n": 1, "shapes": (Bipartition.of((2,), ()), Bipartition.of((1,), ()))}),
    ("an_aflt", {"n": 2, "shapes": (Bipartition.of((), (1,)), Bipartition.of((), (1,)))}),
    ("an_kadell", {"n": 1, "shapes": (Bipartition.of((1,), ()), ZERO)}),
    ("an_hua_kadell", {"n": 1, "shapes": (Bipartition.of((1,), ()), Bipartition.of((1,), ()))}),
]


def _id(family, options):
    return "-".join([family] + [";".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in options.values()])


def _polytope(n, k, rho=INWARD_CAP, hua=False, crossed=False):
    return SelbergPolytope(selberg_plan(n, k, hua), rho, crossed)


def _sampler_plan(monkeypatch, family, options):
    """The plan a sampler draws from at seed 3."""
    plans = []

    def recording(plan, rho, crossed):
        plans.append(plan)
        return SelbergPolytope(plan, rho, crossed)

    monkeypatch.setattr(harness, "SelbergPolytope", recording)
    sample_case(family, 3, **options)
    return plans[0]


@pytest.mark.parametrize("rho", [INWARD_CAP, 0.8])
@pytest.mark.parametrize(
    "n,k,hua",
    [(n, k, False) for n, k in TABLE] + [(2, (1, 1), True), (3, (1, 1, 1), True)]
    + [pytest.param(f, o, False, id=_id(f, o)) for f, o in KERNEL_WEIGHTED + AFLT],
)
def test_centre_radius_matches_linprog(n, k, hua, rho, monkeypatch):
    # n, k name a sampler with interpolation factors and its options in
    # the last entries
    optimize = pytest.importorskip("scipy.optimize")
    if isinstance(n, str):
        poly = SelbergPolytope(_sampler_plan(monkeypatch, n, k), rho, False)
    else:
        poly = _polytope(n, k, rho, hua)
    G, h = poly.G, poly.h
    g = np.linalg.norm(G, axis=1)
    res = optimize.linprog(
        np.r_[np.zeros(G.shape[1]), -1.0], A_ub=np.c_[G, g], b_ub=h,
        bounds=[(None, None)] * (G.shape[1] + 1), method="highs",
    )
    assert res.status == 0
    assert abs(poly.radius - (-res.fun)) <= 1e-9
    if poly.radius > 0:
        assert np.all(G @ poly.centre + poly.radius * g <= h + 1e-9)


@pytest.mark.parametrize("n,k,hua", [(2, (1, 2), False), (2, (1, 1), True)])
def test_torus_polytope_certified_empty(n, k, hua):
    # k = (1, 2): |t1/c| |t2/c| = 1 / |t5 t6 t7 t8| > 1.  The hua
    # constraint at rank two leaves no torus set either.
    poly = _polytope(n, k, hua=hua)
    assert poly.radius < 0
    assert "cannot hold together" in poly.why_empty()


def test_k12_crossed_polytope_draws_need_both_level_one_residue_terms():
    poly = _polytope(2, (1, 2), 0.78, crossed=True)
    assert poly.radius > 0
    rng = np.random.default_rng(3)
    for _ in range(3):
        feas = contour_feasibility(poly.draw(rng).sets[0])
        assert feas.ok, feas.violations
        assert [(r.level, r.index) for r in feas.contour.residues] == [(1, 0), (1, 1)]


def test_walked_value_without_bounds_refused():
    # a walked value in no row would leave the LP unbounded and drift
    # along every hit-and-run line
    plan = selberg_plan(1, (1,))
    loose = Plan(plan.name, plan.walked + ("v",), plan.phased + ("v",), plan.build)
    with pytest.raises(ValueError, match="lacks an upper or a lower bound"):
        SelbergPolytope(loose, INWARD_CAP, False)


def test_chebyshev_centre_of_a_box():
    # |y_i| <= 1 in two dimensions: the centre is 0 and the radius 1
    G = np.vstack([np.eye(2), -np.eye(2)])
    y, r, weights = chebyshev_centre(G, np.ones(4))
    assert abs(r - 1.0) < 1e-12 and np.allclose(y, 0.0)
    assert np.all(weights >= 0)


@pytest.mark.parametrize("options", [{"n": 2, "k": (1, 1)}, {"n": 1}])
def test_sampled_cases_repeat_for_a_repeated_seed(options):
    family = "an_selberg" if "k" in options else "an_hua_kadell"
    first = sample_case(family, 4, **options).paramset
    assert sample_case(family, 4, **options).paramset == first
    assert sample_case(family, 5, **options).paramset != first


def test_sampling_does_not_import_scipy():
    # scipy costs about half a second to import; the samplers use numpy only
    code = (
        "import json, sys\n"
        "from ellsel.harness import sample_case\n"
        "for family, options in json.loads(sys.argv[1]):\n"
        "    sample_case(family, 0, **options)\n"
        "print('scipy' in sys.modules)\n"
    )
    entries = [
        ("beta_k1", {}), ("selberg_A1", {"k": 3}), ("an_selberg", {"n": 2, "k": [1, 2]}),
        ("an_aflt", {"n": 2}), ("an_kadell", {"n": 1}), ("an_hua_kadell", {"n": 2}),
    ]
    entries += [(family, {}) for family in ("vdBult", "key_theorem", "prop_RK", "kernel_decomp")]
    entries += [("prop_xselberg_base", {}), ("equal_k_recursion", {})]
    res = subprocess.run(
        [sys.executable, "-c", code, json.dumps(entries)], capture_output=True, text=True, check=True,
        timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert res.stdout.strip() == "False"


# vdBult, key_theorem and prop_RK pick their shape by seed
SWEEP = [("vdBult", {}), ("key_theorem", {}), ("prop_RK", {})] + KERNEL_WEIGHTED[3:]


@pytest.mark.parametrize("family,options", SWEEP, ids=["-".join([f, *o.values()]) for f, o in SWEEP])
def test_kernel_weighted_seeds_sample_without_rejection(family, options):
    # a draw that harness._at_draw rejects (a set or a pole tower) raises
    # AssertionError; only vdBult's (1|1) seeds are certified empty
    for seed in range(21):
        case = sample_case(family, seed, **options)
        assert case.draw or case.id == f"vdBult-s{seed}", case.infeasible


FACTORED = [
    "vdBult", "key_theorem", "prop_RK", "an_aflt", "an_kadell", "an_hua_kadell",
    "prop_xselberg_base", "equal_k_recursion",
]


@pytest.mark.parametrize("family", FACTORED)
def test_integrands_carry_the_declared_factors(family, monkeypatch):
    # each integrand level holds the factors the case declares on its
    # (set, level), in order, and the polytope bounds every declared
    # factor's pole towers
    polys, built = [], []
    real_polytope, real_descriptor = harness.SelbergPolytope, harness.IntegrandDescriptor

    def polytope(plan, rho, crossed):
        polys.append(real_polytope(plan, rho, crossed))
        return polys[-1]

    def descriptor(params, extra_unary):
        built.append((params, extra_unary))
        return real_descriptor(params, extra_unary=extra_unary)

    monkeypatch.setattr(harness, "SelbergPolytope", polytope)
    monkeypatch.setattr(harness, "IntegrandDescriptor", descriptor)
    for seed in range(3):
        polys.clear()
        built.clear()
        case = sample_case(family, seed)
        evaluate_case(case)
        sets, factors = case.draw.sets, case.draw.factors
        declared = {place for factor in factors for place in factor.places}
        assert factors and {index for index, _ in declared} == {sets.index(params) for params, _ in built}
        for params, extra in built:
            index = sets.index(params)
            for level in range(1, params.n + 1):
                want = [factor for factor in factors if (index, level) in factor.places]
                assert [fn.func.__self__ for fn in extra.get(level, [])] == want, (case.id, index, level)
        values = {"p": sets[0].p, "q": sets[0].q, "t": sets[0].t}
        labels = {label for factor in factors for _, label in factor.poles(values)}
        assert labels <= set(polys[0].labels), case.id
