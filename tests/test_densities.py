"""Tests for densities, parameter sets, feasibility and the closed-form
torus-integral products."""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsel import densities
from ellsel.core import NomePair, circle
from ellsel.densities import (
    INWARD_CAP,
    BalancingError,
    GammaFactor,
    IntegrandDescriptor,
    ParamSet,
    an_density,
    an_selberg_rhs,
    dixon_density,
    feasibility_check,
    kappa,
    margin_violations,
    selberg_average_normalizer,
    selberg_edge_density,
    selberg_vertex_density,
)
from ellsel.harness import evaluate_case, sample_case
from ellsel.polytope import SelbergPolytope, selberg_plan
from ellsel.quadrature import (
    GridSpec,
    IntegrandSum,
    TorusFactorizedIntegrand,
    integrate_adaptive,
    integrate_torus,
)
from oracles import dense_table, expand_tables, gamma_mp, kernel_draw_inside

NOMES = NomePair(0.15, 0.2)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _complex(modulus):
    return st.builds(
        lambda r, phase: r * cmath.exp(2j * cmath.pi * phase),
        modulus,
        st.floats(0.0, 1.0),
    )


def make_balanced_n1(k=1, seed=0, twindow=None, window=None):
    """Draw a feasible rank-one parameter set with t_6 solved from the
    balancing relation.  Window defaults depend on k: the modulus budget
    |pq| = |t|^(2k-2) |t_1..t_6| shifts with the rank."""
    if twindow is None:
        twindow = (0.25, 0.4) if k == 1 else (0.42, 0.5)
    if window is None:
        window = (0.35, 0.6) if k == 1 else (0.62, 0.8)
    rng = np.random.default_rng(seed)
    for _ in range(500):
        t = rng.uniform(*twindow) * cmath.exp(2j * cmath.pi * rng.uniform())
        ts = [
            rng.uniform(*window) * cmath.exp(2j * cmath.pi * rng.uniform())
            for _ in range(5)
        ]
        t6 = NOMES.pq / (t ** (2 * k - 2) * np.prod(ts))
        if abs(t6) > 0.8 or abs(t6) < 0.05:
            continue
        try:
            params = ParamSet(1, (k,), NOMES.p, NOMES.q, t, tuple(ts) + (t6,))
        except (ValueError, BalancingError):
            continue
        if feasibility_check(params).ok:
            return params
    raise RuntimeError(f"no feasible rank-one draw for k={k}")


class TestPointDensities:
    def test_inversion_and_permutation_invariance(self):
        ts = (0.3, 0.4, 0.5, 0.45, 0.35, 0.55)
        z = (cmath.exp(0.7j), cmath.exp(2.1j))
        base = selberg_vertex_density(z, ts, 0.3, NOMES)
        assert rel_err(selberg_vertex_density((1 / z[0], z[1]), ts, 0.3, NOMES), base) < 1e-12
        assert rel_err(selberg_vertex_density((z[1], z[0]), ts, 0.3, NOMES), base) < 1e-12

    def test_dixon_invariances(self):
        ts = (0.3, 0.4, 0.5, 0.45)
        z = (cmath.exp(0.4j), cmath.exp(1.9j))
        base = dixon_density(z, ts, NOMES)
        assert rel_err(dixon_density((1 / z[0], z[1]), ts, NOMES), base) < 1e-12
        assert rel_err(dixon_density((z[1], z[0]), ts, NOMES), base) < 1e-12

    def test_selberg_dixon_relation(self):
        # Vertex density = Dixon density on the same parameter list,
        # times Gamma(t)^k prod_{i<j} Gamma(t z_i^+- z_j^+-).  (Appending
        # t to the Dixon list instead would insert a spurious
        # Gamma(t z_i^+-) per variable; the vertex definition has none.)
        from ellsel.core import elliptic_gamma

        t = 0.3 + 0.05j
        ts = (0.3, 0.4, 0.5, 0.45, 0.35, 0.55)
        for k, z in [(1, (cmath.exp(0.9j),)), (2, (cmath.exp(0.4j), cmath.exp(1.9j))), (3, (cmath.exp(0.4j), cmath.exp(1.3j), cmath.exp(2.6j)))]:
            zs = z[:k]
            lhs = selberg_vertex_density(zs, ts, t, NOMES)
            rhs = dixon_density(zs, ts, NOMES) * elliptic_gamma(t, NOMES) ** k
            for i in range(k):
                for j in range(i + 1, k):
                    for arg in (
                        t * zs[i] * zs[j],
                        t * zs[i] / zs[j],
                        t * zs[j] / zs[i],
                        t / (zs[i] * zs[j]),
                    ):
                        rhs *= elliptic_gamma(arg, NOMES)
            assert rel_err(lhs, rhs) < 1e-11

    def test_edge_density_symmetries(self):
        c = 0.4 + 0.1j
        z, w = (cmath.exp(0.5j),), (cmath.exp(1.2j),)
        assert selberg_edge_density(z, (), c, NOMES) == 1.0
        assert rel_err(
            selberg_edge_density(z, w, c, NOMES), selberg_edge_density(w, z, c, NOMES)
        ) < 1e-13

    def test_edge_density_is_unnormalised_kernel(self):
        # One-pair edge factor = one-pair kernel times Gamma(t) Gamma(c^2);
        # at c = (pq/t)^(1/2) the normalisation itself is exactly one.
        from ellsel.core import elliptic_gamma
        from ellsel.kernel import kernel_k1
        from ellsel.symbols import SymbolContext

        t = 0.35 + 0.02j
        ctx = SymbolContext(NOMES, t)
        z, w = cmath.exp(0.5j), cmath.exp(1.2j)
        for c in (0.4 + 0.1j, cmath.sqrt(NOMES.pq / t)):
            edge = selberg_edge_density((z,), (w,), c, NOMES)
            norm = elliptic_gamma(t, NOMES) * elliptic_gamma(c**2, NOMES)
            assert rel_err(edge, kernel_k1(z, w, c, ctx) * norm) < 1e-12
        factoring_norm = elliptic_gamma(t, NOMES) * elliptic_gamma(NOMES.pq / t, NOMES)
        assert abs(factoring_norm - 1.0) < 1e-12


class TestParamSet:
    def test_balancing_enforced(self):
        with pytest.raises(BalancingError):
            ParamSet(1, (1,), 0.15, 0.2, 0.3, (0.3, 0.4, 0.5, 0.45, 0.35, 0.55))

    def test_json_roundtrip(self):
        params = make_balanced_n1(seed=3)
        back = ParamSet.from_json(params.to_json())
        assert back == params

    def test_c_branch(self):
        params = make_balanced_n1(seed=4)
        assert abs(params.c**2 - params.p * params.q / params.t) < 1e-15

    @pytest.mark.parametrize("tag", [0, 2])
    def test_branch_tag_other_than_plus_or_minus_one_rejected(self, tag):
        # 0 would divide by c = 0 and 2 would double c
        params = make_balanced_n1(seed=4)
        assert dataclasses.replace(params, branch_tag=-1).c == -params.c
        with pytest.raises(ValueError, match=f"branch_tag must be \\+1 or -1, got {tag}"):
            dataclasses.replace(params, branch_tag=tag)

    @pytest.mark.parametrize("name", ["p", "q", "t", "t_1", "t_6"])
    @pytest.mark.parametrize("value", [float("nan"), complex(0.1, float("nan")), float("inf")])
    def test_non_finite_value_rejected(self, name, value):
        # every other check compares moduli, which is false for NaN
        params = make_balanced_n1(seed=4)
        ts = list(params.ts)
        if name.startswith("t_"):
            ts[int(name[2:]) - 1] = value
            change = {"ts": tuple(ts)}
        else:
            change = {name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(params, **change)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"ts": None}, "params file is missing ts; it needs n, k, p, q, t, ts"),
            ({"n": None, "k": None}, "params file is missing n, k; it needs"),
            ({"branch": 1}, "unknown params keys branch; accepted: n, k, p, q, t, ts, branch_tag"),
            ({"p": 0.1}, "params key p must be a finite [re, im] pair, got 0.1"),
            ({"q": [0.1, 0.0, 0.0]}, "params key q must be a finite [re, im] pair"),
            ({"t": [float("nan"), 0.0]}, "params key t must be a finite [re, im] pair"),
            ({"ts": [0.5] * 6}, "params key ts[0] must be a finite [re, im] pair, got 0.5"),
            ({"ts": 0.5}, "params key ts must be a list, got 0.5"),
            ({"k": [1.0]}, "params key k[0] must be an integer, got 1.0"),
            ({"n": True}, "params key n must be an integer, got True"),
            ({"branch_tag": "1"}, "params key branch_tag must be an integer, got '1'"),
        ],
        ids=[
            "missing-ts", "missing-n-k", "unknown-key", "p-number", "q-triple", "t-nan",
            "ts-numbers", "ts-number", "k-float", "n-bool", "branch_tag-string",
        ],
    )
    def test_json_dict_names_what_is_wrong(self, change, message):
        data = make_balanced_n1(seed=3).to_json_dict() | change
        data = {key: val for key, val in data.items() if val is not None}
        with pytest.raises(ValueError) as info:
            ParamSet.from_json_dict(data)
        assert message in str(info.value)

    def test_json_dict_must_be_an_object(self):
        with pytest.raises(ValueError, match="a params file holds one JSON object"):
            ParamSet.from_json_dict([make_balanced_n1(seed=3).to_json_dict()])

    def test_infeasible_draw_diagnosed(self):
        # Poles of factors beyond the density go through margin_violations:
        # an inward pole in the margin band or across the circle is named.
        poles = [(0.97 + 0j, "inward pole"), (1.02 + 0j, "test pole"), (0.9 + 0j, "clear pole")]
        bad = margin_violations(poles)
        assert len(bad) == 2
        assert "inward pole" in bad[0] and "test pole" in bad[1]

    def test_large_vertex_parameter_named_in_diagnostics(self):
        # Scale t1 past the unit circle (and t2 inversely, preserving the
        # balancing): the report must name the offending vertex slot.
        params = make_balanced_n1(seed=6)
        scale = 1.2 / abs(params.ts[0])
        ts = (params.ts[0] * scale, params.ts[1] / scale) + params.ts[2:]
        big = ParamSet(1, params.k, params.p, params.q, params.t, ts)
        feas = feasibility_check(big)
        assert not feas.ok
        assert any("vertex r=1 parameter 1" in v for v in feas.violations)


class TestAnDensity:
    def test_n1_reduces_to_vertex(self):
        params = make_balanced_n1(seed=6)
        z = (cmath.exp(0.8j),)
        lhs = an_density((z,), params)
        rhs = selberg_vertex_density(z, params.ts, params.t, params.nomes)
        assert rel_err(lhs, rhs) < 1e-13

    def test_n2_composition(self):
        params = sample_case("an_selberg", 7, n=2, k=(1, 1)).paramset
        z1, z2 = (cmath.exp(0.8j),), (cmath.exp(2.0j),)
        lhs = an_density((z1, z2), params)
        rhs = (
            selberg_vertex_density(z1, params.vertex_params(1), params.t, params.nomes)
            * selberg_edge_density(z1, z2, params.c, params.nomes)
            * selberg_vertex_density(z2, params.vertex_params(2), params.t, params.nomes)
        )
        assert rel_err(lhs, rhs) < 1e-13

    def test_descriptor_matches_point_density(self):
        params = sample_case("an_selberg", 8, n=2, k=(1, 1)).paramset
        integrand = IntegrandDescriptor(params).build()
        n, phase = 8, 0.37
        tensor = expand_tables(integrand, n, phase)
        import math as _m

        for a, b in [(0, 0), (1, 5), (3, 2)]:
            z1 = cmath.exp(1j * (2 * _m.pi * a / n + phase))
            z2 = cmath.exp(1j * (2 * _m.pi * b / n + phase))
            want = an_density(((z1,), (z2,)), params)
            assert rel_err(tensor[a, b], want) < 1e-11


class TestNormalizer:
    def test_beta_integral_k1(self):
        # Torus quadrature of the rank-one vertex density against the
        # closed-form product (the k = 1 elliptic beta evaluation).
        params = make_balanced_n1(k=1, seed=9)
        integrand = IntegrandDescriptor(params).build()
        res = integrate_torus(integrand, GridSpec((256,)))
        rhs = selberg_average_normalizer(1, params.ts, params.t, params.nomes)
        assert rel_err(res.value, rhs) < 1e-10

    def test_selberg_k2(self):
        params = make_balanced_n1(k=2, seed=10)
        integrand = IntegrandDescriptor(params).build()
        res = integrate_torus(integrand, GridSpec((128, 128)))
        rhs = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert rel_err(res.value, rhs) < 1e-6

    def test_selberg_k2_adaptive_converges_within_128(self):
        params = make_balanced_n1(k=2, seed=14)
        integrand = IntegrandDescriptor(params).build()
        res = integrate_adaptive(integrand, GridSpec((32, 32)), 1e-6, 2)
        assert not res.budget_exhausted
        rhs = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert rel_err(res.value, rhs) < 1e-6

    def test_reflection_insensitivity(self):
        # Replacing t_6 by the solved partner leaves the value unchanged
        # (it already equals it); perturbing instead must raise.
        params = make_balanced_n1(seed=11)
        with pytest.raises(BalancingError):
            selberg_average_normalizer(
                1, params.ts[:5] + (params.ts[5] * 1.01,), params.t, params.nomes
            )

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(
        q=_complex(st.floats(0.05, 0.3)),
        t=_complex(st.floats(0.25, 0.4)),
        ts=st.lists(_complex(st.floats(0.35, 0.6)), min_size=6, max_size=6),
    )
    def test_beta_k1_matches_30_digit_oracle(self, q, t, ts):
        # Spiridonov's elliptic beta integral: Gamma(t) prod_{r<s}
        # Gamma(t_r t_s), each factor at 30 digits, with p solved from
        # the balancing t_1 .. t_6 = pq.
        pytest.importorskip("mpmath")
        p = math.prod(ts) / q
        assume(0.05 <= abs(p) <= 0.3)
        value = selberg_average_normalizer(1, ts, t, NomePair(p, q))
        oracle = gamma_mp(t, p, q, dps=30)
        for tr, ts_ in itertools.combinations(ts, 2):
            oracle *= gamma_mp(tr * ts_, p, q, dps=30)
        assert rel_err(value, oracle) <= 1e-13

    def test_an_rhs_matches_normalizer_at_n1(self):
        params = make_balanced_n1(k=2, seed=12)
        lhs = an_selberg_rhs(params)
        rhs = selberg_average_normalizer(2, params.ts, params.t, params.nomes)
        assert rel_err(lhs, rhs) < 1e-12


def _polytope(n, k, rho=INWARD_CAP):
    return SelbergPolytope(selberg_plan(n, k), rho, False)


class TestSampler:
    def test_n2_k11_feasible_draws(self):
        rng = np.random.default_rng(13)
        poly = _polytope(2, (1, 1), 0.85)
        for _ in range(3):
            (params,) = poly.draw(rng).sets
            assert feasibility_check(params).ok
            assert params.balancing_residual(1) < 1e-13
            assert params.balancing_residual(2) < 1e-13
            towers = [v for r in (1, 2) for v in params.vertex_params(r)] + [params.c]
            assert max(abs(v) for v in towers) <= 0.85

    def test_n2_k12_is_torus_infeasible(self):
        # The balancing forces |t5 t6 t7 t8| > 1 whenever the rank-1
        # vertex parameters sit inside the unit circle, so no unit-torus
        # set exists for k = (1, 2): the LP certifies the polytope empty
        # even at the widest cap.
        poly = _polytope(2, (1, 2))
        assert poly.radius < 0

    def test_empty_polytope_names_the_binding_bounds(self):
        note = _polytope(2, (1, 2)).why_empty()
        assert note.startswith("no parameter set for n=2, k=(1, 2): the log-modulus polytope is empty")
        assert "vertex r=1 parameter 1" in note and note.endswith("cannot hold together")

    def test_draws_repeat_for_a_repeated_seed(self):
        poly = _polytope(2, (1, 1), 0.85)
        want = poly.draw(np.random.default_rng(13))
        assert poly.draw(np.random.default_rng(13)) == want
        assert poly.draw(np.random.default_rng(14)) != want


KERNEL_SHAPES = (
    "vdBult",
    "key_theorem",
    "prop_RK",
    "kernel_decomp-theorem",
    "kernel_decomp-corollary",
    "xselberg-base",
    "xselberg-recursion",
    "equal_k",
)


def _kernel_draw(shape, p, q, t, f, x1, y1):
    """(named values, density parameter lists) of a draw of shape: the
    balanced partners are solved from the free values f as its sampler
    solves them, and each list is a density the sampler checks, with a
    kernel Gamma(c x^+- z^+-) entered as c x and c / x."""
    pq = p * q
    if shape in ("vdBult", "key_theorem"):
        t1, t2, t3 = f[:3]
        if shape == "vdBult":
            t4, c = t / (t1 * t2 * t3), cmath.sqrt(pq / t)
        else:
            t4 = 0.9 * t * f[3] / abs(f[3])  # t v1 with |v1| < 1
            c = cmath.sqrt(pq / (t1 * t2 * t3 * t4))
        return dict(t1=t1, t2=t2, t3=t3, t4=t4, c=c), [(t1, t2, t3, t4, c * x1, c / x1)]
    if shape == "prop_RK":
        t2, t3, t4, t5 = f[:4]
        c = cmath.sqrt(pq / (t2 * t3 * t4 * t5))
        return dict(t2=t2, t3=t3, t4=t4, t5=t5, c=c), [(t2, t3, t4, t5, c * x1, c / x1)]
    if shape.startswith("kernel_decomp"):
        b, d = f[:2]
        if shape.endswith("theorem"):
            c = f[2]
            spectator = pq / (b * c**2 * d**2)
        else:
            c = cmath.sqrt(pq / t)
            spectator = t / (b * d**2)
        values = dict(b=b, c=c, d=d, spectator=spectator)
        return values, [(b, spectator, c * x1, c / x1, d * y1, d / y1)]
    if shape == "xselberg-base":
        t3, t4, t5, t6 = f[:4]
        d = cmath.sqrt(pq / (t3 * t4 * t5 * t6))
        return dict(t3=t3, t4=t4, t5=t5, t6=t6, d=d), [(t3, t4, t5, t6, d * x1, d / x1)]
    t5, t6, t7, t8, t1, t3 = f
    tail = t5 * t6 * t7 * t8
    c = cmath.sqrt(pq / t)
    if shape == "equal_k":
        t1 *= c  # as a ratio to c: level 1 carries c^-1 t1
    t2 = pq / (t1 * tail)
    if shape == "xselberg-recursion":
        t3 *= math.sqrt(abs(t * pq / tail))  # as a ratio to the middle of its window
        t4 = pq * t / (t3 * tail)
        d = cmath.sqrt(t1 * t2) / c
        values = dict(t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=t6, t7=t7, t8=t8, c=c, d=d)
        return values, [(c * d * x1, c * d / x1, t3, t4, t5, t6, t7, t8)]
    t3 *= math.sqrt(abs(t * t1 * t2))  # as a ratio to sqrt(t t1 t2)
    t4 = t * t1 * t2 / t3
    values = dict(t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=t6, t7=t7, t8=t8, c=c)
    return values, [(t1, t2, t3, t4, t5, t6, t7, t8), (t1, t2, t5, t6, t7, t8)]


def _density_ok(p, q, t, ts) -> bool:
    n = len(ts) // 2 - 2
    try:
        params = ParamSet(n, (1,) * n, p, q, t, ts)
    except ValueError:
        return False
    return feasibility_check(params).ok


class TestKernelWeightedDraws:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_torus_rule_matches_the_hand_lists(self, shape):
        # The samplers keep |pq/t| < 0.9 at rank one, by their windows or
        # by vdBult's explicit test; at rank two pq/t is a density tower.
        seen = set()

        @settings(derandomize=True, deadline=None, max_examples=300)
        @given(
            p=_complex(st.floats(0.05, 0.5)),
            q=_complex(st.floats(0.05, 0.5)),
            t=_complex(st.floats(0.03, 0.99)),
            free=st.lists(_complex(st.floats(0.5, 1.05)), min_size=6, max_size=6),
            x1=_complex(st.just(1.0)),
            y1=_complex(st.just(1.0)),
        )
        def check(p, q, t, free, x1, y1):
            assume(shape in ("xselberg-recursion", "equal_k") or abs(p * q / t) < 0.9)
            values, sets = _kernel_draw(shape, p, q, t, free, x1, y1)
            got = all(_density_ok(p, q, t, ts) for ts in sets)
            assert got == kernel_draw_inside(shape, dict(values, p=p, q=q, t=t))
            seen.add(got)

        check()
        assert seen == {True, False}  # the windows reach both sides of the rule


class TestFactorTables:
    """The factor tables of a density integrand from whole circles
    (GammaFactor.on_circle) equal the tables of each factor called point
    by point."""

    @staticmethod
    def pointwise(integrand):
        """integrand with every factor function behind a plain callable,
        one per function, so values calls each at the circle's points."""
        plain = {}

        def hide(fn):
            return plain.setdefault(id(fn), lambda z: fn(z))

        return TorusFactorizedIntegrand(
            integrand.nvars,
            [(v, hide(fn)) for v, fn in integrand.unary],
            [(vi, vj, hide(fn)) for vi, vj, fn in integrand.pairs],
            integrand.prefactor,
        )

    @pytest.mark.parametrize(
        "family, options",
        [
            ("an_selberg", {"n": 2, "k": (1, 1)}),
            # residue-corrected: the torus part's level-1 vertex factor has
            # towers with |u| > 1, which the circle path reflects, and each
            # residue part carries the pinned edge Gamma(c u w^+-) Gamma(c w^+- / u)
            ("an_selberg", {"n": 2, "k": (1, 2)}),
            # the interpolation factors stay opaque, pointwise callables
            ("an_aflt", {"n": 2}),
        ],
        ids=["an_selberg-k11", "an_selberg-k12", "an_aflt-n2"],
    )
    def test_circle_tables_equal_pointwise_tables(self, monkeypatch, family, options):
        taken = []
        original = densities.elliptic_gamma_circle

        def recording(*args):
            vals = original(*args)
            taken.append(vals is not None)
            return vals

        monkeypatch.setattr(densities, "elliptic_gamma_circle", recording)
        integrand = evaluate_case(sample_case(family, 0, **options)).integrand
        parts = integrand.parts if isinstance(integrand, IntegrandSum) else [integrand]
        n = 256
        for part in parts:
            got = part.values(n, 0.5 * math.pi / n)
            want = self.pointwise(part).values(n, 0.5 * math.pi / n)
            for (table, axes), (ref, ref_axes) in zip(got, want, strict=True):
                assert axes == ref_axes
                table, ref = dense_table(table), dense_table(ref)
                assert np.max(np.abs(table - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert taken and all(taken), "a density factor fell back to the pointwise path"

    def test_slow_series_falls_back_to_the_pointwise_path(self, monkeypatch):
        # a tower base 1e-6 inside the unit circle: the circle path declines
        factor = GammaFactor(2.0, ((0.999999 * cmath.exp(0.3j), 1), (0.4, -1)), NOMES)
        calls = []
        monkeypatch.setattr(
            densities, "elliptic_gamma_circle", lambda *args: calls.append(args) or None
        )
        got = factor.on_circle(256, 0.01)
        assert len(calls) == 1
        assert np.array_equal(got, factor(circle(256, 0.01)))
        monkeypatch.undo()
        assert np.array_equal(factor.on_circle(256, 0.01), got)
