"""Dixon, Selberg vertex/edge and A_n Selberg densities, the parameter
record with balancing, torus and residue-corrected contour feasibility,
and the factor builders feeding the structured torus quadrature.

Normalisation note: the constant kappa_k carried by the Dixon and
vertex densities is evaluated here WITHOUT its 1/(2 pi i)^k part, which
lives in the quadrature weight instead; density values on the torus
therefore stay real-scaled.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ellsel.core import (
    NomePair,
    circle,
    elliptic_gamma,
    elliptic_gamma_circle,
    elliptic_gamma_multi,
    qpochhammer_inf,
)
from ellsel.quadrature import IntegrandSum, TorusFactorizedIntegrand

FEASIBILITY_MARGIN = 0.05
# Modulus every inward pole of an integrand on the unit torus must stay
# below.
INWARD_CAP = 1.0 - FEASIBILITY_MARGIN


class BalancingError(ValueError):
    """Parameter set violates the required multiplicative balancing."""


class InfeasibleError(RuntimeError):
    """No feasible parameter draw found."""


def _pp_qq(nomes: NomePair) -> complex:
    """(p;p)_inf (q;q)_inf."""
    return qpochhammer_inf(nomes.p, nomes.p) * qpochhammer_inf(nomes.q, nomes.q)


def kappa(k: int, nomes: NomePair) -> complex:
    """(p;p)_inf^k (q;q)_inf^k / (2^k k!), the torus-measure constant
    with the (2 pi i)^-k factor folded into the quadrature weight."""
    return _pp_qq(nomes) ** k / (2**k * math.factorial(k))


# ---------------------------------------------------------------------------
# Point evaluators (reference implementations; quadrature uses the factor
# builders further down, which share the same gamma arguments).
# ---------------------------------------------------------------------------


def _gamma_prod(args, nomes):
    """prod_i Gamma(args_i) from one elliptic_gamma call on the stacked,
    broadcast arguments, multiplied down the stacking axis."""
    vals = elliptic_gamma(np.stack(np.broadcast_arrays(*args)), nomes).prod(axis=0)
    return complex(vals) if vals.ndim == 0 else vals


def _gamma_pm(a, z, nomes):
    return _gamma_prod((a * z, a / z), nomes)


def gamma_pm2(a, z, w, nomes):
    """Gamma(a z^+- w^+-); z or w may be an array."""
    return _gamma_prod((a * z * w, a * z / w, a * w / z, a / (z * w)), nomes)


def selberg_vertex_density(z, ts, t: complex, nomes: NomePair) -> complex:
    """BC-symmetric vertex density with m univariate parameters."""
    k = len(z)
    val = kappa(k, nomes)
    for i in range(k):
        for j in range(i + 1, k):
            val *= gamma_pm2(t, z[i], z[j], nomes) / gamma_pm2(1.0, z[i], z[j], nomes)
    gamma_t = elliptic_gamma(t, nomes)
    for zi in z:
        num = gamma_t
        for tr in ts:
            num *= _gamma_pm(tr, zi, nomes)
        den = elliptic_gamma(zi**2, nomes) * elliptic_gamma(zi**-2, nomes)
        val *= num / den
    return val


def dixon_density(z, ts, nomes: NomePair) -> complex:
    """Dixon density: no vertex deformation, cross terms inverted."""
    k = len(z)
    val = kappa(k, nomes)
    for i in range(k):
        for j in range(i + 1, k):
            val /= gamma_pm2(1.0, z[i], z[j], nomes)
    for zi in z:
        num = 1.0
        for tr in ts:
            num *= _gamma_pm(tr, zi, nomes)
        den = elliptic_gamma(zi**2, nomes) * elliptic_gamma(zi**-2, nomes)
        val *= num / den
    return val


def selberg_edge_density(z, w, cval: complex, nomes: NomePair) -> complex:
    """prod_{i,j} Gamma(c z_i^+- w_j^+-)."""
    val = 1.0
    for zi in z:
        for wj in w:
            val *= gamma_pm2(cval, zi, wj, nomes)
    return val


@dataclass(frozen=True)
class ParamSet:
    """Full parameter record for the rank-n density.

    ts holds t_1 .. t_(2n+4); c is fixed to branch_tag * sqrt(pq/t),
    branch_tag +1 or -1.  Every balancing relation must hold to 1e-13
    relative."""

    n: int
    k: tuple[int, ...]
    p: complex
    q: complex
    t: complex
    ts: tuple[complex, ...]
    branch_tag: int = +1

    def __post_init__(self):
        if self.branch_tag not in (1, -1):
            raise ValueError(f"branch_tag must be +1 or -1, got {self.branch_tag}")
        if self.n < 1 or len(self.k) != self.n:
            raise ValueError("need k_1..k_n for a rank-n parameter set")
        if any(self.k[i] > self.k[i + 1] for i in range(self.n - 1)) or any(
            kr < 0 for kr in self.k
        ):
            raise ValueError(f"k must be weakly increasing and nonnegative: {self.k}")
        if len(self.ts) != 2 * self.n + 4:
            raise ValueError(f"need {2 * self.n + 4} t-parameters, got {len(self.ts)}")
        named = [("p", self.p), ("q", self.q), ("t", self.t)]
        for name, val in named + [(f"t_{i + 1}", v) for i, v in enumerate(self.ts)]:
            if not cmath.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        for name, val in named:
            if abs(val) >= 1:
                raise ValueError(f"|{name}| must be < 1")
        if abs(self.p * self.q / self.t) >= 1:
            raise ValueError("|pq/t| must be < 1")
        for r in range(1, self.n + 1):
            res = self.balancing_residual(r)
            if res > 1e-13:
                raise BalancingError(f"balancing violated at r={r}: residual {res:.3g}")

    @property
    def nomes(self) -> NomePair:
        return NomePair(self.p, self.q)

    @property
    def c(self) -> complex:
        return self.branch_tag * cmath.sqrt(self.p * self.q / self.t)

    def balancing_residual(self, r: int) -> float:
        """Relative residual of the rank-r balancing relation."""
        kk = (0,) + self.k
        expo = kk[r] - kk[r - 1] + kk[self.n] - 2
        prod = self.t**expo * self.ts[2 * r - 2] * self.ts[2 * r - 1]
        for s in range(2 * self.n, 2 * self.n + 4):
            prod *= self.ts[s]
        return abs(prod - self.p * self.q) / abs(self.p * self.q)

    @property
    def bases(self) -> tuple[complex, ...]:
        """(p, q, t, c, t_1 .. t_(2n+4)), the bases of an exponent row."""
        return (self.p, self.q, self.t, self.c) + tuple(self.ts)

    def vertex_params(self, r: int) -> tuple[complex, ...]:
        """Univariate parameter list of the vertex at node r (1-based)."""
        return tuple(monomial(self.bases, row) for row in vertex_rows(self.n, r))

    def to_json_dict(self) -> dict:
        def c2(z):
            return [z.real, z.imag]

        return {
            "n": self.n,
            "k": list(self.k),
            "p": c2(complex(self.p)),
            "q": c2(complex(self.q)),
            "t": c2(complex(self.t)),
            "ts": [c2(complex(v)) for v in self.ts],
            "branch_tag": self.branch_tag,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParamSet":
        """The set of one JSON object, whose complex values are [re, im]
        pairs; a ValueError names the key that is missing or malformed."""
        if not isinstance(data, dict):
            raise ValueError("a params file holds one JSON object")
        needed = ("n", "k", "p", "q", "t", "ts")
        accepted = needed + ("branch_tag",)
        missing = ", ".join(key for key in needed if key not in data)
        if missing:
            raise ValueError(f"params file is missing {missing}; it needs {', '.join(needed)}")
        unknown = ", ".join(sorted(set(data) - set(accepted)))
        if unknown:
            raise ValueError(f"unknown params keys {unknown}; accepted: {', '.join(accepted)}")

        def whole(key, val):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ValueError(f"params key {key} must be an integer, got {val!r}")
            return val

        def pair(key, val):
            two = isinstance(val, list) and len(val) == 2
            if not (two and all(type(v) in (int, float) and math.isfinite(v) for v in val)):
                raise ValueError(f"params key {key} must be a finite [re, im] pair, got {val!r}")
            return complex(*val)

        def listed(key, item):
            val = data[key]
            if not isinstance(val, list):
                raise ValueError(f"params key {key} must be a list, got {val!r}")
            return tuple(item(f"{key}[{i}]", v) for i, v in enumerate(val))

        return cls(
            n=whole("n", data["n"]),
            k=listed("k", whole),
            p=pair("p", data["p"]),
            q=pair("q", data["q"]),
            t=pair("t", data["t"]),
            ts=listed("ts", pair),
            branch_tag=whole("branch_tag", data.get("branch_tag", 1)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "ParamSet":
        return cls.from_json_dict(json.loads(text))


def an_density(levels, params: ParamSet) -> complex:
    """Full rank-n density at one point: vertex factors along the Dynkin
    nodes and edge factors between neighbours."""
    if len(levels) != params.n:
        raise ValueError("need one point tuple per level")
    nomes = params.nomes
    val = 1.0
    for r in range(1, params.n + 1):
        try:
            val *= selberg_vertex_density(
                levels[r - 1], params.vertex_params(r), params.t, nomes
            )
            if r < params.n:
                val *= selberg_edge_density(levels[r - 1], levels[r], params.c, nomes)
        except Exception as exc:
            raise type(exc)(f"level {r}: {exc}") from exc
    return val


def selberg_average_normalizer(k: int, ts, t: complex, nomes: NomePair) -> complex:
    """Closed form of the 6-parameter torus integral at rank one:
    prod_i Gamma(t^i) prod_{r<s} Gamma(t^(i-1) t_r t_s)."""
    if len(ts) != 6:
        raise ValueError("normalizer needs exactly six parameters")
    bal = t ** (2 * k - 2)
    for v in ts:
        bal *= v
    if abs(bal - nomes.pq) / abs(nomes.pq) > 1e-10:
        raise BalancingError("t^(2k-2) t_1..t_6 must equal pq")
    args = []
    for i in range(1, k + 1):
        args.append(t**i)
        for r in range(6):
            for s in range(r + 1, 6):
                args.append(t ** (i - 1) * ts[r] * ts[s])
    return elliptic_gamma_multi(args, nomes)


def an_selberg_gamma_args(n: int, ks, ts, t: complex, c: complex, first: int) -> list:
    """Gamma arguments of the rank-n closed form over the Dynkin nodes
    first..n: an_selberg_rhs takes every node, and the kernel-weighted
    integral of the harness, whose node 1 carries the kernel, starts at
    node 2."""
    kk = (0,) + tuple(ks)
    args = []
    for r in range(first, n + 1):
        for i in range(1, kk[r] - kk[r - 1] + 1):
            args.append(t**i)
            args.append(t ** (i - 1) * c ** (2 * r - 2 * n) * ts[2 * r - 2] * ts[2 * r - 1])
    for r in range(2 * n + 1, 2 * n + 5):
        for s in range(r + 1, 2 * n + 5):
            for i in range(1, kk[n] + 1):
                args.append(t ** (i - 1) * ts[r - 1] * ts[s - 1])
    for r in range(first, n + 1):
        for s in range(r + 1, n + 1):
            for i in range(1, kk[r] - kk[r - 1] + 1):
                args.append(t**i * ts[2 * r - 2] / ts[2 * s - 2])
                args.append(t**i * ts[2 * r - 1] / ts[2 * s - 2])
                args.append(t**i * ts[2 * r - 2] / ts[2 * s - 1])
                args.append(t**i * ts[2 * r - 1] / ts[2 * s - 1])
    for r in range(first, n + 1):
        for s in range(2 * n + 1, 2 * n + 5):
            for i in range(1, kk[r] - kk[r - 1] + 1):
                args.append(t ** (i - 1) * ts[2 * r - 2] * ts[s - 1])
                args.append(t ** (i - 1) * ts[2 * r - 1] * ts[s - 1])
    return args


def an_selberg_rhs(params: ParamSet) -> complex:
    """Closed form of the rank-n torus integral."""
    args = an_selberg_gamma_args(params.n, params.k, params.ts, params.t, params.c, 1)
    return elliptic_gamma_multi(args, params.nomes)


# ---------------------------------------------------------------------------
# Contours: the unit torus plus residue terms.
# ---------------------------------------------------------------------------


def residue_constant(nomes: NomePair) -> complex:
    """lim_{x->1} (1 - x) Gamma(x; p, q) = 1 / ((p;p)_inf (q;q)_inf)."""
    return 1.0 / _pp_qq(nomes)


@dataclass(frozen=True)
class ResidueTerm:
    """Correction for a vertex tower u p^i q^j whose base u crossed the
    unit circle on a level with a single variable z.  The right contour
    encloses z = u and excludes z = 1/u, so it is the unit circle plus
    Res_{z=u} - Res_{z=1/u} of f(z) dz / (2 pi i z).  With h = f without
    Gamma(u/z), the first residue is h(u) residue_constant; the second is
    -h(u) residue_constant by the level's inversion symmetry z -> 1/z, so
    the pair contributes 2 h(u) residue_constant, integrated over the
    remaining variables on the torus."""

    level: int  # 1-based Dynkin node
    index: int  # 0-based position in ParamSet.vertex_params(level)
    base: complex

    @property
    def label(self) -> str:
        return f"vertex r={self.level} parameter {self.index + 1}"


@dataclass(frozen=True)
class Contour:
    """The unit torus plus one residue term per crossing tower."""

    residues: tuple[ResidueTerm, ...] = ()

    def describe(self) -> str:
        if not self.residues:
            return "unit torus"
        terms = ", ".join(f"{r.label} (|u| = {abs(r.base):.4g})" for r in self.residues)
        return f"unit torus + residue pairs at z = u, 1/u for {terms}"


# ---------------------------------------------------------------------------
# Factor builders for the structured quadrature path.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaFactor:
    """head * prod_f Gamma(a_f z^e_f) over args ((a_f, e_f), ...), as a
    function of z: pointwise through __call__, and on a whole quadrature
    circle through on_circle, from one FFT of the folded Laurent
    coefficients of its log (core.elliptic_gamma_circle)."""

    head: complex
    args: tuple
    nomes: NomePair

    def __call__(self, z):
        vals = [a * z**e if e > 0 else a / z**-e for a, e in self.args]
        return self.head * _gamma_prod(vals, self.nomes)

    def on_circle(self, n: int, phase: float) -> np.ndarray:
        """The factor at the n points exp(i (phase + 2 pi j / n)); pointwise
        when the series is too slow for the circle path."""
        vals = elliptic_gamma_circle(self.args, n, phase, self.nomes)
        return self(circle(n, phase)) if vals is None else self.head * vals


def _unary_fn(ts, head: complex, nomes: NomePair) -> GammaFactor:
    """head prod_r Gamma(t_r z^+-) / Gamma(z^+-2).

    The reciprocal gammas are evaluated through the reflection formula
    1/Gamma(w) = Gamma(pq/w), which turns the would-be poles at grid
    coincidences into the exact zeros they really are."""
    args = [(tr, e) for tr in ts for e in (1, -1)]
    return GammaFactor(head, tuple(args + [(nomes.pq, -2), (nomes.pq, 2)]), nomes)


def vertex_unary_fn(ts, t: complex, nomes: NomePair) -> GammaFactor:
    """Univariate part of the vertex density: Gamma(t) prod_r
    Gamma(t_r z^+-) / Gamma(z^+-2)."""
    return _unary_fn(ts, elliptic_gamma(t, nomes), nomes)


def dixon_unary_fn(ts, nomes: NomePair) -> GammaFactor:
    """Univariate part of the Dixon density: the vertex factor without
    Gamma(t)."""
    return _unary_fn(ts, 1.0, nomes)


def vertex_pair_fn(t: complex, nomes: NomePair) -> GammaFactor:
    """Cross factor of the vertex density as a function of one product
    or ratio w: Gamma(t w) Gamma(t / w) / (Gamma(w) Gamma(1/w)), with the
    denominator reflected into Gamma(pq/w) Gamma(pq w)."""
    return GammaFactor(1.0, ((t, 1), (t, -1), (nomes.pq, -1), (nomes.pq, 1)), nomes)


def edge_pair_fn(cval: complex, nomes: NomePair) -> GammaFactor:
    """Edge factor Gamma(c w) Gamma(c / w) of one product or ratio w."""
    return GammaFactor(1.0, ((cval, 1), (cval, -1)), nomes)


def pinned_edge_fn(cval: complex, u: complex, nomes: NomePair) -> GammaFactor:
    """Edge factor to a variable pinned at u, as a function of its
    neighbour w: Gamma(c u w^+-) Gamma(c w^+- / u)."""
    args = ((cval * u, 1), (cval / u, -1), (cval * u, -1), (cval / u, 1))
    return GammaFactor(1.0, args, nomes)


@dataclass
class IntegrandDescriptor:
    """Composable description of a BC-symmetric integrand: the density of
    params times extra univariate factors keyed by level, such as the
    values of the interpolation.InterpFactor records a case declares on
    that level, in their order.  A kernel factor Gamma(c x^+- z^+-) is no
    extra factor: it enters params as the vertex parameters c x and c / x,
    and its normalisation moves to the closed form."""

    params: ParamSet
    extra_unary: dict = field(default_factory=dict)  # level -> [fn(z)]

    def build(self, pinned: ResidueTerm | None = None) -> TorusFactorizedIntegrand:
        """The torus integrand.  With pinned, the integrand of that
        residue term instead: the pinned level's variable is fixed at
        z = u, its neighbours' edge factors become the unary factors
        Gamma(c u w^+-) Gamma(c w^+- / u), and the rest stays on the
        torus."""
        params = self.params
        nomes = params.nomes
        n = params.n
        var_of_level: list[list[int]] = []
        counter = 0
        for r in range(1, n + 1):
            size = 0 if pinned is not None and r == pinned.level else params.k[r - 1]
            var_of_level.append(list(range(counter, counter + size)))
            counter += size

        unary = []
        pairs = []
        pref = 1.0 + 0.0j
        # one object per factor function, so values evaluates each table once
        pfn = vertex_pair_fn(params.t, nomes)
        efn = edge_pair_fn(params.c, nomes)
        for r in range(1, n + 1):
            lvars = var_of_level[r - 1]
            if pinned is not None and r == pinned.level:
                pref *= self._residue_value(pinned)
                pinned_edge = pinned_edge_fn(params.c, pinned.base, nomes)
                for s in (r - 1, r + 1):
                    if 1 <= s <= n:
                        unary.extend((v, pinned_edge) for v in var_of_level[s - 1])
                continue
            if not lvars:
                continue
            ufn = vertex_unary_fn(params.vertex_params(r), params.t, nomes)
            pref *= kappa(len(lvars), nomes)
            for v in lvars:
                unary.append((v, ufn))
            for i, vi in enumerate(lvars):
                for vj in lvars[i + 1 :]:
                    pairs.append((vi, vj, pfn))
            if r < n:
                for vi in lvars:
                    for vj in var_of_level[r]:
                        pairs.append((vi, vj, efn))
            for fn in self.extra_unary.get(r, ()):
                for v in lvars:
                    unary.append((v, fn))

        return TorusFactorizedIntegrand(nvars=counter, unary=unary, pairs=pairs, prefactor=pref)

    def build_on(self, contour: Contour):
        """Integrand of the contour: the torus integrand alone, or an
        IntegrandSum of it and one integrand per residue term."""
        torus = self.build()
        if not contour.residues:
            return torus
        return IntegrandSum([torus] + [self.build(pinned=term) for term in contour.residues])

    def _residue_value(self, term: ResidueTerm) -> complex:
        """Pinned level's share of a residue pair: kappa_1 times the
        level's factor at z = u without Gamma(u/z), times
        2 residue_constant."""
        r = term.level
        params, nomes = self.params, self.params.nomes
        if params.k[r - 1] != 1 or self.extra_unary.get(r):
            raise ValueError(
                f"a residue term on level {r} needs one variable and no factor beyond the density"
            )
        rest = [v for i, v in enumerate(params.vertex_params(r)) if i != term.index]
        ufn = vertex_unary_fn(rest, params.t, nomes)
        # ufn drops both Gamma(u z) and Gamma(u/z); Gamma(u z) stays in h.
        value = complex(ufn(np.array([term.base]))[0])
        value *= complex(elliptic_gamma(term.base**2, nomes))
        return value * kappa(1, nomes) * 2 * residue_constant(nomes)


# ---------------------------------------------------------------------------
# Feasibility.
# ---------------------------------------------------------------------------


@dataclass
class Feasibility:
    ok: bool
    violations: list[str] = field(default_factory=list)
    contour: Contour = field(default_factory=Contour)


def margin_violations(poles) -> list[str]:
    """A message for each (value, label) pair whose modulus is at least
    INWARD_CAP: the value, an inward pole of a unit-torus integrand,
    sits in or beyond the margin band around the circle."""
    bad = []
    for value, label in poles:
        if abs(value) >= INWARD_CAP:
            bad.append(f"{label}: |{value:.4g}| = {abs(value):.4g} >= {INWARD_CAP}")
    return bad


# Positions of p, q, t and c in an exponent row over ParamSet.bases; t_i
# sits at C + i.
P, Q, T, C = range(4)


def monomial(bases, row) -> complex:
    """prod_j bases[j]^row[j], multiplied left to right; a negative
    power divides."""
    val = 1.0
    for base, power in zip(bases, row):
        if power:
            factor = base if abs(power) == 1 else base ** abs(power)
            val = val * factor if power > 0 else val / factor
    return val


def exponent_row(n: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The exponent row of the rank-n set with (position, power) terms."""
    row = [0] * (2 * n + 8)
    for pos, power in terms:
        row[pos] += power
    return tuple(row)


def vertex_rows(n: int, r: int) -> list[tuple[int, ...]]:
    """Exponent rows of the vertex parameters at node r: t_(2n-1) ..
    t_(2n+4) at r = n, else c^(r-n) t_(2r-1), c^(r-n) t_(2r),
    t c^(n-r) / t_(2r+1) and t c^(n-r) / t_(2r+2)."""
    if r == n:
        return [exponent_row(n, (C + i, 1)) for i in range(2 * n - 1, 2 * n + 5)]
    return [exponent_row(n, (C, r - n), (C + 2 * r - 1 + i, 1)) for i in (0, 1)] + [
        exponent_row(n, (T, 1), (C, n - r), (C + 2 * r + 1 + i, -1)) for i in (0, 1)
    ]


def torus_conditions(n: int, k, pinned: ResidueTerm | None = None) -> list:
    """The conditions of the torus check as (row, label, tower) triples:
    each monomial must stay below INWARD_CAP, and tower is the (level,
    index) of a vertex parameter, else None.  A level with no variable
    (k_r = 0) has no vertex towers.  With pinned, the conditions of that
    residue term's integrand: its level has no variable left, and each
    neighbouring level with variables carries the towers c u and c / u."""
    conds = [(exponent_row(n, (T, 1)), "contour scaling t*C_r", None)]
    if n >= 2:
        conds += [(exponent_row(n, (C, 1)), "edge scaling c*C_r", None)]
        conds += [(exponent_row(n, (P, 1), (Q, 1), (T, -1)), "inner scaling (pq/t)*C_r", None)]
    for r in range(1, n + 1):
        if not k[r - 1] or (pinned is not None and r == pinned.level):
            continue
        for idx, row in enumerate(vertex_rows(n, r)):
            conds.append((row, f"vertex r={r} parameter {idx + 1}", (r, idx)))
        if pinned is not None and abs(r - pinned.level) == 1:
            u = vertex_rows(n, pinned.level)[pinned.index]
            for name, sign in (("c u", 1), ("c / u", -1)):
                row = tuple(e + sign * f for e, f in zip(exponent_row(n, (C, 1)), u))
                conds.append((row, f"edge r={r} parameter {name}", None))
    return conds


def _tower_violations(params: ParamSet, pinned: ResidueTerm | None = None):
    """(message, tower) per violated condition of torus_conditions; with
    pinned, of that residue term's integrand."""
    bases = params.bases
    return [
        (text, tower)
        for row, label, tower in torus_conditions(params.n, params.k, pinned)
        for text in margin_violations(((monomial(bases, row), label),))
    ]


def feasibility_check(params: ParamSet) -> Feasibility:
    """Torus feasibility of the density with margin: every inward pole
    sequence must stay inside modulus 1 - delta with all contours the
    unit circle, which puts every reciprocal outside 1/(1 - delta) >
    1 + delta.  Only tower bases need checking: the p^i q^j shifts move
    members strictly inward; a level without variables has no towers.
    Factors beyond the density (interpolation functions, kernels) are
    checked by their callers with margin_violations."""
    violations = [text for text, _ in _tower_violations(params)]
    return Feasibility(not violations, violations)


def _residue_obstruction(params: ParamSet, level: int, index: int) -> str:
    """Why no residue term covers the vertex tower (level, index); empty
    when one does."""
    k = params.k[level - 1]
    if k != 1:
        return f"level {level} carries {k} variables; a residue term needs exactly one"
    u = params.vertex_params(level)[index]
    lo = 1.0 + FEASIBILITY_MARGIN
    if abs(u) <= lo:
        return f"base within the margin band, |u| <= {lo}"
    for name, nome in (("p", params.p), ("q", params.q)):
        if margin_violations([(u * nome, name)]):
            return f"its {name}-shift crosses too, |u {name}| = {abs(u * nome):.4g}"
    return ""


def contour_feasibility(params: ParamSet) -> Feasibility:
    """Feasibility of the density integrand on the residue-corrected
    contour.  A vertex tower failing the torus check gets a residue term
    when its level has a single variable, its base u lies outside
    1 + delta and its p- and q-shifts inside 1 - delta.  Every
    residue-term integrand is checked again, including the towers c u
    and c / u on the neighbouring levels.  Any violation left makes the
    set infeasible, naming the tower and why no residue term covers it;
    a torus-feasible set keeps the bare torus.  Residue terms on two
    levels would need a double residue, which is not implemented: a
    residue term whose integrand still crosses another term's tower is
    a violation."""
    found = _tower_violations(params)
    terms: dict[tuple[int, int], ResidueTerm] = {}
    left = []
    for text, tower in found:
        reason = "" if tower is None else _residue_obstruction(params, *tower)
        if tower is None or reason:
            left.append(f"{text} ({reason})" if reason else text)
        elif tower not in terms:
            terms[tower] = ResidueTerm(*tower, params.vertex_params(tower[0])[tower[1]])
    for term in terms.values():
        for text, tower in _tower_violations(params, pinned=term):
            if tower in terms:
                left.append(
                    f"residue term at {term.label}: {text} "
                    f"(needs a double residue with the term at {terms[tower].label})"
                )
            elif (text, tower) not in found:
                left.append(f"residue term at {term.label}: {text}")
    if left:
        return Feasibility(False, left)
    return Feasibility(True, [], Contour(tuple(terms.values())))
