"""Parameter draws from their log-modulus polytope.

A draw is a set of named complex values: walked ones with uniform
phases, phase-only ones of modulus 1 and the ones a family's plan
derives from both.  Every condition on a draw (the torus conditions of
each Selberg density set it builds, the pole towers of each
interpolation factor it declares, and floors) bounds the modulus of a
monomial, so the draws form a polytope in the walked log-moduli; the
plan's build gives its rows when run on LogModulus values.  A draw starts at the Chebyshev centre, found by a
dense simplex LP (Boyd & Vandenberghe, "Convex Optimization", 2004,
§8.5), and walks hit-and-run steps (Smith, Operations Research 32,
1984).  A radius at or below zero certifies the polytope empty.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ellsel.densities import C, INWARD_CAP, P, Q, T, ParamSet, exponent_row, monomial, torus_conditions

NOME_CAP = 0.9  # |p|, |q|, |t| and |pq/t|
LOWEST = 0.05  # every modulus
WALK_STEPS = 24


class LogModulus:
    """log|v| of a monomial v in the walked values, as the row of its
    exponents over them: *, / and ** act on rows as on values.  A plain
    factor must have modulus 1."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def __mul__(self, other):
        return LogModulus(self.row + _row(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return LogModulus(self.row - _row(other))

    def __rtruediv__(self, other):
        return LogModulus(_row(other) - self.row)

    def __pow__(self, power):
        return LogModulus(power * self.row)


def _row(value):
    if isinstance(value, LogModulus):
        return value.row
    if abs(value) != 1:
        raise ValueError(f"a plain factor of a monomial must have modulus 1, got {value!r}")
    return 0.0


def sqrt(value):
    """cmath.sqrt, the principal root, of a complex value; half the row
    of a LogModulus."""
    return value**0.5 if isinstance(value, LogModulus) else cmath.sqrt(value)


@dataclass
class Draw:
    """What a plan builds from its values: the named values; each density
    set as (n, k, ts) over their p, q and t, a ParamSet once drawn; its
    interpolation.InterpFactor list, whose poles are held at rho and
    checked at INWARD_CAP; and floors (value, cap, label), |value| <= cap."""

    values: dict
    sets: list
    factors: list
    floors: list

    @property
    def poles(self) -> list:
        return [pole for factor in self.factors for pole in factor.poles(self.values)]


@dataclass(frozen=True)
class Plan:
    """The draws of one family: its name in notes, the walked values in
    column order, every drawn value (walked or phase-only) in the order
    its phase is drawn, and build, which derives a Draw from them."""

    name: str
    walked: tuple
    phased: tuple
    build: Callable[[dict], Draw]


def selberg_plan(n: int, k, hua: bool = False, factors: Callable | None = None) -> Plan:
    """The plan of rank-n sets with level sizes k, and t_(2n+2) t_(2n+3) = t
    with hua: it walks p, q, t, t_(2r-1) on each level r and the shared
    t_(2n+1) .. t_(2n+4) (less t_(2n+3) with hua), solves each t_(2r)
    from its balancing relation, and declares factors(values)."""
    kk, names = (0,) + tuple(k), [f"t{i}" for i in range(1, 2 * n + 5)]
    expos = [kk[r] - kk[r - 1] + kk[n] - 2 for r in range(1, n + 1)]  # of t in each relation
    level = names[0 : 2 * n : 2]
    shared = [name for j, name in enumerate(names[2 * n :]) if not (hua and j == 2)]

    def build(v: dict) -> Draw:
        p, q, t = v["p"], v["q"], v["t"]
        ts = [v.get(name) for name in names]
        if hua:
            ts[2 * n + 2] = t / ts[2 * n + 1]
        tail = math.prod(ts[2 * n :])
        for r, expo in enumerate(expos, start=1):
            ts[2 * r - 1] = p * q / (t**expo * ts[2 * r - 2] * tail)
        values = {"p": p, "q": q, "t": t, "c": sqrt(p * q / t)} | dict(zip(names, ts))
        return Draw(values, [(n, tuple(k), tuple(ts))], factors(values) if factors else [], [])

    return Plan(f"n={n}, k={tuple(k)}", ("p", "q", "t", *level, *shared), ("p", "q", "t", *shared, *level), build)


def selberg_bounds(n: int, k, rho: float, crossed: bool = False) -> list:
    """(row, cap, label) triples, each |monomial of row| <= cap, for a
    rank-n set with level sizes k whose integrand's towers stay at or
    below rho: every vertex tower of a level with variables, t when a
    level carries two or more variables and c when two adjacent levels
    carry variables.  The other torus conditions keep INWARD_CAP, and
    |p|, |q|, |t|, |pq/t| <= NOME_CAP and every modulus >= LOWEST bound
    the rest.  With crossed, level 1's towers u = c^(1-n) t_1, c^(1-n)
    t_2 lie outside the circle, for the residue-corrected contour: 1/|u|,
    |u p|, |u q| and, on a level 2 with variables, |c u| and |c / u| stay
    at or below rho."""
    pair, edge = max(k) >= 2, any(a and b for a, b in zip(k, k[1:]))
    t_row, c_row = exponent_row(n, (T, 1)), exponent_row(n, (C, 1))
    bounds = []
    for row, label, tower in torus_conditions(n, k):
        if crossed and tower in ((1, 0), (1, 1)):
            shifts = [("1/u", -1, ()), ("u p", 1, ((P, 1),)), ("u q", 1, ((Q, 1),))]
            if n >= 2 and k[1]:
                shifts += [("c u", 1, ((C, 1),)), ("c / u", -1, ((C, 1),))]
            for name, sign, terms in shifts:
                new = tuple(sign * e + f for e, f in zip(row, exponent_row(n, *terms)))
                bounds.append((new, rho, f"{label} crossed: {name}"))
        else:
            tight = tower is not None or (row == t_row and pair) or (row == c_row and edge)
            bounds.append((row, rho if tight else INWARD_CAP, label))
    caps = [("p", [(P, 1)]), ("q", [(Q, 1)]), ("t", [(T, 1)]), ("pq/t", [(P, 1), (Q, 1), (T, -1)])]
    for name, terms in caps:
        bounds.append((exponent_row(n, *terms), NOME_CAP, f"|{name}| <= {NOME_CAP}"))
    for pos, name in [(P, "p"), (Q, "q"), (T, "t")] + [(C + i, f"t_{i}") for i in range(1, 2 * n + 5)]:
        bounds.append((exponent_row(n, (pos, -1)), 1 / LOWEST, f"|{name}| >= {LOWEST}"))
    return bounds


def chebyshev_centre(G: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(y, r, weights) maximising r subject to G_i y + r |G_i| <= h_i,
    by a dense tableau simplex with Bland's rule; the weights are the
    dual values, positive on binding rows.  G y <= h must be bounded."""
    m, d = G.shape
    g = np.linalg.norm(G, axis=1)
    if np.any((g == 0) & (h < 0)):  # a constant row that fails outright
        return np.zeros(d), -math.inf, ((g == 0) & (h < 0)).astype(float)
    # columns y+, y-, r+, r-, slacks with r = r0 + r+ - r-: r0, the
    # largest r at y = 0, makes the slacks a feasible first basis
    r0 = np.min(h[g > 0] / g[g > 0])
    cols = 2 * d + 2 + m
    tab = np.zeros((m + 1, cols + 1))
    tab[:m, :cols] = np.hstack([G, -G, g[:, None], -g[:, None], np.eye(m)])
    tab[:m, cols] = np.maximum(h - r0 * g, 0.0)
    tab[m, 2 * d : 2 * d + 2] = -1.0, 1.0  # reduced costs of min -r
    basis = list(range(2 * d + 2, cols))
    while (entering := np.flatnonzero(tab[m, :cols] < -1e-12)).size:
        j = entering[0]
        rows = np.flatnonzero(tab[:m, j] > 1e-12)
        ratios = tab[rows, cols] / tab[rows, j]
        i = min(rows[ratios <= ratios.min() + 1e-12], key=lambda row: basis[row])
        tab[i] /= tab[i, j]
        others = np.arange(m + 1) != i
        tab[others] -= np.outer(tab[others, j], tab[i])
        basis[i] = j
    x = np.zeros(cols)
    x[basis] = tab[:m, cols]
    return x[:d] - x[d : 2 * d], r0 + x[2 * d] - x[2 * d + 1], tab[m, 2 * d + 2 : cols]


class SelbergPolytope:
    """The log-modulus polytope of a plan's draws: each set's
    selberg_bounds at rho (crossed as given, and kept), each pole tower
    at rho and each floor.  Its coordinates are the walked log-moduli;
    radius is the Chebyshev radius in them, and why_empty names the LP's
    binding rows."""

    def __init__(self, plan: Plan, rho: float, crossed: bool):
        self.plan, self.crossed = plan, crossed
        unit = np.eye(len(plan.walked))
        rows = dict(zip(plan.walked, map(LogModulus, unit)))
        at = plan.build({name: rows.get(name, LogModulus(0 * unit[0])) for name in plan.phased})
        p, q, t = (at.values[name] for name in "pqt")
        bounds = []
        for n, k, ts in at.sets:
            bases = (p, q, t, sqrt(p * q / t)) + ts
            bounds += [(monomial(bases, row), cap, label) for row, cap, label in selberg_bounds(n, k, rho, crossed)]
        bounds += [(value, rho, label) for value, label in at.poles] + at.floors
        self.labels = [label for _, _, label in bounds]
        self.G = np.array([value.row for value, _, _ in bounds])
        if not np.all((self.G > 0).any(axis=0) & (self.G < 0).any(axis=0)):  # needed for a bounded LP
            raise ValueError(f"a walked value of {plan.name} lacks an upper or a lower bound")
        self.h = np.log([cap for _, cap, _ in bounds])
        self.centre, self.radius, self.weights = chebyshev_centre(self.G, self.h)

    def why_empty(self) -> str:
        """The infeasible note.  Its radius is the Chebyshev radius in the free
        (walked) log-moduli y, max_y min_i (h_i - G_i y) / |G_i|; it is not the
        common margin max_y min_i (h_i - G_i y) that every bound keeps at once."""
        labels = dict.fromkeys(lab for lab, w in zip(self.labels, self.weights) if w > 1e-9)
        return (
            f"no parameter set for {self.plan.name}: the log-modulus polytope is empty "
            f"(Chebyshev radius {self.radius:.3g}); {', '.join(labels)} cannot hold together"
        )

    def draw(self, rng) -> Draw:
        """The plan's draw WALK_STEPS hit-and-run steps from the centre,
        with uniform phases, its sets as ParamSets."""
        G, h, y = self.G, self.h, self.centre
        for _ in range(WALK_STEPS):
            u = rng.standard_normal(len(y))
            u /= np.linalg.norm(u)
            gu, slack = G @ u, h - G @ y
            lo, hi = np.max(slack[gu < 0] / gu[gu < 0]), np.min(slack[gu > 0] / gu[gu > 0])
            y = y + rng.uniform(lo, hi) * u
        moduli = dict(zip(self.plan.walked, np.exp(y)))
        phase = {name: cmath.exp(2j * math.pi * rng.uniform()) for name in self.plan.phased}
        drawn = self.plan.build({name: float(moduli.get(name, 1.0)) * phase[name] for name in phase})
        p, q, t = (drawn.values[name] for name in "pqt")
        return replace(drawn, sets=[ParamSet(n, k, p, q, t, ts) for n, k, ts in drawn.sets])
