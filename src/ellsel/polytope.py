"""Selberg parameter sets drawn from their log-modulus polytope.

Every condition on a parameter set bounds the modulus of a monomial in
p, q, t, c and the t_i, and each balancing relation fixes one, so the
sets form a polytope in the log-moduli with free phases.  A draw starts
at its Chebyshev centre, found by a dense simplex LP (Boyd &
Vandenberghe, "Convex Optimization", 2004, §8.5), and walks hit-and-run
steps (Smith, Operations Research 32, 1984).  A radius at or below zero
certifies the polytope empty.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ellsel.densities import C, INWARD_CAP, P, Q, T, ParamSet, exponent_row, torus_conditions

NOME_CAP = 0.9  # |p|, |q|, |t| and |pq/t|
LOWEST = 0.05  # every modulus
WALK_STEPS = 24


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
    """The log-modulus polytope of rank-n sets with level sizes k under
    bounds, with t_(2n+2) t_(2n+3) = t when hua is set.  Its coordinates
    are the free log-moduli, of p, q, t, t_(2r-1) on each level r and the
    shared t_(2n+1) .. t_(2n+4) (less t_(2n+3) with hua); radius is the
    Chebyshev radius in them, and why_empty names the LP's binding rows."""

    def __init__(self, n: int, k, bounds: list, hua: bool = False):
        self.n, self.k, self.hua, self.bounds = n, tuple(k), hua, bounds
        # lift maps the free log-moduli to those of p, q, t, t_1 .. t_(2n+4)
        shared = [3 + 2 * n + j for j in range(4)]
        self.free = [P, Q, T] + [1 + 2 * r for r in range(1, n + 1)]
        self.free += [pos for j, pos in enumerate(shared) if not (hua and j == 2)]
        self.lift = lift = np.zeros((2 * n + 7, len(self.free)))
        lift[self.free, range(len(self.free))] = 1.0
        if hua:
            lift[shared[2]] = lift[T] - lift[shared[1]]
        kk, tail = (0,) + self.k, lift[shared].sum(axis=0)
        self.expos = [kk[r] - kk[r - 1] + kk[n] - 2 for r in range(1, n + 1)]  # of t in each relation
        for r, expo in enumerate(self.expos, start=1):
            lift[2 + 2 * r] = lift[P] + lift[Q] - expo * lift[T] - lift[1 + 2 * r] - tail
        rows = np.array([row for row, _, _ in bounds], dtype=float)
        # c = (pq/t)^(1/2): its exponent moves onto p, q and t
        logs = np.hstack([rows[:, :3] + np.outer(rows[:, C], (0.5, 0.5, -0.5)), rows[:, 4:]])
        self.G, self.h = logs @ lift, np.log([cap for _, cap, _ in bounds])
        self.centre, self.radius, self.weights = chebyshev_centre(self.G, self.h)

    def why_empty(self) -> str:
        labels = dict.fromkeys(lab for (_, _, lab), w in zip(self.bounds, self.weights) if w > 1e-9)
        return (
            f"no parameter set for n={self.n}, k={self.k}: the log-modulus polytope is empty "
            f"(Chebyshev radius {self.radius:.3g}); {', '.join(labels)} cannot hold together"
        )

    def draw(self, rng) -> ParamSet:
        """A set WALK_STEPS hit-and-run steps from the centre: uniform phases
        on the free parameters, each partner solved from its relation."""
        G, h, y = self.G, self.h, self.centre
        for _ in range(WALK_STEPS):
            u = rng.standard_normal(len(y))
            u /= np.linalg.norm(u)
            gu, slack = G @ u, h - G @ y
            lo, hi = np.max(slack[gu < 0] / gu[gu < 0]), np.min(slack[gu > 0] / gu[gu > 0])
            y = y + rng.uniform(lo, hi) * u
        moduli = np.exp(self.lift @ y)

        def phased(pos: int) -> complex:
            return float(moduli[pos]) * cmath.exp(2j * math.pi * rng.uniform())

        n = self.n
        p, q, t = phased(P), phased(Q), phased(T)
        ts = [0j] * (2 * n + 4)
        for pos in self.free[3 + n :]:
            ts[pos - 3] = phased(pos)
        if self.hua:
            ts[2 * n + 2] = t / ts[2 * n + 1]
        tail = math.prod(ts[2 * n :])
        for r, expo in enumerate(self.expos, start=1):
            ts[2 * r - 2] = phased(1 + 2 * r)
            ts[2 * r - 1] = p * q / (t**expo * ts[2 * r - 2] * tail)
        return ParamSet(n, self.k, p, q, t, tuple(ts))
