"""Modified theta functions, the elliptic gamma function and elliptic
shifted factorials.

All evaluators accept either Python complex scalars or numpy arrays of
complex values and are exact to roughly 100x the tail threshold
EPS_TAIL away from poles and zeros.  Arguments of any magnitude are
reduced into a safe annulus with the quasi-periodicity of theta and the
shift equation Gamma(q*z) = theta_p(z) * Gamma(z) before a series is
summed, so no special care is needed at the call sites.

theta multiplies its truncated product as one table of factors per
block of points, reduced down the term axis, so a call costs a fixed
number of numpy passes whatever the nome: callers pass a few dozen
points at a time, where per-pass overhead, not arithmetic, is the cost.
The table is capped at THETA_TABLE_ENTRIES entries, so long arrays
stream through it in blocks and memory does not grow with the call.

Batching contract: the evaluators are pointwise, so callers stack every
argument of a product (the gamma factors of a density, the cells of a
symbol) into one array and make one call; the cost then follows the
number of calls, not the number of points.  elliptic_gamma_multi makes
one array call and falls back to one call per factor only to name a
failing factor.  The elliptic gamma shift ladder is compacted: only the
(point, shift) pairs that exist go into its one theta call, because a
ladder evaluated rung by rung over the whole array costs one theta call
per rung and mostly evaluates masked filler points.

A product of gamma factors on a whole equispaced circle, the points of
a quadrature grid, has a cheaper path: elliptic_gamma_circle sums the
factors' Laurent coefficients of log Gamma into n bins and makes one
inverse FFT, so its cost follows the number of coefficients, not n
times the ladder.  It declines (returns None) when a zero or pole so
close to the circle makes the series longer than the pointwise path
costs, and the caller then evaluates point by point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Modulus below which a term of an infinite product or series counts as
# negligible and the truncation stops.
EPS_TAIL = 1e-17

# Relative distance below which an argument counts as sitting on a pole
# of the elliptic gamma function.  Double precision cannot resolve
# closer approaches, so callers needing those must cancel upstream.
POLE_EXCLUSION = 1e-10

# Largest factor table theta builds at once, in complex entries (512 KiB).
THETA_TABLE_ENTRIES = 1 << 15

# Laurent coefficients per gamma factor and grid point that
# elliptic_gamma_circle forms at most before it leaves a product to the
# pointwise evaluators, which then cost less.
CIRCLE_TERMS_PER_POINT = 32


class DomainError(ValueError):
    """Argument outside the domain of an elliptic special function."""


class PoleError(ArithmeticError):
    """Evaluation requested within the exclusion radius of a pole."""


@dataclass(frozen=True)
class NomePair:
    """The pair of nomes (p, q) with |p|, |q| < 1."""

    p: complex
    q: complex

    def __post_init__(self):
        if abs(self.p) >= 1.0 or abs(self.q) >= 1.0:
            raise DomainError(
                f"nomes must satisfy |p|,|q| < 1, got |p|={abs(self.p):.4g}, "
                f"|q|={abs(self.q):.4g}"
            )

    @property
    def pq(self) -> complex:
        return self.p * self.q

    def swapped(self) -> "NomePair":
        return NomePair(self.q, self.p)


def _as_complex_array(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr, (arr.ndim == 0)


def theta(z, p: complex):
    """Modified theta function (z;p)_inf (p/z;p)_inf.

    Quasi-periodic: theta(p*z) = -theta(z)/z.  Accepts scalar or array z.
    z is reduced into the annulus |p|^(1/2) <= |w| <= |p|^(-1/2), where
    nterms factors (1 - p^k w)(1 - p^(k+1)/w) reach the tail threshold.
    They are evaluated as an (nterms, block) table and multiplied down
    axis 0, with block = THETA_TABLE_ENTRIES // nterms points at a time,
    so the table stays bounded when one call passes thousands of points.
    """
    if abs(p) >= 1.0:
        raise DomainError(f"theta requires |p| < 1, got |p|={abs(p):.4g}")
    arr, scalar = _as_complex_array(z)
    if arr.size == 0:
        return np.empty_like(arr)
    if np.any(arr == 0):
        raise DomainError("theta argument must be nonzero")
    if p == 0:
        out = 1.0 - arr
        return complex(out) if scalar else out

    # Reduce into the annulus |p|^(1/2) <= |w| <= |p|^(-1/2) using
    # theta(p^m w) = (-1)^m w^(-m) p^(-m(m-1)/2) theta(w).
    logp = math.log(abs(p))
    m = np.round(np.log(np.abs(arr)) / logp).astype(np.int64)
    w = arr * np.power(p, -m)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    pref = sign * np.power(w, -m) * np.power(p, -(m * (m - 1)) // 2)

    wmax = max(float(np.max(np.abs(w))), float(np.max(1.0 / np.abs(w))))
    # the first n >= 1 with |p|^n wmax < EPS_TAIL, plus a guard term
    nterms = max(1, math.floor(math.log(EPS_TAIL / wmax) / logp) + 1) + 1

    pk = (p ** np.arange(nterms))[:, None]
    ppk = p * pk
    flat = w.reshape(-1)
    result = np.empty_like(flat)
    block = max(1, THETA_TABLE_ENTRIES // nterms)
    for lo in range(0, flat.size, block):
        wb = flat[lo : lo + block]
        table = 1.0 - pk * wb
        table *= 1.0 - ppk * (1.0 / wb)
        result[lo : lo + block] = table.prod(axis=0)
    result = result.reshape(w.shape) * pref
    return complex(result) if scalar else result


def _series_coefficients(p: complex, q: complex, nterms: int) -> np.ndarray:
    """Coefficients 1/(m (1-p^m)(1-q^m)) for m = 1..nterms."""
    m = np.arange(1, nterms + 1)
    coeffs = np.zeros(nterms + 1, dtype=np.complex128)
    coeffs[1:] = 1.0 / (m * (1.0 - p**m) * (1.0 - q**m))
    return coeffs


def _log_gamma_annulus(w: np.ndarray, nomes: NomePair) -> np.ndarray:
    """log Gamma_{p,q}(w) for w inside the annulus |pq| < |w| < 1.

    Uses log Gamma(w) = sum_{m>=1} (w^m - (pq/w)^m) / (m (1-p^m)(1-q^m)):
    both power series are summed by Horner's rule on the stacked pair
    (w, pq/w), two in-place numpy passes per term.
    """
    pair = np.stack([w, nomes.pq / w])
    rate = float(np.max(np.abs(pair)))
    if rate >= 0.995:
        raise DomainError("gamma series argument too close to the unit circle")
    nterms = max(8, int(math.log(EPS_TAIL) / math.log(rate)) + 2)
    coeffs = _series_coefficients(nomes.p, nomes.q, nterms)
    acc = np.full_like(pair, coeffs[nterms])
    for m in range(nterms - 1, 0, -1):
        acc *= pair
        acc += coeffs[m]
    acc *= pair
    return acc[0] - acc[1]


def _check_gamma_poles(arr: np.ndarray, nomes: NomePair):
    """Raise PoleError when an argument sits within the exclusion radius
    of a pole p^(-i) q^(-j)."""
    amax = float(np.max(np.abs(arr)))
    if amax < 1.0 - 1e-8:
        return
    p, q = nomes.p, nomes.q
    # Poles have modulus >= 1; check candidates w = p^i q^j against 1/z.
    lo = (1.0 / amax) * (1.0 - 1e-8)
    imax = 0 if abs(p) == 0 else max(0, int(math.log(lo) / math.log(abs(p))) + 1)
    jmax = 0 if abs(q) == 0 else max(0, int(math.log(lo) / math.log(abs(q))) + 1)
    for i in range(imax + 1):
        for j in range(jmax + 1):
            w = p**i * q**j
            if abs(w) < lo:
                continue
            bad = np.abs(arr * w - 1.0) < POLE_EXCLUSION
            if np.any(bad):
                raise PoleError(
                    f"gamma argument within exclusion radius of pole p^-{i} q^-{j}"
                )


def _log_gamma(z, nomes: NomePair):
    """log of Gamma_{p,q}(z) up to multiples of 2*pi*i (exact after exp).

    Arguments are shifted into the annulus centred on |pq|^(1/2) with
    Gamma(s*u) = theta_o(u) * Gamma(u), where s is the larger nome and o
    the other one, then the annulus series is summed.
    """
    arr, scalar = _as_complex_array(z)
    if arr.size == 0:
        return np.empty_like(arr), scalar
    if np.any(arr == 0):
        raise DomainError("gamma argument must be nonzero")
    if nomes.p == 0 or nomes.q == 0:
        raise DomainError("elliptic gamma requires nonzero nomes")
    _check_gamma_poles(arr, nomes)

    p, q = nomes.p, nomes.q
    if abs(p) >= abs(q):
        step, other = p, q
    else:
        step, other = q, p
    target = 0.5 * math.log(abs(nomes.pq))
    m = np.round((np.log(np.abs(arr)) - target) / math.log(abs(step))).astype(np.int64)
    w = arr * np.power(step, -m)

    m, w = m.reshape(-1), w.reshape(-1)
    logg = _log_gamma_annulus(w, nomes)

    # Gamma(step^m w) = Gamma(w) * prod_{j=0}^{m-1} theta_other(step^j w)
    # for m >= 0, and divides by theta(step^-j w), j = 1..-m, for m < 0.
    # Only the (point, shift) pairs that exist go into the one theta
    # call, grouped by point, so the ladder costs sum |m| theta points
    # instead of one full-array call per rung.
    shifted = np.flatnonzero(m)
    if shifted.size:
        rungs = np.abs(m[shifted])
        starts = np.cumsum(rungs) - rungs
        point = np.repeat(shifted, rungs)
        rank = np.arange(point.size) - np.repeat(starts, rungs)
        expo = np.where(m[point] > 0, rank, -1 - rank)
        logs = _safe_log(theta(w[point] * np.power(step, expo), other))
        sums = np.add.reduceat(logs, starts)
        # added or subtracted, never scaled by a sign: the log of an
        # exact theta zero is -inf, and -inf times a complex -1 is NaN
        up = m[shifted] > 0
        logg[shifted[up]] += sums[up]
        logg[shifted[~up]] -= sums[~up]
    logg = logg.reshape(arr.shape)
    return (complex(logg) if scalar else logg), scalar


def _safe_log(values):
    vals = np.asarray(values, dtype=np.complex128)
    if np.any(vals == 0):
        # log(0) from an exact zero of a theta factor: the gamma value is
        # an exact zero; -inf real part encodes it through exp().
        with np.errstate(divide="ignore"):
            return np.log(vals)
    return np.log(vals)


def elliptic_gamma(z, nomes: NomePair):
    """Elliptic gamma function: the double product
    prod_{i,j>=0} (1 - p^(i+1) q^(j+1) / z) / (1 - p^i q^j z).

    Satisfies the reflection formula Gamma(z) Gamma(pq/z) = 1, symmetry
    in p and q, and Gamma(p*z) = theta_q(z) Gamma(z).
    """
    logg, scalar = _log_gamma(z, nomes)
    out = np.exp(logg)
    return complex(out) if scalar else out


def elliptic_gamma_log(z, nomes: NomePair):
    """log Gamma_{p,q}(z), determined up to multiples of 2*pi*i."""
    logg, _ = _log_gamma(z, nomes)
    return logg


def elliptic_gamma_multi(zs, nomes: NomePair) -> complex:
    """Product of elliptic gamma values over a sequence of arguments.

    Accumulates in log space so that long products (Selberg integrands
    multiply dozens of gamma factors) cannot overflow.  All factors come
    from one array evaluation; only when that raises are they redone one
    by one, to name the offending factor.
    """
    zs = list(zs)
    try:
        logs = elliptic_gamma_log(np.asarray(zs, dtype=np.complex128), nomes)
    except (DomainError, PoleError):
        for idx, z in enumerate(zs):
            try:
                elliptic_gamma_log(z, nomes)
            except (DomainError, PoleError) as exc:
                raise type(exc)(f"factor {idx}: {exc}") from exc
        raise
    return cmath.exp(complex(np.sum(logs)))


def circle(n: int, phase: float) -> np.ndarray:
    """The n points z_j = exp(i (phase + 2 pi j / n)), j = 0..n-1."""
    return np.exp(1j * (2.0 * math.pi * np.arange(n) / n + phase))


def _tower_terms(base, sign, direction, nomes):
    """Split the tower prod_{i,j>=0} (1 - base p^i q^j z^direction)^sign
    by the modulus of u = base p^i q^j: rows (u, coefficient sign,
    exponent direction, weight kind) of the Laurent series of its log,
    reflected terms |u| > 1 as (log constant, winding), and terms with
    |u| = 1 to within POLE_EXCLUSION, left to be multiplied in pointwise.

    Row i of the double product keeps its members with |u| >= 1 as single
    terms; its tail from the first member with |u| < 1 on sums to the row
    (u, -sign, direction, 1), whose m-th coefficient carries the weight
    1/(1 - q^m); the first row with |base p^i| < 1 and every row after it
    sum to (base p^i, -sign, direction, 2), weight 1/((1-p^m)(1-q^m)).
    Each tail is a closed geometric sum of terms that are all below 1, so
    no series minus a finite part is ever formed.  A reflected term uses
    1 - u y = (-u y)(1 - 1/(u y)): a constant sign log(-u), a winding
    sign * direction in z, and the single row (1/u, -sign, -direction, 0).
    """
    p, q = nomes.p, nomes.q
    rows, reflected, unit = [], [], []
    row = complex(base)
    while abs(row) >= 1.0 - POLE_EXCLUSION:
        u = row
        while abs(u) >= 1.0 - POLE_EXCLUSION:
            if abs(u) > 1.0 + POLE_EXCLUSION:
                reflected.append((sign * cmath.log(-u), sign * direction))
                rows.append((1.0 / u, -sign, -direction, 0))
            else:
                unit.append((u, sign, direction))
            u *= q
        rows.append((u, -sign, direction, 1))
        row *= p
    rows.append((row, -sign, direction, 2))
    return rows, reflected, unit


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^1 .. x^count for each entry of x, one row each.  x^(b w + i) is
    (x^w)^b times x^i from two short cumulative products, so each power
    carries about w + count / w rounding steps: their error grows like
    sqrt(count) ulps where exp(m log x) loses m |arg x| ulps."""
    width = max(1, math.isqrt(count))
    low = np.cumprod(np.broadcast_to(x[:, None], (x.size, width)), axis=1)
    high = np.ones((x.size, -(-count // width)), dtype=np.complex128)
    high[:, 1:] = low[:, -1:]
    np.cumprod(high, axis=1, out=high)
    return (high[:, :, None] * low[:, None, :]).reshape(x.size, -1)[:, :count]


def elliptic_gamma_circle(factors, n: int, phase: float, nomes: NomePair):
    """prod_f Gamma(a_f z^e_f) over factors ((a_f, e_f), ...), e_f an
    integer, on the n-point circle z_j = exp(i (phase + 2 pi j / n)).

    log Gamma(x) = sum_{i,j>=0} [log(1 - p^(i+1) q^(j+1) / x) - log(1 - p^i q^j x)]
    is a Laurent series in z on any circle that misses the zeros and
    poles.  Every row of _tower_terms gives its coefficients up to
    EPS_TAIL, each times exp(i k phase) for its exponent k; they are
    summed into n bins by k mod n, and one inverse FFT gives the log of
    the product on the grid.  On equispaced points that folding is
    exact: it is the aliasing identity of the trapezoid rule.  Terms on
    the unit circle are multiplied in pointwise; a denominator term within
    POLE_EXCLUSION of a grid point raises PoleError.

    Returns None when the rows times the terms they need exceed
    CIRCLE_TERMS_PER_POINT per factor and grid point, where the pointwise
    evaluators cost less: a slow series means a zero or pole close to
    the circle.
    """
    p, q = nomes.p, nomes.q
    if p == 0 or q == 0:
        raise DomainError("elliptic gamma requires nonzero nomes")
    budget = CIRCLE_TERMS_PER_POINT * len(factors) * n
    rows, reflected, unit = [], [], []
    for a, e in factors:
        if a == 0:
            raise DomainError("gamma argument must be nonzero")
        # Gamma(a y) = prod (1 - (pq/a) p^i q^j / y) / prod (1 - a p^i q^j y)
        for base, sign, direction in ((nomes.pq / a, 1, -e), (a, -1, e)):
            # at most (I + 2)(J + 2) members with |u| >= 1, |base p^I| = |base q^J| = 1
            span = max(0.0, math.log(abs(base)))
            if (span / -math.log(abs(p)) + 2) * (span / -math.log(abs(q)) + 2) > budget:
                return None
            terms = _tower_terms(base, sign, direction, nomes)
            for acc, new in zip((rows, reflected, unit), terms):
                acc += new
    u, sign, direction, kind = (np.array(col) for col in zip(*rows))

    # terms until the largest |u|^m falls below EPS_TAIL
    nterms = int(math.log(EPS_TAIL) / math.log(max(float(np.max(np.abs(u))), 1e-300))) + 2
    if u.size * nterms > budget:
        return None
    # rows with one (direction, kind, sign) share exponents and weights
    code = (direction * 3 + kind) * 2 + (sign > 0)
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(np.r_[True, code[order][1:] != code[order][:-1]])
    step = u[order] * np.exp(1j * phase * direction[order])
    sums = np.add.reduceat(_powers(step, nterms), starts, axis=0)
    sign, direction, kind = (col[order][starts] for col in (sign, direction, kind))
    m = np.arange(1, nterms + 1)
    pm, qm = (np.cumprod(np.full(nterms, nome)) for nome in (p, q))
    weights = np.stack([np.ones(nterms), 1.0 / (1.0 - qm), 1.0 / ((1.0 - pm) * (1.0 - qm))])
    coef = sums * weights[kind] * (sign[:, None] / m)
    bins = (direction[:, None] * m % n).ravel()
    folded = np.bincount(bins, coef.real.ravel(), n) + 1j * np.bincount(bins, coef.imag.ravel(), n)

    j = np.arange(n)
    logs = n * np.fft.ifft(folded)
    logs += sum(c for c, _ in reflected)
    wind = sum(w for _, w in reflected)
    if wind:
        logs += 1j * (wind * phase + 2.0 * math.pi * ((wind * j) % n) / n)
    vals = np.exp(logs)
    for u1, s1, d1 in unit:
        term = 1.0 - u1 * np.exp(1j * (d1 * phase + 2.0 * math.pi * ((d1 * j) % n) / n))
        if s1 > 0:
            vals *= term
        elif np.any(np.abs(term) < POLE_EXCLUSION):
            raise PoleError("gamma argument within exclusion radius of a pole on the circle")
        else:
            vals /= term
    return vals


def elliptic_shifted_factorial(z: complex, n: int, nomes: NomePair) -> complex:
    """Elliptic shifted factorial (z;q,p)_n = Gamma(q^n z) / Gamma(z).

    Negative n is covered by the same gamma ratio; for n >= 0 the value
    agrees with prod_{i=1}^{n} theta_p(z q^(i-1)).
    """
    num = elliptic_gamma_log(nomes.q**n * z, nomes)
    den = elliptic_gamma_log(z, nomes)
    val = cmath.exp(complex(num) - complex(den))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise PoleError(f"gamma ratio is singular at z={z}, n={n}")
    return val


def qpochhammer_inf(a: complex, q: complex) -> complex:
    """(a;q)_inf truncated when |a q^k| falls below EPS_TAIL."""
    if abs(q) >= 1.0:
        raise DomainError("qpochhammer_inf requires |q| < 1")
    result = 1.0 + 0.0j
    term = complex(a)
    while abs(term) >= EPS_TAIL:
        result *= 1.0 - term
        term *= q
    result *= 1.0 - term  # guard term
    return result
