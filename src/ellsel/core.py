"""Modified theta functions, the elliptic gamma function and elliptic
shifted factorials.

All evaluators accept either Python complex scalars or numpy arrays of
complex values and are exact to roughly 100x the configured tail
threshold away from poles and zeros.  Arguments of any magnitude are
reduced into a safe annulus with the quasi-periodicity of theta and the
shift equation Gamma(q*z) = theta_p(z) * Gamma(z) before a series is
summed, so no special care is needed at the call sites.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS_TAIL = 1e-17

# Relative distance below which an argument counts as sitting on a pole
# of the elliptic gamma function.  Double precision cannot resolve
# closer approaches, so callers needing those must cancel upstream.
POLE_EXCLUSION = 1e-10


class DomainError(ValueError):
    """Argument outside the domain of an elliptic special function."""


class PoleError(ArithmeticError):
    """Evaluation requested within the exclusion radius of a pole."""


@dataclass(frozen=True)
class NomePair:
    """The pair of nomes (p, q) with |p|, |q| < 1 plus the tail threshold
    used to truncate infinite products/series."""

    p: complex
    q: complex
    eps_tail: float = DEFAULT_EPS_TAIL

    def __post_init__(self):
        if abs(self.p) >= 1.0 or abs(self.q) >= 1.0:
            raise DomainError(
                f"nomes must satisfy |p|,|q| < 1, got |p|={abs(self.p):.4g}, "
                f"|q|={abs(self.q):.4g}"
            )
        if not (0.0 < self.eps_tail <= 1e-12):
            raise DomainError(f"eps_tail must lie in (0, 1e-12], got {self.eps_tail}")

    @property
    def pq(self) -> complex:
        return self.p * self.q

    def swapped(self) -> "NomePair":
        return NomePair(self.q, self.p, self.eps_tail)


def _as_complex_array(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr, (arr.ndim == 0)


def theta(z, p: complex, eps_tail: float = DEFAULT_EPS_TAIL):
    """Modified theta function (z;p)_inf (p/z;p)_inf.

    Quasi-periodic: theta(p*z) = -theta(z)/z.  Accepts scalar or array z.
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
    nterms = 1
    while abs(p) ** nterms * wmax >= eps_tail:
        nterms += 1
    nterms += 1  # guard term

    result = np.ones_like(w)
    pk = 1.0 + 0.0j
    for _ in range(nterms):
        result *= (1.0 - w * pk) * (1.0 - p * pk / w)
        pk *= p
    result *= pref
    return complex(result) if scalar else result


def _series_coefficients(p: complex, q: complex, nterms: int) -> np.ndarray:
    """Coefficients 1/(m (1-p^m)(1-q^m)) for m = 1..nterms."""
    coeffs = np.empty(nterms + 1, dtype=np.complex128)
    coeffs[0] = 0.0
    pm = 1.0 + 0.0j
    qm = 1.0 + 0.0j
    for m in range(1, nterms + 1):
        pm *= p
        qm *= q
        coeffs[m] = 1.0 / (m * (1.0 - pm) * (1.0 - qm))
    return coeffs


def _log_gamma_annulus(w: np.ndarray, nomes: NomePair) -> np.ndarray:
    """log Gamma_{p,q}(w) for w inside the annulus |pq| < |w| < 1.

    Uses log Gamma(w) = sum_{m>=1} (w^m - (pq/w)^m) / (m (1-p^m)(1-q^m)).
    """
    pq = nomes.pq
    u = pq / w
    rate = max(float(np.max(np.abs(w))), float(np.max(np.abs(u))))
    if rate >= 0.995:
        raise DomainError("gamma series argument too close to the unit circle")
    nterms = max(8, int(math.log(nomes.eps_tail) / math.log(rate)) + 2)
    coeffs = _series_coefficients(nomes.p, nomes.q, nterms)
    total = np.zeros_like(w)
    wm = np.ones_like(w)
    um = np.ones_like(w)
    for m in range(1, nterms + 1):
        wm = wm * w
        um = um * u
        total += coeffs[m] * (wm - um)
    return total


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

    logg = _log_gamma_annulus(w, nomes)

    # Gamma(step^m w) = Gamma(w) * prod_{j=0}^{m-1} theta_other(step^j w)
    # for m >= 0, and divides by theta factors for m < 0.
    mmax = int(np.max(m)) if m.size else 0
    mmin = int(np.min(m)) if m.size else 0
    for j in range(0, mmax):
        mask = m > j
        if np.any(mask):
            args = np.where(mask, w * step**j, 0.5)
            logg = logg + np.where(mask, _safe_log(theta(args, other, nomes.eps_tail)), 0.0)
    for j in range(1, -mmin + 1):
        mask = -m >= j
        if np.any(mask):
            args = np.where(mask, w * step ** (-j), 0.5)
            logg = logg - np.where(mask, _safe_log(theta(args, other, nomes.eps_tail)), 0.0)
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
    multiply dozens of gamma factors) cannot overflow.
    """
    total = 0.0 + 0.0j
    for idx, z in enumerate(zs):
        try:
            total += complex(elliptic_gamma_log(z, nomes))
        except (DomainError, PoleError) as exc:
            raise type(exc)(f"factor {idx}: {exc}") from exc
    return cmath.exp(total)


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


def qpochhammer_inf(a: complex, q: complex, eps_tail: float = DEFAULT_EPS_TAIL) -> complex:
    """(a;q)_inf truncated when |a q^k| falls below eps_tail."""
    if abs(q) >= 1.0:
        raise DomainError("qpochhammer_inf requires |q| < 1")
    result = 1.0 + 0.0j
    term = complex(a)
    while abs(term) >= eps_tail:
        result *= 1.0 - term
        term *= q
    result *= 1.0 - term  # guard term
    return result
