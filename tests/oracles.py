"""Independent brute-force oracles used across the test suite.

These deliberately use the slowest, most literal definitions (explicit
truncated products, exhaustive enumeration) so they share no code with
the implementations they check.
"""

from __future__ import annotations

import itertools


def theta_product(z: complex, p: complex, nterms: int = 60) -> complex:
    """Direct truncated product (z;p)_inf (p/z;p)_inf with nterms factors."""
    result = 1.0 + 0.0j
    for k in range(nterms):
        result *= (1.0 - z * p**k) * (1.0 - p ** (k + 1) / z)
    return result


def gamma_double_product(z: complex, p: complex, q: complex, eps: float = 1e-17) -> complex:
    """Elliptic gamma by the literal double product, truncated over the
    index set {(i,j): |p^i q^j| * max(|z|, 1/|z|) >= eps}."""
    zscale = max(abs(z), 1.0 / abs(z))
    result = 1.0 + 0.0j
    i = 0
    while abs(p) ** i * zscale >= eps or i == 0:
        j = 0
        pi = p**i
        while abs(pi) * abs(q) ** j * zscale >= eps or j == 0:
            w = pi * q**j
            result *= (1.0 - p * q * w / z) / (1.0 - w * z)
            j += 1
        if abs(p) == 0:
            break
        i += 1
    return result


def all_partitions_up_to(max_size: int, max_len: int | None = None):
    """All partitions with |lam| <= max_size (optionally bounded length)."""
    out = [()]
    for n in range(1, max_size + 1):
        out.extend(_partitions_of(n, n, max_len))
    return out


def _partitions_of(n: int, largest: int, max_len: int | None, depth: int = 0):
    if n == 0:
        yield ()
        return
    if max_len is not None and depth >= max_len:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_of(n - first, first, max_len, depth + 1):
            yield (first,) + rest


def conjugate_by_columns(parts) -> tuple:
    """Conjugate partition by literally counting column heights."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def strip_by_interlacing(lam, mu) -> bool:
    """mu < lam as interlacing lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    n = max(len(lam), len(mu))
    lam = tuple(lam) + (0,) * (n + 1 - len(lam))
    mu = tuple(mu) + (0,) * (n + 1 - len(mu))
    return all(lam[i] >= mu[i] >= lam[i + 1] for i in range(n))


def sub_partitions_brute(lam):
    """All mu contained in lam, by filtering the full cartesian product."""
    if not lam:
        return [()]
    ranges = [range(part + 1) for part in lam]
    out = set()
    for combo in itertools.product(*ranges):
        trimmed = tuple(v for v in combo if v > 0)
        if all(trimmed[i] >= trimmed[i + 1] for i in range(len(trimmed) - 1)) and all(
            c <= l for c, l in zip(combo, lam)
        ):
            if tuple(sorted(combo, reverse=True)) == combo:
                out.add(trimmed)
    return sorted(out, key=lambda t: (sum(t), t))


def cell_symbol_product(parts, z: complex, base: complex, nome: complex, t: complex, kind="c0"):
    """C0, C+ or C- of the partition `parts` at a scalar z, as the literal
    product over its cells (i, j) of theta(z base^e t^f; nome):
    c0 (e, f) = (j-1, 1-i), plus (lam_i+j-1, 2-lam'_j-i), minus
    (lam_i-j, lam'_j-i)."""
    conj = conjugate_by_columns(parts)
    result = 1.0 + 0.0j
    for i, part in enumerate(parts, start=1):
        for j in range(1, part + 1):
            e, f = {
                "c0": (j - 1, 1 - i),
                "plus": (part + j - 1, 2 - conj[j - 1] - i),
                "minus": (part - j, conj[j - 1] - i),
            }[kind]
            result *= theta_product(z * base**e * t**f, nome)
    return result


def delta0_product(parts, a: complex, bs, base: complex, nome: complex, t: complex) -> complex:
    """Delta0 of `parts` at scalar a and b_i: prod_i C0(b_i) / C0(pq a / b_i),
    with pq = base * nome."""
    result = 1.0 + 0.0j
    for b in bs:
        num = cell_symbol_product(parts, b, base, nome, t)
        result *= num / cell_symbol_product(parts, base * nome * a / b, base, nome, t)
    return result


def _theta_mpc(z, p):
    """(z;p)_inf (p/z;p)_inf for mpmath numbers, at the working precision."""
    import mpmath

    return mpmath.qp(z, p) * mpmath.qp(p / z, p)


def theta_mp(z: complex, p: complex, dps: int = 40) -> complex:
    """theta(z; p) as (z;p)_inf (p/z;p)_inf, both q-Pochhammer symbols
    evaluated by mpmath at dps significant digits."""
    import mpmath

    with mpmath.workdps(dps):
        return complex(_theta_mpc(mpmath.mpc(z), mpmath.mpc(p)))


def delta0_mp(parts, a: complex, bs, base: complex, nome: complex, t: complex, dps: int = 40):
    """Delta0 of `parts` at scalar a and b_i, prod_i C0(b_i) / C0(pq a / b_i)
    with pq = base * nome, where C0 is the product over the cells (i, j)
    of theta(z base^(j-1) t^(1-i); nome).  Every argument, theta value
    and product is formed by mpmath at dps significant digits."""
    import mpmath

    with mpmath.workdps(dps):
        a, base, nome, t = (mpmath.mpc(v) for v in (a, base, nome, t))
        result = mpmath.mpc(1)
        for b in bs:
            b = mpmath.mpc(b)
            for i, part in enumerate(parts, start=1):
                for j in range(1, part + 1):
                    shift = base ** (j - 1) * t ** (1 - i)
                    result *= _theta_mpc(b * shift, nome)
                    result /= _theta_mpc(base * nome * a / b * shift, nome)
        return complex(result)


def gamma_mp(z: complex, p: complex, q: complex, dps: int = 40, eps: float = 1e-20) -> complex:
    """Elliptic gamma by the literal double product
    prod_{i,j>=0} (1 - p^(i+1) q^(j+1) / z) / (1 - p^i q^j z) at dps digits,
    truncated over the index set {(i,j): |p^i q^j| * max(|z|, 1/|z|) >= eps}.
    The dropped factors move the value by at most
    2 eps (rows + 1/(1-|p|)) / (1-|q|), below 1e-15 for |p|, |q| <= 0.9."""
    import mpmath

    cut = eps / max(abs(z), 1 / abs(z))
    ap, aq = abs(p), abs(q)
    with mpmath.workdps(dps):
        z, p, q = mpmath.mpc(z), mpmath.mpc(p), mpmath.mpc(q)
        pq_z = p * q / z
        num = den = mpmath.mpc(1)
        pi, api = mpmath.mpc(1), 1.0
        while api >= cut:
            w, aw = pi, api
            while aw >= cut:
                num *= 1 - pq_z * w
                den *= 1 - w * z
                w *= q
                aw *= aq
            pi *= p
            api *= ap
        return complex(num / den)


def dense_table(table):
    """A factor table as a plain array: a vector as it is, a pair record
    as its n x n matrix [s, t] = at_prod[(s + t) % n] * at_ratio[(s - t) % n],
    gathered by explicit index arrays."""
    import numpy as np

    if not hasattr(table, "at_prod"):
        return table
    n = len(table.at_prod)
    s, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return table.at_prod[(s + t) % n] * table.at_ratio[(s - t) % n]


def expand_tables(integrand, n: int, phase: float):
    """A factorised integrand's samples on the n-point grid at `phase` as
    one (n,) * nvars tensor: its factor tables broadcast to full shape,
    multiplied together and scaled by the prefactor."""
    import numpy as np

    tensor = np.full((n,) * integrand.nvars, complex(integrand.prefactor))
    for table, axes in integrand.values(n, phase):
        shape = [1] * integrand.nvars
        for axis in axes:
            shape[axis] = n
        tensor = tensor * dense_table(table).reshape(shape)
    return tensor


def interp_pole_members(first, second, b: complex, p: complex, q: complex, t: complex):
    """Every inward pole of R*_mu(..; a, b) with mu = (first, second),
    the partitions given as tuples of row lengths: each cross pole
    b t^(i-1) p^-l1 q^-l2 of a row filled in both components, and each
    member of the towers b^-1 t^(1-j) s^(N+1) o^l and b t^(j-1) s^N o^-l
    (s, o = q, p for the first component and p, q for the second) from
    N = 0 on while the nome power s^(N+1) o^l or s^N o^-l keeps a
    modulus of at least 1e-6."""
    poles = []
    for i in range(min(len(first), len(second))):
        for l1 in range(1, first[i] + 1):
            for l2 in range(1, second[i] + 1):
                poles.append(b * t**i / (p**l1 * q**l2))
    for parts, s, o in ((first, q, p), (second, p, q)):
        for j, row in enumerate(parts):
            for ell in range(1, row + 1):
                for up, exp_o in ((1, ell), (0, -ell)):
                    n = 0
                    while n == 0 or abs(s ** (n + up) * o**exp_o) >= 1e-6:
                        shift = s ** (n + up) * o**exp_o
                        poles.append(shift / (b * t**j) if up else b * t**j * shift)
                        n += 1
    return poles


def kernel_draw_inside(shape: str, v: dict, cap: float = 0.95) -> bool:
    """Whether a draw of a kernel-weighted family keeps every modulus in
    the hand-written list its sampler once checked below cap.  v names
    the draw's values: p, q, t, t1.. t8, b, c, d and spectator as the
    shape uses them.  Left out are the conditions a sampler still checks
    beside the density: the |c|, |d| floors, vdBult's |pq/t| < 0.9, the
    recursed kernel c d and equal_k's interpolation pole maps."""
    p, q, t = v["p"], v["q"], v["t"]
    c, d = v.get("c"), v.get("d")
    ts = [v.get(f"t{i}") for i in range(9)]
    if shape in ("vdBult", "key_theorem"):
        mods = [t, ts[1], ts[2], ts[3], ts[4], c]
    elif shape == "prop_RK":
        mods = [t, ts[2], ts[3], ts[4], ts[5], c]
    elif shape.startswith("kernel_decomp"):
        mods = [t, p * q / t, v["b"], v["spectator"], c, d]
    elif shape == "xselberg-base":
        mods = [t, ts[3], ts[4], ts[5], ts[6], d]
    elif shape == "xselberg-recursion":
        mods = [t, c, p * q / t, t * c / ts[3], t * c / ts[4], *ts[3:9], d]
    elif shape == "equal_k":
        mods = [t, c, p * q / t, ts[1] / c, ts[2] / c, t * c / ts[3], t * c / ts[4], *ts[3:9]]
        mods += [ts[1], ts[2]]  # the right side's rank-one integral
    else:
        raise ValueError(f"unknown shape {shape}")
    return all(abs(m) < cap for m in mods)
