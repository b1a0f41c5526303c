"""Independent reference computations the benchmark checks cubelab against.

Nothing here calls cubelab: each function recomputes a quantity by a
different method (sorted-array counting instead of keyed tables, exact
integer residues instead of phase reduction, the confluent
hypergeometric closed form instead of quadrature, closed-form integrals of
trigonometric polynomials instead of adaptive rules).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np


def icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by float guess and exact correction."""
    x = int(round(n ** (1.0 / 3.0))) if n > 0 else 0
    while x > 0 and x**3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def theta_exact(theta: float):
    """theta as cubelab reads it: a fraction p/q (q <= 64) within 4 ulp, else the float."""
    frac = Fraction(theta).limit_denominator(64)
    if abs(frac - Fraction(theta)) <= 4 * Fraction(math.ulp(theta)):
        return frac
    return theta


def floor_power(n: int, theta: float) -> int:
    """floor(n^theta), certified by exact integer comparison."""
    exact = theta_exact(theta)
    with mp.workdps(60):
        if isinstance(exact, Fraction):
            y = int(mp.floor(mp.power(n, mp.mpf(exact.numerator) / exact.denominator)))
            p, q = exact.numerator, exact.denominator
            while y > 0 and y**q > n**p:
                y -= 1
            while (y + 1) ** q <= n**p:
                y += 1
            return y
        return int(mp.floor(mp.power(n, mp.mpf(theta))))


def _pair_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sums v_i^3 + v_j^3 over i <= j, with ordered-pair weights 1 or 2."""
    c = values.astype(np.int64) ** 3
    i, j = np.triu_indices(len(c))
    sums = c[i] + c[j]
    order = np.argsort(sums, kind="stable")
    return sums[order], np.where(i == j, 1, 2)[order]


def count_mitm(n: int, theta: float) -> int:
    """Ordered positive (x1, x2, y1, y2) with x1^3+x2^3+y1^3+y2^3 = n, y_i <= n^theta.

    Sorted pair sums and binary search, not a keyed table.
    """
    bound = min(floor_power(n, theta), icbrt(n - 3))
    if bound < 1:
        return 0
    xs, xw = _pair_sums(np.arange(1, icbrt(n - 2) + 1))
    cum = np.concatenate(([0], np.cumsum(xw)))
    ys, yw = _pair_sums(np.arange(1, bound + 1))
    targets = n - ys
    hits = cum[np.searchsorted(xs, targets, "right")] - cum[np.searchsorted(xs, targets, "left")]
    return int((hits * yw).sum())


def count_brute(n: int, theta: float) -> int:
    """The same count by enumerating every (x1, x2, y1, y2); small n only."""
    bound = min(floor_power(n, theta), icbrt(n))
    xt = icbrt(n)
    x = np.arange(1, xt + 1, dtype=np.int64) ** 3
    y = np.arange(1, bound + 1, dtype=np.int64) ** 3
    total = (x[:, None, None, None] + x[None, :, None, None]
             + y[None, None, :, None] + y[None, None, None, :])
    return int(np.count_nonzero(total == n))


def weyl_residue_sum(values: np.ndarray, j: int, M: int) -> complex:
    """sum_x e(j x^3 / M) from exact integer residues of x^3 mod M."""
    v = np.asarray(values, dtype=np.int64) % M
    cubes = (v * v % M) * v % M
    phase = (cubes * (j % M)) % M
    return complex(np.exp(2j * np.pi * phase.astype(np.float64) / M).sum())


def weyl_direct(alpha: float, values: np.ndarray) -> complex:
    """sum_x e(alpha x^3) with alpha * x^3 reduced mod 1 in exact rationals."""
    a = Fraction(alpha)
    total = 0j
    for x in values.tolist():
        frac = a * x**3
        total += cmath.exp(2j * math.pi * float(frac - math.floor(frac)))
    return total


def gauss_sum(q: int, a: int) -> complex:
    """S(q, a) = sum_{r=1..q} e(a r^3 / q) term by term."""
    return sum(cmath.exp(2j * math.pi * ((a * r**3) % q) / q) for r in range(1, q + 1))


def phi(t: float) -> complex:
    """phi(t) = integral_0^1 e(t u^3) du = 1F1(1/3; 4/3; 2 pi i t)."""
    with mp.workdps(30):
        return complex(mp.hyp1f1(mp.mpf(1) / 3, mp.mpf(4) / 3, 2j * mp.pi * t))


def v_closed(beta: float, Z: float) -> complex:
    """integral_Z^2Z e(beta g^3) dg = 2Z phi(8 beta Z^3) - Z phi(beta Z^3)."""
    return 2 * Z * phi(8 * beta * Z**3) - Z * phi(beta * Z**3)


def w_closed(beta: float, Z: float) -> complex:
    """integral_0^Z e(beta g^3) dg = Z phi(beta Z^3)."""
    return Z * phi(beta * Z**3)


def containing_label(alpha: float, X: float, P: float) -> tuple[int, int] | None:
    """Smallest (q, a) with q <= X and |alpha - a/q| <= X / (q P^3), else None."""
    for q in range(1, math.floor(X) + 1):
        for a in (math.floor(alpha * q), math.floor(alpha * q) + 1):
            if 0 <= a <= q and math.gcd(a, q) == 1:
                if abs(alpha - a / q) <= X / (q * P**3):
                    return q, a
    return None


def trig_polynomial(factors, twist: int) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, integer coefficients) of prod W_i^e_i * e(-twist alpha).

    factors holds (term values, exponent, conjugated); each W is
    sum_x e(alpha x^3).
    """
    freqs = np.zeros(1, dtype=np.int64)
    coefs = np.ones(1, dtype=np.int64)
    for values, exponent, conjugated in factors:
        f = np.asarray(values, dtype=np.int64) ** 3
        if conjugated:
            f = -f
        for _ in range(exponent):
            prod_f = (freqs[:, None] + f[None, :]).ravel()
            prod_c = np.repeat(coefs, len(f))
            freqs, inverse = np.unique(prod_f, return_inverse=True)
            coefs = np.bincount(inverse.ravel(), weights=prod_c).astype(np.int64)
    return freqs - twist, coefs


def integrate_trig(freqs: np.ndarray, coefs: np.ndarray, lo: float, hi: float) -> complex:
    """integral_lo^hi of sum_k c_k e(k alpha) d alpha, term by term in closed form."""
    re, im = [], []
    for k, c in zip(freqs.tolist(), coefs.tolist()):
        if k == 0:
            val = c * (hi - lo)
        else:
            val = c * (cmath.exp(2j * math.pi * k * hi)
                       - cmath.exp(2j * math.pi * k * lo)) / (2j * math.pi * k)
        re.append(val.real)
        im.append(val.imag)
    return complex(math.fsum(re), math.fsum(im))


def largest_prime_factors(lo: int, hi: int) -> np.ndarray:
    """Largest prime factor of each m in [lo, hi] by trial division (1 -> 1)."""
    m = np.arange(lo, hi + 1, dtype=np.int64)
    rest = m.copy()
    lpf = np.ones_like(m)
    p = 2
    while p * p <= hi:
        hit = rest % p == 0
        while hit.any():
            rest[hit] //= p
            lpf[hit] = p
            hit = rest % p == 0
        p += 1 if p == 2 else 2
    return np.where(rest > 1, rest, lpf)


def smooth_cap(base: float, eta: float) -> float:
    """base**eta, snapped to an integer within 1e-9 relative (cubelab's convention)."""
    cap = base**eta
    nearest = round(cap)
    if nearest >= 1 and abs(cap - nearest) <= 1e-9 * max(1.0, cap):
        return float(nearest)
    return cap


def smooth_members(lo: int, hi: int, cap: float) -> np.ndarray:
    """m in [lo, hi] whose prime factors are all <= cap."""
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    m = np.arange(lo, hi + 1, dtype=np.int64)
    return m[largest_prime_factors(lo, hi) <= cap]


def equal_pair_sums(values: np.ndarray) -> int:
    """#{(y1, y2, y3, y4): y1^3 + y2^3 = y3^3 + y4^3} over the given values."""
    c = np.asarray(values, dtype=np.int64) ** 3
    _, mult = np.unique((c[:, None] + c[None, :]).ravel(), return_counts=True)
    return int((mult.astype(np.int64) ** 2).sum())
