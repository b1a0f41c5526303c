"""Cubic exponential sums, local solution counts, and the singular series.

S(q, a) = sum_{r=1..q} e(a r^3 / q) is evaluated through the distribution
of cubes mod q, so a full table over a costs one length-q FFT; the same
cube_spectrum sums over any index set (arcs.mean_value_grid's Weyl sums at
every j/M).  The series coefficients use the normalized fourth power
(S(q,a)/q)^4: with the exponent taken as -4 the series diverges wildly, so
+4 is what the surrounding arithmetic forces (and what the truncation
diagnostics confirm).

Only the float64 A(q, .) tables (series_coefficient_table) and the Euler
density tables (_euler_factor_table) stay cached.  The series take Q_max
<= _Q_MAX_CAP, and the table cache holds that many tables, so a walk
q = 1..Q_max never evicts a table before its next use.  The spectrum and
cube-residue vectors a table is built from are freed after the build;
gauss_sum_table keeps a small cache for cubic_gauss_sum's few moduli.

Both vectorised series apply one length-q table per modulus to every n.
When the n are a run of consecutive integers (a window), _apply_table
takes the table as a periodic run, in at most three slice operations and
without a per-n residue; any other array gathers table[n % q].  Each
element gets the same table values in the same order with the same IEEE
operation on either path, so the two give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from cubelab.params import PreconditionError, ResourceGuardError

__all__ = [
    "SeriesReport",
    "CongruenceCounter",
    "LocalDensity",
    "MAIN_TERM_CONSTANT",
    "cube_spectrum",
    "cubic_gauss_sum",
    "gauss_sum_table",
    "local_congruence_count",
    "multiplicative_weight",
    "series_coefficient",
    "series_coefficient_table",
    "singular_series_truncated",
    "singular_series_values",
    "singular_series_euler",
    "local_density",
    "main_term",
    "main_term_exponent",
    "main_terms",
    "count_ratios",
]

#: Gamma(4/3)^2 / Gamma(2/3), the archimedean factor of the main term.
MAIN_TERM_CONSTANT: float = math.gamma(4.0 / 3.0) ** 2 / math.gamma(2.0 / 3.0)

_DENSITY_MODULUS_CAP = 10**6
_Q_MAX_CAP = 4096  # largest series modulus


@dataclass(frozen=True)
class SeriesReport:
    """Truncated singular series with per-q partial sums.

    tail_estimate is the spread (max - min) of the running totals over
    q in (Q_max/2, Q_max], an observed-fluctuation diagnostic: generic
    tail bounds for this series hold only off an exceptional set, so no
    per-n bound is asserted.
    """

    n: int
    Q_max: int
    partial_sums: tuple[tuple[int, float, float], ...] = field(repr=False)
    value: float
    tail_estimate: float


@dataclass(frozen=True)
class CongruenceCounter:
    """Count of y in [1,q]^6 with y1^3-y2^3+y3^3-y4^3+y5^3-y6^3 = 0 (mod q)."""

    q: int
    count: int


@dataclass(frozen=True)
class LocalDensity:
    """Stabilized density of four-cube solutions to x1^3+..+x4^3 = n mod p^k."""

    p: int
    n: int
    k_used: int
    value: float
    converged: bool


def _cube_counts(q: int, values: np.ndarray | None = None) -> np.ndarray:
    """counts[c] = #{x in values : x^3 = c (mod q)}, values by default 1..q."""
    x = np.arange(q, dtype=np.int64) if values is None else np.asarray(values, dtype=np.int64) % q
    return np.bincount((x * x % q) * x % q, minlength=q)


def cube_spectrum(q: int, values: np.ndarray | None = None) -> np.ndarray:
    """sum_{x in values} e(a x^3 / q), a < q (values 1..q: S(q, a)); a fresh in-place FFT."""
    z = _cube_counts(q, values).astype(np.complex128)
    np.fft.fft(z, out=z)
    return np.conj(z, out=z)


@lru_cache(maxsize=128)
def gauss_sum_table(q: int) -> np.ndarray:
    """S(q, a) for a = 0..q-1, cached for cubic_gauss_sum's few moduli q <= q_max."""
    return cube_spectrum(q)


def cubic_gauss_sum(q: int, a: int) -> complex:
    """S(q, a) = sum_{r=1..q} e(a r^3 / q), for 1 <= q <= _DENSITY_MODULUS_CAP."""
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    if q > _DENSITY_MODULUS_CAP:
        raise ResourceGuardError(f"q={q} exceeds the modulus cap {_DENSITY_MODULUS_CAP}")
    return complex(gauss_sum_table(q)[a % q])


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer cyclic convolution of two length-q vectors."""
    q = len(a)
    full = np.convolve(a, b)
    out = full[:q].copy()
    out[: q - 1] += full[q:]
    return out


def local_congruence_count(q: int, cap: int = 60) -> CongruenceCounter:
    """Exact count of y in [1,q]^6 with alternating cube sum divisible by q.

    Computed as a six-fold cyclic convolution of the cube-residue frequency
    vector (cost O(q^2)), not a 6-nested loop.
    """
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    if q > cap:
        raise PreconditionError(f"q={q} exceeds the guard cap {cap}")
    plus = _cube_counts(q).astype(np.int64)
    minus = plus[(-np.arange(q)) % q]
    acc = plus.copy()
    for factor in (minus, plus, minus, plus, minus):
        acc = _cyclic_convolve(acc, factor)
    return CongruenceCounter(q=q, count=int(acc[0]))


@lru_cache(maxsize=4096)
def _factorize(q: int) -> tuple[tuple[int, int], ...]:
    out = []
    d, m = 2, q
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def multiplicative_weight(q: int) -> float:
    """Multiplicative majorant w(q) of |S(q,a)|/q on coprime classes.

    On a prime power p^(3u+v): 3 * p^(-u-1/2) when v = 1, p^(-u-1) when
    v in {2, 3}; w(1) = 1.
    """
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    value = 1.0
    for p, e in _factorize(q):
        u, v = divmod(e - 1, 3)
        v += 1
        if v == 1:
            value *= 3.0 * p ** (-u - 0.5)
        else:
            value *= float(p) ** (-u - 1)
    return value


@lru_cache(maxsize=_Q_MAX_CAP)
def series_coefficient_table(q: int) -> np.ndarray:
    """A(q, m) for m = 0..q-1: sum over coprime a of (S(q,a)/q)^4 e(-a m/q).

    The table is one FFT of the masked fourth-power vector; the imaginary
    parts must vanish (conjugate a <-> q-a pairing) and are checked before
    the real coercion.  The cache holds every table up to _Q_MAX_CAP:
    sum 8q bytes, 16 MB after a series at Q_max = 2000 and 67 MB at 4096.
    """
    weights = (cube_spectrum(q) / q) ** 4
    coprime = np.ones(q, dtype=bool)  # for q = 1 this admits a = 0, i.e. the a = q term
    for p, _ in _factorize(q):
        coprime[::p] = False
    weights = np.where(coprime, weights, 0.0)
    table = np.fft.fft(weights)
    bad = np.abs(table.imag) > np.maximum(1e-9 * np.abs(table), 1e-12)
    if np.any(bad):
        worst = int(np.argmax(np.abs(table.imag)))
        raise ArithmeticError(
            f"A({q}, {worst}) has non-negligible imaginary part {table[worst].imag:.3e}"
        )
    return table.real.copy()


def series_coefficient(q: int, n: int) -> float:
    """A(q, n), real by conjugate pairing; multiplicative in q for fixed n.  q <= _Q_MAX_CAP."""
    if q < 1 or n < 1:
        raise PreconditionError(f"q and n must be positive, got q={q}, n={n}")
    if q > _Q_MAX_CAP:
        raise ResourceGuardError(f"q={q} exceeds the series modulus cap {_Q_MAX_CAP}")
    return float(series_coefficient_table(q)[n % q])


def _check_q_max(Q_max: int) -> None:
    """1 <= Q_max <= _Q_MAX_CAP, checked before any table is built."""
    if Q_max < 1:
        raise PreconditionError(f"Q_max must be >= 1, got {Q_max}")
    if Q_max > _Q_MAX_CAP:
        raise ResourceGuardError(f"Q_max={Q_max} exceeds the series modulus cap {_Q_MAX_CAP}")


def singular_series_truncated(n: int, Q_max: int) -> SeriesReport:
    """Partial sums of the four-cube singular series up to modulus Q_max.

    1 <= Q_max <= _Q_MAX_CAP (4096); the value has the bits of
    singular_series_values at the same n.
    """
    _check_q_max(Q_max)
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    partials = []
    running = 0.0
    for q in range(1, Q_max + 1):
        a_qn = float(series_coefficient_table(q)[n % q])
        running += a_qn
        partials.append((q, a_qn, running))
    window = [total for q, _, total in partials if q > Q_max / 2]
    tail = max(window) - min(window) if window else 0.0
    return SeriesReport(n=n, Q_max=Q_max, partial_sums=tuple(partials),
                        value=running, tail_estimate=tail)


def _positive_int64(ns) -> np.ndarray:
    """ns as an int64 array, every entry checked to be in [1, 2^63)."""
    try:
        ns = np.asarray(ns, dtype=np.int64)
    except OverflowError:
        raise PreconditionError("every n must be below 2^63, the int64 limit") from None
    if np.any(ns < 1):
        raise PreconditionError("all n must be positive")
    return ns


def _run_start(ns: np.ndarray) -> int | None:
    """ns[0] when ns[i] = ns[0] + i for every i (a window of consecutive n), else None."""
    if len(ns) and int(ns[-1]) - int(ns[0]) == len(ns) - 1 and np.all(np.diff(ns) == 1):
        return int(ns[0])
    return None


def _apply_table(out: np.ndarray, table: np.ndarray, ns: np.ndarray,
                 first: int | None, op) -> None:
    """out[i] = op(out[i], table[ns[i] % q]) in place, q = len(table).

    With first = ns[0] of a run (ns[i] = first + i) the table is applied
    as a periodic run in at most three slices: a head up to the first n
    divisible by q, a body viewed as (k, q) that takes the table by
    broadcasting, and a tail.  No per-n residue is computed, and every
    element sees the same operands as the gather path (first = None).
    """
    q = len(table)
    if first is None:
        op(out, table[ns % q], out=out)
        return
    r = first % q
    head = min(q - r, len(out)) if r else 0
    if head == len(out):  # the whole run lies inside one period
        op(out, table[r : r + head], out=out)
        return
    if head:
        op(out[:head], table[r:], out=out[:head])
    k, tail = divmod(len(out) - head, q)
    if k:
        body = out[head : head + k * q].reshape(k, q)
        op(body, table, out=body)
    if tail:
        op(out[-tail:], table[:tail], out=out[-tail:])


def singular_series_values(ns: np.ndarray, Q_max: int) -> np.ndarray:
    """Truncated singular series for a whole array of n at once.

    The series converges only conditionally, and a truncation is not
    promised positive: at Q_max = 2000 it is <= 0 at 34 n in [2, 10^4], all
    in the depressed classes n = +-4 (mod 9).  singular_series_euler is the
    accurate evaluation.

    The tables are added in order q = 1..Q_max.  A run of consecutive n (as
    batch_scan passes) takes each table as a periodic run; any other array
    gathers per-n residues.  Both paths give the same bits.  Every n must
    be positive and below 2^63 (int64), and 1 <= Q_max <= _Q_MAX_CAP (4096).
    """
    _check_q_max(Q_max)
    ns = _positive_int64(ns)
    first = _run_start(ns)
    out = np.zeros(len(ns), dtype=np.float64)
    for q in range(1, Q_max + 1):
        _apply_table(out, series_coefficient_table(q), ns, first, np.add)
    return out


def _density_table(modulus: int) -> np.ndarray:
    """M(modulus, r) / modulus^3 for every residue r, by convolving the cube-frequency vector."""
    counts = _cube_counts(modulus).astype(np.float64)
    return np.fft.irfft(np.fft.rfft(counts) ** 4, modulus) / float(modulus) ** 3


def local_density(p: int, n: int, k_max: int) -> LocalDensity:
    """Euler-factor oracle: density of x1^3+...+x4^3 = n (mod p^k), stabilized.

    Densities are computed for k = 1, 2, ... up to k_max, stopping once two
    consecutive values agree to 1e-6 relative at a level k >= v_p(n) + 1
    (v_3(n) + 2 at p = 3), from which the density no longer moves; a k_max
    below that level reports converged=False.  Lower levels can agree too
    early (n = 48: 1.375 at levels 3 and 4, 1.3125 from level 5 on).  For p
    not dividing 3n the level is 1: every solution mod p has a unit
    coordinate, so Hensel lifting fixes the density at its k=1 value.  A
    solution with every coordinate divisible by p needs p^3 | n, which sets
    the level for p != 3; at p = 3 it was measured against the 3^12 tables.
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    if p < 2 or _factorize(p) != ((p, 1),):
        raise PreconditionError(f"p must be prime, got {p}")
    if k_max < 1:
        raise PreconditionError(f"k_max must be >= 1, got {k_max}")
    if p**k_max > _DENSITY_MODULUS_CAP:
        raise PreconditionError(
            f"p^k_max = {p**k_max} exceeds the modulus cap {_DENSITY_MODULUS_CAP}"
        )

    stable_level = 2 if p == 3 else 1
    m = n
    while m % p == 0:
        m //= p
        stable_level += 1
    value = float(_density_table(p)[n % p])
    k_used, converged = 1, stable_level == 1
    for k in range(2, k_max + 1):
        nxt = float(_density_table(p**k)[n % p**k])
        converged = k >= stable_level and abs(nxt - value) <= 1e-6 * max(abs(nxt), 1e-30)
        value, k_used = nxt, k
        if converged:
            break
    return LocalDensity(p=p, n=n, k_used=k_used, value=value, converged=converged)


def _float_power(n: int, exponent: float) -> float:
    """float(n) ** exponent; past the float range a PreconditionError, not an OverflowError."""
    try:
        return float(n) ** exponent
    except OverflowError:
        raise PreconditionError(f"{n}^{exponent} overflows a float") from None


def main_term_exponent(n_max: int, theta: float) -> float:
    """2 theta - 1/3, checked: finite, with n_max^(2 theta - 1/3) a finite double.

    Else PreconditionError.  This also covers n^theta at every n in
    [2, n_max]: it cannot overflow for theta <= 1/3, and above 1/3 the
    exponent exceeds theta.  n_max is a positive int (no int64 limit).
    """
    exponent = 2 * theta - 1 / 3
    if not math.isfinite(exponent):
        raise PreconditionError(f"theta must keep 2 theta - 1/3 finite, got {theta}")
    _float_power(n_max, exponent)
    return exponent


def main_terms(ns, series: np.ndarray, theta: float) -> np.ndarray:
    """Gamma(4/3)^2/Gamma(2/3) * series * n^(2 theta - 1/3), one entry per n.

    The one place the main term is written.  ns is a sequence of positive
    ints and series their truncated singular series, from either
    evaluator; main_term_exponent(max(ns), theta) is checked before any
    arithmetic.  The term inherits the truncation's sign: it is <= 0
    wherever the series is (see singular_series_values).
    """
    if not len(ns):
        return np.empty(0)
    exponent = main_term_exponent(np.max(ns), theta)
    return MAIN_TERM_CONSTANT * series * np.asarray(ns, dtype=np.float64) ** exponent


def count_ratios(counts: np.ndarray, main: np.ndarray) -> np.ndarray:
    """counts / main wherever the main term is nonzero (signed), NaN where it is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(main != 0.0, counts / main, np.nan)


def main_term(n: int, theta: float, Q_max: int) -> float:
    """main_terms at one n >= 2, with the series from singular_series_truncated."""
    if n < 2:
        raise PreconditionError(f"n must be >= 2, got {n}")
    series = singular_series_truncated(n, Q_max).value
    return float(main_terms([n], np.array([series]), theta)[0])


@lru_cache(maxsize=1024)
def _euler_factor_table(p: int) -> tuple[int, np.ndarray]:
    """(modulus, _density_table(modulus)): the deepest p^k <= 10^6 for p <= 31, else p."""
    modulus = p
    while p <= 31 and modulus * p <= _DENSITY_MODULUS_CAP:
        modulus *= p
    return modulus, _density_table(modulus)


def singular_series_euler(ns: np.ndarray, p_max: int = 2000) -> np.ndarray:
    """Euler-product evaluation of the singular series over primes <= p_max.

    For p not dividing 3n the level-1 density is already exact (Hensel), so
    only p <= 31 use their deepest affordable level; the skipped corrections
    for larger ramified p are below sum p^-3 < 1e-4.  Stabilization needs
    the p-adic valuation of n to sit a couple of levels under the table
    depth, which desk-scale windows satisfy.

    The factors multiply in ascending p.  A run of consecutive n takes each
    factor table as a periodic run, any other array by per-n residues, with
    the same bits either way.  Every n must be positive and below 2^63.
    """
    from cubelab.smooth import primes_in  # deferred: smooth imports nothing from here

    ns = _positive_int64(ns)
    first = _run_start(ns)
    out = np.ones(len(ns), dtype=np.float64)
    for p in primes_in(1, p_max):
        _apply_table(out, _euler_factor_table(int(p))[1], ns, first, np.multiply)
    return out
