"""Exact representation counting via keyed two-cube tables.

Counts are of ORDERED tuples throughout, matching the generating-function
moments they equal by orthogonality.  The small-cube admission y <= n^theta
is decided in exact integer arithmetic: theta within representation noise
of a small rational p/q turns into the test y^(3q) <= n^(3p), and anything
else goes through a guarded float evaluation with high-precision escalation
at near-ties, so the bound never flickers with rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import mpmath as mp
import numpy as np

from cubelab.expsums import MAIN_TERM_CONSTANT, singular_series_values
from cubelab.params import (
    Parameters,
    PreconditionError,
    ResourceGuardError,
    integer_cube_root,
    integer_root,
)
from cubelab.smooth import restricted_primes, smooth_interval_set, smooth_set

__all__ = [
    "RepCountReport",
    "TwoCubeTable",
    "ScanResult",
    "minicube_bound",
    "two_cube_table",
    "count_r",
    "count_rho",
    "count_sigma",
    "batch_scan",
    "hua_count",
    "mixed_mean_count",
]

_SINGLE_N_CAP = 10**10       # keeps the per-call two-cube table ~10^6 entries
_WINDOW_SLICE_CAP = 1 << 27  # max length of the shared two-cube array
_HUA_R_CAP = 5000            # R^2 ordered pairs are materialized for k=2


@dataclass(frozen=True)
class RepCountReport:
    n: int
    theta: float
    count: int
    variant: str
    predicted: float | None = None
    ratio: float | None = None

    @property
    def exceptional(self) -> bool:
        return self.count == 0


@dataclass(frozen=True)
class TwoCubeTable:
    """Multiset of x1^3 + x2^3 over ordered pairs from a cube range."""

    limit: int
    x_lo: int
    x_hi: int
    entries: dict[int, int]

    def lookup(self, s: int) -> int:
        return self.entries.get(s, 0)

    def pair_count(self) -> int:
        return sum(self.entries.values())


def _snap_to_rational(theta: float) -> Fraction | None:
    """theta as a small-denominator fraction, when within representation noise."""
    if not 0 < theta < 1:
        return None
    frac = Fraction(theta).limit_denominator(64)
    if abs(frac - Fraction(theta)) <= 4 * Fraction(math.ulp(theta)):
        return frac
    return None


def minicube_bound(n: int, theta: float) -> int:
    """floor(n^theta), certified.

    Rational theta = p/q (after snapping) reduces to the exact integer test
    y^q <= n^p.  Otherwise the float value is trusted only when it is at
    least 1e-9 (relative) away from an integer; near-ties re-evaluate at 40
    significant digits.
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    frac = _snap_to_rational(theta)
    if frac is not None:
        return integer_root(n**frac.numerator, frac.denominator)
    cand = float(n) ** theta
    if abs(cand - round(cand)) < 1e-9 * max(cand, 1.0):
        with mp.workdps(40):
            return int(mp.floor(mp.power(n, theta)))
    return math.floor(cand)


def two_cube_table(x_lo: int, x_hi: int, limit: int) -> TwoCubeTable:
    """Ordered-pair sums x1^3 + x2^3 with x_lo < x_i <= x_hi, keyed by sum <= limit."""
    if x_hi - x_lo > 40_000:
        raise ResourceGuardError(f"cube range ({x_lo}, {x_hi}] too wide to materialize")
    xs = np.arange(x_lo + 1, x_hi + 1, dtype=np.int64)
    entries: dict[int, int] = {}
    if len(xs):
        cubes = xs**3
        sums = (cubes[:, None] + cubes[None, :]).ravel()
        sums = sums[sums <= limit]
        vals, mult = np.unique(sums, return_counts=True)
        entries = {int(v): int(m) for v, m in zip(vals, mult)}
    return TwoCubeTable(limit=limit, x_lo=x_lo, x_hi=x_hi, entries=entries)


def count_r(n: int, theta: float, allow_zero: bool = False) -> RepCountReport:
    """Ordered solutions of n = x1^3+x2^3+y1^3+y2^3 with y_i <= n^theta.

    Meet-in-the-middle: every ordered small-cube pair indexes one lookup in
    the unrestricted two-cube table.  Variables are positive by default;
    allow_zero admits zero cubes in all four positions.
    """
    if n < 4:
        raise PreconditionError(f"n must be >= 4, got {n}")
    if n > _SINGLE_N_CAP:
        raise ResourceGuardError(f"n={n} exceeds the single-call cap {_SINGLE_N_CAP}")
    low = 0 if allow_zero else 1
    rest_min = 2 * low**3  # smallest the two cube-pair partners can sum to
    bound = minicube_bound(n, theta)
    bound = min(bound, integer_cube_root(n - 3 * low**3))
    table = two_cube_table(low - 1, integer_cube_root(n - rest_min), n - rest_min)
    count = 0
    if bound >= low:
        ys = np.arange(low, bound + 1, dtype=np.int64) ** 3
        tvals = (ys[:, None] + ys[None, :]).ravel()
        tvals = tvals[tvals <= n - rest_min]
        vals, mult = np.unique(tvals, return_counts=True)
        count = sum(int(m) * table.lookup(n - int(t)) for t, m in zip(vals, mult))
    return RepCountReport(n=n, theta=theta, count=count, variant="r")


def count_rho(n: int, params: Parameters) -> RepCountReport:
    """Ordered solutions of n = x^3 + (p w)^3 + y1^3 + y2^3 over the
    restricted ranges: P < x <= 2P, p in the restricted prime window,
    w in the matching smooth shell, y_i in the smooth set up to R.

    (p, w) pairs count separately even when two products p*w coincide: the
    tuples are distinct solutions by definition.
    """
    if not params.N < n <= 2 * params.N:
        raise PreconditionError(f"n={n} outside the window ({params.N}, {2 * params.N}]")
    P = params.P
    primes = restricted_primes(params.Y, params.J).primes
    if not primes:
        return RepCountReport(n=n, theta=params.theta, count=0, variant="rho")
    smooth_members = smooth_set(params.R, params.eta).members
    if len(smooth_members) ** 2 > 4_000_000:
        raise ResourceGuardError(
            f"smooth pair table would need {len(smooth_members)**2} entries"
        )
    pair_sums: dict[int, int] = {}
    for y1 in smooth_members:
        for y2 in smooth_members:
            t = y1**3 + y2**3
            pair_sums[t] = pair_sums.get(t, 0) + 1
    xs = range(math.floor(P) + 1, math.floor(2 * P) + 1)
    count = 0
    for p in primes:
        shell = smooth_interval_set(max(P / p, 1.0), max(2 * P / params.Y, 1.0),
                                    params.eta).members
        for w in shell:
            m = (p * w) ** 3
            for x in xs:
                rem = n - x**3 - m
                if rem >= 2:
                    count += pair_sums.get(rem, 0)
    return RepCountReport(n=n, theta=params.theta, count=count, variant="rho")


def count_sigma(n: int, theta: float, P: float, R: float) -> RepCountReport:
    """Ordered solutions with 1 <= x_i <= 2P, max(x1,x2) > P, 1 <= y_i <= R.

    Mirrors the generating-function difference: (full x <= 2P count) minus
    (both x <= P count), each via a keyed two-cube table.
    """
    if n < 4:
        raise PreconditionError(f"n must be >= 4, got {n}")
    y_top = math.floor(R)
    if y_top < 1:
        return RepCountReport(n=n, theta=theta, count=0, variant="sigma")
    full = two_cube_table(0, math.floor(2 * P), n - 2)
    inner = two_cube_table(0, math.floor(P), n - 2)
    ys = np.arange(1, y_top + 1, dtype=np.int64) ** 3
    tvals = (ys[:, None] + ys[None, :]).ravel()
    tvals = tvals[tvals <= n - 2]
    vals, mult = np.unique(tvals, return_counts=True)
    count = sum(int(m) * (full.lookup(n - int(t)) - inner.lookup(n - int(t)))
                for t, m in zip(vals, mult))
    return RepCountReport(n=n, theta=theta, count=count, variant="sigma")


@dataclass(frozen=True)
class ScanResult:
    """Window scan output: per-n arrays plus the exceptional-set summary."""

    theta: float
    Q_max: int
    ns: np.ndarray
    counts: np.ndarray
    series: np.ndarray | None
    predicted: np.ndarray | None
    ratios: np.ndarray | None
    exceptional_count: int
    exceptional_fraction: float
    mean_ratio: float | None
    median_ratio: float | None

    def reports(self) -> list[RepCountReport]:
        out = []
        for i, n in enumerate(self.ns):
            pred = float(self.predicted[i]) if self.predicted is not None else None
            ratio = float(self.ratios[i]) if self.ratios is not None else None
            out.append(RepCountReport(n=int(n), theta=self.theta,
                                      count=int(self.counts[i]), variant="r",
                                      predicted=pred, ratio=ratio))
        return out


def _bound_segments(n_lo: int, n_hi: int, theta: float):
    """Partition (n_lo, n_hi] into runs of constant floor(n^theta)."""
    segments = []
    start = n_lo + 1
    while start <= n_hi:
        b = minicube_bound(start, theta)
        lo, hi = start, n_hi
        while lo < hi:  # largest n in the window with the same bound
            mid = (lo + hi + 1) // 2
            if minicube_bound(mid, theta) == b:
                lo = mid
            else:
                hi = mid - 1
        segments.append((start, lo, b))
        start = lo + 1
    return segments


def batch_scan(N_lo: int, N_hi: int, theta: float, Q_max: int = 0) -> ScanResult:
    """Count every n in (N_lo, N_hi] against one shared two-cube array.

    Q_max > 0 adds the predicted main term (truncated singular series times
    the archimedean factor) and per-n ratios.  The exceptional summary
    counts n with no representation at all.

    ``ratios`` and ``mean_ratio`` divide by that truncated-series main term,
    which is <= 0 at dozens of n per window (a truncation of the
    conditionally convergent series is not promised positive), so those
    ratios can be negative or huge and their mean is not a trend.
    """
    if N_lo < 3 or N_hi <= N_lo:
        raise PreconditionError(f"need 3 <= N_lo < N_hi, got ({N_lo}, {N_hi})")
    width = N_hi - N_lo
    bound_hi = minicube_bound(N_hi, theta)
    t_max = 2 * bound_hi**3
    s_lo = max(2, N_lo + 1 - t_max)
    slice_len = N_hi - s_lo
    if slice_len > _WINDOW_SLICE_CAP:
        raise ResourceGuardError(
            f"window needs a two-cube slice of {slice_len} entries "
            f"(cap {_WINDOW_SLICE_CAP}); shrink the window or theta"
        )

    # Shared unrestricted two-cube multiplicities on [s_lo, N_hi - 2].
    xmax = integer_cube_root(N_hi - 2)
    big = np.zeros(slice_len + 1, dtype=np.int32)  # index s - s_lo
    cubes = np.arange(1, xmax + 1, dtype=np.int64) ** 3
    for c1 in cubes:
        sums = c1 + cubes
        keep = sums[(sums >= s_lo) & (sums <= N_hi - 2)]
        if len(keep):
            big[keep - s_lo] += 1

    counts = np.zeros(width, dtype=np.int64)  # index n - (N_lo + 1)
    pair_mult: dict[int, int] = {}
    current_b = 0
    for seg_lo, seg_hi, b in _bound_segments(N_lo, N_hi, theta):
        while current_b < b:  # extend the ordered small-cube pair multiset
            current_b += 1
            c_new = current_b**3
            for y in range(1, current_b):
                t = c_new + y**3
                pair_mult[t] = pair_mult.get(t, 0) + 2
            pair_mult[2 * c_new] = pair_mult.get(2 * c_new, 0) + 1
        for t, m in pair_mult.items():
            n_start = max(seg_lo, t + s_lo)  # keep the lookup inside the slice
            if n_start > seg_hi:
                continue
            a = n_start - t - s_lo
            li = n_start - (N_lo + 1)
            length = seg_hi - n_start + 1
            counts[li : li + length] += m * big[a : a + length]

    ns = np.arange(N_lo + 1, N_hi + 1, dtype=np.int64)
    series = predicted = ratios = None
    mean_ratio = median_ratio = None
    if Q_max >= 1:
        series = singular_series_values(ns, Q_max)
        predicted = MAIN_TERM_CONSTANT * series * ns.astype(np.float64) ** (2 * theta - 1 / 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(predicted != 0.0, counts / predicted, np.nan)
        finite = ratios[np.isfinite(ratios)]
        if len(finite):
            mean_ratio = float(finite.mean())
            median_ratio = float(np.median(finite))
    exceptional = int(np.count_nonzero(counts == 0))
    return ScanResult(theta=theta, Q_max=Q_max, ns=ns, counts=counts,
                      series=series, predicted=predicted, ratios=ratios,
                      exceptional_count=exceptional,
                      exceptional_fraction=exceptional / width,
                      mean_ratio=mean_ratio, median_ratio=median_ratio)


def hua_count(R: int, k: int) -> int:
    """Ordered solutions of y1^3+...+yk^3 = y(k+1)^3+...+y(2k)^3, y_i <= R."""
    if R < 1:
        raise PreconditionError(f"R must be >= 1, got {R}")
    if k == 1:
        return R
    if k != 2:
        raise PreconditionError(f"k must be 1 or 2, got {k}")
    if R > _HUA_R_CAP:
        raise ResourceGuardError(f"R={R} exceeds the pair-table cap {_HUA_R_CAP}")
    cubes = np.arange(1, R + 1, dtype=np.int64) ** 3
    sums = (cubes[:, None] + cubes[None, :]).ravel()
    _, mult = np.unique(sums, return_counts=True)
    return int((mult.astype(np.int64) ** 2).sum())


def _sum_square_multiplicities(values: np.ndarray) -> int:
    _, mult = np.unique(values, return_counts=True)
    return int((mult.astype(np.int64) ** 2).sum())


def mixed_mean_count(P: float, R: float, eta: float, shape: str,
                     k_pairs: tuple[tuple[int, tuple[int, ...]], ...] | None = None) -> int:
    """Exact diophantine count equal (by orthogonality) to a full-circle moment.

    Shapes: "f2h6" for |f^2 h^6|, "K2h6" for |K^2 h^6|, "K8" for |K|^8,
    "f2K2h4" for |f^2 K^2 h^4|.  The bilinear index pairs default to the
    restricted primes at Y = P^(11/79), J = 0, which is empty at toy P;
    pass k_pairs explicitly for a nontrivial bilinear range.
    """
    if P > 30 or R > 30:
        raise ResourceGuardError(f"eighth-degree shapes need P, R <= 30, got ({P}, {R})")
    smooth_members = np.asarray(smooth_set(max(R, 1.0), eta).members, dtype=np.int64)
    xs = np.arange(math.floor(P) + 1, math.floor(2 * P) + 1, dtype=np.int64)
    if k_pairs is None:
        Y = P ** (11 / 79)
        prime_list = restricted_primes(max(Y, 1.0), 0).primes
        k_pairs = tuple(
            (p, smooth_interval_set(max(P / p, 1.0), max(2 * P / Y, 1.0), eta).members)
            for p in prime_list
        )
    k_values = np.array(
        [p * w for p, ws in k_pairs for w in ws], dtype=np.int64
    )

    def cube(v: np.ndarray) -> np.ndarray:
        return v.astype(np.int64) ** 3

    h3 = cube(smooth_members)
    if shape == "f2h6":
        if len(smooth_members) == 0:
            return 0
        side = (cube(xs)[:, None, None, None] + h3[None, :, None, None]
                + h3[None, None, :, None] + h3[None, None, None, :]).ravel()
        return _sum_square_multiplicities(side)
    if shape == "K2h6":
        if len(k_values) == 0 or len(smooth_members) == 0:
            return 0
        side = (cube(k_values)[:, None, None, None] + h3[None, :, None, None]
                + h3[None, None, :, None] + h3[None, None, None, :]).ravel()
        return _sum_square_multiplicities(side)
    if shape == "K8":
        if len(k_values) == 0:
            return 0
        kc = cube(k_values)
        side = (kc[:, None, None, None] + kc[None, :, None, None]
                + kc[None, None, :, None] + kc[None, None, None, :]).ravel()
        return _sum_square_multiplicities(side)
    if shape == "f2K2h4":
        if len(k_values) == 0 or len(smooth_members) == 0:
            return 0
        side = (cube(xs)[:, None, None, None] + cube(k_values)[None, :, None, None]
                + h3[None, None, :, None] + h3[None, None, None, :]).ravel()
        return _sum_square_multiplicities(side)
    raise PreconditionError(f"unknown shape {shape!r}")
