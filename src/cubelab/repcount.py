"""Exact representation counting on one sorted pair-sum kernel.

Every count matches two multisets of cube sums: ``_pair_sums`` lists each
left + right sum inside a range by bisecting the sorted left array, and
``_window_counts`` histograms the matches for a window of n.

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

import numpy as np

from cubelab.expsums import _float_power, count_ratios, main_terms, singular_series_values
from cubelab.genfun import spec_from_params
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
    "ScanResult",
    "minicube_bound",
    "count_r",
    "count_rho",
    "count_sigma",
    "batch_scan",
    "hua_count",
    "mixed_mean_count",
]

_SINGLE_N_CAP = 10**10  # keeps each pair-sum array of count_r near 4*10^6 entries
_SIZE_CAP = 1 << 27     # max window width, cube range and pair-sum total
_MATCH_CHUNK = 1 << 20  # matches gathered at once per window segment
_HUA_R_CAP = 5000       # R^2 ordered pairs are materialized for k=2


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


def _snap_to_rational(theta: float) -> Fraction | None:
    """theta as a small-denominator fraction, when within representation noise."""
    if not 0 < theta < 1:
        return None
    frac = Fraction(theta).limit_denominator(64)
    if abs(frac - Fraction(theta)) <= 4 * Fraction(math.ulp(theta)):
        return frac
    return None


def _check_theta(n_max: int, theta: float) -> None:
    """Reject, before any work, a theta that minicube_bound refuses at some n <= n_max.

    That is a non-finite theta, or one whose float path overflows at
    n_max (n^theta grows with n for theta > 0); n_max >= 1.
    """
    if not math.isfinite(theta):
        raise PreconditionError(f"theta must be finite, got {theta}")
    if _snap_to_rational(theta) is None:
        _float_power(n_max, theta)


def minicube_bound(n: int, theta: float) -> int:
    """floor(n^theta), certified.

    Rational theta = p/q (after snapping) reduces to the exact integer test
    y^q <= n^p.  Otherwise the float value is trusted only when it is at
    least 1e-9 (relative) away from an integer; near-ties re-evaluate at 40
    significant digits.  A non-finite theta, or one for which n^theta
    overflows a float, is a PreconditionError.
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    if not math.isfinite(theta):
        raise PreconditionError(f"theta must be finite, got {theta}")
    frac = _snap_to_rational(theta)
    if frac is not None:
        return integer_root(n**frac.numerator, frac.denominator)
    cand = _float_power(n, theta)
    if abs(cand - round(cand)) < 1e-9 * max(cand, 1.0):
        import mpmath as mp  # deferred: the only mpmath use, and a slow import

        with mp.workdps(40):
            return int(mp.floor(mp.power(n, theta)))
    return math.floor(cand)


def _spans(left: np.ndarray, right: np.ndarray, lo: int, hi: int):
    """Per right value r: the start and length of the run of sorted left in [lo - r, hi - r]."""
    start = np.searchsorted(left, lo - right, side="left")
    return start, np.maximum(np.searchsorted(left, hi - right, side="right") - start, 0)


def _gather(left: np.ndarray, right: np.ndarray, start: np.ndarray, length: np.ndarray):
    """left[start[j] + k] + right[j] for every j and 0 <= k < length[j]."""
    total = int(length.sum())
    if total > _SIZE_CAP:
        raise ResourceGuardError(f"{total} pair sums exceed the size cap {_SIZE_CAP}")
    out = np.repeat(start - (np.cumsum(length) - length), length)
    out += np.arange(total)
    out = left[out]  # indices into left, replaced by the values (frees the indices)
    out += np.repeat(right, length)
    return out


def _pair_sums(left: np.ndarray, right: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Every left[i] + right[j] in [lo, hi] over ordered (i, j); left sorted."""
    return _gather(left, right, *_spans(left, right, lo, hi))


def _cubes(lo: int, hi: int) -> np.ndarray:
    """x^3 for lo <= x <= hi, ascending."""
    if hi - lo >= _SIZE_CAP:
        raise ResourceGuardError(f"cube range [{lo}, {hi}] exceeds the size cap {_SIZE_CAP}")
    return np.arange(lo, hi + 1, dtype=np.int64) ** 3


def _window_counts(N_lo: int, N_hi: int, theta: float, low: int = 1) -> np.ndarray:
    """Ordered counts of n = x1^3+x2^3+y1^3+y2^3, y_i <= n^theta, for n in (N_lo, N_hi].

    Every variable is >= low.  The two big cubes form one sorted pair-sum
    array; each run of constant floor(n^theta) matches its small-cube pair
    sums against it, in parts of about _MATCH_CHUNK matches.
    """
    counts = np.zeros(N_hi - N_lo, dtype=np.int64)  # index n - (N_lo + 1)
    # A minicube above the cube root of n - 3 low^3 has no partners.
    segments = _bound_segments(N_lo, N_hi, theta, integer_cube_root(N_hi - 3 * low**3))
    cubes = _cubes(low, integer_cube_root(N_hi - 2 * low**3))
    b_hi = segments[-1][2]
    big = _pair_sums(cubes, cubes, max(2 * low**3, N_lo + 1 - 2 * b_hi**3), N_hi - 2 * low**3)
    if not big.size:
        return counts
    big.sort()
    for seg_lo, seg_hi, b in segments:
        small = cubes[: b - low + 1]
        # Sorted t makes the match queries monotone, which searchsorted
        # serves about five times faster than the unsorted pair order.
        t = np.sort(_pair_sums(small, small, seg_lo - big[-1], seg_hi - big[0]))
        start, length = _spans(big, t, seg_lo, seg_hi)
        marks = np.arange(_MATCH_CHUNK, length.sum(), _MATCH_CHUNK)
        cuts = [0, *np.searchsorted(np.cumsum(length), marks), len(t)]
        view = counts[seg_lo - N_lo - 1 : seg_hi - N_lo]
        for a, z in zip(cuts, cuts[1:]):
            hits = _gather(big, t[a:z], start[a:z], length[a:z])
            hits -= seg_lo
            view += np.bincount(hits, minlength=len(view))
    return counts


def count_r(n: int, theta: float, allow_zero: bool = False) -> RepCountReport:
    """Ordered solutions of n = x1^3+x2^3+y1^3+y2^3 with y_i <= n^theta.

    Meet-in-the-middle: a width-1 window of the sorted pair-sum kernel, in
    which every ordered small-cube pair is matched against the sorted
    two-cube sums.  Variables are positive by default; allow_zero admits
    zero cubes in all four positions.
    """
    if n < 4:
        raise PreconditionError(f"n must be >= 4, got {n}")
    if n > _SINGLE_N_CAP:
        raise ResourceGuardError(f"n={n} exceeds the single-call cap {_SINGLE_N_CAP}")
    _check_theta(n, theta)
    count = int(_window_counts(n - 1, n, theta, 0 if allow_zero else 1)[0])
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
    pw = spec_from_params("K", params).term_values()
    if not len(pw):
        return RepCountReport(n=n, theta=params.theta, count=0, variant="rho")
    smooth_members = smooth_set(params.R, params.eta).members
    if len(smooth_members) ** 2 > 4_000_000:
        raise ResourceGuardError(
            f"smooth pair table would need {len(smooth_members)**2} entries"
        )
    h3 = np.asarray(smooth_members, dtype=np.int64) ** 3
    smooth_pairs = np.sort(_pair_sums(h3, h3, 2, n))
    big = _pair_sums(_cubes(math.floor(params.P) + 1, math.floor(2 * params.P)), pw**3, 2, n - 2)
    count = int(_spans(smooth_pairs, big, n, n)[1].sum())
    return RepCountReport(n=n, theta=params.theta, count=count, variant="rho")


def count_sigma(n: int, theta: float, P: float, R: float) -> RepCountReport:
    """Ordered solutions with 1 <= x_i <= 2P, max(x1,x2) > P, 1 <= y_i <= R.

    Mirrors the generating-function difference: (full x <= 2P count) minus
    (both x <= P count), each a match count of the small-cube pair sums
    against the sorted two-cube sums.
    """
    if n < 4:
        raise PreconditionError(f"n must be >= 4, got {n}")
    root = integer_cube_root(n - 2)
    ys = _cubes(1, min(math.floor(R), root))
    t = _pair_sums(ys, ys, 2, n - 2)

    def matches(x_top: int) -> int:
        xs = _cubes(1, min(x_top, root))
        return int(_spans(np.sort(_pair_sums(xs, xs, 2, n - 2)), t, n, n)[1].sum())

    count = matches(math.floor(2 * P)) - matches(math.floor(P))
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


def _bound_segments(n_lo: int, n_hi: int, theta: float, cap: int):
    """Runs of constant min(floor(n^theta), cap) over (n_lo, n_hi]; past cap, one run."""
    segments = []
    start = n_lo + 1
    while start <= n_hi:
        b = minicube_bound(start, theta)
        if b >= cap:
            segments.append((start, n_hi, cap))
            break
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
    """Count every n in (N_lo, N_hi] against one sorted two-cube sum array.

    Q_max > 0 adds the truncated series (singular_series_values), the main
    term (expsums.main_terms) and the per-n ratios (expsums.count_ratios),
    all before the count, so their guards trip before it.  The exceptional
    summary counts n with no representation at all.  N_hi must be below
    2^63 (the window is int64), and theta is checked as minicube_bound
    checks it.

    ``ratios`` and ``mean_ratio`` divide by that truncated-series main term,
    which is <= 0 at dozens of n per window (a truncation of the
    conditionally convergent series is not promised positive), so those
    ratios can be negative or huge and their mean is not a trend.
    """
    if N_lo < 3 or N_hi <= N_lo:
        raise PreconditionError(f"need 3 <= N_lo < N_hi, got ({N_lo}, {N_hi})")
    if N_hi >= 2**63:
        raise PreconditionError(f"N_hi must be below 2^63, the int64 limit, got {N_hi}")
    _check_theta(N_hi, theta)
    width = N_hi - N_lo
    if width > _SIZE_CAP:
        raise ResourceGuardError(f"window width {width} exceeds the size cap {_SIZE_CAP}")
    ns = np.arange(N_lo + 1, N_hi + 1, dtype=np.int64)
    series = predicted = ratios = None
    mean_ratio = median_ratio = None
    if Q_max >= 1:
        series = singular_series_values(ns, Q_max)
        predicted = main_terms(ns, series, theta)
    counts = _window_counts(N_lo, N_hi, theta)
    if predicted is not None:
        ratios = count_ratios(counts, predicted)
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
    cubes = _cubes(1, R)
    return _sum_square_multiplicities(_pair_sums(cubes, cubes, 2, 2 * R**3))


def _sum_square_multiplicities(values: np.ndarray) -> int:
    _, mult = np.unique(values, return_counts=True)
    return int((mult.astype(np.int64) ** 2).sum())


# The four cubed index sets of one side of each moment's equation:
# x in (P, 2P], h the smooth set up to R, k the bilinear products p*w.
_MIXED_SHAPES = {"f2h6": "xhhh", "K2h6": "khhh", "K8": "kkkk", "f2K2h4": "xkhh"}


def mixed_mean_count(P: float, R: float, eta: float, shape: str,
                     k_pairs: tuple[tuple[int, tuple[int, ...]], ...] | None = None) -> int:
    """Exact diophantine count equal (by orthogonality) to a full-circle moment.

    Shapes: "f2h6" for |f^2 h^6|, "K2h6" for |K^2 h^6|, "K8" for |K|^8,
    "f2K2h4" for |f^2 K^2 h^4|.  The bilinear index pairs default to the
    restricted primes at Y = P^(11/79), J = 0, which is empty at toy P;
    pass k_pairs explicitly for a nontrivial bilinear range.
    """
    if shape not in _MIXED_SHAPES:
        raise PreconditionError(f"unknown shape {shape!r}")
    if P > 30 or R > 30:
        raise ResourceGuardError(f"eighth-degree shapes need P, R <= 30, got ({P}, {R})")
    if k_pairs is None:
        Y = P ** (11 / 79)
        prime_list = restricted_primes(max(Y, 1.0), 0).primes
        k_pairs = tuple(
            (p, smooth_interval_set(max(P / p, 1.0), max(2 * P / Y, 1.0), eta).members)
            for p in prime_list
        )
    sets = {"x": range(math.floor(P) + 1, math.floor(2 * P) + 1),
            "h": smooth_set(max(R, 1.0), eta).members,
            "k": [p * w for p, ws in k_pairs for w in ws]}
    side = np.zeros(1, dtype=np.int64)
    for key in _MIXED_SHAPES[shape]:
        side = (side[:, None] + np.asarray(sets[key], dtype=np.int64)[None, :] ** 3).ravel()
    return _sum_square_multiplicities(side)
