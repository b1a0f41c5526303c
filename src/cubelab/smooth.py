"""Smooth-number sets and congruence-restricted prime ranges.

Sets are materialized eagerly as sorted integer lists: the generating
functions iterate them many times and desk scale keeps them below 10^6
members.  Note that 1 belongs to every smooth set (the divisor condition
is vacuous), which shifts the zero-phase sum count by one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from cubelab.params import Parameters, PreconditionError, ResourceGuardError, _snap_integer

__all__ = [
    "SmoothSet",
    "RestrictedPrimeRange",
    "smooth_set",
    "smooth_interval_set",
    "restricted_primes",
    "primes_in",
    "prime_range_clears_smooth_cap",
]

_SIEVE_LIMIT = 4_000_000


@dataclass(frozen=True)
class SmoothSet:
    """Integers in (bound_low, bound_high] whose prime factors are <= prime_cap."""

    bound_low: float
    bound_high: float
    prime_cap: float
    members: tuple[int, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class RestrictedPrimeRange:
    """Primes p = 2 (mod 3) in (low, high]."""

    low: float
    high: float
    primes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)


def _sieve(limit: int) -> np.ndarray:
    """lpf[m] = largest prime factor of m for m <= limit (lpf[0] = lpf[1] = 0)."""
    lpf = np.zeros(limit + 1, dtype=np.int64)
    root = math.isqrt(limit)
    for p in range(2, root + 1):
        if lpf[p] == 0:
            lpf[p::p] = p  # ascending primes overwrite, leaving the largest
    # Every composite has a prime factor <= root, so the zeros left above
    # root are the primes P > root; each has cofactors k <= limit // P < root.
    big = np.nonzero(lpf[root + 1 :] == 0)[0] + root + 1
    for k in range(1, limit // (root + 1) + 1):
        ps = big[: np.searchsorted(big, limit // k, side="right")]
        lpf[k * ps] = ps
    return lpf


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _GrowingSieve:
    """_sieve(limit), served as a read-only slice of one grow-only table.

    lpf[m] does not depend on the limit, so a request inside the table is a
    slice of it; a longer one rebuilds the table at max(limit, twice its
    limit), capped at _SIEVE_LIMIT, and drops the old one.  cache_info()
    counts slices served as hits and builds as misses, as lru_cache does.
    """

    __name__ = "_largest_prime_factor"  # as lru_cache would name it, for cache reports

    def __init__(self) -> None:
        self.cache_clear()

    def cache_clear(self) -> None:
        self._lpf = np.zeros(0, dtype=np.int64)
        self._hits = self._misses = 0

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, 1, int(len(self._lpf) > 0))

    def __call__(self, limit: int) -> np.ndarray:
        if limit > _SIEVE_LIMIT:
            raise ResourceGuardError(f"sieve limit {limit} exceeds the desk-scale cap {_SIEVE_LIMIT}")
        if limit < len(self._lpf):
            self._hits += 1
        else:
            size = min(max(limit, 2 * (len(self._lpf) - 1)), _SIEVE_LIMIT)
            self._lpf = np.zeros(0, dtype=np.int64)  # free the old table before the new one
            self._lpf = _sieve(size)
            self._lpf.flags.writeable = False
            self._misses += 1
        return self._lpf[: limit + 1]


_largest_prime_factor = _GrowingSieve()


def _smooth_members(lo: int, hi: int, cap: float) -> tuple[int, ...]:
    """Integers m in [lo, hi] with every prime factor <= cap, ascending."""
    if hi < lo:
        return ()
    lpf = _largest_prime_factor(hi)
    mask = lpf[lo : hi + 1] <= cap
    return tuple(int(m) for m in np.nonzero(mask)[0] + lo)


def smooth_set(R: float, eta: float) -> SmoothSet:
    """The set of m in [1, R] whose prime factors are all <= R^eta."""
    if R < 1:
        raise PreconditionError(f"R must be >= 1, got {R}")
    if not 0 < eta < 1:
        raise PreconditionError(f"eta must lie in (0, 1), got {eta}")
    cap = _snap_integer(R**eta)
    return SmoothSet(0.0, R, cap, _smooth_members(1, math.floor(R), cap))


def smooth_interval_set(X: float, Z: float, eta: float) -> SmoothSet:
    """The dyadic shell (X, 2X] of Z^eta-smooth integers."""
    if X < 1 or Z < 1:
        raise PreconditionError(f"X and Z must be >= 1, got X={X}, Z={Z}")
    cap = _snap_integer(Z**eta)
    return SmoothSet(X, 2 * X, cap, _smooth_members(math.floor(X) + 1, math.floor(2 * X), cap))


def primes_in(lo: float, hi: float) -> tuple[int, ...]:
    """All primes p with lo < p <= hi."""
    top = math.floor(hi)
    if top < 2:
        return ()
    lpf = _largest_prime_factor(top)
    idx = np.arange(top + 1)
    is_prime = (lpf == idx) & (idx >= 2)
    return tuple(int(p) for p in np.nonzero(is_prime)[0] if p > lo)


def restricted_primes(Y: float, J: int) -> RestrictedPrimeRange:
    """Primes p = 2 (mod 3) in the window (2^-J * Y, Y]."""
    if Y < 1:
        raise PreconditionError(f"Y must be >= 1, got {Y}")
    if J < 0:
        raise PreconditionError(f"J must be nonnegative, got {J}")
    low = Y * 2.0**-J
    primes = tuple(p for p in primes_in(low, Y) if p % 3 == 2)
    return RestrictedPrimeRange(low, Y, primes)


def prime_range_clears_smooth_cap(params: Parameters) -> bool:
    """Whether 2^-J * Y > R^eta, so no restricted prime divides a smooth member.

    Holds at asymptotic scale by choice of exponents; at toy scale it is
    parameter-dependent, so experiments check it instead of assuming it.
    """
    return params.Y * 2.0**-params.J > params.R**params.eta
