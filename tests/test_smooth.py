import math
import random
import tracemalloc

import numpy as np
import pytest

from cubelab.params import PreconditionError, ResourceGuardError, derive_parameters
from cubelab.smooth import (
    _largest_prime_factor,
    _sieve,
    prime_range_clears_smooth_cap,
    primes_in,
    restricted_primes,
    smooth_interval_set,
    smooth_set,
)


def _is_smooth(m: int, cap: float) -> bool:
    """Trial-division smoothness check, independent of the sieve."""
    for p in range(2, m + 1):
        while m % p == 0:
            if p > cap:
                return False
            m //= p
        if m == 1:
            break
    return True


def _trial_lpf(m: int) -> int:
    """Largest prime factor by trial division (0 for m < 2)."""
    best, p = 0, 2
    while p * p <= m:
        while m % p == 0:
            best, m = p, m // p
        p += 1
    return max(best, m) if m > 1 else best


class TestLargestPrimeFactor:
    def test_small_limits_match_trial_division(self):
        for limit in list(range(0, 40)) + [48, 49, 50, 120, 121, 10_000]:
            want = [_trial_lpf(m) for m in range(limit + 1)]
            assert _largest_prime_factor(limit).tolist() == want, limit

    def test_sampled_near_the_sieve_cap(self):
        limit = 4_000_000
        lpf = _largest_prime_factor(limit)
        root = math.isqrt(limit)
        ms = random.Random(7).sample(range(limit - 200_000, limit + 1), 300)
        # prime squares and products straddling the square root, and the top
        ms += [limit, 1999**2, 1997 * 2003, 2 * 1_999_993, 3 * 1_333_331, (root - 1) * (root + 1)]
        for m in ms:
            assert lpf[m] == _trial_lpf(m), m


    def test_shuffled_requests_are_slices_of_one_table(self):
        # lpf[m] does not depend on the limit: each request must equal a fresh
        # build at its own limit, and only one table may stay resident (an
        # lru_cache keyed by limit kept one array per distinct limit).
        limits = [0, 1, 2, 49, 121, 10_000, 250_000, 500_000, 750_000, 1_000_000]
        random.Random(11).shuffle(limits)
        _largest_prime_factor.cache_clear()
        for limit in limits:
            assert np.array_equal(_largest_prime_factor(limit), _sieve(limit)), limit
        _largest_prime_factor.cache_clear()
        tracemalloc.start()
        try:
            for limit in limits:
                _largest_prime_factor(limit)
            resident = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        table = _largest_prime_factor(0).base
        assert len(table) <= 2 * max(limits) + 1
        assert resident <= table.nbytes + 2**16
        assert _largest_prime_factor.cache_info().currsize == 1
        assert not _largest_prime_factor(10).flags.writeable

    def test_guard_trips_before_the_table_grows(self):
        _largest_prime_factor.cache_clear()
        _largest_prime_factor(100)
        before = _largest_prime_factor.cache_info()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError):
                _largest_prime_factor(4_000_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert _largest_prime_factor.cache_info() == before
        assert len(_largest_prime_factor(100)) == 101


class TestSmoothSet:
    def test_singleton(self):
        assert smooth_set(1, 0.5).members == (1,)

    def test_prime_cap_two(self):
        # eta = log2/log10 makes the cap exactly 2; only powers of 2 survive.
        s = smooth_set(10, math.log(2) / math.log(10))
        assert s.members == (1, 2, 4, 8)

    def test_ten_smooth_up_to_100(self):
        s = smooth_set(100, 0.5)
        expected = tuple(m for m in range(1, 101) if _is_smooth(m, 10.0))
        assert s.members == expected

    def test_members_pass_trial_division(self):
        for R, eta in [(50, 0.3), (300, 0.45), (1000, 0.25)]:
            s = smooth_set(R, eta)
            for m in s.members:
                assert 1 <= m <= R
                assert _is_smooth(m, s.prime_cap)

    def test_cardinality_monotone_in_eta(self):
        for eta1, eta2 in [(0.1, 0.3), (0.3, 0.5), (0.5, 0.9)]:
            assert len(smooth_set(500, eta1)) <= len(smooth_set(500, eta2))

    def test_rejects_bad_args(self):
        with pytest.raises(PreconditionError):
            smooth_set(0.5, 0.5)
        with pytest.raises(PreconditionError):
            smooth_set(10, 1.5)

    def test_sieve_cap_is_a_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            smooth_set(4_000_001, 0.1)


class TestSmoothIntervalSet:
    def test_cap_below_two_empty(self):
        # prime cap < 2 admits only m = 1, which (X, 2X] excludes for X >= 1.
        s = smooth_interval_set(4, 3, 0.25)  # cap = 3^0.25 ~ 1.32
        assert s.members == ()

    def test_shell_4_to_8(self):
        s = smooth_interval_set(4, 16, 0.25)  # cap = 2
        assert s.members == (8,)

    def test_shell_5_to_10(self):
        s = smooth_interval_set(5, 100, 0.5)  # cap = 10
        assert s.members == (6, 7, 8, 9, 10)

    def test_difference_identity(self):
        # (X, 2X] shell equals the Z^eta-smooth m <= 2X minus those <= X.
        for X, Z, eta in [(7, 49, 0.5), (30, 900, 0.4), (100, 100, 0.6)]:
            shell = set(smooth_interval_set(X, Z, eta).members)
            big = {m for m in range(1, 2 * X + 1) if _is_smooth(m, Z**eta)}
            small = {m for m in range(1, X + 1) if _is_smooth(m, Z**eta)}
            assert shell == big - small


class TestRestrictedPrimes:
    def test_window_5_to_10(self):
        # The only prime in (5, 10] is 7, and 7 = 1 (mod 3).
        assert restricted_primes(10, 1).primes == ()

    def test_window_5_to_20(self):
        assert restricted_primes(20, 2).primes == (11, 17)

    def test_window_includes_two(self):
        # Primes in (1.5, 3] are {2, 3}; 3 = 0 (mod 3) is dropped.
        assert restricted_primes(3, 1).primes == (2,)

    def test_against_direct_sieve(self):
        for Y, J in [(50, 0), (100, 3), (997, 5)]:
            lo = Y * 2.0**-J
            expected = tuple(
                p for p in range(2, math.floor(Y) + 1)
                if p > lo and p % 3 == 2 and all(p % d for d in range(2, int(p**0.5) + 1))
            )
            assert restricted_primes(Y, J).primes == expected

    def test_primes_in(self):
        assert primes_in(10, 30) == (11, 13, 17, 19, 23, 29)
        assert primes_in(0, 1.9) == ()


class TestCapPredicate:
    def test_reports_truthfully(self):
        p = derive_parameters(864, 1 / 3, tau=1e-4, eta=0.5)
        expected = p.Y * 2.0**-p.J > p.R**p.eta
        assert prime_range_clears_smooth_cap(p) == expected
