import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubelab.arcs import mean_value_grid, moment_integrand
from cubelab.expsums import main_term
from cubelab.genfun import bilinear_spec, interval_spec, set_spec
import cubelab.repcount as repcount
from cubelab.params import PreconditionError, ResourceGuardError, derive_parameters
from cubelab.repcount import (
    _pair_sums,
    batch_scan,
    count_r,
    count_rho,
    count_sigma,
    hua_count,
    minicube_bound,
    mixed_mean_count,
)
from cubelab.smooth import smooth_interval_set, smooth_set


def brute_count_r(n: int, theta: float) -> int:
    """Quadruple-loop oracle; shares only the certified bound helper."""
    bound = minicube_bound(n, theta)
    top = round(n ** (1 / 3)) + 1
    count = 0
    for x1 in range(1, top + 1):
        c1 = x1**3
        if c1 + 3 > n:
            break
        for x2 in range(1, top + 1):
            c2 = c1 + x2**3
            if c2 + 2 > n:
                break
            for y1 in range(1, bound + 1):
                c3 = c2 + y1**3
                if c3 + 1 > n:
                    break
                for y2 in range(1, bound + 1):
                    if c3 + y2**3 == n:
                        count += 1
    return count


def brute_window(N_lo: int, N_hi: int, theta: float, low: int = 1) -> list[int]:
    """Ordered counts for every n in (N_lo, N_hi] by a quadruple loop over cubes."""
    counts = [0] * (N_hi - N_lo)
    cubes = [x**3 for x in range(low, round(N_hi ** (1 / 3)) + 2)]
    ycubes = cubes[: minicube_bound(N_hi, theta) - low + 1]
    for c1, c2, d1, d2 in product(cubes, cubes, ycubes, ycubes):
        s = c1 + c2 + d1 + d2
        if N_lo < s <= N_hi and max(d1, d2) <= minicube_bound(s, theta) ** 3:
            counts[s - N_lo - 1] += 1
    return counts


def peak_bytes(fn) -> int:
    """Peak traced allocation while fn() runs (an exception propagates)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMinicubeBound:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_a_precondition(self, theta):
        for call in (lambda: minicube_bound(100, theta), lambda: count_r(100, theta),
                     lambda: batch_scan(100, 110, theta)):
            with pytest.raises(PreconditionError):
                call()

    def test_overflowing_theta_is_a_precondition_before_any_work(self, monkeypatch):
        # 100^155.3 and 100^200 pass the float range; every theta > 1/3 is
        # clamped to the cube root, but the float path is taken first.
        from cubelab import experiments

        def no_work(*_):
            raise AssertionError("counting started")

        monkeypatch.setattr(repcount, "_window_counts", no_work)
        monkeypatch.setattr(experiments, "count_r", no_work)
        monkeypatch.setattr(experiments, "singular_series_truncated", no_work)
        for call in (lambda: count_r(100, 155.3), lambda: batch_scan(4, 100, 155.3),
                     lambda: experiments.predict_table([100], 155.3, 10),
                     lambda: experiments.predict_table([100], 100.0, 10),  # n^(2 theta - 1/3)
                     lambda: batch_scan(4, 100, 100.0, Q_max=10),
                     lambda: main_term(100, 200.0, 10),
                     lambda: minicube_bound(100, 200.0)):
            with pytest.raises(PreconditionError, match="overflows a float"):
                call()
        # At 1e308 theta is finite but 2 theta - 1/3 is not, and 100.0 ** inf
        # does not raise.
        for theta in (math.nan, math.inf, 1e308):
            for call in (lambda: count_r(100, theta), lambda: batch_scan(4, 100, theta, Q_max=10),
                         lambda: experiments.predict_table([100], theta, 10),
                         lambda: main_term(100, theta, 10)):
                with pytest.raises(PreconditionError):
                    call()

    def test_exact_rational_paths(self):
        # theta snapped to 1/3, 1/4, 1/5, 3/10: bound is the exact root.
        assert minicube_bound(27, 1 / 3) == 3
        assert minicube_bound(26, 1 / 3) == 2
        assert minicube_bound(32, 0.2) == 2          # 32^(1/5) = 2 exactly
        assert minicube_bound(10**8, 0.25) == 100    # (10^8)^(1/4) = 100
        assert minicube_bound(10**10, 0.3) == 1000   # (10^10)^(3/10) = 1000

    def test_against_high_precision(self):
        with mp.workdps(50):
            for theta in (0.2, 0.25, 0.3, 1 / 3, 0.2718281828):
                for n in (4, 17, 100, 5000, 123456, 10**8):
                    want = int(mp.floor(mp.power(n, theta)))
                    assert minicube_bound(n, theta) == want, (n, theta)

    def test_near_tie_settled_in_high_precision(self):
        # n = round(y^(10/pi)) puts n^(pi/10) within 1e-9 (relative) of y,
        # which sends theta = pi/10 to the 40-digit branch.
        theta = math.pi / 10
        for y in (400, 457, 500, 611):
            n = round(y ** (1 / theta))
            assert abs(n**theta - y) < 1e-9 * y
            with mp.workdps(50):
                assert minicube_bound(n, theta) == int(mp.floor(mp.power(n, theta))), y

    def test_monotone_in_n(self):
        vals = [minicube_bound(n, 0.3) for n in range(4, 4000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_large_numerator_does_not_overflow(self):
        # theta = 31/64 takes the 64th root of n^31, far beyond float range.
        assert minicube_bound(10**10, 31 / 64) == 69783

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(2, 64), p=st.integers(1, 63), base=st.integers(2, 40))
    def test_exact_ties(self, q, p, base):
        # n = base^q sits on the tie y^q = n^p with y = base^p; n - 1 falls
        # just below it (n^theta is concave and drops by < 1 per unit step).
        p = p % (q - 1) + 1
        g = math.gcd(p, q)
        p, q = p // g, q // g
        assert minicube_bound(base**q, p / q) == base**p
        assert minicube_bound(base**q - 1, p / q) == base**p - 1


class TestPairSums:
    def test_small_table(self):
        c = np.arange(1, 3, dtype=np.int64) ** 3
        assert sorted(_pair_sums(c, c, 0, 100).tolist()) == [2, 9, 9, 16]

    def test_pair_count(self):
        c = np.arange(1, 6, dtype=np.int64) ** 3
        assert len(_pair_sums(c, c, 0, 2 * 125)) == 25

    def test_range_guard(self):
        # 10^10 ordered pairs: the guard trips on the span lengths, before
        # any pair-sum array is allocated.
        c = np.arange(1, 100_001, dtype=np.int64) ** 3

        def call():
            with pytest.raises(ResourceGuardError):
                _pair_sums(c, c, 0, 2 * 10**15)

        assert peak_bytes(call) < 16 << 20

    @settings(max_examples=300, deadline=None)
    @given(left=st.lists(st.integers(-1000, 1000), max_size=30),
           right=st.lists(st.integers(-1000, 1000), max_size=30),
           lo=st.integers(-2500, 2500), span=st.integers(-50, 2500))
    def test_matches_filtered_outer_sum(self, left, right, lo, span):
        # span < 0 gives an empty range [lo, hi].
        hi = lo + span
        a = np.array(sorted(left), dtype=np.int64)
        b = np.array(right, dtype=np.int64)
        want = sorted(x + y for x in left for y in right if lo <= x + y <= hi)
        assert sorted(_pair_sums(a, b, lo, hi).tolist()) == want


class TestCountR:
    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.25, 1 / 3])
    def test_four_has_unique_solution(self, theta):
        assert count_r(4, theta).count == 1

    @pytest.mark.parametrize("theta", [0.2, 1 / 3])
    def test_five_has_none(self, theta):
        assert count_r(5, theta).count == 0

    def test_32_at_fifth_root(self):
        # 32^(1/5) = 2 admits y = 2; the only tuple is (2,2,2,2).
        assert count_r(32, 0.2).count == 1

    def test_against_quadruple_loop(self):
        for theta in (0.2, 0.25, 1 / 3):
            for n in list(range(4, 200)) + [531, 1000, 1729, 4104]:
                assert count_r(n, theta).count == brute_count_r(n, theta), (n, theta)

    def test_against_quadruple_loop_randomized_larger(self):
        import random

        rng = random.Random(20260809)
        for theta in (0.25, 0.3):
            for n in rng.sample(range(5000, 20001), 5):
                assert count_r(n, theta).count == brute_count_r(n, theta), (n, theta)

    def test_monotone_in_theta(self):
        for n in (100, 1729, 3000):
            counts = [count_r(n, t).count for t in (0.05, 0.2, 0.25, 0.3, 1 / 3)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_ordered_convention_class_decomposition(self):
        # The ordered count decomposes over unordered (x-pair, y-pair)
        # classes as (x-orderings) * (y-orderings): an equal pair carries 1
        # ordering and a mixed pair 2, so mixed/equal classes contribute 4
        # and mixed/mixed classes 8.  n = 56 = {1,1,3,3} splits 1 + 4 + 1.
        theta = 1 / 3
        for n in (11, 25, 56, 1729):
            bound = minicube_bound(n, theta)
            classes: dict[tuple, int] = {}
            for x1 in range(1, 13):
                for x2 in range(1, 13):
                    for y1 in range(1, bound + 1):
                        for y2 in range(1, bound + 1):
                            if x1**3 + x2**3 + y1**3 + y2**3 == n:
                                key = (tuple(sorted((x1, x2))), tuple(sorted((y1, y2))))
                                classes[key] = classes.get(key, 0) + 1
            for (xp, yp), mult in classes.items():
                expected = (1 if xp[0] == xp[1] else 2) * (1 if yp[0] == yp[1] else 2)
                assert mult == expected, (n, xp, yp)
            assert count_r(n, theta).count == sum(classes.values())

    def test_zero_allowed_variant(self):
        # With zeros admitted, the count includes degenerate tuples; oracle
        # is the same quadruple loop over [0, ...] ranges.
        for theta in (0.25, 1 / 3):
            for n in (4, 9, 28, 100, 251):
                bound = minicube_bound(n, theta)
                brute = 0
                top = round(n ** (1 / 3)) + 1
                for x1 in range(0, top + 1):
                    for x2 in range(0, top + 1):
                        for y1 in range(0, bound + 1):
                            for y2 in range(0, bound + 1):
                                if x1**3 + x2**3 + y1**3 + y2**3 == n:
                                    brute += 1
                assert count_r(n, theta, allow_zero=True).count == brute, (n, theta)

    def test_zero_allowed_dominates_default(self):
        for n in (4, 100, 1729):
            assert count_r(n, 1 / 3, allow_zero=True).count >= count_r(n, 1 / 3).count

    def test_rejects_small_n(self):
        with pytest.raises(PreconditionError):
            count_r(3, 0.3)

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            count_r(10**11, 0.3)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.sampled_from([0.2, 0.25, 0.3, 1 / 3, 0.6, math.pi / 10])
           | st.floats(0.05, 0.7),
           b=st.integers(2, 12), before=st.integers(1, 40), after=st.integers(0, 40))
    def test_window_paths_agree_across_bound_change(self, theta, b, before, after):
        # The window straddles the first n with floor(n^theta) = b, so it
        # spans two bound segments of batch_scan.
        n0 = math.ceil(b ** (1 / theta))
        N_lo, N_hi = max(3, n0 - before - 1), n0 + after
        assume(N_hi <= 3000 and minicube_bound(N_lo + 1, theta) < minicube_bound(N_hi, theta))
        scan = batch_scan(N_lo, N_hi, theta).counts.tolist()
        assert scan == brute_window(N_lo, N_hi, theta)
        assert scan == [count_r(n, theta).count for n in range(N_lo + 1, N_hi + 1)]
        assert brute_window(N_lo, N_hi, theta, low=0) == [
            count_r(n, theta, allow_zero=True).count for n in range(N_lo + 1, N_hi + 1)]


class TestCountRho:
    def test_empty_prime_range_zero(self):
        # Y barely above 1 leaves no restricted primes at all.
        params = derive_parameters(864, 1 / 3, eta=0.8, L_override=4.0)
        assert params.Y < 2
        assert count_rho(1000, params).count == 0

    def test_against_restricted_brute_force(self):
        # A parameter set with a nonempty prime window: force Y by hand via
        # a wider window base so the sieve sees p = 2.
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        # Clone with Y=3, J=1 so the prime window (1.5, 3] contains p = 2.
        from dataclasses import replace

        toy = replace(params, Y=3.0, J=1)
        P = toy.P
        primes = (2,)
        smooth_members = smooth_set(toy.R, toy.eta).members
        for n in (900, 1000, 1500, 1728):
            brute = 0
            for p in primes:
                shell = smooth_interval_set(max(P / p, 1.0), max(2 * P / toy.Y, 1.0),
                                            toy.eta).members
                for w in shell:
                    for x in range(math.floor(P) + 1, math.floor(2 * P) + 1):
                        for y1 in smooth_members:
                            for y2 in smooth_members:
                                if x**3 + (p * w) ** 3 + y1**3 + y2**3 == n:
                                    brute += 1
            assert count_rho(n, toy).count == brute, n

    @settings(max_examples=40, deadline=None)
    @given(N=st.sampled_from([864, 5000]), Y=st.sampled_from([3.0, 6.0, 12.0]),
           J=st.integers(1, 3), eta=st.floats(0.3, 0.95),
           pick=st.tuples(st.integers(0, 10**4), st.integers(0, 20), st.integers(0, 20)))
    @example(N=864, Y=3.0, J=1, eta=0.8, pick=(1, 0, 0))  # y1 = y2 = 1: n = 8^3 + 8^3 + 2
    def test_matches_quintuple_loop(self, N, Y, J, eta, pick):
        toy = replace(derive_parameters(N, 1 / 3, eta=0.5, L_override=4.0), Y=Y, J=J, eta=eta)
        P = toy.P
        primes = [p for p in range(2, math.floor(Y) + 1)
                  if p % 3 == 2 and p > Y / 2**J and all(p % d for d in range(2, p))]
        ys = smooth_set(toy.R, eta).members
        bigs = [x**3 + (p * w) ** 3 for p in primes
                for w in smooth_interval_set(max(P / p, 1.0), max(2 * P / Y, 1.0), eta).members
                for x in range(math.floor(P) + 1, math.floor(2 * P) + 1)]
        # n is the sum of a drawn tuple when that lands in the window.
        k, i, j = pick
        n = (bigs[k % len(bigs)] if bigs else 0) + ys[i % len(ys)] ** 3 + ys[j % len(ys)] ** 3
        if not N < n <= 2 * N:
            n = N + 1 + k % N
        brute = sum(1 for b in bigs for y1 in ys for y2 in ys if b + y1**3 + y2**3 == n)
        assert count_rho(n, toy).count == brute

    def test_monotone_in_eta(self):
        from dataclasses import replace

        base = derive_parameters(864, 1 / 3, eta=0.3, L_override=4.0)
        toy_lo = replace(base, Y=3.0, J=1)
        toy_hi = replace(toy_lo, eta=0.9)
        for n in (900, 1200, 1600):
            assert count_rho(n, toy_lo).count <= count_rho(n, toy_hi).count

    def test_window_precondition(self):
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        with pytest.raises(PreconditionError):
            count_rho(864, params)
        with pytest.raises(PreconditionError):
            count_rho(1729, params)

    def test_orthogonality_bridge_to_grid(self):
        # count_rho equals the full-circle average of f*K*h^2*e(-n alpha)
        # built from the same index sets.
        from dataclasses import replace

        from cubelab.arcs import make_rho_integrand, mean_value_grid

        base = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        toy = replace(base, Y=3.0, J=1)
        shell = smooth_interval_set(max(toy.P / 2, 1.0), max(2 * toy.P / toy.Y, 1.0),
                                    toy.eta)
        k = bilinear_spec([(2, shell.members)])
        for n in (900, 1000, 1500):
            integrand = make_rho_integrand(n, toy, k_spec=k)
            grid = mean_value_grid(integrand, integrand.degree_bound() + 1)
            assert abs(grid.imag) < 1e-9
            assert grid.real == pytest.approx(count_rho(n, toy).count, abs=1e-6), n


class TestCountRGridBridge:
    def test_count_equals_twisted_moment(self):
        # count_r(n, theta) is the full-circle average of X(a)^2 Y(a)^2
        # e(-n a) with X over [1, n^(1/3)] and Y over [1, n^theta].
        from cubelab.arcs import ArcIntegrand, mean_value_grid
        from cubelab.genfun import interval_spec
        from cubelab.params import integer_cube_root

        theta = 0.25
        for n in (100, 729, 1729):
            X = interval_spec(0, integer_cube_root(n))
            Y = interval_spec(0, minicube_bound(n, theta))
            integrand = ArcIntegrand(factors=((X, 2, False), (Y, 2, False)), twist=n)
            grid = mean_value_grid(integrand, integrand.degree_bound() + 1)
            assert grid.real == pytest.approx(count_r(n, theta).count, abs=1e-6), n


def brute_count_sigma(n: int, P: float, R: float) -> int:
    count = 0
    for x1 in range(1, math.floor(2 * P) + 1):
        for x2 in range(1, math.floor(2 * P) + 1):
            if max(x1, x2) <= P:
                continue
            for y1 in range(1, math.floor(R) + 1):
                for y2 in range(1, math.floor(R) + 1):
                    if x1**3 + x2**3 + y1**3 + y2**3 == n:
                        count += 1
    return count


class TestCountSigma:
    def test_against_quadruple_loop(self):
        P, R = 6.0, 4.0
        for n in (900, 1000, 1500, 1729, 1730):
            assert count_sigma(n, 1 / 3, P, R).count == brute_count_sigma(n, P, R), n

    @settings(max_examples=60, deadline=None)
    @given(xs=st.lists(st.integers(1, 16), min_size=2, max_size=2),
           ys=st.lists(st.integers(1, 7), min_size=2, max_size=2),
           P=st.floats(0.5, 8.0), R=st.floats(0.5, 7.0))
    def test_matches_quadruple_loop_property(self, xs, ys, P, R):
        # n is a sum of four cubes, so the drawn tuple itself is a candidate.
        n = sum(v**3 for v in xs + ys)
        assert count_sigma(n, 0.3, P, R).count == brute_count_sigma(n, P, R)

    def test_empty_minicube_range(self):
        assert count_sigma(1000, 0.3, 6.0, 0.9).count == 0

    def test_dominated_by_unrestricted_count(self):
        # sigma's constraint set is a subset of the unrestricted one at the
        # theta' matching R: count_sigma <= count_r with bound R.
        P = 6.0
        for n in (900, 1200, 1500):
            R = minicube_bound(n, 1 / 3)
            sigma = count_sigma(n, 1 / 3, P, float(R)).count
            assert sigma <= count_r(n, 1 / 3).count


class TestBatchScan:
    def test_n_past_int64_is_a_precondition_before_any_work(self, monkeypatch):
        def no_work(*_):
            raise AssertionError("counting started")

        monkeypatch.setattr(repcount, "_window_counts", no_work)
        for lo, hi in ((2**63, 2**63 + 10), (2**63 - 5, 2**63)):
            with pytest.raises(PreconditionError, match="int64"):
                batch_scan(lo, hi, 0.3)

    def test_matches_single_calls(self):
        res = batch_scan(4, 100, 1 / 3, Q_max=50)
        for i, n in enumerate(res.ns):
            assert res.counts[i] == count_r(int(n), 1 / 3).count, int(n)

    def test_matches_single_calls_other_theta(self):
        res = batch_scan(500, 700, 0.25)
        for i, n in enumerate(res.ns):
            assert res.counts[i] == count_r(int(n), 0.25).count, int(n)

    def test_tiny_theta_reduces_to_two_cubes(self):
        # minicubes forced to 1: n is counted iff n-2 is a sum of two cubes.
        res = batch_scan(100, 400, 0.05)
        two_cubes = {a**3 + b**3 for a in range(1, 10) for b in range(1, 10)}
        for i, n in enumerate(res.ns):
            expected = (int(n) - 2) in two_cubes
            assert (res.counts[i] > 0) == expected, int(n)

    def test_exceptional_summary_consistent(self):
        res = batch_scan(4, 500, 0.25, Q_max=100)
        assert res.exceptional_count == int(np.count_nonzero(res.counts == 0))
        assert res.exceptional_fraction == res.exceptional_count / len(res.ns)
        reports = res.reports()
        assert sum(r.exceptional for r in reports) == res.exceptional_count

    def test_prediction_fields(self):
        res = batch_scan(1000, 1050, 0.3, Q_max=200)
        assert res.predicted is not None and res.ratios is not None
        i = 10
        from cubelab.expsums import MAIN_TERM_CONSTANT, singular_series_truncated

        n = int(res.ns[i])
        series = singular_series_truncated(n, 200).value
        want = MAIN_TERM_CONSTANT * series * n ** (2 * 0.3 - 1 / 3)
        assert res.predicted[i] == pytest.approx(want, rel=1e-12)

    def test_window_guard(self):
        with pytest.raises(ResourceGuardError):
            batch_scan(10**9, 2 * 10**9, 1 / 3)

    def test_window_guard_trips_before_work(self):
        def call():
            with pytest.raises(ResourceGuardError):
                batch_scan(10**9, 2 * 10**9, 1 / 3)

        assert peak_bytes(call) < 256 << 20

    def test_minicubes_above_cube_root_are_clamped(self, monkeypatch):
        # At theta = 0.9 floor(n^theta) is about 251,000, but no minicube
        # above the cube root of n can take part; the window must stay small.
        N_lo = 10**6
        res = None

        def call():
            nonlocal res
            res = batch_scan(N_lo, N_lo + 10, 0.9)

        assert peak_bytes(call) < 16 << 20
        assert res.counts.tolist() == [count_r(n, 0.9).count for n in range(N_lo + 1, N_lo + 11)]
        # floor(n^theta) takes 2,261 values over this window, all past the
        # clamp, so the window is one segment of work, not one per value.
        seen = []
        bound_segments = repcount._bound_segments

        def spy(*args):
            seen.append(bound_segments(*args))
            return seen[-1]

        monkeypatch.setattr(repcount, "_bound_segments", spy)
        res = batch_scan(N_lo, N_lo + 10**4, 0.9)
        assert [len(s) for s in seen] == [1]
        for n in random.Random(9).sample(range(N_lo + 1, N_lo + 10**4 + 1), 12):
            assert res.counts[n - N_lo - 1] == count_r(n, 0.9).count, n

    def test_window_near_ten_to_the_ten(self):
        # floor(n^0.3) = 1000 here, so the two-cube sums that can meet a
        # minicube pair spread over 2 * 10^9 values below the window.
        N_hi = 10**10
        res = batch_scan(N_hi - 10**4, N_hi, 0.3)
        assert res.exceptional_count < 10**4
        for n in random.Random(6).sample(range(N_hi - 10**4 + 1, N_hi + 1), 3):
            assert res.counts[n - (N_hi - 10**4) - 1] == count_r(n, 0.3).count, n


class TestHuaCount:
    def test_diagonal_for_single_cube(self):
        for R in (1, 7, 100):
            assert hua_count(R, 1) == R

    def test_r10_via_brute_force(self):
        brute = 0
        for a in range(1, 11):
            for b in range(1, 11):
                for c in range(1, 11):
                    for d in range(1, 11):
                        if a**3 + b**3 == c**3 + d**3:
                            brute += 1
        assert brute == 190
        assert hua_count(10, 2) == 190

    def test_taxicab_coincidence_at_12(self):
        # 1729 = 1^3 + 12^3 = 9^3 + 10^3 adds 8 ordered tuples beyond the
        # diagonal-only count 2R^2 - R.
        R = 12
        assert hua_count(R, 2) == 2 * R**2 - R + 8 == 284
        for R in (5, 10, 11):
            assert hua_count(R, 2) == 2 * R**2 - R  # no taxicab pair below 1729

    def test_matches_grid_moment(self):
        for R in (5, 8):
            grid = mean_value_grid(moment_integrand(interval_spec(0, R), 2), 4 * R**3 + 1)
            assert grid.real == pytest.approx(hua_count(R, 2), abs=1e-6)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            hua_count(100_000, 2)
        with pytest.raises(PreconditionError):
            hua_count(10, 3)


class TestMixedMeanCount:
    def test_trivial_smooth_set_collapses_f2h6(self):
        # A(R) = {1}: all smooth cubes equal, so the equation forces x1 = x2
        # and the count is just the number of x terms in (P, 2P].
        assert mixed_mean_count(6.0, 1.0, 0.1, "f2h6") == 6

    def test_f2h6_matches_grid_moment(self):
        P, R, eta = 6.0, 4.0, 0.8
        count = mixed_mean_count(P, R, eta, "f2h6")
        f = interval_spec(P, 2 * P)
        h = set_spec(smooth_set(R, eta))
        integrand_factors = ((f, 1, False), (f, 1, True), (h, 3, False), (h, 3, True))
        from cubelab.arcs import ArcIntegrand

        integrand = ArcIntegrand(factors=integrand_factors, twist=0)
        grid = mean_value_grid(integrand, integrand.degree_bound() + 1)
        assert grid.real == pytest.approx(count, abs=1e-6)

    def test_k8_empty_prime_range(self):
        assert mixed_mean_count(6.0, 4.0, 0.5, "K8") == 0

    def test_k_shapes_with_explicit_pairs(self):
        pairs = ((2, (1, 2, 3)),)
        count = mixed_mean_count(6.0, 4.0, 0.8, "K8", k_pairs=pairs)
        kvals = [2, 4, 6]
        brute = 0
        from itertools import product

        sums = {}
        for quad in product(kvals, repeat=4):
            s = sum(v**3 for v in quad)
            sums[s] = sums.get(s, 0) + 1
        brute = sum(m * m for m in sums.values())
        assert count == brute

    def test_k2h6_matches_grid(self):
        pairs = ((2, (1, 2)),)
        count = mixed_mean_count(6.0, 4.0, 0.8, "K2h6", k_pairs=pairs)
        k = bilinear_spec(pairs)
        h = set_spec(smooth_set(4.0, 0.8))
        from cubelab.arcs import ArcIntegrand

        integrand = ArcIntegrand(
            factors=((k, 1, False), (k, 1, True), (h, 3, False), (h, 3, True)), twist=0
        )
        grid = mean_value_grid(integrand, integrand.degree_bound() + 1)
        assert grid.real == pytest.approx(count, abs=1e-6)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            mixed_mean_count(100.0, 4.0, 0.5, "f2h6")

    def test_unknown_shape_rejected_before_any_set_is_built(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("an index set was built for an unknown shape")

        for name in ("smooth_set", "smooth_interval_set", "restricted_primes"):
            monkeypatch.setattr(repcount, name, boom)
        with pytest.raises(PreconditionError):
            mixed_mean_count(6.0, 4.0, 0.5, "f4h4")

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(["f2h6", "K2h6", "K8", "f2K2h4"]),
           P=st.floats(1.0, 5.0), R=st.floats(1.0, 6.0), eta=st.floats(0.2, 0.9),
           k_pairs=st.lists(st.tuples(st.sampled_from([2, 5, 11]),
                                      st.lists(st.integers(1, 4), min_size=1, max_size=3)
                                      .map(tuple)),
                            min_size=1, max_size=2).map(tuple))
    def test_matches_product_enumeration(self, shape, P, R, eta, k_pairs):
        sets = {"f": range(math.floor(P) + 1, math.floor(2 * P) + 1),
                "h": smooth_set(R, eta).members,
                "K": [p * w for p, ws in k_pairs for w in ws]}
        factors = {"f2h6": "fhhh", "K2h6": "Khhh", "K8": "KKKK", "f2K2h4": "fKhh"}[shape]
        sums = Counter(sum(v**3 for v in quad)
                       for quad in product(*(sets[key] for key in factors)))
        want = sum(m * m for m in sums.values())
        assert mixed_mean_count(P, R, eta, shape, k_pairs=k_pairs) == want
