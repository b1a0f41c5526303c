import cmath
import math
import tracemalloc
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubelab import expsums
from cubelab.expsums import (
    MAIN_TERM_CONSTANT,
    _euler_factor_table,
    cubic_gauss_sum,
    local_congruence_count,
    local_density,
    main_term,
    multiplicative_weight,
    series_coefficient,
    singular_series_euler,
    singular_series_truncated,
    singular_series_values,
)
from cubelab.params import PreconditionError, ResourceGuardError


def _gauss_sum_brute(q: int, a: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * a * r**3 / q) for r in range(1, q + 1))


class TestCubicGaussSum:
    def test_single_term(self):
        assert cubic_gauss_sum(1, 1) == pytest.approx(1.0)

    def test_two_terms_cancel(self):
        # e(1/2) + e(0) = -1 + 1
        assert cubic_gauss_sum(2, 1) == pytest.approx(0.0, abs=1e-12)

    def test_cubing_bijective_mod_3(self):
        assert cubic_gauss_sum(3, 1) == pytest.approx(0.0, abs=1e-12)

    def test_nine_term_value(self):
        expected = 3 + 6 * math.cos(2 * math.pi / 9)
        got = cubic_gauss_sum(9, 1)
        assert got.real == pytest.approx(expected, rel=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-10)
        assert expected == pytest.approx(7.596266658713868, rel=1e-12)

    def test_against_brute_force(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 12, 25, 27, 31):
            for a in range(q + 1):
                assert cubic_gauss_sum(q, a) == pytest.approx(
                    _gauss_sum_brute(q, a), abs=1e-9 * q
                )

    def test_modulus_past_the_cap_is_a_resource_guard_before_any_table(self, monkeypatch):
        def no_tables(*_):
            raise AssertionError("a length-q array was built")

        monkeypatch.setattr(expsums, "gauss_sum_table", no_tables)
        monkeypatch.setattr(expsums, "cube_spectrum", no_tables)
        for q in (expsums._DENSITY_MODULUS_CAP + 1, 2**63 - 1, 10**30):
            with pytest.raises(ResourceGuardError, match="modulus cap"):
                cubic_gauss_sum(q, 1)

    def test_full_sum_at_divisible_a(self):
        for q in (1, 2, 5, 12):
            assert cubic_gauss_sum(q, 0) == pytest.approx(q)
            assert cubic_gauss_sum(q, q) == pytest.approx(q)

    def test_conjugation_symmetry(self):
        for q in range(1, 201):
            table = [cubic_gauss_sum(q, a) for a in range(q)]
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert table[a] == pytest.approx(table[q - a].conjugate(), abs=1e-9 * q)

    def test_magnitude_bound(self):
        # Harness constant 4 in |S(q,a)| <= 4 q^(2/3); reported on failure.
        worst = 0.0
        for q in range(1, 501):
            table = np.abs(np.array([cubic_gauss_sum(q, a) for a in range(1, q + 1)
                                     if math.gcd(a, q) == 1]))
            if len(table):
                worst = max(worst, float(table.max()) / q ** (2 / 3))
        assert worst <= 4.0, f"observed sup |S(q,a)| / q^(2/3) = {worst}"

    def test_weight_domination(self):
        # |S(q,a)|/q <= C * w(q).  The implied constant is NOT 1 at desk
        # scale: S(9,1) = 3 + 6cos(2pi/9) already gives ratio ~2.53 against
        # w(9) = 1/3, and squarefull 3,7-composites inherit it.  Report the
        # observed sup and pin the empirical envelope instead of failing.
        worst, worst_q = 0.0, 0
        for q in range(1, 501):
            w = multiplicative_weight(q)
            vals = [abs(cubic_gauss_sum(q, a)) / q for a in range(1, q + 1)
                    if math.gcd(a, q) == 1]
            if vals and max(vals) / w > worst:
                worst, worst_q = max(vals) / w, q
        assert worst == pytest.approx(2.5320888862, rel=1e-6), (
            f"observed sup (|S|/q)/w(q) = {worst} at q={worst_q}"
        )
        assert worst <= 4.0


class TestLocalCongruenceCount:
    def test_trivial_modulus(self):
        assert local_congruence_count(1).count == 1

    @pytest.mark.parametrize("q,expected", [(2, 32), (3, 243)])
    def test_pinned_small(self, q, expected):
        assert local_congruence_count(q).count == expected

    def test_against_six_fold_loop(self):
        for q in range(1, 13):
            brute = 0
            cubes = [pow(y, 3, q) for y in range(1, q + 1)]
            for y in product(range(q), repeat=6):
                psi = cubes[y[0]] - cubes[y[1]] + cubes[y[2]] - cubes[y[3]] + cubes[y[4]] - cubes[y[5]]
                if psi % q == 0:
                    brute += 1
            assert local_congruence_count(q).count == brute, q

    def test_sixth_moment_identity(self):
        # q * rho(q) = sum_a |S(q,a)|^6 for q <= 60.
        for q in range(1, 61):
            lhs = q * local_congruence_count(q).count
            rhs = sum(abs(cubic_gauss_sum(q, a)) ** 6 for a in range(1, q + 1))
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)), q

    def test_cap_guard(self):
        with pytest.raises(PreconditionError):
            local_congruence_count(61)
        local_congruence_count(61, cap=70)


class TestMultiplicativeWeight:
    @pytest.mark.parametrize("q,expected", [
        (1, 1.0),
        (2, 3 * 2**-0.5),
        (8, 0.5),
        (12, 0.5 * 3 * 3**-0.5),
        (16, 3 * 2**-1.5),        # 2^4 = 2^(3*1+1)
        (81, 3**-2),              # 3^4 is not: 3^(3*1+1) -> 3*3^(-1.5)? no: v=1,u=1
    ])
    def test_pinned_values(self, q, expected):
        if q == 81:
            expected = 3 * 3**-1.5  # 3u+v = 4 with u=1, v=1
        assert multiplicative_weight(q) == pytest.approx(expected, rel=1e-12)

    def test_past_the_cap_is_a_resource_guard_before_any_division(self, monkeypatch):
        assert multiplicative_weight(10**12) == pytest.approx(1e-4, rel=1e-12)  # 2^12 5^12

        def no_division(*_):
            raise AssertionError("trial division started")

        monkeypatch.setattr(expsums, "_factorize", no_division)
        for q in (10**12 + 1, 10**14 + 31, 2**63 - 25):
            with pytest.raises(ResourceGuardError, match="weight modulus cap"):
                multiplicative_weight(q)

    def test_multiplicative(self):
        for q1 in range(1, 40):
            for q2 in range(1, 40):
                if math.gcd(q1, q2) == 1:
                    assert multiplicative_weight(q1 * q2) == pytest.approx(
                        multiplicative_weight(q1) * multiplicative_weight(q2), rel=1e-12
                    )


def _series_coefficient_brute(q: int, n: int) -> complex:
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += (_gauss_sum_brute(q, a) / q) ** 4 * cmath.exp(-2j * cmath.pi * a * n / q)
    return total


class TestSeriesCoefficient:
    def test_q_one(self):
        for n in (1, 5, 37):
            assert series_coefficient(1, n) == pytest.approx(1.0)

    def test_q_two_vanishes(self):
        for n in (1, 2, 9):
            assert series_coefficient(2, n) == pytest.approx(0.0, abs=1e-12)

    def test_nine_four_against_brute(self):
        brute = _series_coefficient_brute(9, 4)
        assert abs(brute.imag) < 1e-12
        assert series_coefficient(9, 4) == pytest.approx(brute.real, rel=1e-9, abs=1e-12)

    def test_against_brute_grid(self):
        for q in (3, 4, 5, 7, 9, 16, 25, 63):
            for n in (1, 2, 4, 10, 100):
                brute = _series_coefficient_brute(q, n)
                assert series_coefficient(q, n) == pytest.approx(
                    brute.real, rel=1e-9, abs=1e-10
                ), (q, n)

    def test_multiplicativity(self):
        for q1 in range(1, 51):
            for q2 in range(q1, 51):
                if math.gcd(q1, q2) != 1:
                    continue
                for n in (1, 17, 36, 100):
                    lhs = series_coefficient(q1 * q2, n)
                    rhs = series_coefficient(q1, n) * series_coefficient(q2, n)
                    assert abs(lhs - rhs) <= 1e-9, (q1, q2, n)


class TestSingularSeries:
    def test_truncation_at_one(self):
        rep = singular_series_truncated(7, 1)
        assert rep.value == pytest.approx(1.0)

    def test_truncation_at_three(self):
        # A(2, n) = A(3, n) = 0, so the total is still the q=1 term.
        for n in (2, 5, 12):
            assert singular_series_truncated(n, 3).value == pytest.approx(1.0, abs=1e-12)

    def test_report_structure(self):
        rep = singular_series_truncated(4, 50)
        assert rep.partial_sums[-1][2] == pytest.approx(rep.value)
        assert len(rep.partial_sums) == 50
        assert rep.tail_estimate >= 0.0

    def test_batch_matches_scalar(self):
        ns = np.array([2, 3, 4, 17, 100, 9999])
        batch = singular_series_values(ns, 200)
        for i, n in enumerate(ns):
            assert batch[i] == pytest.approx(
                singular_series_truncated(int(n), 200).value, rel=1e-12, abs=1e-12
            )

    def test_partial_sums_wander(self):
        # The four-cube series converges only conditionally: raw partial
        # sums dip negative at moderate truncations for n with a depressed
        # 3-adic factor (n = 4, 5 mod 9), e.g. S(14; 500) < 0 < S(14; 2000).
        assert singular_series_truncated(14, 500).value < 0
        assert singular_series_truncated(14, 2000).value > 0

    def test_mostly_positive_at_2000(self):
        # A finite truncation is not promised positive.  Acceptance clause
        # 5a checks that on [2, 10^4] it is positive off the depressed
        # classes n = +-4 (mod 9); on [2, 500] it leaves exactly five
        # offenders, all in those classes, pinned here as a regression
        # anchor.
        ns = np.arange(2, 501)
        vals = singular_series_values(ns, 2000)
        offenders = ns[vals <= 0].tolist()
        assert offenders == [148, 185, 220, 256, 473]
        assert all(n % 9 in (4, 5) for n in offenders)


# (Q_max, width) with width in [1, 3 Q_max]: windows shorter and longer than q.
_RUNS = st.integers(1, 2500).flatmap(lambda Q: st.tuples(st.just(Q), st.integers(1, 3 * Q)))


class TestRunPath:
    """A window of consecutive n takes the periodic-run path; reversed, it gathers."""

    @settings(max_examples=15, deadline=None)
    @given(first=st.integers(1, 10**12), run=_RUNS, p_max=st.integers(2, 2000))
    @example(first=10**12, run=(2000, 1), p_max=2000)  # width 1
    # first = 0 mod every q = 2^a 3^b, the deep 2- and 3-adic moduli included
    @example(first=2**19 * 3**12, run=(2000, 6000), p_max=2000)
    @example(first=720720, run=(16, 48), p_max=17)  # first = 0 mod q <= 16; width = k q
    @example(first=7, run=(16, 48), p_max=13)  # width = k q behind a head
    @example(first=108_500_001, run=(2000, 10_000), p_max=2000)  # the bench window
    def test_run_and_gather_give_the_same_bits(self, first, run, p_max):
        Q_max, width = run
        ns = np.arange(first, first + width, dtype=np.int64)
        for f, arg in ((singular_series_values, Q_max), (singular_series_euler, p_max)):
            bits = f(ns, arg).tobytes()
            assert bits == f(ns[::-1], arg)[::-1].tobytes()
            assert bits == f(np.repeat(ns, 2), arg)[::2].tobytes()  # a gather at width 1 too

    @pytest.mark.parametrize("f", [lambda ns: singular_series_values(ns, 10),
                                   singular_series_euler], ids=["values", "euler"])
    def test_n_past_int64_is_a_precondition_before_any_table(self, f, monkeypatch):
        def no_tables(*_):
            raise AssertionError("a table was built")

        monkeypatch.setattr(expsums, "series_coefficient_table", no_tables)
        monkeypatch.setattr(expsums, "_euler_factor_table", no_tables)
        for ns in ([2**63], [5, 2**63], [2**70]):
            with pytest.raises(PreconditionError, match="int64"):
                f(ns)


def _fft_series_table(q: int) -> np.ndarray:
    """A(q, .) by the FFT of the masked fourth powers at every q, built here, uncached."""
    weights = (expsums.cube_spectrum(q) / q) ** 4
    coprime = np.gcd(np.arange(q), q) == 1
    return np.fft.fft(np.where(coprime, weights, 0.0)).real


# A window from _RUNS, or an arbitrary array of n < 2^63 at Q_max <= 2500.
_SERIES_CASES = st.one_of(
    st.tuples(st.integers(1, 10**12), _RUNS).map(
        lambda t: (t[1][0], np.arange(t[0], t[0] + t[1][1], dtype=np.int64))),
    st.tuples(st.integers(1, 2500), st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=200)
              .map(lambda ns: np.array(ns, dtype=np.int64))),
)


class TestSeriesSkip:
    """The q whose A(q, .) vanishes identically are never built or added."""

    def test_rule_matches_the_fft_tables(self):
        # Skipped tables hold FFT noise below 1.3e-63, kept ones reach 1.26e-4.
        live = []
        for q in range(1, expsums._Q_MAX_CAP + 1):
            vanishes = float(np.max(np.abs(_fft_series_table(q)))) < 1e-40
            assert expsums._series_vanishes(q) == vanishes, q
            if not vanishes:
                live.append(q)
        assert expsums._series_moduli(expsums._Q_MAX_CAP) == tuple(live)
        assert (len(expsums._series_moduli(2000)), len(live)) == (433, 834)

    @settings(max_examples=15, deadline=None)
    @given(case=_SERIES_CASES)
    @example(case=(2000, np.arange(108_500_001, 108_510_001)))  # the bench window
    def test_values_equal_the_sum_over_every_fft_table(self, case):
        Q_max, ns = case
        want = np.zeros(len(ns))
        for q in range(1, Q_max + 1):
            want += _fft_series_table(q)[ns % q]
        assert singular_series_values(ns, Q_max).tobytes() == want.tobytes()

    def test_skipped_q_never_reach_the_table_builder(self, monkeypatch):
        Q_max = 300
        live = expsums._series_moduli(Q_max)
        seen = []
        table = expsums.series_coefficient_table
        monkeypatch.setattr(expsums, "series_coefficient_table", lambda q: seen.append(q) or table(q))
        singular_series_values(np.arange(1, 50), Q_max)
        singular_series_values(np.array([10**12, 7, 3]), Q_max)
        rep = singular_series_truncated(11, Q_max)
        assert seen == list(live) * 3
        assert [q for q, a, _ in rep.partial_sums if a == 0.0 and q not in live] == [
            q for q in range(1, Q_max + 1) if q not in live]

        def no_fft(*_):
            raise AssertionError("a vanishing table was built")

        monkeypatch.setattr(expsums, "cube_spectrum", no_fft)
        for q in (2, 3, 6, 16, 24, 81, 250, 4095):
            assert expsums._series_vanishes(q)
            zeros = table.__wrapped__(q)
            assert len(zeros) == q and not np.any(zeros)
            assert series_coefficient(q, 5) == 0.0


class TestSeriesModulusCap:
    def test_cap_covers_the_drawn_runs_and_the_cache_holds_it(self):
        # TestRunPath draws Q_max up to 2500; a walk q = 1..Q_max past the
        # cache size would evict every table before its next use.
        assert 2500 <= expsums._Q_MAX_CAP
        assert expsums.series_coefficient_table.cache_info().maxsize >= expsums._Q_MAX_CAP

    def test_past_the_cap_is_a_resource_guard_before_any_table(self, monkeypatch):
        def no_tables(*_):
            raise AssertionError("a table was built")

        monkeypatch.setattr(expsums, "series_coefficient_table", no_tables)
        too_big = expsums._Q_MAX_CAP + 1
        for call in (lambda: singular_series_values(np.array([5]), too_big),
                     lambda: singular_series_values(np.array([5]), 10**8),
                     lambda: singular_series_truncated(5, too_big),
                     lambda: singular_series_truncated(5, 10**8),
                     lambda: series_coefficient(too_big, 5),
                     lambda: series_coefficient(2**63, 5),
                     lambda: main_term(100, 0.3, 10**8)):
            with pytest.raises(ResourceGuardError, match="series modulus cap"):
                call()


class TestLocalDensity:
    def test_bijective_prime_exact_one(self):
        # Cubing is a bijection mod 5 (3 does not divide 5-1), so the k=1
        # density is exactly 1 for every n, and it persists to k=2 whenever
        # 5 does not divide n.
        for n in (1, 2, 3, 4, 5, 17):
            assert local_density(5, n, 1).value == pytest.approx(1.0, abs=1e-12)
        for n in (1, 2, 3, 4, 17):
            d = local_density(5, n, 2)
            assert d.value == pytest.approx(1.0, abs=1e-12)
            assert d.converged

    def test_ramified_second_level(self):
        # For 5 | n the mod-25 correction enters: the 20 non-unit cube
        # slots push the density to 1 - 1/125 on the residues 5*unit.
        d = local_density(5, 5, 2)
        assert d.value == pytest.approx(1.0 - 1.0 / 125.0, rel=1e-9)

    def test_seven_against_enumeration(self):
        # Direct meshgrid enumeration mod 7, 49 as the independent oracle.
        for modulus, k in [(7, 1), (49, 2)]:
            cubes = np.array([pow(x, 3, modulus) for x in range(1, modulus + 1)])
            grid = (cubes[:, None, None, None] + cubes[None, :, None, None]
                    + cubes[None, None, :, None] + cubes[None, None, None, :]) % modulus
            for n in (1, 3):
                brute = int(np.count_nonzero(grid == n % modulus)) / modulus**3
                d = local_density(7, n, k)
                assert d.value == pytest.approx(brute, rel=1e-9), (modulus, n)

    def test_three_adic_positive(self):
        d = local_density(3, 4, 4)
        assert d.value > 0.0
        assert d.converged

    def test_hensel_shortcut_matches_deeper_level(self):
        # The k=1 certificate for p not dividing 3n must agree with k=2.
        for p in (5, 7, 11, 13, 17, 19, 23):
            for n in (1, 2, 9, 100):
                if (3 * n) % p == 0:
                    continue
                d1 = local_density(p, n, 1)
                d2 = local_density(p, n, 2)
                assert d1.converged
                assert d1.value == pytest.approx(d2.value, rel=1e-9), (p, n)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), j=st.integers(0, 16), m=st.integers(1, 10**4))
    @example(p=2, j=4, m=3)  # 48: levels 3 and 4 agree at 1.375, the density is 1.3125
    @example(p=3, j=3, m=2)  # 54: 2.3333 at levels 3-4 against 2.3704
    @example(p=2, j=10, m=3)  # 3072: 1.375 against 1.6406
    def test_high_valuation_reaches_the_deep_level(self, p, j, m):
        # Against the deepest table under the modulus cap (2^19, 3^12, 5^8,
        # 7^7): the density no longer moves from level v_p(n) + 1 (v_3(n) + 2
        # at p = 3), and one more level confirms it.
        n = p**j * m
        v = j + next(i for i in range(20) if (m // p**i) % p)
        modulus, deep = _euler_factor_table(p)
        k_deep = round(math.log(modulus, p))
        stable = v + (2 if p == 3 else 1)
        assume(stable + 1 <= k_deep)
        got = local_density(p, n, k_deep)
        assert got.converged
        assert got.k_used >= stable
        assert got.value == pytest.approx(float(deep[n % modulus]), rel=1e-9)
        if stable > 1:
            assert not local_density(p, n, stable - 1).converged

    def test_modulus_cap_enforced(self):
        with pytest.raises(PreconditionError):
            local_density(101, 1, 3)  # 101^3 > 10^6

    def test_modulus_cap_before_the_primality_test(self, monkeypatch):
        def no_division(*_):
            raise AssertionError("trial division started")

        monkeypatch.setattr(expsums, "_factorize", no_division)
        for p, k_max in ((2**63 - 25, 1), (2**61 - 1, 10**9), (10**6 + 3, 1), (2, 20)):
            with pytest.raises(PreconditionError, match="modulus cap"):
                local_density(p, 1, k_max)

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError):
            local_density(6, 1, 1)


class TestEulerFactorDepth:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_deepest_level_under_the_cap(self, p):
        # p <= 31 use the deepest p^k <= 10^6; at n = 2 p^2 (3 * 4 for p = 2)
        # the level-1 density is off by 3e-5 or more, so a shallower table fails.
        k = max(j for j in range(1, 21) if p**j <= 10**6)
        modulus, table = _euler_factor_table(p)
        assert modulus == p**k
        n = p**2 * (3 if p == 2 else 2)
        want = local_density(p, n, k)
        assert want.converged
        assert float(table[n % modulus]) == pytest.approx(want.value, rel=1e-12)

    def test_larger_primes_stay_at_level_one(self):
        for p in (37, 101, 1999):
            assert _euler_factor_table(p)[0] == p


def _retained_mb(fn) -> float:
    """Memory still held after fn() returns, with every expsums cache cleared first."""
    for obj in vars(expsums).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()


class TestResidentMemory:
    # Only the A(q, .) tables that are not identically zero (433 of q <= 2000,
    # 3.2 MB of float64) and the Euler density tables (about 40 MB) stay
    # cached; the Gauss-sum and cube-residue vectors they are built from do not.
    NS = np.arange(10**8, 10**8 + 10**4)

    def test_series_keeps_only_coefficient_tables(self):
        assert _retained_mb(lambda: singular_series_values(self.NS, 2000)) <= 5.0

    def test_euler_keeps_only_density_tables(self):
        assert _retained_mb(lambda: singular_series_euler(self.NS)) <= 45.0


class TestMainTerm:
    def test_constant_against_high_precision_oracle(self):
        mp.mp.dps = 30
        oracle = mp.gamma(mp.mpf(4) / 3) ** 2 / mp.gamma(mp.mpf(2) / 3)
        assert abs(MAIN_TERM_CONSTANT - float(oracle)) < 1e-9
        # Cross-check Gamma(4/3) = Gamma(1/3)/3.
        assert float(mp.gamma(mp.mpf(1) / 3) / 3) == pytest.approx(
            math.gamma(4 / 3), rel=1e-14
        )

    def test_exponent_vanishes_at_theta_sixth(self):
        # 2*theta - 1/3 = 0, so the term is just constant * series.
        n = 1234
        series = singular_series_truncated(n, 300).value
        assert main_term(n, 1 / 6, 300) == pytest.approx(MAIN_TERM_CONSTANT * series, rel=1e-12)

    def test_composition(self):
        n, theta, qmax = 10**6, 0.3, 500
        series = singular_series_truncated(n, qmax).value
        expected = MAIN_TERM_CONSTANT * series * n ** (2 * theta - 1 / 3)
        assert main_term(n, theta, qmax) == pytest.approx(expected, rel=1e-12)

    def test_rejects_tiny_n(self):
        with pytest.raises(PreconditionError):
            main_term(1, 0.3, 10)
