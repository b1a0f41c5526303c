import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubelab import genfun
from cubelab.arcs import rho_kernel, sigma_kernel
from cubelab.expsums import cubic_gauss_sum
from cubelab.genfun import (
    QuadratureError,
    _batch_rule,
    estimate_bilinear_prefactor,
    fractional_phases,
    interval_spec,
    set_spec,
    spec_from_params,
    v_integral,
    w_integral,
    weyl_sum,
)
from cubelab.params import PreconditionError, derive_parameters
from cubelab.smooth import smooth_interval_set, smooth_set


_PHASE_CASES = st.one_of(
    st.tuples(st.just(3), st.lists(st.integers(1, 10**7), min_size=1, max_size=20)),
    # power 1 (the twist): inside the Dekker range, and up to 2^63 - 1 past it
    st.tuples(st.just(1), st.lists(st.integers(1, 2**53 - 1), min_size=1, max_size=20)),
    st.tuples(st.just(1), st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=20)),
)


class TestFractionalPhases:
    def test_against_exact_fractions(self):
        rng = np.random.default_rng(42)
        xs = np.array([1, 2, 17, 1000, 54321, 207000], dtype=np.int64)
        for alpha in [0.1, 0.123456789, 0.9999999, rng.random(), rng.random()]:
            exact = [float(Fraction(alpha) * int(x) ** 3 % 1) for x in xs]
            got = fractional_phases(alpha, xs)
            assert np.allclose(got, exact, atol=1e-13), alpha

    def test_big_value_fallback_matches(self):
        # Above the float-exact cube range the dyadic big-int path takes over.
        xs = np.array([300_000, 1_234_567], dtype=np.int64)
        alpha = 0.7182818284590452
        exact = [float(Fraction(alpha) * int(x) ** 3 % 1) for x in xs]
        got = fractional_phases(alpha, xs)
        assert np.allclose(got, exact, atol=1e-13)

    def test_integer_alpha_zero_phase(self):
        xs = np.arange(1, 50, dtype=np.int64)
        assert np.all(fractional_phases(0.0, xs) == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.one_of(
        # dyadic j / 2^k
        st.integers(1, 64).flatmap(lambda k: st.integers(1, 2**k - 1).map(lambda j: j / 2**k)),
        # full 53-bit mantissa, alpha >= 2^-11: the uint64 branch above x = 208,000
        st.builds(lambda m, e: (m | 1) / 2**(53 + e), st.integers(2**52, 2**53 - 1),
                  st.integers(0, 10)),
        # full mantissa, alpha < 2^-11: the big-integer branch above x = 208,000
        st.builds(lambda m, e: (m | 1) / 2**(53 + e), st.integers(2**52, 2**53 - 1),
                  st.integers(11, 40)),
        st.floats(0.0, 1.0, exclude_max=True),
    ), case=_PHASE_CASES, more=st.lists(st.floats(-4.0, 4.0), max_size=4))
    @example(alpha=(2**53 - 1) / 2**64, case=(3, [10**7, 208_001]), more=[])  # uint64 still
    @example(alpha=(2**53 - 1) / 2**65, case=(3, [10**7, 208_001]), more=[])  # big integers
    @example(alpha=(2**53 - 1) / 2**64, case=(1, [2**63 - 1, 2**53]), more=[0.5])
    @example(alpha=(2**53 - 1) / 2**65, case=(1, [2**63 - 1, 2**53 - 1]), more=[])
    @example(alpha=0.00024414062500000005, case=(1, [2**52 - 1]), more=[])  # Dekker rounds up
    def test_bit_identical_to_exact_fractions(self, alpha, case, more):
        # Every branch rounds the exact residue once; the Dekker branch (all
        # x <= 208,000, or k < 2^53 at power 1) maps a residue that rounds up
        # to 1.0 onto 0.0.  An array of alpha gives the float call per row.
        power, xs = case
        want = [float(Fraction(alpha) * x**power % 1) for x in xs]
        if max(xs) <= (208_000 if power == 3 else 2**53 - 1):
            want = [w % 1.0 for w in want]
        values = np.array(xs, dtype=np.int64)
        got = fractional_phases(alpha, values, power=power)
        assert got.tolist() == want
        alphas = [alpha, *more]
        rows = fractional_phases(np.array(alphas), values, power=power)
        assert rows.shape == (len(alphas), len(xs))
        for a, row in zip(alphas, rows):
            assert row.tobytes() == fractional_phases(a, values, power=power).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.one_of(st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
                           st.integers(1, 2**40).map(lambda j: -j / 2**41)),
           case=_PHASE_CASES)
    @example(alpha=-1e-05, case=(3, [207_999, 200_000]))
    @example(alpha=-1e-05, case=(1, [2**53]))
    @example(alpha=-5e-324, case=(3, [10**7]))
    def test_alpha_in_minus_one_to_zero_keeps_full_accuracy(self, alpha, case):
        # alpha + 1 would round by up to 2^-54 here, which x^3 near 208,000
        # turns into half a cycle.  The exact branches still round the
        # residue once; the Dekker branch is within 2^-52 of it.
        power, xs = case
        want = [Fraction(alpha) * x**power % 1 for x in xs]
        got = fractional_phases(alpha, np.array(xs, dtype=np.int64), power=power)
        if max(xs) > (208_000 if power == 3 else 2**53 - 1):
            assert got.tolist() == [float(w) for w in want]
        else:
            for g, w in zip(got.tolist(), want):
                gap = abs(Fraction(g) - w)
                assert min(gap, 1 - gap) <= Fraction(1, 2**52), (g, float(w))

    def test_power_must_be_one_or_three(self):
        with pytest.raises(PreconditionError):
            fractional_phases(0.5, np.array([3]), power=2)


class TestWeylSum:
    def test_zero_phase_counts_terms(self):
        P = 100
        assert weyl_sum(0.0, interval_spec(P, 2 * P)) == pytest.approx(100.0)

    def test_two_term_cancellation(self):
        # x in {3, 4}: e(27/2) + e(32) = -1 + 1 = 0.
        got = weyl_sum(0.5, interval_spec(2, 4))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_bilinear_zero_phase_counts_pairs(self):
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        spec = spec_from_params("K", params)
        expected = sum(
            len(smooth_interval_set(max(params.P / p, 1.0), max(2 * params.P / params.Y, 1.0), params.eta))
            for p, _ in spec.pairs
        )
        assert weyl_sum(0.0, spec) == pytest.approx(expected)

    def test_periodicity(self):
        spec = interval_spec(10, 20)
        for alpha in (3 / 1024, 0.25, 917 / 2048):
            a = weyl_sum(alpha, spec)
            b = weyl_sum(alpha + 1.0, spec)
            assert abs(a - b) < 1e-10

    def test_rational_point_identity(self):
        # Full-period sums collapse to multiples of the complete sum:
        # sum_{1<=x<=q*m} e((a/q) x^3) = m * S(q, a).
        for q in (2, 3, 5, 7, 12, 30):
            for a in (1, q - 1):
                for m in (1, 4, 20):
                    lhs = weyl_sum(a / q, interval_spec(0, q * m))
                    rhs = m * cubic_gauss_sum(q, a)
                    assert abs(lhs - rhs) < 1e-9 * q * m, (q, a, m)

    def test_modulus_bounded_by_term_count(self):
        rng = np.random.default_rng(7)
        spec = set_spec(sorted(rng.choice(np.arange(1, 5000), 64, replace=False).tolist()))
        for alpha in rng.random(10):
            assert abs(weyl_sum(float(alpha), spec)) <= 64 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(alphas=st.lists(st.one_of(st.floats(-2.0, 2.0),
                                     st.integers(0, 2**20).map(lambda j: j / 2**20)), max_size=12),
           lo=st.integers(0, 400_000), width=st.integers(0, 300))
    def test_array_alpha_is_bit_identical_to_float_calls(self, alphas, lo, width):
        # Both sides of x = 208,000: the Dekker and the uint64 branches.
        spec = interval_spec(lo, lo + width)
        got = weyl_sum(np.array(alphas, dtype=np.float64), spec)
        assert got.shape == (len(alphas),)
        assert got.tolist() == [weyl_sum(a, spec) for a in alphas]

    def test_array_alpha_is_taken_in_chunks(self, monkeypatch):
        import cubelab.genfun as genfun

        monkeypatch.setattr(genfun, "_BLOCK_ENTRIES", 25)  # 2 rows of 10 terms per block
        spec = interval_spec(0, 10)
        alphas = np.linspace(0.0, 1.0, 7)
        assert weyl_sum(alphas, spec).tolist() == [weyl_sum(float(a), spec) for a in alphas]

    def test_oversize_guard(self):
        with pytest.raises(PreconditionError):
            weyl_sum(0.1, interval_spec(0, 2 * 10**8))

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            interval_spec(5, 3)
        with pytest.raises(PreconditionError):
            set_spec([3, 3, 5])
        with pytest.raises(PreconditionError):
            set_spec([0, 2])


def _with_block(entries: int, fn):
    """fn() with the phase-matrix block budget set to entries."""
    import cubelab.genfun as genfun

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(genfun, "_BLOCK_ENTRIES", entries)
        return fn()


class TestBlockBudget:
    # A block budget of a few entries splits the phase matrix into many
    # blocks (one row each once a row outgrows it); one huge budget is one
    # block.  Rows sum alone, so every bit must agree.
    @settings(max_examples=40, deadline=None)
    @given(betas=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=9),
           lo=st.floats(0.0, 5.0), width=st.floats(0.5, 5.0), block=st.integers(1, 200))
    def test_batch_rule_bits_do_not_depend_on_the_block(self, betas, lo, width, block):
        betas = np.array(betas)
        one = _with_block(1 << 40, lambda: _batch_rule(betas, lo, lo + width, 1e-9))
        many = _with_block(block, lambda: _batch_rule(betas, lo, lo + width, 1e-9))
        for a, b in zip(one, many):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(alphas=st.lists(st.one_of(st.floats(-2.0, 2.0),
                                     st.integers(0, 2**20).map(lambda j: j / 2**20)), max_size=12),
           lo=st.integers(0, 400_000), width=st.integers(0, 60), block=st.integers(1, 150))
    def test_weyl_sum_bits_do_not_depend_on_the_block(self, alphas, lo, width, block):
        spec, alphas = interval_spec(lo, lo + width), np.array(alphas, dtype=np.float64)
        one = _with_block(1 << 40, lambda: weyl_sum(alphas, spec))
        many = _with_block(block, lambda: weyl_sum(alphas, spec))
        assert one.tobytes() == many.tobytes()


def _simpson_oracle(beta: float, lo: float, hi: float, m: int = 1 << 21) -> complex:
    g = np.linspace(lo, hi, m + 1)
    vals = np.exp(2j * np.pi * beta * g**3)
    h = (hi - lo) / m
    return complex(h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))


def _phi(t: float) -> complex:
    """phi(t) = int_0^1 e(t u^3) du = 1F1(1/3; 4/3; 2 pi i t) (DLMF 13.4.1)."""
    with mp.workdps(30):
        return complex(mp.hyp1f1(mp.mpf(1) / 3, mp.mpf(4) / 3, 2j * mp.pi * mp.mpf(t)))


class TestOscillatoryIntegrals:
    @settings(max_examples=40, deadline=None)
    @given(Z=st.floats(0.1, 1000.0),
           ts=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4))
    def test_against_hypergeometric_closed_form(self, Z, ts):
        # w(beta; Z) = Z phi(beta Z^3), v(beta; Z) = 2Z phi(8 beta Z^3) - Z phi(beta Z^3);
        # the scalar integrals and the batch rule must all match at beta = t / Z^3.
        betas = np.array([t / Z**3 for t in ts])
        w_want = [Z * _phi(t) for t in ts]
        v_want = [2 * Z * _phi(8 * t) - Z * _phi(t) for t in ts]
        w_batch, _ = _batch_rule(betas, 0.0, Z, 1e-10)
        v_batch, _ = _batch_rule(betas, Z, 2 * Z, 1e-10)
        for k, beta in enumerate(betas):
            for got in (w_integral(float(beta), Z).value, w_batch[k]):
                assert abs(got - w_want[k]) <= 5e-13 * Z
            for got in (v_integral(float(beta), Z).value, v_batch[k]):
                assert abs(got - v_want[k]) <= 5e-13 * Z

    def test_reports_callers_Z(self):
        assert v_integral(0.01, 3.0).Z == 3.0
        assert w_integral(0.01, 3.0).Z == 3.0

    def test_zero_phase_exact(self):
        for Z in (0.5, 1.0, 7.0, 250.0):
            assert v_integral(0.0, Z).value == pytest.approx(Z, rel=1e-12)
            assert w_integral(0.0, Z).value == pytest.approx(Z, rel=1e-12)

    def test_conjugate_symmetry(self):
        for beta, Z in [(0.37, 2.0), (1.5, 3.0), (1e-3, 10.0)]:
            plus = v_integral(beta, Z).value
            minus = v_integral(-beta, Z).value
            assert minus == pytest.approx(plus.conjugate(), abs=1e-11)

    def test_v_against_brute_quadrature(self):
        Z = 10.0
        beta = 1 / Z**3
        got = v_integral(beta, Z, tol=1e-10).value
        oracle = _simpson_oracle(beta, Z, 2 * Z)
        assert abs(got - oracle) < 1e-8

    def test_w_against_brute_quadrature(self):
        got = w_integral(1000.0, 1.0, tol=1e-10).value
        oracle = _simpson_oracle(1000.0, 0.0, 1.0)
        assert abs(got - oracle) < 1e-8

    def test_w_scaling_law(self):
        # w(beta; Z) = Z * w(beta Z^3; 1)
        for beta, Z in [(0.02, 3.0), (0.5, 2.0), (1e-4, 10.0)]:
            lhs = w_integral(beta, Z, tol=1e-11).value
            rhs = Z * w_integral(beta * Z**3, 1.0, tol=1e-11).value
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_v_scaling_law(self):
        for beta, Z in [(0.02, 3.0), (0.37, 2.0)]:
            lhs = v_integral(beta, Z, tol=1e-11).value
            rhs = Z * v_integral(beta * Z**3, 1.0, tol=1e-11).value
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_error_estimate_below_tol(self):
        out = v_integral(0.01, 5.0, tol=1e-9)
        assert out.abs_error_estimate <= 1e-9

    def test_magnitude_bounded_by_range(self):
        for beta in np.geomspace(1e-6, 10, 12):
            assert abs(v_integral(float(beta), 4.0).value) <= 4.0 + 1e-9
            assert abs(w_integral(float(beta), 4.0).value) <= 4.0 + 1e-9

    def test_v_decay_envelope(self):
        # |v(beta; P)| * (1 + P^3 |beta|) <= 4P over a log-spaced grid.
        P = 50.0
        worst = 0.0
        for x in np.geomspace(1e-3, 1e4, 30):
            beta = float(x / P**3)
            worst = max(worst, abs(v_integral(beta, P, tol=1e-11).value) * (1 + P**3 * beta) / P)
        assert worst <= 4.0, f"observed sup = {worst}"

    def test_w_decay_envelope(self):
        U = 50.0
        worst = 0.0
        for x in np.geomspace(1e-3, 1e4, 30):
            beta = float(x / U**3)
            worst = max(worst, abs(w_integral(beta, U, tol=1e-11).value)
                        * (1 + U**3 * beta) ** (1 / 3) / U)
        assert worst <= 4.0, f"observed sup = {worst}"

    def test_budget_failure_raises(self):
        with pytest.raises(QuadratureError):
            v_integral(5e4, 100.0, tol=1e-14)
        # A batch fails as a whole when its worst beta cannot converge, though
        # the others converge alone.
        _batch_rule(np.array([1e-6, 1e-3]), 100.0, 200.0, 1e-9)
        with pytest.raises(QuadratureError):
            _batch_rule(np.array([1e-6, 5e4, 1e-3]), 100.0, 200.0, 1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(PreconditionError):
            v_integral(0.1, -1.0)
        with pytest.raises(PreconditionError):
            w_integral(0.1, 1.0, tol=0.0)
        with pytest.raises(PreconditionError):
            w_integral(0.1, 1.0, tol=math.nan)

    @pytest.mark.parametrize("integral, beta, Z", [
        (v_integral, 1e308, 1.0), (v_integral, math.inf, 1.0), (v_integral, math.nan, 1.0),
        (v_integral, 0.1, math.nan), (v_integral, 0.1, 1e200), (w_integral, 0.1, math.inf),
        (w_integral, -math.inf, 1.0),
    ])
    def test_non_finite_oscillation_is_a_precondition_before_any_node(
            self, monkeypatch, integral, beta, Z):
        def no_nodes(*_):
            raise AssertionError("quadrature started")

        monkeypatch.setattr(genfun, "_gauss_legendre", no_nodes)
        with pytest.raises(PreconditionError, match="finite oscillation count"):
            integral(beta, Z)


class TestKernels:
    def test_rho_kernel_zero_phase(self):
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        h0 = len(smooth_set(params.R, params.eta))
        got = rho_kernel(0.0, params, C=0.7)
        assert got == pytest.approx(0.7 * h0**2 * params.P**2, rel=1e-10)

    def test_rho_kernel_conjugate_symmetry(self):
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        a = rho_kernel(2e-4, params, C=1.0)
        b = rho_kernel(-2e-4, params, C=1.0)
        assert b == pytest.approx(a.conjugate(), abs=1e-8)

    def test_rho_kernel_composition(self):
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        beta, C = 3e-4, 1.3
        h0 = len(smooth_set(params.R, params.eta))
        v = v_integral(beta, params.P, tol=1e-10).value
        assert rho_kernel(beta, params, C) == pytest.approx(C * h0**2 * v**2, rel=1e-9)

    def test_sigma_kernel_zero_phase(self):
        # ((2P)^2 - P^2) * R^2 = 3 P^2 R^2
        P, R = 7.0, 3.0
        assert sigma_kernel(0.0, P, R) == pytest.approx(3 * P**2 * R**2, rel=1e-10)

    def test_sigma_kernel_forms_agree(self):
        rng = np.random.default_rng(20260809)
        P, R = 9.0, 4.0
        for _ in range(100):
            beta = float(rng.uniform(-2e-3, 2e-3))
            direct = sigma_kernel(beta, P, R, tol=1e-12, form="direct")
            factored = sigma_kernel(beta, P, R, tol=1e-12, form="factored")
            scale = max(abs(direct), abs(factored), 1e-30)
            assert abs(direct - factored) / scale < 1e-9

    def test_sigma_kernel_decay_envelope(self):
        # |W(beta)| <= 8 P^2 R^2 (1 + P^3 |beta|)^(-4/3), harness constant 8.
        P, R = 10.0, 4.0
        worst = 0.0
        for x in np.geomspace(1e-3, 3e3, 25):
            beta = float(x / P**3)
            bound = 8 * P**2 * R**2 * (1 + P**3 * beta) ** (-4 / 3)
            worst = max(worst, abs(sigma_kernel(beta, P, R, tol=1e-11)) / bound)
        assert worst <= 1.0, f"observed sup ratio = {worst}"

    def test_prefactor_heuristic(self):
        params = derive_parameters(864, 1 / 3, eta=0.5, L_override=4.0)
        k0 = spec_from_params("K", params).term_count()
        assert estimate_bilinear_prefactor(params) == pytest.approx(k0 / params.P)


class TestSpecFromParams:
    def test_interval_kinds(self):
        params = derive_parameters(4000, 0.25, L_override=10.0)
        P = params.P
        assert spec_from_params("f", params).term_count() == math.floor(2 * P) - math.floor(P)
        assert spec_from_params("F", params).term_count() == math.floor(2 * P)
        assert spec_from_params("F0", params).term_count() == math.floor(P)
        assert spec_from_params("G", params).term_count() == math.floor(params.R)

    def test_h_matches_smooth_set(self):
        params = derive_parameters(4000, 1 / 3, eta=0.4, L_override=10.0)
        spec = spec_from_params("h", params)
        assert spec.members == smooth_set(params.R, params.eta).members

    def test_unknown_kind_rejected(self):
        params = derive_parameters(4000, 0.25, L_override=10.0)
        with pytest.raises(PreconditionError):
            spec_from_params("g", params)
