import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab.params import (
    PreconditionError,
    Rational,
    best_rational,
    derive_parameters,
    integer_cube_root,
    integer_root,
    parse_config,
)


class TestDeriveParameters:
    def test_degenerate_base(self):
        # N=4 gives P=1, so every power of P collapses and J=0.
        p = derive_parameters(4, 1 / 3, tau=1e-4, eta=0.1)
        assert p.P == 1.0
        assert p.R == 1.0
        assert p.Y == 1.0
        assert p.J == 0

    def test_round_scale(self):
        p = derive_parameters(4 * 10**6, 1 / 3, tau=1e-4, eta=0.1)
        assert p.P == pytest.approx(100.0, rel=1e-12)
        assert p.R == pytest.approx(100.0, rel=1e-12)

    def test_fractional_exponents(self):
        p = derive_parameters(4 * 10**6, 0.2, tau=1e-4, eta=0.1)
        assert p.R == pytest.approx(100.0**0.6, rel=1e-9)
        assert p.R == pytest.approx(15.848931924611133, rel=1e-9)
        assert p.Y == pytest.approx(100.0 ** (11 / 79), rel=1e-9)
        assert p.Y == pytest.approx(1.8988078244652624, rel=1e-9)

    def test_l_default_clamps_to_n(self):
        # (log P)^10 >> N at this scale; the clamp must fire and be flagged.
        p = derive_parameters(4000, 0.25)
        assert math.log(p.P) ** 10 > p.N
        assert p.L == p.N
        assert p.l_clamped

    def test_l_override_honoured(self):
        p = derive_parameters(4000, 0.25, L_override=12.0)
        assert p.L == 12.0
        assert not p.l_clamped

    def test_l_override_range_checked(self):
        with pytest.raises(PreconditionError):
            derive_parameters(4000, 0.25, L_override=0.5)
        with pytest.raises(PreconditionError):
            derive_parameters(4000, 0.25, L_override=5000.0)

    @pytest.mark.parametrize("bad_theta", [-0.1, 0.0, 0.34, 1.0])
    def test_rejects_bad_theta(self, bad_theta):
        with pytest.raises(PreconditionError):
            derive_parameters(4000, bad_theta)

    def test_rejects_small_n(self):
        with pytest.raises(PreconditionError):
            derive_parameters(3, 0.25)

    def test_deterministic(self):
        a = derive_parameters(864000, 0.22, tau=2e-4, eta=0.15)
        b = derive_parameters(864000, 0.22, tau=2e-4, eta=0.15)
        assert a == b

    def test_invariants(self):
        for n in (4, 100, 4000, 10**6):
            for theta in (0.05, 0.2, 1 / 3):
                p = derive_parameters(n, theta)
                assert p.P**3 * 4 == pytest.approx(n, rel=1e-12)
                assert p.R <= p.P * (1 + 1e-12)
                assert p.Y >= 1.0
                assert p.J >= 0
                assert 1.0 <= p.L <= p.N


class TestIntegerCubeRoot:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (7, 1), (8, 2),
                                            (26, 2), (27, 3), (10**18, 10**6)])
    def test_pinned_values(self, n, expected):
        assert integer_cube_root(n) == expected

    def test_bracketing_exhaustive(self):
        for n in range(0, 20000):
            r = integer_cube_root(n)
            assert r**3 <= n < (r + 1) ** 3

    def test_bracketing_large(self):
        for n in [10**30, 10**30 + 1, (7**40) - 1, 7**40, 2**200]:
            r = integer_cube_root(n)
            assert r**3 <= n < (r + 1) ** 3

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            integer_cube_root(-1)


class TestIntegerRoot:
    @settings(deadline=None)
    @given(n=st.integers(0, 2**2000), k=st.integers(1, 64))
    def test_bracketing(self, n, k):
        r = integer_root(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_rejects_bad_args(self):
        with pytest.raises(PreconditionError):
            integer_root(-1, 2)
        with pytest.raises(PreconditionError):
            integer_root(8, 0)


def _best_rational_exhaustive(alpha: float, q_max: int) -> Rational:
    """Independent argmin over every reduced fraction with q <= q_max."""
    x = Fraction(alpha)
    best = None
    for q in range(1, q_max + 1):
        a = round(q * alpha)
        for cand in (a - 1, a, a + 1):
            if math.gcd(cand, q) != 1:
                continue
            key = (abs(q * x - cand), q, cand)
            if best is None or key < best[0]:
                best = (key, Rational(cand, q))
    assert best is not None
    return best[1]


class TestBestRational:
    @pytest.mark.parametrize("alpha,q_max,expected", [
        (0.5, 10, (1, 2)),
        (0.25, 10, (1, 4)),
        (0.6180339887, 10, (5, 8)),   # matches exhaustive search over q <= 10
    ])
    def test_pinned_values(self, alpha, q_max, expected):
        r = best_rational(alpha, q_max)
        assert (r.a, r.q) == expected

    def test_matches_exhaustion(self):
        alphas = [0.0, 1e-9, 0.1, 0.123456, 0.3141592653589793, 0.5,
                  0.6180339887498949, 0.7182818284590452, 0.875, 0.999,
                  0.9999999]
        for alpha in alphas:
            for q_max in (1, 2, 7, 50, 200):
                got = best_rational(alpha, q_max)
                want = _best_rational_exhaustive(alpha, q_max)
                assert got == want, (alpha, q_max, got, want)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_max=True), q_max=st.integers(1, 300))
    def test_matches_brute_force_search(self, alpha, q_max):
        assert best_rational(alpha, q_max) == _best_rational_exhaustive(alpha, q_max)

    def test_optimality_property(self):
        # Returned pair beats every coprime competitor with q' <= q_max.
        import random
        rng = random.Random(20260809)
        for _ in range(50):
            alpha = rng.random()
            q_max = rng.randint(1, 120)
            r = best_rational(alpha, q_max)
            x = Fraction(alpha)
            err = abs(r.q * x - r.a)
            for q in range(1, q_max + 1):
                a = round(q * alpha)
                if math.gcd(a, q) == 1:
                    assert err <= abs(q * x - a)

    def test_rejects_bad_cap(self):
        with pytest.raises(PreconditionError):
            best_rational(0.5, 0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(PreconditionError, match="finite"):
            best_rational(alpha, 5)


class TestRational:
    def test_normalization_enforced(self):
        with pytest.raises(PreconditionError):
            Rational(2, 4)
        with pytest.raises(PreconditionError):
            Rational(1, 0)

    def test_value(self):
        assert Rational(1, 4).value == 0.25


class TestParseConfig:
    def test_roundtrip(self):
        cfg = parse_config("N = 864\ntheta=0.25\n# comment\n\nseed = 7\ntol=1e-8\n")
        assert cfg == {"N": 864, "theta": 0.25, "seed": 7, "tol": 1e-8}

    def test_rejects_unknown_key(self):
        with pytest.raises(PreconditionError):
            parse_config("bogus=1\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(PreconditionError):
            parse_config("just words\n")
