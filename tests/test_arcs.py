import cmath
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubelab import arcs
from cubelab.arcs import (
    Arc,
    ArcIntegrand,
    _arc_count,
    arc_membership,
    dissection_measure,
    evaluate_integrand,
    integrate_over_arcs,
    m_dissection,
    major_arc_approximant,
    make_rho_integrand,
    mean_value_grid,
    moment_integrand,
    n_dissection,
    p_dissection,
    rho_kernel,
    sigma_kernel,
    truncated_singular_integral,
)
from cubelab.expsums import cube_spectrum, cubic_gauss_sum
from cubelab.genfun import bilinear_spec, interval_spec, set_spec, weyl_sum
from cubelab.params import (
    PreconditionError,
    Rational,
    ResourceGuardError,
    best_rational,
    derive_parameters,
)
from cubelab.smooth import smooth_set

TOY = derive_parameters(864, 1 / 3, eta=0.8, L_override=4.0)  # P = 6, R = 6
BIG = derive_parameters(4 * 10**6, 1 / 3, eta=0.5, L_override=20.0)  # P = 100
_R4_AT_P6 = math.log(4) / (3 * math.log(6))  # theta with R = P^(3 theta) = 4 at P = 6


class TestDissectionStructure:
    def test_p_style_widths(self):
        d = p_dissection(TOY)
        assert all(arc.half_width == TOY.L / TOY.N for arc in d.arcs)
        assert d.style == "P"
        labels = {(a.label.a, a.label.q) for a in d.arcs}
        assert (0, 1) in labels and (1, 1) in labels and (1, 4) in labels
        assert all(math.gcd(a, q) == 1 for a, q in labels)

    def test_m_style_widths(self):
        X = 5.0
        d = m_dissection(BIG, X)
        for arc in d.arcs:
            assert arc.half_width == pytest.approx(X / (arc.label.q * BIG.P**3), rel=1e-12)

    def test_n_style_is_m_at_three_quarters(self):
        d = n_dissection(BIG)
        X = BIG.P**0.75
        m = m_dissection(BIG, X)
        assert d.cutoff == pytest.approx(X)
        assert [a.label for a in d.arcs] == [a.label for a in m.arcs]
        assert d.style == "N"

    def test_disjointness_flag(self):
        # 2 X^2 <= P^3 keeps narrow arcs disjoint; violating it overlaps.
        ok = m_dissection(BIG, 500.0)  # 2*500^2 = 5e5 <= 1e6
        assert not ok.overlapping
        bad = m_dissection(TOY, 14.0)  # 2*196 = 392 > 216 = P^3
        assert bad.overlapping

    def test_disjointness_flag_matches_pairwise_check(self):
        # The constructor's flag must agree with literal pairwise interval
        # intersection over every dissection tested.
        families = [
            p_dissection(TOY),
            p_dissection(TOY, L=2.0),
            m_dissection(BIG, 10.0),
            m_dissection(BIG, 60.0),
            m_dissection(TOY, 8.0),
            m_dissection(TOY, 14.0),
            m_dissection(TOY, 20.0),  # arcs 1/q, 12 <= q <= 20, nest inside 0/1's
            n_dissection(BIG),
        ]
        for d in families:
            arcs = d.arcs
            assert len(arcs) <= 10**4
            assert [(a.lo, a.hi) for a in arcs] == sorted((a.lo, a.hi) for a in arcs)
            overlap = False
            for i in range(len(arcs)):
                for j in range(i + 1, len(arcs)):
                    a, b = arcs[i], arcs[j]
                    if a.center == b.center:
                        continue
                    if max(a.lo, b.lo) < min(a.hi, b.hi):
                        overlap = True
            assert d.overlapping == overlap, (d.style, d.cutoff)

    def test_arc_count_guard(self):
        with pytest.raises(ResourceGuardError):
            p_dissection(BIG, L=4 * 10**6)

    def test_arc_count_guard_trips_before_any_arc(self, monkeypatch):
        # Arcs per cutoff Q, counted independently: 1 + #{(a, q): q <= Q, 0 < a <= q, gcd 1}.
        q, a = np.ogrid[1:1400, 1:1400]
        counts = 1 + np.cumsum(((a <= q) & (np.gcd(a, q) == 1)).sum(axis=1))
        first_over = int(np.argmax(counts > 500_000)) + 1  # smallest cutoff past the guard
        made = 0

        def counting_arc(*args):
            nonlocal made
            made += 1
            return Arc(*args)

        for cutoff in (1, 2, 30, first_over - 1, first_over):
            assert _arc_count(cutoff) == counts[cutoff - 1]
        monkeypatch.setattr("cubelab.arcs.Arc", counting_arc)
        assert len(m_dissection(BIG, 30.0)) == made == counts[29]
        made = 0
        for cutoff in (float(first_over), 4 * 10**6):
            with pytest.raises(ResourceGuardError):
                p_dissection(BIG, L=cutoff)
            assert made == 0, cutoff

    def test_clipping(self):
        d = p_dissection(TOY)
        assert all(0.0 <= arc.lo <= arc.hi <= 1.0 for arc in d.arcs)
        zero = next(a for a in d.arcs if (a.label.a, a.label.q) == (0, 1))
        one = next(a for a in d.arcs if (a.label.a, a.label.q) == (1, 1))
        assert zero.lo == 0.0 and zero.hi == TOY.L / TOY.N
        assert one.hi == 1.0 and one.lo == 1.0 - TOY.L / TOY.N


class TestMembership:
    def test_zero_everywhere(self):
        for d in (p_dissection(TOY), m_dissection(BIG, 10.0), n_dissection(BIG)):
            assert arc_membership(0.0, d) == Rational(0, 1)

    def test_half_in_wide_m(self):
        d = m_dissection(BIG, 2.0)
        assert arc_membership(0.5, d) == Rational(1, 2)

    def test_golden_ratio_on_minor_arcs(self):
        # |q*alpha - a| >= 0.055 for q <= 10, far beyond the 1e-5 arc width.
        alpha = (math.sqrt(5) - 1) / 2
        d = m_dissection(BIG, 10.0)
        r = best_rational(alpha, 10)
        assert abs(r.q * alpha - r.a) > 0.055
        assert arc_membership(alpha, d) is None

    def test_centers_report_their_own_label(self):
        for d in (p_dissection(TOY), m_dissection(BIG, 8.0)):
            for arc in d.arcs:
                got = arc_membership(arc.center if arc.center < 1 else 0.0, d)
                want = arc.label if arc.center < 1 else Rational(0, 1)
                assert got == want, (d.style, arc.label)

    def test_m_membership_agrees_with_best_rational(self):
        # For the narrow style the continued-fraction locator is equivalent.
        d = m_dissection(BIG, 10.0)
        rng = np.random.default_rng(99)
        for alpha in rng.random(400):
            alpha = float(alpha)
            got = arc_membership(alpha, d)
            r = best_rational(alpha, 10)
            inside = abs(r.q * alpha - r.a) <= 10.0 / BIG.P**3
            assert (got is not None) == inside
            if inside:
                assert got == r

    def test_wide_style_needs_interval_search(self):
        # A point whose best rational approximant is NOT its containing arc:
        # interval search must still find the right label.
        params = derive_parameters(1000, 1 / 3, eta=0.8, L_override=10.0)
        d = p_dissection(params)  # width 0.01 around a/q, q <= 10
        alpha = 0.3 + 0.009  # inside the (3,10) arc
        assert best_rational(alpha, 10) == Rational(1, 3)  # |3a-1| = .073 < .09
        assert abs(alpha - 1 / 3) > 0.01  # ...but outside the (1,3) arc
        assert arc_membership(alpha, d) == Rational(3, 10)


_MEMBERSHIP_FAMILIES = [
    p_dissection(TOY),
    p_dissection(derive_parameters(1000, 1 / 3, eta=0.8, L_override=10.0)),  # overlapping
    m_dissection(BIG, 10.0),
    m_dissection(BIG, 60.0),
    m_dissection(TOY, 14.0),  # overlapping
    m_dissection(TOY, 20.0),  # overlapping and nested
    n_dissection(BIG),
    p_dissection(derive_parameters(8, 1 / 3, eta=0.8, L_override=2.0)),  # touching at 1/4, 3/4
]


def _containing_arc_brute_force(alpha, d):
    hits = [arc.label for arc in d.arcs if arc.lo <= alpha <= arc.hi]
    return min(hits, key=lambda r: (r.q, r.a)) if hits else None


@st.composite
def _family_and_alpha(draw):
    d = draw(st.sampled_from(_MEMBERSHIP_FAMILIES))
    arc = draw(st.sampled_from(d.arcs))
    alpha = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([arc.lo, arc.center, arc.hi]).filter(lambda x: x < 1.0),
        st.floats(arc.lo, arc.hi).filter(lambda x: x < 1.0),
    ))
    return d, alpha


class TestMembershipProperty:
    @settings(max_examples=300, deadline=None)
    @given(_family_and_alpha())
    def test_matches_brute_force_search(self, family_and_alpha):
        # The containing arc with the smallest (q, a), endpoints included.
        d, alpha = family_and_alpha
        assert arc_membership(alpha, d) == _containing_arc_brute_force(alpha, d)

    def test_touching_arcs_report_the_smaller_label(self):
        d = _MEMBERSHIP_FAMILIES[-1]  # [0, 1/4], [1/4, 3/4], [3/4, 1]
        assert not d.overlapping
        assert arc_membership(0.25, d) == Rational(0, 1)
        assert arc_membership(0.75, d) == Rational(1, 1)

    def test_families_cover_both_search_branches(self):
        assert {d.overlapping for d in _MEMBERSHIP_FAMILIES} == {False, True}
        assert {d.style for d in _MEMBERSHIP_FAMILIES} == {"P", "M", "N"}


_NESTED = m_dissection(TOY, 20.0)  # arcs 1/q, 12 <= q <= 20, nest inside 0/1's


class TestRestrictedFamily:
    """m_dissection(..., q_max=k) is the full family's q <= k part."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([x for arc in _NESTED.arcs for x in (arc.lo, arc.center, arc.hi)
                         if x < 1.0]),
    ))
    def test_overlapping_family_keeps_smallest_label(self, k, alpha):
        # Where the full family's label has q <= k the restricted one agrees;
        # elsewhere no arc with q <= k contains alpha.
        assert _NESTED.overlapping
        part = m_dissection(TOY, 20.0, q_max=k)
        assert part.arcs == tuple(arc for arc in _NESTED.arcs if arc.label.q <= k)
        assert part.cutoff == _NESTED.cutoff
        full = arc_membership(alpha, _NESTED)
        expect = full if full is not None and full.q <= k else None
        assert arc_membership(alpha, part) == expect

    def test_q_max_must_be_positive(self):
        with pytest.raises(PreconditionError):
            m_dissection(TOY, 20.0, q_max=0)


class TestMeasure:
    def test_m_style_unit_cutoff(self):
        d = m_dissection(BIG, 1.0)
        assert dissection_measure(d) == pytest.approx(2 * BIG.P**-3, rel=1e-12)

    def test_p_style_unit_cutoff(self):
        d = p_dissection(TOY, L=1.0)
        assert dissection_measure(d) == pytest.approx(2.0 / TOY.N, rel=1e-12)

    def test_p_style_cubic_envelope(self):
        # total measure <= 4 L^3 / N across parameter sets
        for N, L in [(864, 4.0), (4000, 6.0), (4 * 10**6, 20.0)]:
            params = derive_parameters(N, 1 / 3, L_override=L)
            d = p_dissection(params)
            assert dissection_measure(d) <= 4 * L**3 / N

    def test_additive_over_labels(self):
        d = m_dissection(BIG, 6.0)
        total = dissection_measure(d)
        assert total == pytest.approx(sum(a.length for a in d.arcs), rel=1e-14)

    def test_overlap_rejected(self):
        bad = m_dissection(TOY, 14.0)
        with pytest.raises(PreconditionError):
            dissection_measure(bad)


class TestIntegrateOverArcs:
    def test_constant_integrand_gives_measure(self):
        # Degree-1 spec with a single term x=1 at alpha: e(alpha); use the
        # zero-twist modulus-squared so the integrand is identically 1.
        one = set_spec([1])
        integrand = ArcIntegrand(factors=((one, 1, False), (one, 1, True)), twist=0)
        d = m_dissection(BIG, 1.0)
        got = integrate_over_arcs(integrand, d, tol=1e-12)
        assert got.real == pytest.approx(dissection_measure(d), rel=1e-10)
        assert abs(got.imag) < 1e-14

    def test_rho_over_wide_arcs_matches_riemann_oracle(self):
        # P = 6, R = 4 with the smooth set filling [1, R]; the bilinear
        # factor is hand-built so the toy K is nonempty.
        theta = math.log(4) / (3 * math.log(6))
        toy = derive_parameters(864, theta, eta=0.8, L_override=4.0)
        assert toy.R == 4.0
        k = bilinear_spec([(2, (1, 2, 3))])
        n = 1000
        integrand = make_rho_integrand(n, toy, k_spec=k)
        d = p_dissection(toy)
        got = integrate_over_arcs(integrand, d, tol=1e-9)

        grid = np.linspace(0.0, 1.0, 100_000, endpoint=False)
        keep = np.zeros(len(grid), dtype=bool)
        for arc in d.arcs:
            keep |= (grid >= arc.lo) & (grid <= arc.hi)
        vals = np.array([evaluate_integrand(float(a), integrand) for a in grid[keep]])
        oracle = vals.sum() / len(grid)
        assert abs(got - oracle) <= 1e-3 * max(abs(oracle), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(4, 4000), theta=st.floats(0.05, 1 / 3), n=st.integers(4, 3000))
    @example(N=864, theta=_R4_AT_P6, n=900)
    @example(N=864, theta=_R4_AT_P6, n=1000)
    @example(N=864, theta=_R4_AT_P6, n=1500)
    @example(N=864, theta=_R4_AT_P6, n=1728)
    def test_sigma_via_grid_equals_exact_count(self, N, theta, n):
        # Full-circle average of the twisted difference integrand equals the
        # exact restricted count, by orthogonality, at P <= 10 and R <= P.
        from cubelab.arcs import make_sigma_integrand_pair
        from cubelab.repcount import count_sigma

        params = derive_parameters(N, theta, eta=0.8, L_override=4.0)
        full, inner = make_sigma_integrand_pair(n, params)
        grid = max(full.degree_bound(), inner.degree_bound()) + 1
        val = (mean_value_grid(full, grid) - mean_value_grid(inner, grid)).real
        exact = count_sigma(n, theta, params.P, params.R).count
        assert val == pytest.approx(exact, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(alphas=st.lists(st.floats(-1.0, 2.0), max_size=10),
           exponents=st.tuples(st.integers(1, 5), st.integers(1, 3)),
           conjugated=st.booleans(),
           twist=st.one_of(st.integers(-10**6, 10**6), st.integers(2**53, 2**63 - 1)))
    def test_array_alpha_matches_float_calls(self, alphas, exponents, conjugated, twist):
        # One evaluation of a whole node array against one call per node,
        # twists past 2^53 (the exact dyadic branch) included; both against
        # a direct product of term sums with Fraction-exact phases.
        f = interval_spec(3, 20)
        k = bilinear_spec([(2, (1, 2, 3)), (5, (4,))])
        integrand = ArcIntegrand(factors=((f, exponents[0], conjugated), (k, exponents[1], False)),
                                 twist=twist)
        got = evaluate_integrand(np.array(alphas, dtype=np.float64), integrand)
        want = [evaluate_integrand(a, integrand) for a in alphas]
        assert got.shape == (len(alphas),)
        assert got.tolist() == want  # products round as Python's, so bit for bit

        def e(a, m):
            return cmath.exp(2j * math.pi * float(Fraction(a) * m % 1))

        for a, w in zip(alphas, want):
            fa = sum(e(a, x**3) for x in range(4, 21))
            ka = sum(e(a, x**3) for x in (2, 4, 6, 20))
            oracle = (fa.conjugate() if conjugated else fa) ** exponents[0] * ka ** exponents[1]
            oracle *= e(a, -twist)
            assert abs(w - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_twist_past_int64_is_a_precondition(self):
        f = interval_spec(0, 4)
        with pytest.raises(PreconditionError):
            ArcIntegrand(factors=((f, 1, False),), twist=2**63)
        with pytest.raises(PreconditionError):
            ArcIntegrand(factors=((f, 1, False),), twist=-(2**63))
        ArcIntegrand(factors=((f, 1, False),), twist=2**63 - 1)

    def test_additivity_over_disjoint_families(self):
        k = bilinear_spec([(2, (1, 2))])
        integrand = make_rho_integrand(900, TOY, k_spec=k)
        d = p_dissection(TOY)
        total = integrate_over_arcs(integrand, d, tol=1e-10)
        parts = 0j
        for arc in d.arcs:
            sub = type(d)(style=d.style, cutoff=d.cutoff, arcs=(arc,),
                          params=d.params, overlapping=False)
            parts += integrate_over_arcs(integrand, sub, tol=1e-10 / len(d.arcs))
        assert abs(total - parts) < 1e-8


class TestMeanValueGrid:
    def test_second_moment_is_diagonal_count(self):
        R = 10
        g = interval_spec(0, R)
        got = mean_value_grid(moment_integrand(g, 1), 2 * R**3 + 1)
        assert got.real == pytest.approx(R, abs=1e-9)
        assert abs(got.imag) < 1e-9

    def test_fourth_moment_equals_paired_sums(self):
        R = 10
        g = interval_spec(0, R)
        got = mean_value_grid(moment_integrand(g, 2), 4 * R**3 + 1)
        assert got.real == pytest.approx(190, abs=1e-6)

    def test_grid_size_insensitive(self):
        R = 8
        g = interval_spec(0, R)
        a = mean_value_grid(moment_integrand(g, 2), 4 * R**3 + 1)
        b = mean_value_grid(moment_integrand(g, 2), 4 * R**3 + 2)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_even_moments_real_nonnegative(self):
        spec = set_spec([1, 3, 4, 9])
        for power in (1, 2, 3):
            val = mean_value_grid(moment_integrand(spec, power), 2 * power * 9**3 + 1)
            assert abs(val.imag) <= 1e-9
            assert val.real >= -1e-9

    def test_undersampled_grid_rejected(self):
        g = interval_spec(0, 10)
        with pytest.raises(PreconditionError):
            mean_value_grid(moment_integrand(g, 2), 4 * 10**3 - 1)

    def test_grid_guard(self):
        g = interval_spec(0, 300)
        with pytest.raises(ResourceGuardError):
            mean_value_grid(moment_integrand(g, 2), 1 << 25)


def _peak_mb(fn) -> float:
    """Peak traced memory of fn() above what was allocated before it, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


_GRID_SPECS = st.one_of(
    st.tuples(st.integers(0, 3000), st.integers(0, 400)).map(
        lambda t: interval_spec(t[0], t[0] + t[1])),
    st.tuples(st.integers(1, 3000), st.floats(0.2, 0.9)).map(
        lambda t: set_spec(smooth_set(t[0], t[1]))),
)


class TestGridSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(spec=_GRID_SPECS, log_m=st.integers(1, 16), data=st.data())
    def test_spectrum_entry_is_the_weyl_sum_at_j_over_m(self, spec, log_m, data):
        # M a power of two keeps j/M an exact double, so the phases are exact.
        M = 1 << log_m
        js = data.draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=6))
        spectrum = cube_spectrum(M, spec.term_values())
        tol = 1e-12 + 1e-14 * spec.term_count()
        for j in js:
            assert abs(weyl_sum(j / M, spec) - spectrum[j]) <= tol, (j, M)

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(st.one_of(
               st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
                   lambda t: interval_spec(t[0], t[0] + t[1])),
               st.tuples(st.integers(1, 12), st.floats(0.2, 0.9)).map(
                   lambda t: set_spec(smooth_set(t[0], t[1])))), min_size=1, max_size=3),
           exponents=st.lists(st.integers(1, 3), min_size=3, max_size=3),
           conjugated=st.lists(st.booleans(), min_size=3, max_size=3),
           twist=st.integers(-3000, 3000), extra=st.integers(0, 50), block=st.integers(5, 97))
    @example(specs=[set_spec(smooth_set(8, 0.875)), set_spec(smooth_set(1, 0.5))],
             exponents=[1, 2, 1], conjugated=[False, False, False], twist=791, extra=48,
             block=33)  # M = 1354 = 41 * 33 + 1: a one-entry last block
    def test_block_budget_does_not_change_a_bit(self, specs, exponents, conjugated, twist,
                                                extra, block):
        integrand = ArcIntegrand(factors=tuple(zip(specs, exponents, conjugated)), twist=twist)
        M = integrand.degree_bound() + 1 + extra
        got = {}
        for entries in (1 << 40, block):
            with pytest.MonkeyPatch.context() as mp_:
                mp_.setattr(arcs, "_BLOCK_ENTRIES", entries)
                got[entries] = mean_value_grid(integrand, M)
        assert np.array([got[1 << 40]]).tobytes() == np.array([got[block]]).tobytes()

    def test_fourth_moment_at_two_to_the_twenty_stays_in_budget(self):
        # One spectrum and the running product, 16 MB each at 2^20 points;
        # five grid-size arrays at once took 72 MB.
        integrand = moment_integrand(interval_spec(0, 60), 2)
        assert _peak_mb(lambda: mean_value_grid(integrand, 2**20)) <= 48


class TestKernelBatches:
    # The rules converge to tol in each factor, so an array call (one shared,
    # finer grid) and the float calls differ by at most the product rule's
    # first-order term in tol.
    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(4, 256_000), R_frac=st.floats(0.1, 1.0),
           cycles=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=6))
    def test_array_matches_float_calls(self, N, R_frac, cycles):
        params = derive_parameters(N, 1 / 3, eta=0.5)
        P, R, tol = params.P, params.P * R_frac, 1e-10
        betas = np.array(cycles) / (2 * P) ** 3
        h0, C = len(smooth_set(params.R, params.eta)), 0.7
        got = rho_kernel(betas, params, C, tol)
        bound = 4 * C * h0**2 * 2 * P * tol
        for b, g in zip(betas.tolist(), got.tolist()):
            assert abs(g - rho_kernel(b, params, C, tol)) <= bound
        bound = 4 * tol * (6 * P * R**2 + 10 * P**2 * R)
        for form in ("direct", "factored"):
            got = sigma_kernel(betas, P, R, tol, form)
            for b, g in zip(betas.tolist(), got.tolist()):
                assert abs(g - sigma_kernel(b, P, R, tol, form)) <= bound, form

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(4, 256_000), R_frac=st.floats(0.1, 1.0),
           cycles=st.floats(-150.0, 150.0))
    def test_one_entry_array_matches_to_rounding(self, N, R_frac, cycles):
        # The same grid; only numpy's and Python's complex products round apart.
        params = derive_parameters(N, 1 / 3, eta=0.5)
        P, R = params.P, params.P * R_frac
        beta = cycles / (2 * P) ** 3
        h0 = len(smooth_set(params.R, params.eta))
        got = rho_kernel(np.array([beta]), params, 0.7)[0]
        assert abs(got - rho_kernel(beta, params, 0.7)) <= 1e-14 * 0.7 * h0**2 * P**2
        for form in ("direct", "factored"):
            got = sigma_kernel(np.array([beta]), P, R, form=form)[0]
            assert abs(got - sigma_kernel(beta, P, R, form=form)) <= 1e-14 * 5 * P**2 * R**2


_STORED_SINGULAR = Path(__file__).resolve().parents[1] / "bench/expected/singular_integrals.json"


class TestSingularIntegrals:
    @pytest.mark.parametrize("case", [0, 1])
    def test_stored_values(self, case):
        # Cases 0 and 1 (kinds u and W) of the benchmark's stored values,
        # held to 1e-12 here where the benchmark checks 1e-8.
        c = json.loads(_STORED_SINGULAR.read_text())[case]
        got = truncated_singular_integral(c["n"], derive_parameters(c["N"], c["theta"]),
                                          c["kind"], L=c["L"])
        assert got == pytest.approx(c["value"], rel=1e-12)

    def test_output_is_real_by_symmetry(self):
        params = derive_parameters(864, 1 / 3, eta=0.8, L_override=4.0)
        val = truncated_singular_integral(1000, params, "u", C=1.0, tol=1e-8)
        assert isinstance(val, float)

    def test_u_kind_converges_and_tail_shrinks(self):
        # J(n; L) approaches its completed value at the R^2 P^-1 L^-1 scale.
        params = derive_parameters(864000, 1 / 3, eta=0.35, L_override=4.0)
        n = int(1.5 * params.N)
        vals = {L: truncated_singular_integral(n, params, "u", C=1.0, tol=1e-7, L=L)
                for L in (4.0, 16.0, 64.0, 256.0)}
        ref = vals[256.0]
        gaps = [abs(vals[L] - ref) for L in (4.0, 16.0, 64.0)]
        assert gaps[0] >= gaps[1] >= gaps[2] or gaps[0] <= 1e-9
        scale = params.R**2 / params.P
        assert gaps[0] <= 10 * scale / 4.0  # generous envelope at the L^-1 scale

    def test_w_kind_true_normalization_recovers_constant(self):
        # J(n; L) / (R^2 n^(-1/3)) -> Gamma(4/3)^2/Gamma(2/3) once R^3 << n.
        from cubelab.expsums import MAIN_TERM_CONSTANT

        params = derive_parameters(500000, 0.1373, L_override=16.0)  # P=50, R~5
        n = 600000
        val = truncated_singular_integral(n, params, "W", L=64.0, tol=1e-6)
        ratio = val / (params.R**2 * n ** (-1 / 3))
        assert ratio == pytest.approx(MAIN_TERM_CONSTANT, rel=2e-3)

    def test_rejects_bad_kind(self):
        with pytest.raises(PreconditionError):
            truncated_singular_integral(10, TOY, "x")

    def test_bench_case_stays_in_the_block_budget(self):
        # N = 4 * 10^6, theta = 0.3, L = 40: 77 MB of phase matrix in 64-MB
        # chunks, about 8.5 MB in 4-MB blocks.
        p = derive_parameters(4_000_000, 0.3)
        assert _peak_mb(lambda: truncated_singular_integral(4_571_429, p, "u", L=40.0)) <= 16


class TestMajorArcApproximant:
    def test_exact_rational_point(self):
        d = m_dissection(BIG, 8.0)
        for a, q in [(0, 1), (1, 3), (2, 5)]:
            alpha = a / q
            got = major_arc_approximant(alpha, d, "f-star")
            expected = cubic_gauss_sum(q, a) / q * BIG.P
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_minor_arc_zero(self):
        d = m_dissection(BIG, 10.0)
        alpha = (math.sqrt(5) - 1) / 2
        assert major_arc_approximant(alpha, d, "f-star") == 0j

    def test_f_star_residual_envelope(self):
        # |f - f*| <= 10 q^(1/2) (1 + P^3 |beta|)^(1/2) sampled over arcs.
        from cubelab.genfun import weyl_sum

        d = m_dissection(BIG, 10.0)
        P = BIG.P
        f_spec = interval_spec(P, 2 * P)
        worst = 0.0
        for arc in d.arcs:
            if arc.label.q > 10 or arc.length == 0:
                continue
            for frac in (-0.9, -0.4, 0.0, 0.4, 0.9):
                alpha = arc.center + frac * arc.half_width
                if not 0 <= alpha < 1:
                    continue
                resid = abs(weyl_sum(alpha, f_spec)
                            - major_arc_approximant(alpha, d, "f-star"))
                beta = abs(alpha - arc.center)
                env = arc.label.q**0.5 * (1 + P**3 * beta) ** 0.5
                worst = max(worst, resid / env)
        assert worst <= 10.0, f"observed sup residual/envelope = {worst}"

    def test_F_star_uses_full_range_kernel(self):
        from cubelab.genfun import w_integral

        d = m_dissection(BIG, 8.0)
        alpha = 1 / 3 + 2e-7
        got = major_arc_approximant(alpha, d, "F-star")
        beta = alpha - 1 / 3
        expected = cubic_gauss_sum(3, 1) / 3 * w_integral(beta, 2 * BIG.P).value
        assert got == pytest.approx(expected, rel=1e-9)
