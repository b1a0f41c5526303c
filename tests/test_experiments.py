import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubelab import experiments
from cubelab.arcs import arc_membership, m_dissection
from cubelab.experiments import _sample_points, predict_table, residual_sweep
from cubelab.expsums import main_term
from cubelab.repcount import batch_scan
from cubelab.params import PreconditionError, ResourceGuardError, derive_parameters


class TestResidualSweep:
    def test_zero_offset_on_unit_arc(self):
        # At beta = 0 on the (0,1) arc the residual is the endpoint rounding
        # |f(0) - v(0; P)| = |floor(2P) - floor(P) - P| <= 1.
        sweep = residual_sweep(50.0, 3, samples=3)
        center = [s for s in sweep.samples if s.q == 1 and abs(s.beta) < 1e-15]
        assert center
        for s in center:
            assert s.residual <= 1.0 + 1e-9
            assert s.envelope == pytest.approx(1.0)

    def test_envelope_column(self):
        sweep = residual_sweep(30.0, 5, samples=5)
        P = sweep.P
        for s in sweep.samples:
            assert s.envelope == pytest.approx(
                math.sqrt(s.q) * math.sqrt(1 + P**3 * abs(s.beta)), rel=1e-12
            )
            assert s.ratio == pytest.approx(s.residual / s.envelope, rel=1e-12)

    def test_max_ratio_is_the_sup(self):
        sweep = residual_sweep(30.0, 5, samples=5)
        assert sweep.max_ratio == pytest.approx(max(s.ratio for s in sweep.samples))

    def test_threshold_and_doubling(self):
        # Small-P smoke version of the acceptance check: below threshold at
        # P and not growing past it at 2P.
        a = residual_sweep(25.0, 6, samples=5)
        b = residual_sweep(50.0, 6, samples=5)
        assert a.max_ratio <= 10.0
        assert b.max_ratio <= 10.0

    def test_q_cap(self):
        with pytest.raises(PreconditionError):
            residual_sweep(30.0, 51)

    @pytest.mark.parametrize("P", [math.nan, math.inf, -math.inf, 1e120, 0.5, 0.0, -3.0])
    def test_bad_P_is_a_precondition(self, P):
        with pytest.raises(PreconditionError):
            residual_sweep(P, 10)

    @pytest.mark.parametrize("P, q_max, samples", [
        (1e102, 2, 1),  # v-integral past its node budget (1e5 and 2e6: tests/test_cli.py)
        (3600.0, 10, 9),  # 288 samples x 3600 Weyl terms past the sample cap
    ])
    def test_large_P_is_guarded_before_any_work(self, monkeypatch, P, q_max, samples):
        def no_work(*args, **kwargs):
            raise AssertionError("the guard must trip before any Weyl sum or quadrature")

        monkeypatch.setattr(experiments, "weyl_sum", no_work)
        monkeypatch.setattr(experiments, "major_arc_approximant", no_work)
        with pytest.raises(ResourceGuardError):
            residual_sweep(P, q_max, samples=samples)

    def test_builds_only_the_sampled_arcs(self, monkeypatch):
        # 1 + sum of phi(q) for q <= 10 = 33 arcs, not the 19,275 with q <= P^(6/5).
        built = []

        def spy(*args, **kwargs):
            d = m_dissection(*args, **kwargs)
            built.append(len(d))
            return d

        monkeypatch.setattr(experiments, "m_dissection", spy)
        residual_sweep(100.0, 10, samples=4)
        phi = [sum(math.gcd(a, q) == 1 for a in range(1, q + 1)) for q in range(1, 11)]
        assert built == [1 + sum(phi)] == [33]

    @settings(max_examples=25, deadline=None)
    @given(st.floats(10.0, 150.0), st.integers(1, 12), st.integers(1, 6))
    def test_restricted_family_matches_the_full_one(self, P, k, samples):
        # The dissection residual_sweep(P, k, samples) samples, built whole and restricted.
        N = int(round(4 * P**3))
        params = derive_parameters(N, 1 / 3, L_override=min(float(k), float(N)))
        full = m_dissection(params, P ** (6 / 5))
        part = m_dissection(params, P ** (6 / 5), q_max=k)
        assert part.arcs == tuple(arc for arc in full.arcs if arc.label.q <= k)
        points = _sample_points(part, k, samples)
        assert points == _sample_points(full, k, samples)
        for arc, alpha in points:
            assert arc_membership(alpha, part) == arc_membership(alpha, full) == arc.label


class TestPredictTable:
    def test_rows_are_consistent(self):
        rows = predict_table([100, 1729], 0.3, 300)
        from cubelab.expsums import MAIN_TERM_CONSTANT, singular_series_truncated
        from cubelab.repcount import count_r

        for row in rows:
            n = row["n"]
            assert row["count"] == count_r(n, 0.3).count
            series = singular_series_truncated(n, 300).value
            assert row["series"] == pytest.approx(series, rel=1e-12)
            assert row["main_term"] == pytest.approx(
                MAIN_TERM_CONSTANT * series * n ** (2 * 0.3 - 1 / 3), rel=1e-12
            )
            assert row["exceptional"] == int(row["count"] == 0)

    @settings(max_examples=20, deadline=None)
    @given(N_lo=st.integers(3, 2 * 10**5), width=st.integers(1, 40),
           theta=st.floats(0.05, 0.5), Q_max=st.integers(1, 300),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
    @example(N_lo=10**5, width=30, theta=math.pi / 10, Q_max=200, picks=[0, 7, 29])  # near-tie
    @example(N_lo=1000, width=20, theta=1 / 6, Q_max=50, picks=[3, 3, 19])  # zero exponent
    @example(N_lo=140, width=20, theta=0.3, Q_max=2000, picks=[7, 12])  # S(148; 2000) < 0
    def test_rows_equal_batch_scan_entries(self, N_lo, width, theta, Q_max, picks):
        # Both paths and main_term share expsums.main_terms and count_ratios;
        # predict_table's per-n series has the vectorised series' bits.
        scan = batch_scan(N_lo, N_lo + width, theta, Q_max=Q_max)
        ns = sorted(N_lo + 1 + k % width for k in picks)
        rows = predict_table(ns, theta, Q_max)
        idx = [n - N_lo - 1 for n in ns]
        fields = {"count": scan.counts, "series": scan.series, "main_term": scan.predicted,
                  "ratio": scan.ratios, "exceptional": (scan.counts == 0).astype(np.int64)}
        for key, column in fields.items():
            got = np.array([row[key] for row in rows], dtype=column.dtype)
            assert got.tobytes() == column[idx].tobytes(), key  # NaN-aware, bit for bit
        mains = np.array([main_term(n, theta, Q_max) for n in ns])
        assert mains.tobytes() == scan.predicted[idx].tobytes()
        for row in rows:  # signed wherever the main term is nonzero, NaN only at 0
            assert math.isnan(row["ratio"]) == (row["main_term"] == 0.0), row
