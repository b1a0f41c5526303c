"""Experiment drivers: residual sweeps and predicted-vs-actual tables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cubelab.arcs import Arc, ArcDissection, m_dissection, major_arc_approximant
from cubelab.expsums import (
    count_ratios,
    main_term_exponent,
    main_terms,
    singular_series_truncated,
)
from cubelab.genfun import _OSC_NODE_BUDGET, interval_spec, weyl_sum
from cubelab.params import SAMPLE_CAP, PreconditionError, ResourceGuardError, derive_parameters
from cubelab.repcount import count_r

__all__ = ["ResidualSample", "ResidualSweep", "residual_sweep", "predict_table"]

_EDGE = 0.95  # outermost sample offset, as a fraction of the arc's half-width


@dataclass(frozen=True)
class ResidualSample:
    q: int
    a: int
    beta: float
    residual: float
    envelope: float

    @property
    def ratio(self) -> float:
        return self.residual / self.envelope


@dataclass(frozen=True)
class ResidualSweep:
    P: float
    q_max: int
    samples: tuple[ResidualSample, ...]
    max_ratio: float


def _sample_points(dissection: ArcDissection, q_max: int,
                   samples: int) -> list[tuple[Arc, float]]:
    """(arc, alpha) over a fixed symmetric offset grid inside each arc with q <= q_max."""
    fractions = np.linspace(-_EDGE, _EDGE, samples)
    points = [(arc, arc.center + float(frac) * arc.half_width) for arc in dissection.arcs
              if arc.label.q <= q_max and arc.length != 0.0 for frac in fractions]
    return [(arc, alpha) for arc, alpha in points if 0.0 <= alpha < 1.0]


def residual_sweep(P: float, q_max: int, samples: int = 9,
                   tol: float = 1e-10) -> ResidualSweep:
    """Measure |f - f*| against q^(1/2) (1 + P^3 |beta|)^(1/2) on narrow arcs.

    For every arc (a, q) with q <= q_max, the offsets beta run over a fixed
    symmetric grid inside the arc (deterministic, so doubled-P comparisons
    are reproducible).  The envelope column is the theoretical residual
    shape; the summary is the observed sup of residual/envelope.

    Only the sampled arcs are built (m_dissection with q_max), and that is
    exact: each sample lies inside its own arc, which has q <= q_max, and
    an arc of the full q <= X family that contains it with a smaller (q, a)
    has q <= q_max too, so arc_membership gives the full family's label.
    The arcs keep their (lo, hi) order, so the samples, the Weyl sums and
    every v-integral are the same as on the full family.

    P must be finite and >= 1, with 4P^3 a finite double.  Before any Weyl
    sum or quadrature, the widest sample's v-integral must fit its node
    budget and the Weyl work (samples x terms) the sample cap.
    """
    if q_max > 50:
        raise PreconditionError(f"q_max must be <= 50, got {q_max}")
    if q_max < 1 or samples < 1:
        raise PreconditionError("q_max and samples must be positive")
    if samples > SAMPLE_CAP:
        raise ResourceGuardError(f"{samples} samples exceed the sample cap {SAMPLE_CAP}")
    if not (math.isfinite(P) and P >= 1.0 and math.isfinite(4.0 * P * P * P)):
        raise PreconditionError(f"P must be finite and >= 1 with 4P^3 finite, got {P}")
    X = P ** (6 / 5)
    # The widest sample, |beta| = 0.95 X/P^3 on the q = 1 arc, makes
    # 7 |beta| P^3 oscillations of v on (P, 2P]; its first grid (two per
    # panel) and one doubling must fit the budget.
    cycles = 7 * _EDGE * X
    if 32 * (int(cycles / 2) + 4) > _OSC_NODE_BUDGET:
        raise ResourceGuardError(
            f"P = {P}: v-integral of {cycles:.3g} oscillations exceeds the "
            f"{_OSC_NODE_BUDGET}-node panel budget"
        )
    N = int(round(4 * P**3))
    params = derive_parameters(N, 1 / 3, L_override=min(float(q_max), float(N)))
    dissection = m_dissection(params, X=X, q_max=q_max)
    f_spec = interval_spec(params.P, 2 * params.P)
    points = _sample_points(dissection, q_max, samples)
    if len(points) * f_spec.term_count() > SAMPLE_CAP:
        raise ResourceGuardError(
            f"{len(points)} samples x {f_spec.term_count()} Weyl terms exceed "
            f"the sample cap {SAMPLE_CAP}"
        )

    sums = weyl_sum(np.array([alpha for _, alpha in points], dtype=np.float64), f_spec)
    out = []
    for (arc, alpha), f in zip(points, sums.tolist()):
        beta = alpha - arc.center
        model = major_arc_approximant(alpha, dissection, "f-star", tol=tol)
        envelope = math.sqrt(arc.label.q) * math.sqrt(1 + params.P**3 * abs(beta))
        out.append(ResidualSample(q=arc.label.q, a=arc.label.a, beta=beta,
                                  residual=abs(f - model), envelope=envelope))
    return ResidualSweep(P=params.P, q_max=q_max, samples=tuple(out),
                         max_ratio=max((s.ratio for s in out), default=0.0))


def predict_table(ns: list[int], theta: float, Q_max: int) -> list[dict]:
    """Per-n rows: exact count, truncated series, main term, ratio.

    The series is singular_series_truncated per n; the main term and the
    ratio come from expsums.main_terms and expsums.count_ratios, as in
    batch_scan, so each row has the bits of batch_scan's entry at that n,
    and the ratio is signed where the truncated main term is negative
    (NaN only where it is 0).  Every n must be >= 4, and theta must pass
    main_term_exponent at max(ns) (which covers count_r's theta checks);
    both are checked before any series or count, and Q_max before any count.
    """
    if ns:
        if min(ns) < 4:
            raise PreconditionError(f"every n must be >= 4, got {min(ns)}")
        main_term_exponent(max(ns), theta)
    series = np.array([singular_series_truncated(n, Q_max).value for n in ns])
    main = main_terms(ns, series, theta)
    counts = np.array([count_r(n, theta).count for n in ns], dtype=np.int64)
    ratios = count_ratios(counts, main)
    return [{"n": n, "theta": theta, "count": count, "series": s, "main_term": m,
             "ratio": r, "exceptional": int(count == 0)}
            for n, count, s, m, r in zip(ns, counts.tolist(), series.tolist(),
                                         main.tolist(), ratios.tolist())]
