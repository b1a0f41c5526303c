"""Major-arc dissections, membership, and quadrature over arc families.

Three arc styles share one container: the wide arcs of half-width L/N
around every a/q with q <= L, the narrow arcs |q*alpha - a| <= X/P^3 with
q <= X, and the latter specialized to X = P^(3/4).  Arcs are closed
intervals clipped to [0, 1); the arc around 1 is the wraparound twin of
the arc around 0, so clipping keeps the total measure exact.  The major-arc
kernels rho_kernel and sigma_kernel (products of v and w, at one beta or an
array) are what truncated_singular_integral integrates against e(-n beta).

Full-circle moments are never obtained by quadrature on the minor-arc
complement (hopelessly oscillatory); they come from equispaced grid
averages, which are exact for trigonometric polynomials, and minor-arc
quantities follow by subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from cubelab.expsums import cube_spectrum, cubic_gauss_sum
from cubelab.genfun import (
    _BLOCK_ENTRIES,
    WeylSumSpec,
    _batch_rule,
    _gauss_legendre,
    _smooth_count,
    fractional_phases,
    spec_from_params,
    v_integral,
    w_integral,
    weyl_sum,
)
from cubelab.params import Parameters, PreconditionError, Rational, ResourceGuardError

__all__ = [
    "Arc",
    "ArcDissection",
    "ArcIntegrand",
    "p_dissection",
    "m_dissection",
    "n_dissection",
    "arc_membership",
    "dissection_measure",
    "evaluate_integrand",
    "integrate_over_arcs",
    "rho_kernel",
    "sigma_kernel",
    "truncated_singular_integral",
    "major_arc_approximant",
    "mean_value_grid",
    "make_rho_integrand",
    "make_sigma_integrand_pair",
    "moment_integrand",
]

_ARC_COUNT_GUARD = 500_000
_GRID_GUARD = 1 << 24


@dataclass(frozen=True)
class Arc:
    label: Rational
    center: float
    half_width: float
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class ArcDissection:
    """A labeled family of arcs in [0, 1), sorted by left endpoint."""

    style: str
    cutoff: float
    arcs: tuple[Arc, ...] = field(repr=False)
    params: Parameters
    overlapping: bool

    def __len__(self) -> int:
        return len(self.arcs)

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right endpoints in arc order, derived once per dissection."""
        return (np.array([arc.lo for arc in self.arcs], dtype=np.float64),
                np.array([arc.hi for arc in self.arcs], dtype=np.float64))


def _arc_count(q_top: int) -> int:
    """1 + sum of Euler's phi(q) for q <= q_top, stopping once past the arc guard."""
    phi = np.arange(min(q_top, _ARC_COUNT_GUARD) + 1)
    count = 1
    for q in range(1, len(phi)):
        if q > 1 and phi[q] == q:  # q is prime
            phi[q::q] -= phi[q::q] // q
        count += int(phi[q])
        if count > _ARC_COUNT_GUARD:
            break
    return count


def _build(style: str, cutoff: float, params: Parameters, width_of,
           q_max: int | None = None) -> ArcDissection:
    if cutoff < 1:
        raise PreconditionError(f"arc cutoff must be >= 1, got {cutoff}")
    if q_max is not None and q_max < 1:
        raise PreconditionError(f"q_max must be >= 1, got {q_max}")
    q_top = math.floor(cutoff) if q_max is None else min(math.floor(cutoff), int(q_max))
    if _arc_count(q_top) > _ARC_COUNT_GUARD:
        raise ResourceGuardError(
            f"dissection would exceed {_ARC_COUNT_GUARD} arcs; lower the cutoff"
        )
    q, a = np.ogrid[1 : q_top + 1, 0 : q_top + 1]
    q, a = np.nonzero((a <= q) & (np.gcd(a, q) == 1))  # row index q - 1; q-major, a ascending
    q += 1
    center = a / q
    w = np.broadcast_to(width_of(q), q.shape)
    lo, hi = np.maximum(center - w, 0.0), np.minimum(center + w, 1.0)
    order = np.lexsort((hi, lo))  # stable, so equal (lo, hi) keep the (q, a) order
    q, a, center, w, lo, hi = (v[order] for v in (q, a, center, w, lo, hi))
    overlapping = bool(np.any((hi[:-1] > lo[1:]) & (center[:-1] != center[1:])))
    arcs = tuple(Arc(Rational(ai, qi), c, wi, l, h) for qi, ai, c, wi, l, h
                 in zip(*(v.tolist() for v in (q, a, center, w, lo, hi))))
    return ArcDissection(style=style, cutoff=float(cutoff), arcs=arcs,
                         params=params, overlapping=overlapping)


def p_dissection(params: Parameters, L: float | None = None) -> ArcDissection:
    """Arcs of half-width L/N around a/q for q <= L."""
    L = params.L if L is None else L
    return _build("P", L, params, lambda q: L / params.N)


def m_dissection(params: Parameters, X: float, *, q_max: int | None = None) -> ArcDissection:
    """Arcs |q*alpha - a| <= X/P^3 around a/q for q <= X.

    With q_max, only the arcs with q <= min(X, q_max) are built; each keeps
    the family's half-width X/(q P^3), and they come in the same (lo, hi)
    order as in the full family, of which they are exactly the q <= q_max
    members.  A point inside one of them gets the same arc_membership
    label from both families: every arc that also contains it with a
    smaller (q, a) has q <= q_max too.  Off those arcs the restricted
    family sees the minor arcs.
    """
    return _build("M", X, params, lambda q: X / (q * params.P**3), q_max)


def n_dissection(params: Parameters) -> ArcDissection:
    """The narrow pruning family: the X = P^(3/4) specialization."""
    X = params.P ** 0.75
    return _build("N", X, params, lambda q: X / (q * params.P**3))


def arc_membership(alpha: float, dissection: ArcDissection) -> Rational | None:
    """Label of the arc containing alpha, or None on the minor-arc complement.

    Interval search against the dissection's endpoint arrays, derived once
    per dissection: a bisection of the sorted left endpoints, O(log #arcs),
    for a disjoint family, and one vectorised lo <= alpha <= hi mask for an
    overlapping one.  Where several arcs contain alpha (overlaps, or two
    arcs touching at alpha) the smallest (q, a) wins.  (Locating the nearest
    rational by continued fractions is only sound for the narrow style: it
    minimizes |q*alpha - a|, while wide arcs admit points whose best
    approximant lies in a different, non-containing arc.)
    """
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"alpha must lie in [0, 1), got {alpha}")
    los, his = dissection._bounds
    if dissection.overlapping:
        # Degenerate family: right endpoints are not ordered, so test them all.
        hits = np.flatnonzero((los <= alpha) & (alpha <= his)).tolist()
    else:
        # Arcs before j start at or left of alpha; the last of them holds it,
        # or the one before it when that one ends exactly at alpha.
        j = int(np.searchsorted(los, alpha, side="right"))
        hits = [k for k in (j - 2, j - 1) if k >= 0 and alpha <= his[k]]
    if not hits:
        return None
    return min((dissection.arcs[k].label for k in hits), key=lambda r: (r.q, r.a))


def dissection_measure(dissection: ArcDissection) -> float:
    """Total length of the union, exact for disjoint families."""
    if dissection.overlapping:
        raise PreconditionError("dissection has overlapping arcs; measure is ill-defined")
    return math.fsum(arc.length for arc in dissection.arcs)


@dataclass(frozen=True)
class ArcIntegrand:
    """Product of powers of Weyl sums, optionally conjugated, times e(-n*alpha)."""

    factors: tuple[tuple[WeylSumSpec, int, bool], ...]
    twist: int = 0

    def __post_init__(self) -> None:
        if abs(self.twist) >= 2**63:
            raise PreconditionError(f"|twist| must be below 2^63, got {self.twist}")
        if sum(e for _, e, _ in self.factors) < 1:
            raise PreconditionError("integrand must have total degree >= 1")
        if any(e < 1 for _, e, _ in self.factors):
            raise PreconditionError("factor exponents must be positive")

    def degree_bound(self) -> int:
        """Largest trigonometric frequency the integrand can carry."""
        span = sum(e * s.max_term() ** 3 for s, e, _ in self.factors)
        return span + abs(self.twist)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b rounded as Python's complex product (numpy's SIMD multiply may fuse the terms)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def evaluate_integrand(alpha: float | np.ndarray, integrand: ArcIntegrand) -> complex | np.ndarray:
    """The integrand at a float alpha, or at each entry of an array (bit for bit alike)."""
    out = np.ones(np.shape(alpha), dtype=np.complex128)
    for spec, exponent, conjugated in integrand.factors:
        val = np.asarray(weyl_sum(alpha, spec))
        val = np.conj(val) if conjugated else val
        while exponent:  # square-and-multiply
            if exponent & 1:
                out = _cmul(out, val)
            val, exponent = _cmul(val, val), exponent >> 1
    if integrand.twist:
        twist = fractional_phases(alpha, np.array([integrand.twist]), power=1)[..., 0]
        out = _cmul(out, np.exp(-2j * np.pi * twist))
    return out if np.ndim(alpha) else complex(out)


def integrate_over_arcs(integrand: ArcIntegrand, dissection: ArcDissection,
                        tol: float = 1e-9) -> complex:
    """Sum of per-arc adaptive quadratures (tol/#arcs each), one call per panel grid."""
    if tol <= 0:
        raise PreconditionError(f"tol must be positive, got {tol}")
    if not dissection.arcs:
        return 0j
    per_arc = tol / len(dissection.arcs)
    freq = integrand.degree_bound()
    reals, imags = [], []
    for arc in dissection.arcs:
        if arc.length == 0.0:
            continue
        cycles = arc.length * freq
        # cumsum adds the weighted nodes in order, as the per-node loop did
        val, _ = _gauss_legendre(
            lambda g, w: complex(np.cumsum(evaluate_integrand(g, integrand) * w)[-1]),
            arc.lo, arc.hi, max(2, 2 * (int(cycles / 2) + 1)),  # even: the center is an edge
            400_000, lambda cur, prev: abs(cur - prev) <= per_arc,
        )
        reals.append(val.real)
        imags.append(val.imag)
    return complex(math.fsum(reals), math.fsum(imags))


def _osc(beta: float | np.ndarray, lo: float, hi: float, tol: float) -> complex | np.ndarray:
    """integral over [lo, hi] of e(beta g^3) dg: v or w's complex at a float beta, or an array."""
    values, _ = _batch_rule(np.atleast_1d(beta), lo, hi, tol)
    return values if np.ndim(beta) else complex(values[0])


def rho_kernel(beta: float | np.ndarray, params: Parameters, C: float,
               tol: float = 1e-10) -> complex | np.ndarray:
    """C * h(0)^2 * v(beta; P)^2, the major-arc kernel of the restricted count.

    A float beta gives a complex with v_integral's bits, a 1-D array one
    value per entry from one shared _batch_rule grid.  C is the bilinear
    prefactor the caller supplies (no closed form exists for it here); see
    genfun.estimate_bilinear_prefactor for a labeled heuristic.
    """
    if C <= 0:
        raise PreconditionError(f"C must be positive, got {C}")
    h0 = _smooth_count(params.R, params.eta)
    v = _osc(beta, params.P, 2 * params.P, tol)
    return C * h0 * h0 * v * v


def sigma_kernel(beta: float | np.ndarray, P: float, R: float, tol: float = 1e-10,
                 form: str = "direct") -> complex | np.ndarray:
    """(w(beta;2P)^2 - w(beta;P)^2) * w(beta;R)^2, the full-range kernel.

    form="factored" evaluates the algebraically equal
    (v(beta;P)^2 + 2 v(beta;P) w(beta;P)) * w(beta;R)^2 for cross-checks.
    beta is a float or a 1-D array, as in rho_kernel (one grid per range).
    """
    if P <= 0 or R <= 0:
        raise PreconditionError(f"P and R must be positive, got P={P}, R={R}")
    if form not in ("direct", "factored"):
        raise PreconditionError(f"unknown form {form!r}")
    wR, wP = _osc(beta, 0.0, R, tol), _osc(beta, 0.0, P, tol)
    if form == "direct":
        w2P = _osc(beta, 0.0, 2 * P, tol)
        return (w2P * w2P - wP * wP) * wR * wR
    v = _osc(beta, P, 2 * P, tol)
    return (v * v + 2 * v * wP) * wR * wR


def truncated_singular_integral(n: int, params: Parameters, kind: str, C: float = 1.0,
                                tol: float = 1e-8, L: float | None = None) -> float:
    """integral over [-L/N, L/N] of kernel(beta) e(-n beta) d beta, real part.

    kind "u" integrates rho_kernel (the restricted count), kind "W"
    sigma_kernel; each panel grid is one array call.  tol is relative; the
    imaginary residue must stay below 1e-6 relative (the integrand is
    conjugate-symmetric in beta) or an ArithmeticError flags it.

    n is any positive integer: the window base only sets the integration
    range, and probing frequencies outside (N, 2N] is deliberately allowed
    (the kernel's shape is read off at n ~ P^3).

    As L -> oo, kind "W" tends to the real density of solutions of
    g1^3+g2^3+g3^3+g4^3 = n with (g1, g2) in [0,2P]^2 minus [0,P]^2 and
    (g3, g4) in [0,R]^2.  When 2P^3 < n - 2R^3 and n <= 8P^3 that density
    is exactly C * int_[0,R]^2 (n - y1^3 - y2^3)^(-1/3) dy1 dy2, with
    C = Gamma(4/3)^2/Gamma(2/3); it is ~ C R^2 n^(-1/3) only when R^3 << n.
    At R = P and n = 6P^3 it is 0.3340 P^-1 R^2, against 0.3241 P^-1 R^2
    for C R^2 n^(-1/3).
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    if kind not in ("u", "W"):
        raise PreconditionError(f"kind must be 'u' or 'W', got {kind!r}")
    L = params.L if L is None else L
    half = L / params.N
    P = params.P
    inner_tol = 1e-12 * max(P, 1.0)

    def kernel_batch(betas: np.ndarray) -> np.ndarray:
        if kind == "u":
            return rho_kernel(betas, params, C, inner_tol)
        return sigma_kernel(betas, P, params.R, inner_tol)

    cycles = 2 * half * n + 2 * half * (2 * P) ** 3
    panels = max(4, min(int(cycles / 2) + 4, 4096))
    cur, _ = _gauss_legendre(
        lambda b, w: complex((kernel_batch(b) * np.exp(-2j * np.pi * n * b) * w).sum()),
        -half, half, panels, min(600_000, 16 * panels * 2**10),  # at most 10 doublings
        lambda cur, prev: abs(cur - prev) <= tol * max(abs(cur), 1e-300),
    )
    if abs(cur.imag) > 1e-6 * max(abs(cur), 1e-300):
        raise ArithmeticError(f"singular integral has imaginary residue {cur.imag:.3e}")
    return cur.real


def major_arc_approximant(alpha: float, dissection: ArcDissection, kind: str,
                          tol: float = 1e-10) -> complex:
    """The model value q^-1 S(q,a) v(alpha - a/q; P) on the containing arc.

    kind "f-star" uses the shifted-range integral v(.; P); kind "F-star"
    uses w(.; 2P).  Off the dissection the model is 0.
    """
    if kind not in ("f-star", "F-star"):
        raise PreconditionError(f"kind must be 'f-star' or 'F-star', got {kind!r}")
    label = arc_membership(alpha, dissection)
    if label is None:
        return 0j
    beta = alpha - label.a / label.q
    front = cubic_gauss_sum(label.q, label.a) / label.q
    if kind == "f-star":
        return front * v_integral(beta, dissection.params.P, tol).value
    return front * w_integral(beta, 2 * dissection.params.P, tol).value


def mean_value_grid(integrand: ArcIntegrand, grid_points: int) -> complex:
    """Equispaced average over the full circle, exact by orthogonality.

    Each Weyl-sum factor is evaluated at every j/M simultaneously through
    the cube-residue distribution mod M (expsums.cube_spectrum: one FFT per
    distinct factor, which a conjugated copy reuses), so the cost is
    O(M log M) regardless of the index-set sizes.  The grid-size arrays are
    those spectra and the running product; conjugates, powers and the
    twist are taken in blocks of _BLOCK_ENTRIES points, each point's
    product in factor order, and every block has full length (a short last
    block ends at M and starts earlier), so the block size never changes a
    bit.
    """
    M = int(grid_points)
    if M > _GRID_GUARD:
        raise ResourceGuardError(f"grid of {M} points exceeds the {_GRID_GUARD} cap")
    degree = integrand.degree_bound()
    if M <= degree:
        raise PreconditionError(
            f"grid of {M} points undersamples a degree-{degree} integrand"
        )
    spectra: dict[WeylSumSpec, np.ndarray] = {}
    for spec, _, _ in integrand.factors:
        if spec not in spectra:
            spectra[spec] = cube_spectrum(M, spec.term_values())
    total = np.empty(M, dtype=np.complex128)
    shift = integrand.twist % M
    for start in range(0, M, _BLOCK_ENTRIES):
        # numpy's complex ufuncs round a one-entry array on another path, so
        # a short last block is moved back to full length; its overlap with
        # the block before is recomputed to the same values.
        start = max(0, min(start, M - _BLOCK_ENTRIES))
        part = total[start : start + _BLOCK_ENTRIES]
        part.fill(1.0)
        for spec, exponent, conjugated in integrand.factors:
            factor = spectra[spec][start : start + _BLOCK_ENTRIES]
            if conjugated:
                factor = np.conj(factor)
            part *= factor**exponent
        if integrand.twist:
            j = np.arange(start, start + len(part), dtype=np.int64)
            part *= np.exp(-2j * np.pi * (shift * j % M) / M)
    return complex(total.mean())


def make_rho_integrand(n: int, params: Parameters,
                       k_spec: WeylSumSpec | None = None) -> ArcIntegrand:
    """f * K * h^2 * e(-n alpha): the restricted-count integrand."""
    f = spec_from_params("f", params)
    k = k_spec if k_spec is not None else spec_from_params("K", params)
    h = spec_from_params("h", params)
    return ArcIntegrand(factors=((f, 1, False), (k, 1, False), (h, 2, False)), twist=n)


def make_sigma_integrand_pair(n: int, params: Parameters) -> tuple[ArcIntegrand, ArcIntegrand]:
    """(F^2 G^2 e(-n.), F0^2 G^2 e(-n.)); their integrals subtract to sigma."""
    F = spec_from_params("F", params)
    F0 = spec_from_params("F0", params)
    G = spec_from_params("G", params)
    full = ArcIntegrand(factors=((F, 2, False), (G, 2, False)), twist=n)
    inner = ArcIntegrand(factors=((F0, 2, False), (G, 2, False)), twist=n)
    return full, inner


def moment_integrand(spec: WeylSumSpec, power: int) -> ArcIntegrand:
    """|W(alpha)|^(2*power) as a conjugate-paired product (a trig polynomial)."""
    if power < 1:
        raise PreconditionError(f"power must be >= 1, got {power}")
    return ArcIntegrand(factors=((spec, power, False), (spec, power, True)), twist=0)
