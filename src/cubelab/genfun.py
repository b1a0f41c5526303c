"""Cubic Weyl sums and oscillatory integrals at a real phase.

Phase accuracy is the whole game here: alpha*x^3 mod 1 computed as a naive
double product loses every significant digit once x^3 approaches 2^53, so
fractional_phases, the package's one phase reduction (power 3 for Weyl
terms, 1 for the twist e(-n alpha)), reduces exactly for a float alpha or a
whole array of them.  Up to x = 208,000 (k < 2^53 at power 1) x^power is an
exact double and Dekker two-term products recover the rounding error.
Above that, alpha is the dyadic rational m*2^-s it is (m odd): for s <= 64
a wrapping uint64 product gives m*x^power mod 2^s exactly, and only for
s > 64 (alpha < 2^-11 with a full mantissa) does a big-integer loop run.
Every integral in this module and in arcs goes through one driver,
_gauss_legendre: 16-point Gauss-Legendre on a panel grid whose count,
seeded by the oscillation count, doubles until the caller's stopping test
holds or its node budget runs out (QuadratureError).  Every _batch_rule
has the one budget _OSC_NODE_BUDGET; v and w are _batch_rule at a single
beta, and arcs builds the major-arc kernels from it.  Z stays small enough
at desk scale that no Filon-type machinery is warranted.  Phase matrices
(alpha by term in weyl_sum, beta by node in _batch_rule) are evaluated in
blocks of whole rows within _BLOCK_ENTRIES entries (4 MB of complex); each
row sums alone, so no value depends on the block size, and a row longer
than the budget is a block of its own.  arcs.mean_value_grid walks its
grid in blocks of the same size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from cubelab.params import Parameters, PreconditionError
from cubelab.smooth import SmoothSet, restricted_primes, smooth_interval_set, smooth_set

__all__ = [
    "WeylSumSpec",
    "OscIntegralValue",
    "QuadratureError",
    "interval_spec",
    "set_spec",
    "bilinear_spec",
    "spec_from_params",
    "weyl_sum",
    "fractional_phases",
    "v_integral",
    "w_integral",
    "estimate_bilinear_prefactor",
]

_TERM_GUARD = 10**8
_FLOAT_EXACT_CUBE = 208_000  # a round bound below 208,063, the largest x with x^3 < 2^53
_DEKKER_LIMIT = {3: _FLOAT_EXACT_CUBE, 1: 2**53 - 1}  # largest |x| with x^power exact
_BLOCK_ENTRIES = 1 << 18  # phase-matrix entries evaluated at once (4 MB complex)
_OSC_NODE_BUDGET = 2_000_000  # quadrature nodes any one _batch_rule may use


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class WeylSumSpec:
    """Index set of a cubic Weyl sum sum_x e(alpha x^3).

    kind "interval" sums over integers lo < x <= hi; "set" over an explicit
    sorted list; "bilinear" over products p*w with p from a restricted prime
    list and w from the matching smooth shell.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    members: tuple[int, ...] = ()
    pairs: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def term_values(self) -> np.ndarray:
        """The summation variable x (or p*w) as a sorted int64 array."""
        if self.kind == "interval":
            lo_i, hi_i = math.floor(self.lo), math.floor(self.hi)
            return np.arange(lo_i + 1, hi_i + 1, dtype=np.int64)
        if self.kind == "set":
            return np.asarray(self.members, dtype=np.int64)
        if self.kind == "bilinear":
            chunks = [p * np.asarray(ws, dtype=np.int64) for p, ws in self.pairs if ws]
            if not chunks:
                return np.empty(0, dtype=np.int64)
            return np.sort(np.concatenate(chunks))
        raise PreconditionError(f"unknown spec kind {self.kind!r}")

    def term_count(self) -> int:
        if self.kind == "interval":
            return max(0, math.floor(self.hi) - math.floor(self.lo))
        if self.kind == "set":
            return len(self.members)
        return sum(len(ws) for _, ws in self.pairs)

    def max_term(self) -> int:
        if self.kind == "interval":
            return max(0, math.floor(self.hi))
        if self.kind == "set":
            return max(self.members) if self.members else 0
        return max((p * max(ws) for p, ws in self.pairs if ws), default=0)


@dataclass(frozen=True)
class OscIntegralValue:
    beta: float
    Z: float
    value: complex
    abs_error_estimate: float


def interval_spec(lo: float, hi: float) -> WeylSumSpec:
    if not 0 <= lo <= hi:
        raise PreconditionError(f"need 0 <= lo <= hi, got ({lo}, {hi})")
    return WeylSumSpec(kind="interval", lo=lo, hi=hi)


def set_spec(members: Sequence[int] | SmoothSet) -> WeylSumSpec:
    if isinstance(members, SmoothSet):
        members = members.members
    members = tuple(int(m) for m in members)
    if any(m <= 0 for m in members):
        raise PreconditionError("set spec members must be positive")
    if any(b <= a for a, b in zip(members, members[1:])):
        raise PreconditionError("set spec members must be strictly increasing")
    return WeylSumSpec(kind="set", members=members)


def bilinear_spec(pairs: Sequence[tuple[int, Sequence[int]]]) -> WeylSumSpec:
    frozen = tuple((int(p), tuple(int(w) for w in ws)) for p, ws in pairs)
    return WeylSumSpec(kind="bilinear", pairs=frozen)


def spec_from_params(kind: str, params: Parameters) -> WeylSumSpec:
    """The named generating-function index set at the given parameters.

    f: (P, 2P];  h: the smooth set up to R;  K: the prime-times-shell
    bilinear range;  F: [1, 2P];  F0: [1, P];  G: [1, R].
    """
    P, R = params.P, params.R
    if kind == "f":
        return interval_spec(P, 2 * P)
    if kind == "F":
        return interval_spec(0, 2 * P)
    if kind == "F0":
        return interval_spec(0, P)
    if kind == "G":
        return interval_spec(0, R)
    if kind == "h":
        return set_spec(smooth_set(R, params.eta))
    if kind == "K":
        primes = restricted_primes(params.Y, params.J).primes
        pairs = []
        for p in primes:
            shell = smooth_interval_set(max(P / p, 1.0), max(2 * P / params.Y, 1.0), params.eta)
            pairs.append((p, shell.members))
        return bilinear_spec(pairs)
    raise PreconditionError(f"unknown generating function kind {kind!r}")


def _split_hi_lo(x: np.ndarray | float):
    split = 134_217_729.0  # 2^27 + 1, Dekker splitting constant
    t = x * split
    hi = t - (t - x)
    return hi, x - hi


def fractional_phases(alpha: float | np.ndarray, values: np.ndarray,
                      power: int = 3) -> np.ndarray:
    """alpha * values^power mod 1, elementwise, to full double accuracy.

    A float alpha gives one value per entry of values, a 1-D array one row
    per alpha.  Dekker runs while every |value|^power is an exact double,
    else each row is its dyadic residue (module docstring).  The exact
    branches return the correctly rounded residue, which is 1.0 where it
    rounds up; the Dekker branch returns 0.0 there.
    """
    if power not in _DEKKER_LIMIT:
        raise PreconditionError(f"power must be 1 or 3, got {power}")
    # alpha - floor(alpha) is exact except on (-1, 0), which each branch reduces
    # itself; a float alpha stays a Python float (fmod is exact, so % agrees)
    if np.ndim(alpha):
        alphas = np.asarray(alpha, dtype=np.float64)
        alphas = np.where((alphas >= 0) | (alphas <= -1), alphas - np.floor(alphas), alphas)
        alphas = alphas[:, None]
    else:
        alphas = float(alpha)
        alphas = alphas % 1.0 if alphas >= 0 or alphas <= -1 else alphas
    values = np.asarray(values, dtype=np.int64)
    if len(values) and max(int(values.max()), -int(values.min())) > _DEKKER_LIMIT[power]:
        out = np.empty(np.shape(alphas)[:1] + values.shape, dtype=np.float64)
        for row, a in zip(out.reshape(-1, len(values)), np.ravel(alphas).tolist()):
            _dyadic_phases(a, values, power, row)
    else:
        powers = values.astype(np.float64) ** power
        prod = alphas * powers
        ahi, alo = _split_hi_lo(alphas)
        phi, plo = _split_hi_lo(powers)
        err = ((ahi * phi - prod) + ahi * plo + alo * phi) + alo * plo
        frac = (prod - np.floor(prod)) + err
        out = frac - np.floor(frac)
        out[out == 1.0] = 0.0  # a tiny negative frac wraps to 1.0: the residue rounds up
    return out


def _dyadic_phases(alpha: float, values: np.ndarray, power: int, out: np.ndarray) -> None:
    """Write alpha * values^power mod 1 into out, alpha taken as the dyadic rational it is."""
    mant, exp = math.frexp(alpha)
    m = int(mant * (1 << 53))
    if m == 0:
        out[:] = 0.0
        return
    zeros = (m & -m).bit_length() - 1
    m, shift = m >> zeros, 53 - exp - zeros  # alpha = m * 2^-shift, m odd, shift >= 1
    mask = (1 << shift) - 1
    m &= mask  # m mod 2^shift, which a negative alpha needs
    if shift <= 64:  # x^power may wrap mod 2^64; its residue mod 2^shift survives
        x = values.astype(np.uint64)
        np.multiply((x**power * np.uint64(m)) & np.uint64(mask), math.ldexp(1.0, -shift), out=out)
    else:  # int / int rounds correctly, even past the float range of 2^shift
        out[:] = [((m * v**power) & mask) / (mask + 1) for v in values.tolist()]


def weyl_sum(alpha: float | np.ndarray, spec: WeylSumSpec) -> complex | np.ndarray:
    """sum_x e(alpha x^3) over the spec; an array alpha gives the float calls' bits per entry."""
    if spec.term_count() > _TERM_GUARD:
        raise PreconditionError(
            f"spec has {spec.term_count()} terms, beyond the {_TERM_GUARD} guard"
        )
    values = spec.term_values()
    if not np.ndim(alpha):
        return complex(_unit_root_sum(fractional_phases(alpha, values)))
    alphas = np.asarray(alpha, dtype=np.float64)
    out = np.empty(len(alphas), dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // max(len(values), 1))
    for start in range(0, len(alphas), rows):
        out[start : start + rows] = _unit_root_sum(
            fractional_phases(alphas[start : start + rows], values))
    return out


def _unit_root_sum(phases: np.ndarray) -> np.ndarray:
    """sum of e(phases) along the last axis, the exponential taken in place."""
    z = 2j * np.pi * phases
    return np.exp(z, out=z).sum(axis=-1)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gauss_legendre(integrand, lo: float, hi: float, panels: int, max_nodes: int,
                    converged):
    """Panel-doubling 16-point Gauss-Legendre on [lo, hi]: the one quadrature loop.

    integrand(g, w) gets the flat node array g of the current panel grid and
    the matching weights w, and returns sum_j w_j f(g_j) (per row, for a
    vector-valued integrand); the rule is that sum times the panel
    half-width.  The panel count starts at ``panels``, capped at half the
    node budget, and doubles until converged(cur, prev) holds; a doubling
    past max_nodes raises QuadratureError.  Returns (cur, prev).
    """
    panels = min(panels, max_nodes // 32)

    def evaluate(m: int):
        edges = np.linspace(lo, hi, m + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        g = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
        return integrand(g, np.tile(_GL_WEIGHTS, m)) * half

    prev = evaluate(panels)
    while True:
        panels *= 2
        if panels * 16 > max_nodes:
            raise QuadratureError(
                f"quadrature on [{lo}, {hi}] did not converge within {max_nodes} nodes"
            )
        cur = evaluate(panels)
        if converged(cur, prev):
            return cur, prev
        prev = cur


def _batch_rule(betas: np.ndarray, lo: float, hi: float,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """integral over [lo, hi] of e(beta * g^3) dg for a whole array of beta.

    One shared grid sized for the worst oscillation in the batch, doubled
    until no value moves by more than tol (QuadratureError past the budget);
    returns the values on the last grid and on the one before it (their gap
    is the error estimate).  A non-finite oscillation count (a NaN or
    infinite beta or bound, or |beta| (hi^3 - lo^3) past the float range)
    is a PreconditionError, checked before any node.
    The phase matrix (beta by node) is evaluated in place, in blocks of
    whole rows within _BLOCK_ENTRIES (4 MB), however large the batch is;
    each row sums alone, so the block size never changes a bit.
    """
    if not tol > 0:  # NaN too
        raise PreconditionError(f"tol must be positive, got {tol}")
    betas = np.asarray(betas, dtype=np.float64)
    if len(betas) == 0:
        return np.empty(0, dtype=np.complex128), np.empty(0, dtype=np.complex128)
    try:
        cycles = float(np.abs(betas).max()) * abs(hi**3 - lo**3)
    except OverflowError:  # a float bound cubed past the float range
        cycles = math.inf
    if not math.isfinite(cycles):
        raise PreconditionError(f"beta and [{lo}, {hi}] must give a finite oscillation count")

    def integrand(g: np.ndarray, w: np.ndarray) -> np.ndarray:
        g3 = g**3
        out = np.empty(len(betas), dtype=np.complex128)
        rows = max(1, _BLOCK_ENTRIES // len(g3))
        for start in range(0, len(betas), rows):
            z = 2j * np.pi * betas[start : start + rows, None] * g3
            np.exp(z, out=z)
            z *= w
            out[start : start + rows] = z.sum(axis=1)
        return out

    return _gauss_legendre(integrand, lo, hi, max(4, int(cycles / 2) + 4), _OSC_NODE_BUDGET,
                           lambda cur, prev: float(np.abs(cur - prev).max()) <= tol)


def _oscillatory_value(beta: float, Z: float, lo: float, hi: float,
                       tol: float) -> OscIntegralValue:
    if Z <= 0:
        raise PreconditionError(f"Z must be positive, got {Z}")
    cur, prev = _batch_rule(np.array([beta]), lo, hi, tol)
    value = complex(cur[0])
    return OscIntegralValue(beta=beta, Z=Z, value=value,
                            abs_error_estimate=abs(value - complex(prev[0])))


def v_integral(beta: float, Z: float, tol: float = 1e-10) -> OscIntegralValue:
    """integral from Z to 2Z of e(beta * g^3) dg."""
    return _oscillatory_value(beta, Z, Z, 2 * Z, tol)


def w_integral(beta: float, Z: float, tol: float = 1e-10) -> OscIntegralValue:
    """integral from 0 to Z of e(beta * g^3) dg."""
    return _oscillatory_value(beta, Z, 0.0, Z, tol)


@lru_cache(maxsize=64)
def _smooth_count(R: float, eta: float) -> int:
    return len(smooth_set(R, eta))


def estimate_bilinear_prefactor(params: Parameters) -> float:
    """Heuristic estimate C ~ K(0) / v(0; P) = K(0) / P.

    This is an empirical convenience, not a derived constant: it equates
    the zero-phase values of the bilinear sum and its major-arc model.
    """
    k0 = spec_from_params("K", params).term_count()
    return k0 / params.P
