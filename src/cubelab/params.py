"""Global parameter tuple, exact integer helpers, and rational approximation.

Every evaluator in the package is driven by one derived parameter set: a
window base N fixes the box side P = (N/4)^(1/3), the smooth bound
R = P^(3*theta), the prime-range top Y = P^(11/79), the arc cutoff L, and
the dyadic depth J = floor(tau/2 * log P).  All logs are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Parameters",
    "Rational",
    "PreconditionError",
    "ResourceGuardError",
    "SAMPLE_CAP",
    "derive_parameters",
    "integer_cube_root",
    "integer_root",
    "best_rational",
    "parse_config",
]


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class ResourceGuardError(RuntimeError):
    """A request would exceed the documented desk-scale resource budget."""


#: Most points an alpha grid or a sample count may ask for, checked before allocation.
SAMPLE_CAP = 10**6


@dataclass(frozen=True)
class Parameters:
    """Derived scale tuple shared by all evaluators.

    L is clamped into [1, N]; ``l_clamped`` records that the default
    (log P)^10 fell outside that range and was adjusted.
    """

    N: int
    theta: float
    P: float
    R: float
    Y: float
    L: float
    eta: float
    tau: float
    J: int
    l_clamped: bool = False


@dataclass(frozen=True, order=True)
class Rational:
    """Reduced fraction a/q with q >= 1; labels an arc center in [0, 1]."""

    a: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise PreconditionError(f"denominator must be positive, got {self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise PreconditionError(f"{self.a}/{self.q} is not in lowest terms")

    @property
    def value(self) -> float:
        return self.a / self.q


def _snap_integer(x: float) -> float:
    """Snap to the nearest integer when within 1e-9 relative.

    The derived scales bound integer summation ranges (x <= 2P, y <= R and
    so on) and smoothness caps (prime <= R^eta), so a value that is
    mathematically an integer must not flicker to 5.999... under pow
    rounding and silently drop a term.
    """
    nearest = round(x)
    if nearest >= 1 and abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return float(nearest)
    return x


def derive_parameters(
    N: int,
    theta: float,
    tau: float = 1e-4,
    eta: float = 0.1,
    L_override: float | None = None,
) -> Parameters:
    """Build the parameter tuple for window base N and minicube exponent theta.

    P = (N/4)^(1/3), R = P^(3*theta), Y = P^(11/79), J = floor(tau/2 * ln P).
    Scales landing within 1e-9 of an integer snap to it (they bound integer
    ranges).  Without an override, L = (ln P)^10 clamped to [1, N] (the
    default blows past N at desk scale, which would degenerate the arcs).
    """
    if N < 4:
        raise PreconditionError(f"N must be >= 4, got {N}")
    if not 0.0 < theta <= 1.0 / 3.0 + 1e-15:
        raise PreconditionError(f"theta must lie in (0, 1/3], got {theta}")
    if tau <= 0.0:
        raise PreconditionError(f"tau must be positive, got {tau}")
    if not 0.0 < eta < 1.0:
        raise PreconditionError(f"eta must lie in (0, 1), got {eta}")

    P = _snap_integer((N / 4.0) ** (1.0 / 3.0))
    R = _snap_integer(P ** (3.0 * theta))
    Y = _snap_integer(P ** (11.0 / 79.0))
    J = int(math.floor(0.5 * tau * math.log(P))) if P > 1.0 else 0

    clamped = False
    if L_override is not None:
        L = float(L_override)
        if not 1.0 <= L <= N:
            raise PreconditionError(f"L override must satisfy 1 <= L <= N, got {L}")
    else:
        L = math.log(P) ** 10 if P > 1.0 else 1.0
        if L < 1.0:
            L, clamped = 1.0, True
        elif L > N:
            L, clamped = float(N), True

    return Parameters(N=N, theta=theta, P=P, R=R, Y=Y, L=L, eta=eta, tau=tau,
                      J=J, l_clamped=clamped)


def integer_root(n: int, k: int) -> int:
    """Exact floor(n^(1/k)) for any nonnegative integer n and k >= 1, no float error."""
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if n == 0:
        return 0
    # Newton iteration on integers from an overshooting seed; terminates in
    # O(k + log log n) steps and never undershoots en route.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def integer_cube_root(n: int) -> int:
    """Exact floor(n^(1/3)) for any nonnegative integer, no float error."""
    return integer_root(n, 3)


def best_rational(alpha: float, q_max: int) -> Rational:
    """Coprime (a, q) with q <= q_max minimizing |q*alpha - a|.

    Walks the continued-fraction convergents of alpha (taken exactly, as the
    dyadic rational the float represents) plus the final semiconvergent that
    still fits under q_max.  Ties break toward smaller q, then smaller a.
    alpha must be finite.
    """
    if q_max < 1:
        raise PreconditionError(f"q_max must be >= 1, got {q_max}")
    if not math.isfinite(alpha):
        raise PreconditionError(f"alpha must be finite, got {alpha}")
    x = Fraction(alpha)

    candidates: list[tuple[int, int]] = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(x)), 1
    candidates.append((p_cur, q_cur))
    frac = x - int(math.floor(x))
    while frac != 0 and q_cur <= q_max:
        rec = 1 / frac
        a_k = int(math.floor(rec))
        frac = rec - a_k
        p_nxt = a_k * p_cur + p_prev
        q_nxt = a_k * q_cur + q_prev
        if q_nxt > q_max:
            # Largest semiconvergent below the cap, if any step fits.
            t = (q_max - q_prev) // q_cur
            if t >= 1:
                candidates.append((t * p_cur + p_prev, t * q_cur + q_prev))
            break
        candidates.append((p_nxt, q_nxt))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt

    best = min(candidates, key=lambda pq: (abs(pq[1] * x - pq[0]), pq[1], pq[0]))
    a, q = best
    g = math.gcd(a, q)
    return Rational(a // g, q // g)


_CONFIG_KEYS = {"N", "theta", "tau", "eta", "L", "seed", "tol"}


def parse_config(text: str) -> dict[str, float | int]:
    """Parse key=value lines (keys: N, theta, tau, eta, L, seed, tol).

    Blank lines and '#' comments are ignored; N and seed parse as integers.
    """
    out: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreconditionError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise PreconditionError(f"config line {lineno}: unknown key {key!r}")
        out[key] = int(val) if key in ("N", "seed") else float(val)
    return out
