"""The workloads: seeded inputs, one op each, and the check of every output.

Each workload runs a fixed cycle of op kinds in a closed loop (one op at a
time).  The cycle fixes the share of each kind, so the median op and the
tail op (the slowest op with at least ten slower ones after it) land on
the same kind of op in every run.  Inputs come only from
``np.random.default_rng([seed, workload, warm-up flag, op index])``.

Ops call cubelab through module attributes (``repcount.count_r``, not a
name imported here), so the traced run sees them through its wrappers.
Checks run off the op clock (in a traced run, after the traced phase), and
compare against ``oracles`` or, where no independent oracle exists,
against the seed's stored values in ``expected/``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

from cubelab import arcs, experiments, expsums, genfun, params, repcount  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected"

Q_MAX = 2000
SERIES_RTOL = 1e-9
DIAGNOSTIC_OPS = 8


def _rng(seed: int, workload: int, index: int, warmup: bool = False) -> np.random.Generator:
    return np.random.default_rng([seed, workload, int(warmup), index])


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _weyl_tol(terms: int) -> float:
    """Float rounding allowance for a sum of `terms` unit phases."""
    return 1e-12 + 1e-14 * terms


class Family:
    """A group of op kinds: seeded inputs, the op itself, and its check.

    Subclasses define KINDS, make(kind, rng) -> dict, run(inp) -> result and
    check(inp, result, note) -> list of failure messages.
    """

    KINDS: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    index: int
    cycle: tuple[str, ...]
    families: tuple[Family, ...]
    cli: tuple[tuple[str, ...], ...]  # scenario commands, each ending in a stored-output name
    cli_tol: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def family(self, kind: str) -> Family:
        return next(f for f in self.families if kind in f.KINDS)

    def op_input(self, seed: int, i: int) -> dict:
        """Inputs of op i of the timed phases."""
        kind = self.cycle[i % len(self.cycle)]
        return {"kind": kind, **self.family(kind).make(kind, _rng(seed, self.index, i))}

    def warmup_inputs(self, seed: int) -> list[dict]:
        """The untimed warm-up: one op of the cycle's first kind."""
        kind = self.cycle[0]
        return [{"kind": kind, **self.family(kind).make(kind, _rng(seed, self.index, 0, True))}]

    def run(self, inp):
        return self.family(inp["kind"]).run(inp)

    def check(self, inp, result) -> list[str]:
        return self.family(inp["kind"]).check(inp, result, self.note)

    def note(self, key: str, compute) -> None:
        """Keep a diagnostic (not a check) of one of the first few ops.

        compute() runs only in diagnostic_values(), after the timed phase, so
        the caches it fills do not count towards the workload's memory.
        """
        pending = self.diagnostics.setdefault(key, [])
        if len(pending) < DIAGNOSTIC_OPS:
            pending.append(compute)

    def diagnostic_values(self) -> dict[str, list[float]]:
        return {key: [compute() for compute in pending]
                for key, pending in self.diagnostics.items()}


class PredictRows(Family):
    """count_r through the keyed two-cube table, one predicted-vs-actual row per op."""

    THETAS = {"theta_3/10": 0.3, "theta_21/64": 21 / 64, "theta_1/3": 1 / 3,
              "theta_pi/10": math.pi / 10}
    KINDS = tuple(THETAS)
    N_LO, N_HI = 300_000_000, 400_000_000

    def make(self, kind, rng):
        theta = self.THETAS[kind]
        if kind == "theta_pi/10":
            # n = round(y^(1/theta)) puts n^theta within 1e-9 of the integer y,
            # the near-tie that minicube_bound settles in high precision.
            y = int(rng.integers(math.ceil(self.N_LO**theta), math.floor(self.N_HI**theta)))
            n = round(y ** (1 / theta))
        else:
            n = int(rng.integers(self.N_LO, self.N_HI))
        small = int(rng.integers(2_000, 20_000))
        return {"n": n, "theta": theta, "small_n": small}

    def run(self, inp):
        return experiments.predict_table([inp["n"]], inp["theta"], Q_MAX)[0]

    def check(self, inp, row, note):
        n, theta = inp["n"], inp["theta"]
        fails = []
        expected = oracles.count_mitm(n, theta)
        if row["count"] != expected:
            fails.append(f"count_r({n}, {theta}) = {row['count']}, sorted-array count {expected}")
        series = float(expsums.singular_series_values(np.array([n]), Q_MAX)[0])
        if not _rel_close(row["series"], series, SERIES_RTOL):
            fails.append(f"series({n}) = {row['series']!r}, vectorised path {series!r}")
        main = expsums.MAIN_TERM_CONSTANT * row["series"] * n ** (2 * theta - 1 / 3)
        if not _rel_close(row["main_term"], main, 1e-12):
            fails.append(f"main_term({n}) = {row['main_term']!r}, formula {main!r}")
        if row["exceptional"] != int(row["count"] == 0):
            fails.append(f"exceptional flag wrong at n={n}")
        # Second counting path at small n: width-1 window and brute force.
        m = inp["small_n"]
        r = repcount.count_r(m, theta).count
        scan = int(repcount.batch_scan(m - 1, m, theta).counts[0])
        brute = oracles.count_brute(m, theta)
        if not r == scan == brute:
            fails.append(f"n={m}: count_r {r}, batch_scan {scan}, brute force {brute}")
        note("euler_series_gap", lambda: abs(
            row["series"] / float(expsums.singular_series_euler(np.array([n]))[0]) - 1.0))
        return fails


class ScanWindows(Family):
    """batch_scan over width-10^4 windows with the vectorised series."""

    WIDTH = 10_000
    BASE_HI = 110_000_000
    # (theta low, theta high, lowest base) per kind.  Every cycle draws from
    # each stratum, so every run sees the same spread of slice sizes; the top
    # stratum (theta = 0.3, bases near the top) sets the peak memory.
    STRATA = {"theta_0.27": (0.27, 0.28, 100_000_000), "theta_0.29": (0.29, 0.30, 100_000_000),
              "theta_0.30": (0.30, 0.30, 108_000_000)}
    KINDS = tuple(STRATA)
    SLICE_CAP = 1 << 27

    def make(self, kind, rng):
        theta_lo, theta_hi, base_lo = self.STRATA[kind]
        while True:
            base = int(rng.integers(base_lo, self.BASE_HI))
            theta = float(rng.uniform(theta_lo, theta_hi)) if theta_hi > theta_lo else theta_lo
            t_max = 2 * oracles.floor_power(base + self.WIDTH, theta) ** 3
            if base + self.WIDTH - max(2, base + 1 - t_max) <= self.SLICE_CAP:
                break
        return {"base": base, "theta": theta,
                "sample": int(rng.integers(base + 1, base + self.WIDTH + 1))}

    def run(self, inp):
        base = inp["base"]
        return repcount.batch_scan(base, base + self.WIDTH, inp["theta"], Q_max=Q_MAX)

    def check(self, inp, res, note):
        base, theta = inp["base"], inp["theta"]
        fails = []
        ns = np.arange(base + 1, base + self.WIDTH + 1, dtype=np.int64)
        if not np.array_equal(res.ns, ns):
            fails.append(f"window {base}: wrong n range")
            return fails
        n = inp["sample"]
        i = n - base - 1
        want = repcount.count_r(n, theta).count
        if int(res.counts[i]) != want:
            fails.append(f"batch_scan count at n={n} is {int(res.counts[i])}, count_r {want}")
        series = expsums.singular_series_truncated(n, Q_MAX).value
        if not _rel_close(float(res.series[i]), series, SERIES_RTOL):
            fails.append(f"series at n={n}: {float(res.series[i])!r} vs truncated {series!r}")
        predicted = (expsums.MAIN_TERM_CONSTANT * res.series
                     * ns.astype(np.float64) ** (2 * theta - 1 / 3))
        if not np.allclose(res.predicted, predicted, rtol=1e-12, atol=0):
            fails.append(f"window {base}: predicted main term off the formula")
        if res.exceptional_count != int(np.count_nonzero(res.counts == 0)):
            fails.append(f"window {base}: exceptional count wrong")
        note("euler_series_gap", lambda: float(np.mean(
            np.abs(res.series / expsums.singular_series_euler(ns) - 1.0))))
        return fails


class ArcOps(Family):
    """Arc membership, phi-type integrals and arc quadrature."""

    KINDS = ("residual", "singular_u", "singular_W", "arc_integrals")
    SINGULAR_CASES = EXPECTED / "singular_integrals.json"

    def __init__(self) -> None:
        self._cases = None

    @property
    def cases(self) -> list[dict]:
        if self._cases is None:
            self._cases = json.loads(self.SINGULAR_CASES.read_text())
        return self._cases

    def make(self, kind, rng):
        if kind == "residual":
            return {"P": 100.0 + 4.0 * float(rng.random()), "q_max": 10, "samples": 4}
        if kind in ("singular_u", "singular_W"):
            pool = [i for i, c in enumerate(self.cases) if c["kind"] == kind[-1]]
            return {"case": int(rng.choice(pool))}
        N = int(rng.integers(1_000, 4_000))
        return {"N": N, "n": N + int(rng.integers(1, N + 1)), "L": 2.0}

    def run(self, inp):
        kind = inp["kind"]
        if kind == "residual":
            return experiments.residual_sweep(inp["P"], inp["q_max"], samples=inp["samples"])
        if kind.startswith("singular"):
            c = self.cases[inp["case"]]
            p = params.derive_parameters(c["N"], c["theta"])
            return arcs.truncated_singular_integral(c["n"], p, c["kind"], L=c["L"])
        p = params.derive_parameters(inp["N"], 0.25, L_override=inp["L"])
        family = arcs.p_dissection(p, L=inp["L"])
        full, inner = arcs.make_sigma_integrand_pair(inp["n"], p)
        return (family, arcs.integrate_over_arcs(full, family),
                arcs.integrate_over_arcs(inner, family))

    def check(self, inp, result, note):
        kind = inp["kind"]
        if kind == "residual":
            return self._check_residual(inp, result)
        if kind.startswith("singular"):
            c = self.cases[inp["case"]]
            if not _rel_close(result, c["value"], c["tol"]):
                return [f"singular integral {c}: {result!r}"]
            return []
        return self._check_arc_integrals(inp, result)

    def _check_residual(self, inp, sweep, tol=1e-10):
        P_in, q_max = inp["P"], inp["q_max"]
        P = sweep.P
        X = P_in ** (6 / 5)
        xs = np.arange(math.floor(P) + 1, math.floor(2 * P) + 1, dtype=np.int64)
        fracs = np.linspace(-0.95, 0.95, inp["samples"])
        expected = []
        for q in range(1, q_max + 1):
            for a in range(q + 1):
                if math.gcd(a, q) != 1:
                    continue
                half = X / (q * P**3)
                for f in fracs:
                    alpha = a / q + float(f) * half
                    if 0.0 <= alpha < 1.0:
                        expected.append((q, a, alpha))
        fails = []
        if len(expected) != len(sweep.samples):
            return [f"residual sweep P={P_in}: {len(sweep.samples)} samples, expected {len(expected)}"]
        expected.sort(key=lambda t: t[2])
        got = sorted(sweep.samples, key=lambda s: s.a / s.q + s.beta)
        allowance = tol + _weyl_tol(len(xs))
        for k, ((q, a, alpha), s) in enumerate(zip(expected, got)):
            if (s.q, s.a) != (q, a):
                fails.append(f"sample at alpha={alpha}: label {s.a}/{s.q}, expected {a}/{q}")
                continue
            label = oracles.containing_label(alpha, X, P)
            lq, la = label
            beta = alpha - la / lq
            model = oracles.gauss_sum(lq, la) / lq * oracles.v_closed(beta, P)
            residual = abs(oracles.weyl_direct(alpha, xs) - model)
            if abs(s.residual - residual) > allowance:
                fails.append(f"residual at {a}/{q}+{s.beta:.3e}: {s.residual!r}, oracle {residual!r}")
            envelope = math.sqrt(q) * math.sqrt(1 + P**3 * abs(s.beta))
            if not _rel_close(s.envelope, envelope, 1e-12):
                fails.append(f"envelope at {a}/{q}: {s.envelope!r}, formula {envelope!r}")
            if k < 2:  # v and w themselves against the closed form
                v = genfun.v_integral(beta, P, tol).value
                w = genfun.w_integral(beta, P, tol).value
                if abs(v - oracles.v_closed(beta, P)) > tol or abs(w - oracles.w_closed(beta, P)) > tol:
                    fails.append(f"v/w at beta={beta!r}, Z={P} off the 1F1 closed form")
        return fails

    def _check_arc_integrals(self, inp, result, tol=1e-9):
        family, full_val, inner_val = result
        N, n, L = inp["N"], inp["n"], inp["L"]
        p = params.derive_parameters(N, 0.25, L_override=L)
        P, R = p.P, p.R
        fails = []
        arcs_expected = sorted(
            (max(a / q - L / N, 0.0), min(a / q + L / N, 1.0))
            for q in range(1, math.floor(L) + 1) for a in range(q + 1) if math.gcd(a, q) == 1)
        got = [(arc.lo, arc.hi) for arc in family.arcs]
        if len(got) != len(arcs_expected) or not np.allclose(got, arcs_expected, rtol=0, atol=1e-15):
            return [f"P-style family at N={N}: arcs {got}, expected {arcs_expected}"]
        G = range(1, math.floor(R) + 1)
        for x_top, value in ((math.floor(2 * P), full_val), (math.floor(P), inner_val)):
            X = range(1, x_top + 1)
            freqs, coefs = oracles.trig_polynomial([(X, 2, False), (G, 2, False)], n)
            want = sum((oracles.integrate_trig(freqs, coefs, lo, hi) for lo, hi in arcs_expected), 0j)
            if abs(value - want) > tol:
                fails.append(f"arc integral N={N} n={n} x<={x_top}: {value!r}, closed form {want!r}")
        return fails


class WeylOps(Family):
    """Weyl sums on both phase paths, and exact moments on the FFT grid."""

    KINDS = ("big_f", "small_f", "small_h", "small_K", "G4", "h4")
    M = 1 << 20
    GRID = 1 << 20                     # above the degree 4 R^3 of every moment drawn (R <= 63)
    N_BIG = 4 * 10**18                 # P = 10^6: x up to 2*10^6, the big-integer path
    N_SMALL = 2_916_000_000_000_000    # P = 9*10^4: 2P below the float-exact limit
    N_MOMENT = 1_000_000               # P = 63: h moments fit a 2^20 grid

    def make(self, kind, rng):
        j = int(rng.integers(1, self.M))
        if kind == "G4":
            return {"R": int(rng.integers(30, 61))}
        if kind == "h4":
            return {"theta": float(rng.uniform(0.2, 1 / 3))}
        return {"j": j, "theta": float(rng.uniform(0.25, 1 / 3))}

    def _params(self, inp):
        N = self.N_BIG if inp["kind"] == "big_f" else self.N_SMALL
        return params.derive_parameters(N, inp["theta"], eta=0.5, tau=0.5)

    def run(self, inp):
        kind = inp["kind"]
        if kind == "G4":
            spec = genfun.interval_spec(0, inp["R"])
        elif kind == "h4":
            p = params.derive_parameters(self.N_MOMENT, inp["theta"], eta=0.5)
            spec = genfun.spec_from_params("h", p)
        else:
            spec = genfun.spec_from_params(kind[-1], self._params(inp))
            return spec, genfun.weyl_sum(inp["j"] / self.M, spec)
        return spec, arcs.mean_value_grid(arcs.moment_integrand(spec, 2), self.GRID)

    def _oracle_terms(self, inp) -> np.ndarray:
        """The index set of the spec, rebuilt from the definitions."""
        kind = inp["kind"]
        if kind == "G4":
            return np.arange(1, inp["R"] + 1, dtype=np.int64)
        if kind == "h4":
            p = params.derive_parameters(self.N_MOMENT, inp["theta"], eta=0.5)
        else:
            p = self._params(inp)
        if kind[-1] == "f":
            return np.arange(math.floor(p.P) + 1, math.floor(2 * p.P) + 1, dtype=np.int64)
        if kind[-1] == "h" or kind == "h4":
            return oracles.smooth_members(1, math.floor(p.R), oracles.smooth_cap(p.R, p.eta))
        low = p.Y * 2.0**-p.J
        top = math.floor(p.Y)
        cand = np.arange(2, top + 1)
        lpf = oracles.largest_prime_factors(2, top) if top >= 2 else cand
        primes = [int(q) for q, f in zip(cand, lpf) if q == f and q > low and q % 3 == 2]
        Z = max(2 * p.P / p.Y, 1.0)
        cap = oracles.smooth_cap(Z, p.eta)
        chunks = []
        for q in primes:
            X = max(p.P / q, 1.0)
            chunks.append(q * oracles.smooth_members(math.floor(X) + 1, math.floor(2 * X), cap))
        return np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)

    def check(self, inp, result, note):
        spec, value = result
        kind = inp["kind"]
        terms = self._oracle_terms(inp)
        fails = []
        if not np.array_equal(spec.term_values(), terms):
            return [f"{kind}: index set differs from its definition ({spec.term_count()} vs {len(terms)})"]
        if kind in ("G4", "h4"):
            exact = oracles.equal_pair_sums(terms)
            if kind == "G4" and repcount.hua_count(inp["R"], 2) != exact:
                fails.append(f"hua_count({inp['R']}, 2) != {exact}")
            if abs(value - exact) > 1e-9 * exact + 1e-6:
                fails.append(f"{kind} moment {value!r}, exact {exact}")
            return fails
        want = oracles.weyl_residue_sum(terms, inp["j"], self.M)
        if abs(value - want) > _weyl_tol(len(terms)):
            fails.append(f"{kind} at {inp['j']}/{self.M}: {value!r}, residue sum {want!r}")
        return fails


WORKLOADS = {
    # Keyed two-cube tables (8 of 14 ops) hold the median op; batch_scan
    # windows (6 of 14) are the tail, and theta = 0.3 windows set peak memory.
    # Five windows cost more than any table and two tables less, so the median
    # op sits in the upper part of the tables; the four theta = 0.3 windows of
    # a cycle give the tail enough of the dearest op that a faster spell of
    # the machine has to cover most of a run to move either.
    "counting": Workload(
        "counting", 0,
        cycle=("theta_3/10", "theta_0.30", "theta_21/64", "theta_1/3", "theta_0.27",
               "theta_0.30", "theta_pi/10", "theta_21/64", "theta_0.30", "theta_1/3",
               "theta_0.29", "theta_21/64", "theta_0.30", "theta_1/3"),
        families=(PredictRows(), ScanWindows()),
        cli=(("count", "--n", "350000021", "--theta", "0.3", "count"),
             ("scan", "--n-lo", "100000000", "--n-hi", "100010000", "--theta", "0.28",
              "--qmax", "2000", "scan")),
        cli_tol={"scan": (0.0, 1e-9)},
    ),
    # Residual sweeps (6 of 21) hold the median op; the phi integrals and the
    # big-integer Weyl sums (9 of 21) are the tail.  Six ops are cheaper than
    # a sweep and nine dearer, so the median op is a sweep at about the 75th
    # percentile of the sweeps: a spell in which the machine runs faster
    # changes it only if it covers most of the run.
    "analytic": Workload(
        "analytic", 1,
        cycle=("residual", "big_f", "singular_u", "small_f", "residual", "singular_W", "G4",
               "big_f", "residual", "singular_u", "small_h", "singular_W", "residual",
               "arc_integrals", "big_f", "residual", "singular_u", "h4", "residual",
               "singular_W", "small_K"),
        families=(ArcOps(), WeylOps()),
        cli=(("residual", "--P", "100", "--qmax", "10", "--samples", "4", "residual"),
             ("genfun", "--kind", "f", "--alpha-grid", "0:1:16", "--N", "2916000000000000",
              "--theta", "0.3", "genfun"),
             ("meanvalue", "--shape", "G4", "--R", "40", "--grid", "262144", "meanvalue")),
        cli_tol={"residual": (1e-9, 0.0), "genfun": (1e-9, 0.0), "meanvalue": (1e-6, 0.0)},
    ),
}
