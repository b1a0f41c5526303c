"""Command-line facade: dispatch, CSV/JSON emission, and run manifests.

Every file-emitting run writes a sidecar manifest (config echo, version,
timestamp, input hashes, per-op timings); the data file carries a single
leading comment line pointing at it.  Data files contain no timestamps, so
re-running a command with the same inputs reproduces them byte for byte.

Exit codes: 0 success, 1 usage, 2 precondition violation (non-finite or
overflowing input included), 3 resource guard, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import cubelab
from cubelab.arcs import (
    dissection_measure,
    m_dissection,
    mean_value_grid,
    moment_integrand,
    n_dissection,
    p_dissection,
)
from cubelab.expsums import cubic_gauss_sum, singular_series_truncated
from cubelab.experiments import predict_table, residual_sweep
from cubelab.genfun import QuadratureError, interval_spec, spec_from_params, weyl_sum
from cubelab.params import (
    SAMPLE_CAP,
    Parameters,
    PreconditionError,
    ResourceGuardError,
    derive_parameters,
    parse_config,
)
from cubelab.repcount import batch_scan, count_r, mixed_mean_count
from cubelab.smooth import restricted_primes, smooth_interval_set, smooth_set

USAGE_EXIT, PRECONDITION_EXIT, RESOURCE_EXIT, NUMERIC_EXIT = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on bad flags, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _fmt(x) -> str:
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return format(x, ".17g")
    return str(x)


class Emitter:
    """Collects rows, then writes CSV or JSON plus the manifest sidecar.

    bare=True drops headers and comments from the CSV path: the smooth
    fixture format is exactly one integer per line.
    """

    def __init__(self, args, command: str) -> None:
        self.command = command
        self.args = args
        self.columns: list[str] = []
        self.rows: list[list] = []
        self.summary: dict = {}
        self.timings: dict[str, float] = {}
        self.bare = False
        self._t0 = time.perf_counter()

    def set_columns(self, *columns: str) -> None:
        self.columns = list(columns)

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def mark(self, op: str) -> None:
        now = time.perf_counter()
        self.timings[op] = round(now - self._t0, 6)
        self._t0 = now

    def _manifest(self, config: dict) -> dict:
        blob = json.dumps({"command": self.command, "config": config},
                          sort_keys=True).encode()
        hashes = {"resolved_config_sha256": hashlib.sha256(blob).hexdigest()}
        cfg_file = getattr(self.args, "config", None)
        if cfg_file:
            hashes["config_file_sha256"] = hashlib.sha256(
                Path(cfg_file).read_bytes()).hexdigest()
        return {
            "command": self.command,
            "version": cubelab.__version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": config,
            "input_hashes": hashes,
            "timings": self.timings,
            "summary": self.summary,
        }

    def finish(self, config: dict) -> None:
        """Render once: summary comments go to stdout, the manifest pointer to files."""
        self.mark("emit")
        out = getattr(self.args, "out", None)
        manifest = self._manifest(config)
        if getattr(self.args, "format", "csv") == "json":
            lines = [json.dumps({"rows": [dict(zip(self.columns, r)) for r in self.rows],
                                 "manifest": manifest}, indent=2, default=_fmt)]
        else:
            lines = [",".join(_fmt(v) for v in row) for row in self.rows]
            if not self.bare:
                lines.insert(0, ",".join(self.columns))
                if out is None:
                    lines += [f"# {key} = {_fmt(val)}" for key, val in self.summary.items()]
                else:
                    lines.insert(0, f"# manifest: {Path(out).name}.manifest.json")
        if out is None:
            if lines:
                print("\n".join(lines))
            return
        out_path = Path(out)
        out_path.write_text("\n".join(lines) + "\n")
        Path(f"{out_path}.manifest.json").write_text(
            json.dumps(manifest, indent=2, default=_fmt) + "\n")
        print(f"wrote {out_path} ({len(self.rows)} rows)", file=sys.stderr)


def _params_from(args) -> Parameters:
    N = args.N if args.N is not None else 864
    theta = args.theta if args.theta is not None else 1 / 3
    eta = args.eta if args.eta is not None else 0.1
    tau = args.tau if args.tau is not None else 1e-4
    params = derive_parameters(N, theta, tau=tau, eta=eta, L_override=args.L)
    if params.l_clamped:
        print(f"warning: default arc cutoff clamped to L={params.L:g}; "
              f"pass --L to override", file=sys.stderr)
    return params


def _config_echo(args) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def cmd_count(args, em: Emitter) -> None:
    em.set_columns("n", "theta", "count")
    rep = count_r(args.n, args.theta, allow_zero=args.allow_zero)
    em.add_row(rep.n, rep.theta, rep.count)
    em.mark("count")
    em.summary["count"] = rep.count


def cmd_scan(args, em: Emitter) -> None:
    em.set_columns("n", "theta", "count", "series", "main_term", "ratio", "exceptional")
    res = batch_scan(args.n_lo, args.n_hi, args.theta, Q_max=args.qmax)
    em.mark("scan")
    nan = float("nan")
    for i, n in enumerate(res.ns):
        em.add_row(int(n), args.theta, int(res.counts[i]),
                   float(res.series[i]) if res.series is not None else nan,
                   float(res.predicted[i]) if res.predicted is not None else nan,
                   float(res.ratios[i]) if res.ratios is not None else nan,
                   int(res.counts[i] == 0))
    em.summary.update({
        "exceptional_count": res.exceptional_count,
        "exceptional_fraction": res.exceptional_fraction,
        "mean_ratio": res.mean_ratio,
        "median_ratio": res.median_ratio,
    })


def cmd_predict(args, em: Emitter) -> None:
    em.set_columns("n", "theta", "count", "series", "main_term", "ratio", "exceptional")
    if args.n is not None:
        ns = [args.n]
    else:
        if args.n_lo >= args.n_hi:
            raise PreconditionError(f"need --n-lo < --n-hi, got {args.n_lo} >= {args.n_hi}")
        if args.samples < 0:
            raise PreconditionError(f"--samples must be >= 0, got {args.samples}")
        if args.samples > SAMPLE_CAP:
            raise ResourceGuardError(f"{args.samples} samples exceed the sample cap {SAMPLE_CAP}")
        rng = np.random.default_rng(args.seed)
        ns = sorted(int(v) for v in rng.integers(args.n_lo + 1, args.n_hi + 1,
                                                 size=args.samples))
    for row in predict_table(ns, args.theta, args.qmax):
        em.add_row(row["n"], row["theta"], row["count"], row["series"],
                   row["main_term"], row["ratio"], row["exceptional"])
    em.mark("predict")


def cmd_expsum(args, em: Emitter) -> None:
    if args.n is not None:
        em.set_columns("n", "Qmax", "series", "tail")
        rep = singular_series_truncated(args.n, args.qmax)
        em.add_row(rep.n, rep.Q_max, rep.value, rep.tail_estimate)
    else:
        if args.q is None:
            raise PreconditionError("expsum needs either --q/--a or --n/--qmax")
        em.set_columns("q", "a", "re", "im")
        val = cubic_gauss_sum(args.q, args.a)
        em.add_row(args.q, args.a, val.real, val.imag)
    em.mark("expsum")


def cmd_smooth(args, em: Emitter) -> None:
    em.set_columns("member")
    em.bare = True  # fixture format: exactly one integer per line
    if args.kind == "A":
        members = smooth_set(args.R, args.eta).members
    elif args.kind == "B":
        members = smooth_interval_set(args.X, args.Z, args.eta).members
    else:
        members = restricted_primes(args.Y, args.J).primes
    for m in members:
        em.add_row(m)
    em.mark("sieve")
    em.summary["cardinality"] = len(members)


def cmd_genfun(args, em: Emitter) -> None:
    em.set_columns("alpha", "re", "im")
    try:
        lo, hi, count = args.alpha_grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise PreconditionError(f"--alpha-grid wants lo:hi:n, got {args.alpha_grid!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreconditionError(f"--alpha-grid ends must be finite, got {args.alpha_grid!r}")
    if count < 1:
        raise PreconditionError("--alpha-grid needs at least one point")
    if count > SAMPLE_CAP:
        raise ResourceGuardError(f"{count} grid points exceed the sample cap {SAMPLE_CAP}")
    spec = spec_from_params(args.kind, _params_from(args))
    alphas = np.linspace(lo, hi, count)
    for alpha, val in zip(alphas.tolist(), weyl_sum(alphas, spec).tolist()):
        em.add_row(alpha, val.real, val.imag)
    em.mark("evaluate")


def cmd_arcs(args, em: Emitter) -> None:
    em.set_columns("q", "a", "center", "half_width")
    params = _params_from(args)
    if args.style == "P":
        d = p_dissection(params, L=args.cutoff)
    elif args.style == "M":
        if args.cutoff is None:
            raise PreconditionError("M-style arcs need --cutoff")
        d = m_dissection(params, X=args.cutoff)
    else:
        d = n_dissection(params)
    for arc in d.arcs:
        em.add_row(arc.label.q, arc.label.a, arc.center, arc.half_width)
    em.mark("build")
    em.summary["measure"] = dissection_measure(d) if not d.overlapping else float("nan")
    em.summary["overlapping"] = int(d.overlapping)


def cmd_meanvalue(args, em: Emitter) -> None:
    em.set_columns("shape", "grid", "value")
    if args.shape in ("G2", "G4"):
        power = 1 if args.shape == "G2" else 2
        integrand = moment_integrand(interval_spec(0, args.R), power)
        val = mean_value_grid(integrand, args.grid).real
    else:
        val = float(mixed_mean_count(args.P, args.R, args.eta, args.shape))
    em.add_row(args.shape, args.grid, val)
    em.mark("moment")
    em.summary["value"] = val


def cmd_residual(args, em: Emitter) -> None:
    em.set_columns("q", "a", "beta", "residual", "envelope", "ratio")
    tol = args.tol if args.tol is not None else 1e-10
    sweep = residual_sweep(args.P, args.qmax, samples=args.samples, tol=tol)
    for s in sweep.samples:
        em.add_row(s.q, s.a, s.beta, s.residual, s.envelope, s.ratio)
    em.mark("sweep")
    em.summary["max_ratio"] = sweep.max_ratio


def build_parser() -> _Parser:
    parser = _Parser(prog="cubelab",
                     description="circle-method laboratory for two cubes plus two minicubes")
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file (keys: N, theta, tau, eta, L, seed, tol)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, params=False):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if params:  # None so a --config file can supply them; see _params_from
            p.add_argument("--N", type=int, default=None)
            p.add_argument("--theta", type=float, default=None)
            p.add_argument("--eta", type=float, default=None)
            p.add_argument("--tau", type=float, default=None)
            p.add_argument("--L", type=float, default=None)

    p = sub.add_parser("count", help="exact representation count for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--allow-zero", action="store_true",
                   help="admit zero cubes in all four positions")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("scan", help="window scan with main-term comparison")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--qmax", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("predict", help="predicted-vs-actual table for sampled n")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-lo", type=int, default=4)
    p.add_argument("--n-hi", type=int, default=10**4)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--qmax", type=int, default=2000)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("expsum", help="complete cubic sums and truncated series")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--qmax", type=int, default=2000)
    common(p)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("smooth", help="smooth sets and restricted primes, one per line")
    p.add_argument("--kind", choices=("A", "B", "primes"), default="A")
    p.add_argument("--R", type=float, default=100.0)
    p.add_argument("--X", type=float, default=10.0)
    p.add_argument("--Z", type=float, default=100.0)
    p.add_argument("--Y", type=float, default=20.0)
    p.add_argument("--J", type=int, default=1)
    p.add_argument("--eta", type=float, default=None, help="default 0.5")
    common(p)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("genfun", help="generating-function values on an alpha grid")
    p.add_argument("--kind", choices=("f", "h", "K", "F", "F0", "G"), required=True)
    p.add_argument("--alpha-grid", type=str, required=True, metavar="lo:hi:n")
    common(p, params=True)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("arcs", help="arc table and total measure")
    p.add_argument("--style", choices=("P", "M", "N"), required=True)
    p.add_argument("--cutoff", type=float, default=None)
    common(p, params=True)
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("meanvalue", help="full-circle moments, exact by orthogonality")
    p.add_argument("--shape", choices=("G2", "G4", "f2h6", "K2h6", "K8", "f2K2h4"),
                   required=True)
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--P", type=float, default=6.0)
    p.add_argument("--eta", type=float, default=None, help="default 0.5")
    p.add_argument("--grid", type=int, default=4096)
    common(p)
    p.set_defaults(func=cmd_meanvalue)

    p = sub.add_parser("residual", help="major-arc approximation residual sweep")
    p.add_argument("--P", type=float, default=100.0)
    p.add_argument("--qmax", type=int, default=10)
    p.add_argument("--samples", type=int, default=9)
    p.add_argument("--tol", type=float, default=None,
                   help="oscillatory-integral tolerance for the arc model")
    common(p)
    p.set_defaults(func=cmd_residual)

    return parser


# Defaults of flags that --config may set, applied after it (None marks "unset").
_LATE_DEFAULTS = {"predict": {"seed": 0}, "smooth": {"eta": 0.5}, "meanvalue": {"eta": 0.5}}


def _apply_config(args) -> None:
    """Fill unset flags from --config, then from _LATE_DEFAULTS; reject non-finite floats."""
    cfg = parse_config(Path(args.config).read_text()) if args.config is not None else {}
    for key, value in {**_LATE_DEFAULTS.get(args.command, {}), **cfg}.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise PreconditionError(f"--{key.replace('_', '-')} must be finite, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        em = Emitter(args, args.command)
        args.func(args, em)
        em.finish(_config_echo(args))
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except (PreconditionError, OverflowError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
