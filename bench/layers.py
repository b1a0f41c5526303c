"""Per-layer metrics: which spans and counters the traced run reports.

Each cubelab module is one layer.  Calls and self time are per op of the
traced phase (so they do not grow with the run length); errors are
exceptions that left the module during the phase.  Byte counts are
computed from array sizes, not measured.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import oracles

MODULE_NAMES = ("params", "smooth", "expsums", "genfun", "arcs", "repcount", "experiments")

# Functions with their own calls and self-time metrics, by module.
FUNCTIONS = {
    "repcount": ("count_r", "two_cube_table", "batch_scan", "minicube_bound",
                 "hua_count", "mixed_mean_count"),
    "expsums": ("singular_series_values", "singular_series_truncated",
                "singular_series_euler", "cubic_gauss_sum"),
    "genfun": ("weyl_sum", "fractional_phases", "v_integral", "w_integral", "_batch_rule"),
    "arcs": ("p_dissection", "m_dissection", "arc_membership", "integrate_over_arcs",
             "evaluate_integrand", "truncated_singular_integral", "mean_value_grid"),
    "smooth": ("smooth_set", "smooth_interval_set", "restricted_primes"),
}
SELF_ONLY = {"experiments": ("residual_sweep", "predict_table")}

COUNTERS = (
    ("repcount.two_cube_pairs", "pairs/op"),
    ("repcount.slice_entries", "entries/op"),
    ("repcount.slice_bytes", "bytes/op"),
    ("expsums.series_tables_built", "tables/op"),
    ("expsums.series_table_hit_ratio", "ratio"),
    ("expsums.series_lookups", "lookups/op"),
    ("genfun.weyl_sum.terms", "terms/op"),
    ("genfun.weyl_sum.terms_per_s", "terms/s"),
    ("genfun.big_phase_terms", "terms/op"),
    ("genfun.batch_rule.betas", "betas/op"),
    ("arcs.arcs_built", "arcs/op"),
    ("arcs.integrand_evals", "evals/op"),
    ("arcs.grid_points", "points/op"),
    ("smooth.members_out", "members/op"),
    ("smooth.sieve_builds", "sieves/op"),
    ("cli.startup_s", "s"),
    ("cli.compute_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.bytes_identical", "bool"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)

_FLOAT_EXACT_CUBE = 208_000  # cubelab switches to big-integer phases above this x


def _public(fn: str) -> str:
    return fn.lstrip("_")


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod in MODULE_NAMES:
        out += [(f"{mod}.calls", "calls/op"), (f"{mod}.self_s", "s/op"), (f"{mod}.errors", "count")]
        for fn in FUNCTIONS.get(mod, ()):
            if fn == "evaluate_integrand":  # its call count is arcs.integrand_evals
                out.append((f"{mod}.{fn}.self_s", "s/op"))
                continue
            out += [(f"{mod}.{_public(fn)}.calls", "calls/op"), (f"{mod}.{_public(fn)}.self_s", "s/op")]
        out += [(f"{mod}.{fn}.self_s", "s/op") for fn in SELF_ONLY.get(mod, ())]
    return out + list(COUNTERS)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _big_terms(spec) -> int:
    if spec.kind == "interval":
        return max(0, int(spec.hi) - max(int(spec.lo), _FLOAT_EXACT_CUBE))
    return int(np.count_nonzero(spec.term_values() > _FLOAT_EXACT_CUBE))


def _batch_scan(t, a, k, res):
    n_lo, n_hi, theta = _arg(a, k, 0, "N_lo"), _arg(a, k, 1, "N_hi"), _arg(a, k, 2, "theta")
    s_lo = max(2, n_lo + 1 - 2 * oracles.floor_power(n_hi, theta) ** 3)
    entries = n_hi - s_lo
    t.counters["repcount.slice_entries"] += entries
    t.counters["repcount.slice_bytes"] += 4 * (entries + 1)  # int32 slice


def _series_values(t, a, k, res):
    t.counters["expsums.series_lookups"] += _arg(a, k, 1, "Q_max") * len(_arg(a, k, 0, "ns"))


def _weyl(t, a, k, res):
    spec = _arg(a, k, 1, "spec")
    t.counters["genfun.weyl_sum.terms"] += spec.term_count()
    t.counters["genfun.big_phase_terms"] += _big_terms(spec)


def _count(name):
    def hook(t, a, k, res):
        t.counters[name] += 1
    return hook


def _length(name):
    def hook(t, a, k, res):
        t.counters[name] += len(res)
    return hook


HOOKS = {
    "repcount.two_cube_table": lambda t, a, k, r: t.counters.update(
        {"repcount.two_cube_pairs": (_arg(a, k, 1, "x_hi") - _arg(a, k, 0, "x_lo")) ** 2}),
    "repcount.batch_scan": _batch_scan,
    "expsums.singular_series_values": _series_values,
    "expsums.singular_series_truncated": lambda t, a, k, r: t.counters.update(
        {"expsums.series_lookups": _arg(a, k, 1, "Q_max")}),
    "genfun.weyl_sum": _weyl,
    "genfun._batch_rule": lambda t, a, k, r: t.counters.update(
        {"genfun.batch_rule.betas": len(_arg(a, k, 0, "betas"))}),
    "arcs.p_dissection": _length("arcs.arcs_built"),
    "arcs.m_dissection": _length("arcs.arcs_built"),
    "arcs.evaluate_integrand": _count("arcs.integrand_evals"),
    "arcs.mean_value_grid": lambda t, a, k, r: t.counters.update(
        {"arcs.grid_points": int(_arg(a, k, 1, "grid_points"))}),
    "smooth.smooth_set": lambda t, a, k, r: t.counters.update({"smooth.members_out": len(r)}),
    "smooth.smooth_interval_set": lambda t, a, k, r: t.counters.update({"smooth.members_out": len(r)}),
    "smooth.restricted_primes": lambda t, a, k, r: t.counters.update({"smooth.members_out": len(r)}),
}


def cache_stats(modules) -> dict:
    """Snapshot of the cubelab caches whose hits and misses are layer counters."""
    return {"series": modules["expsums"].series_coefficient_table.cache_info(),
            "sieve": modules["smooth"]._largest_prime_factor.cache_info()}


def layer_metrics(summary: dict, counters: Counter, before: dict, after: dict,
                  n_ops: int) -> dict[str, float]:
    """Per-layer values from a span summary, hook counters and cache snapshots."""
    per_op = 1.0 / max(n_ops, 1)
    mods, fns = summary["modules"], summary["functions"]
    out: dict[str, float] = {}
    for mod in MODULE_NAMES:
        m = mods.get(mod, {"calls": 0, "self_s": 0.0, "errors": Counter()})
        out[f"{mod}.calls"] = m["calls"] * per_op
        out[f"{mod}.self_s"] = m["self_s"] * per_op
        out[f"{mod}.errors"] = sum(m["errors"].values())
        for fn in FUNCTIONS.get(mod, ()) + SELF_ONLY.get(mod, ()):
            f = fns.get(f"{mod}.{fn}", {"calls": 0, "self_s": 0.0})
            out[f"{mod}.{_public(fn)}.calls"] = f["calls"] * per_op
            out[f"{mod}.{_public(fn)}.self_s"] = f["self_s"] * per_op
    for name in ("repcount.two_cube_pairs", "repcount.slice_entries", "repcount.slice_bytes",
                 "expsums.series_lookups", "genfun.weyl_sum.terms", "genfun.big_phase_terms",
                 "genfun.batch_rule.betas", "arcs.arcs_built", "arcs.integrand_evals",
                 "arcs.grid_points", "smooth.members_out"):
        out[name] = counters.get(name, 0) * per_op
    weyl_s = fns.get("genfun.weyl_sum", {}).get("total_s", 0.0)
    out["genfun.weyl_sum.terms_per_s"] = counters.get("genfun.weyl_sum.terms", 0) / weyl_s if weyl_s else 0.0
    hits = after["series"].hits - before["series"].hits
    misses = after["series"].misses - before["series"].misses
    out["expsums.series_tables_built"] = misses * per_op
    out["expsums.series_table_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["smooth.sieve_builds"] = (after["sieve"].misses - before["sieve"].misses) * per_op
    return out


# Which end-to-end metric each layer metric should move, on which workload,
# and which workload bypasses it (there the prediction is no change).  In
# counting, keyed-table ops hold op_p50_s and batch_scan windows op_tail_s.
LAYER_MAP = [
    {"layer": ["repcount.two_cube_table.self_s", "repcount.two_cube_pairs", "repcount.count_r.self_s"],
     "moves": ["ops_per_s", "op_p50_s", "cli_s"], "on": ["counting"], "bypassed_by": ["analytic"]},
    {"layer": ["repcount.batch_scan.self_s", "repcount.slice_entries", "repcount.slice_bytes"],
     "moves": ["ops_per_s", "op_tail_s", "peak_rss_mb"], "on": ["counting"],
     "bypassed_by": ["analytic"]},
    {"layer": ["expsums.singular_series_values.self_s", "expsums.series_tables_built"],
     "moves": ["ops_per_s", "op_tail_s", "setup_s", "cli_s"], "on": ["counting"],
     "bypassed_by": ["analytic"]},
    {"layer": ["arcs.arc_membership.self_s", "arcs.m_dissection.self_s", "arcs.arcs_built"],
     "moves": ["op_p50_s", "cli_s"], "on": ["analytic"], "bypassed_by": ["counting"]},
    {"layer": ["genfun.batch_rule.self_s", "genfun.v_integral.self_s", "genfun.w_integral.self_s"],
     "moves": ["op_tail_s", "ops_per_s"], "on": ["analytic"], "bypassed_by": ["counting"]},
    {"layer": ["arcs.integrand_evals", "genfun.weyl_sum.self_s"],
     "moves": ["ops_per_s"], "on": ["analytic"], "bypassed_by": ["counting"]},
    {"layer": ["genfun.fractional_phases.self_s", "genfun.weyl_sum.terms_per_s", "genfun.big_phase_terms"],
     "moves": ["op_tail_s", "ops_per_s"], "on": ["analytic"], "bypassed_by": ["counting"]},
    {"layer": ["arcs.mean_value_grid.self_s", "arcs.grid_points"],
     "moves": ["ops_per_s"], "on": ["analytic"], "bypassed_by": ["counting"]},
    {"layer": ["smooth.self_s", "smooth.sieve_builds"],
     "moves": ["ops_per_s"], "on": ["analytic"], "bypassed_by": ["counting"]},
    {"layer": ["cli.startup_s", "cli.emit_s"], "moves": ["cli_s"],
     "on": ["counting", "analytic"], "bypassed_by": []},
]
