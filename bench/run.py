"""cubelab benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload counting --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload in turn

--trace 0 reports the end-to-end metrics, measured untraced; --trace 1 is a
separate run that reports the per-layer metrics from spans recorded around
every call into a cubelab module (see tracer.py), plus the tracing
overhead.  Each run prints its metrics by name with units, writes the full
record (metrics, diagnostics, machine facts, provenance) to
.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  The program is imported from ./src; no install step is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One op at a time on one thread: BLAS threads are pinned so that both
# commits of a comparison run the same way.  numpy's transparent-huge-page
# advice is off, so resident memory counts the 4 KiB pages an op touches
# rather than depending on how many huge pages the host has free.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMPY_MADVISE_HUGEPAGE": "0"}
SAMPLES = 4  # fresh-process samples of set-up and of the CLI scenario per run
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("cli_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("counting", "analytic")


def child_env() -> dict:
    env = dict(os.environ, **FIXED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> None:
    """Fix the environment and put ./src and bench/ on the path; exit 2 without the program."""
    os.environ.update(FIXED_ENV)
    if not (SRC / "cubelab" / "__init__.py").is_file():
        print(f"error: no cubelab package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def cli_argv(argv, out_path: Path) -> list[str]:
    return [sys.executable, "-m", "cubelab.cli", *argv, "--out", str(out_path)]


# ---------------------------------------------------------------- timing

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(times)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def run_phase(wl, seed: int, seconds: float, start_index: int, call, between=None,
              check=None) -> tuple[list, float]:
    """Whole cycles of ops until `seconds` of op time have passed.

    Inputs of a cycle are generated before it starts.  between(op seconds so
    far), when given, runs before each cycle.  check(input, result, error),
    when given, runs right after each op and its verdict replaces the
    result, so results are not held in memory.  Neither is on the op clock.
    Returns ([(input, result or verdict, op seconds, error class)], op seconds).
    """
    records, op_time, i = [], 0.0, start_index
    while op_time < seconds:
        if between is not None:
            between(op_time)
        inputs = [wl.op_input(seed, i + k) for k in range(len(wl.cycle))]
        i += len(inputs)
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                result, error = call(inp), None
            except Exception as exc:  # a raised error is a failed op, by class
                result, error = None, type(exc).__name__
            seconds_op = time.perf_counter() - t0
            op_time += seconds_op
            if check is not None:
                result = check(inp, result, error)
            records.append((inp, result, seconds_op, error))
    return records, op_time


def op_kinds(records) -> dict:
    """Count and median seconds of each op kind."""
    by_kind: dict[str, list[float]] = {}
    for inp, _, seconds, _ in records:
        by_kind.setdefault(inp["kind"], []).append(seconds)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in by_kind.items()}


def verdict(wl, inp, result, error) -> tuple[list[str], str]:
    """(problems, failure class) of one op: the error it raised, or what its check found."""
    if error is not None:
        return [f"op raised {error}"], error
    try:
        return wl.check(inp, result), "wrong_output"
    except Exception as exc:
        return [f"check raised {exc!r}"], type(exc).__name__


def tally(records, failures: Counter, messages: list) -> int:
    """Failed ops among records that carry verdicts; classes and messages are collected."""
    failed = 0
    for inp, (problems, cls), _, _ in records:
        if problems:
            failed += 1
            failures[cls] += 1
            messages.extend(f"{inp['kind']}: {p}" for p in problems[:2])
    return failed


def check_records(wl, records, failures: Counter, messages: list) -> int:
    """Check records that still hold their results; returns the number failed."""
    return tally([(inp, verdict(wl, inp, result, error), t, error)
                  for inp, result, t, error in records], failures, messages)


# ---------------------------------------------------------------- CLI

def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines if line and not line.startswith("#")]


def _same_cell(a: str, b: str, atol: float, rtol: float) -> bool:
    if a == b:
        return True
    try:
        int(a), int(b)
        return False  # integer columns match exactly
    except ValueError:
        pass
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if x != x or y != y:
        return x != x and y != y
    return abs(x - y) <= atol + rtol * abs(y)


def compare_output(got: Path, want: Path, tol: tuple[float, float]) -> tuple[bool, bool]:
    """(rows match at the command's tolerance, files byte-identical)."""
    if not got.is_file():
        return False, False
    identical = got.read_bytes() == want.read_bytes()
    a, b = _rows(got), _rows(want)
    ok = len(a) == len(b) and all(
        len(ra) == len(rb) and all(_same_cell(x, y, *tol) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))
    return ok, identical


class CliScenario:
    """The workload's CLI commands, run as fresh processes and checked each time."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.work = OUT / "cli"
        self.samples: list[tuple[float, float, float]] = []  # (wall, compute, emit)
        self.attempted = self.failed = 0
        self.identical = True

    def sample(self) -> None:
        wall = compute = emit = 0.0
        for command in self.wl.cli:
            *argv, name = command
            self.work.mkdir(parents=True, exist_ok=True)
            target = self.work / f"{name}.csv"
            target.unlink(missing_ok=True)
            t0 = time.perf_counter()
            proc = subprocess.run(cli_argv(argv, target), cwd=ROOT, env=child_env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            wall += time.perf_counter() - t0
            self.attempted += 1
            ok, same = compare_output(target, HERE / "expected" / f"{name}.csv",
                                      self.wl.cli_tol.get(name, (0.0, 0.0)))
            if proc.returncode != 0 or not ok:
                self.failed += 1
                print(f"cli {name}: exit {proc.returncode}, rows match {ok}: "
                      f"{proc.stderr.decode()[-300:]}", file=sys.stderr)
                continue
            self.identical &= same
            marks = json.loads(target.with_suffix(".csv.manifest.json").read_text())["timings"]
            emit += marks.get("emit", 0.0)
            compute += sum(v for k, v in marks.items() if k != "emit")
        self.samples.append((wall, compute, emit))

    def metrics(self) -> dict:
        cli_s, compute_s, emit_s = (statistics.median(col) for col in zip(*self.samples))
        return {"cli_s": cli_s, "cli.compute_s": compute_s, "cli.emit_s": emit_s,
                "cli.startup_s": cli_s - compute_s - emit_s,
                "cli.bytes_identical": float(self.identical and not self.failed)}


def setup_sample(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports cubelab and runs the warm-up ops."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"], cwd=ROOT, env=child_env(),
                   check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- facts

def machine_facts(seed: int) -> dict:
    import mpmath
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "cubelab").glob("*.py"))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "blas": blas,
            "fixed_env": {k: os.environ.get(k) for k in FIXED_ENV},
            "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "git_commit": commit, "seed": seed,
            "src_cubelab_lines": src_lines}


# ---------------------------------------------------------------- runs

def run_untraced(wl, args) -> tuple[dict, int, int, dict]:
    cli, setups, due = CliScenario(wl), [], [0.0]

    def sample(op_seconds: float) -> None:
        # CLI and set-up samples are spread over the timed phase, so that a
        # slow spell of the machine does not decide their medians.
        if len(setups) < SAMPLES and op_seconds >= due[0]:
            cli.sample()
            setups.append(setup_sample(wl.name, args.seed))
            due[0] += args.seconds / SAMPLES

    records, wall = run_phase(wl, args.seed, args.seconds, 0, wl.run, between=sample,
                              check=lambda inp, result, error: verdict(wl, inp, result, error))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SAMPLES:
        sample(float("inf"))
    failures, messages = Counter(), []
    failed = tally(records, failures, messages)
    times = [t for _, _, t, _ in records]
    tail_s, tail_pct = tail(times)
    metrics = {"setup_s": statistics.median(setups), "ops_per_s": len(records) / wall,
               "op_p50_s": statistics.median(times), "op_tail_s": tail_s,
               "cli_s": cli.metrics()["cli_s"], "peak_rss_mb": peak_mb}
    attempted = len(records) + cli.attempted
    failed += cli.failed
    info = {"ops": len(records), "timed_s": wall, "op_tail_percentile": tail_pct,
            "setup_samples_s": setups,
            "cli_samples": cli.samples, "fail_frac": failed / attempted,
            "failures_by_class": dict(failures), "failure_messages": messages[:20],
            "op_kinds": op_kinds(records)}
    return metrics, attempted, failed, info


def run_traced(wl, args) -> tuple[dict, int, int, dict]:
    import layers
    import tracer as tr

    half = args.seconds / 2.0
    plain, plain_wall = run_phase(wl, args.seed, half, 0, wl.run)
    t = tr.Tracer()
    inst = tr.Instrumentation(t, layers.HOOKS)
    before = layers.cache_stats(inst.modules)
    roots: list[tuple[int, str]] = []

    def traced_op(inp):
        roots.append((len(t.spans), inp["kind"]))
        return t.run_op(wl.run, inp)

    with inst:
        traced, traced_wall = run_phase(wl, args.seed, half, len(plain), traced_op)
    after = layers.cache_stats(inst.modules)
    failures, messages = Counter(), []
    failed = check_records(wl, plain + traced, failures, messages)
    scenario = CliScenario(wl)
    scenario.sample()
    cli = scenario.metrics()
    summary = tr.summarize(t.spans)
    values = layers.layer_metrics(summary, t.counters, before, after, len(traced))
    untraced_rate, traced_rate = len(plain) / plain_wall, len(traced) / traced_wall
    op_total = sum(d for d, _ in summary["ops"])
    covered = sum(c for _, c in summary["ops"])
    values.update({k: cli[k] for k in ("cli.startup_s", "cli.compute_s", "cli.emit_s",
                                       "cli.bytes_identical")})
    values.update({"trace.ops_per_s_untraced": untraced_rate,
                   "trace.ops_per_s_traced": traced_rate,
                   "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
                   "trace.uncovered_frac": 1.0 - covered / op_total if op_total else 0.0})
    metrics = {name: values[name] for name, _ in layers.per_layer_spec()}
    attempted = len(plain) + len(traced) + scenario.attempted
    failed += scenario.failed
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{wl.name}_seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "error"],
                                      "spans": t.spans}))
    errors = {m: dict(v["errors"]) for m, v in summary["modules"].items() if v["errors"]}
    by_root = tr.self_by_root(t.spans)
    by_kind: dict[str, Counter] = {}
    for idx, kind in roots:
        by_kind.setdefault(kind, Counter()).update(by_root.get(idx, {}))
    ops_of_kind = Counter(kind for _, kind in roots)
    dominant = {kind: [(name, s / ops_of_kind[kind]) for name, s in c.most_common(4)]
                for kind, c in by_kind.items()}
    info = {"ops_untraced": len(plain), "ops_traced": len(traced), "spans": len(t.spans),
            "spans_file": str(spans_path.relative_to(ROOT)), "errors_by_class": errors,
            "self_s_per_op_by_kind": dominant,
            "fail_frac": failed / attempted, "failures_by_class": dict(failures),
            "failure_messages": messages[:20], "cli": cli,
            "functions": {k: v for k, v in sorted(summary["functions"].items())}}
    return metrics, attempted, failed, info


def run_one(args) -> int:
    from workloads import WORKLOADS

    import layers

    wl = WORKLOADS[args.workload]
    for inp in wl.warmup_inputs(args.seed):  # fills the caches before timing
        try:
            wl.run(inp)
        except Exception as exc:  # the timed ops of this kind fail and are counted
            print(f"warm-up {inp['kind']} raised {exc!r}", file=sys.stderr)
    if args.setup_probe:
        return 0
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, info = runner(wl, args)
    units = dict(layers.per_layer_spec() if args.trace else END_TO_END)
    print(f"== {wl.name} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"fail_frac: {failed / attempted:.6g} ratio ({failed}/{attempted} ops failed)")
    if not args.trace:
        print(f"op_tail_s is the p{info['op_tail_percentile']:.1f} of {info['ops']} ops")
    else:
        for kind, top in info["self_s_per_op_by_kind"].items():
            print(f"largest self times on {kind} ops: "
                  + ", ".join(f"{name} {s:.4g} s/op" for name, s in top))
    for msg in info["failure_messages"]:
        print(f"FAIL {msg}")
    diagnostics = {k: statistics.median(v) for k, v in wl.diagnostic_values().items()}
    for key, value in diagnostics.items():
        print(f"diagnostic {key} (median): {value:.6g}")
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "attempted": attempted, "failed": failed, "diagnostics": diagnostics,
              "info": info, "machine": machine_facts(args.seed), "layer_map": layers.LAYER_MAP}
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
