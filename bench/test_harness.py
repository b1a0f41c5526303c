"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import run

run.prepare()

import layers  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, PredictRows  # noqa: E402

from cubelab import experiments, genfun  # noqa: E402


def _namespaces():
    mods = [importlib.import_module(f"cubelab.{m}") for m in tr.MODULES]
    return mods + [importlib.import_module("cubelab")]


def test_self_time_subtracts_nested_children():
    spans = [
        ("op", 0.0, 10.0, -1, None),
        ("arcs.a", 1.0, 4.0, 0, None),
        ("genfun.b", 2.0, 3.0, 1, None),
        ("genfun.c", 5.0, 9.0, 0, None),
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    summary = tr.summarize(spans)
    assert summary["modules"]["genfun"]["self_s"] == pytest.approx(5.0)
    assert summary["modules"]["arcs"]["self_s"] == pytest.approx(2.0)
    assert summary["ops"] == [[10.0, pytest.approx(7.0)]]


def test_overlapping_children_are_covered_once():
    spans = [("p.x", 0.0, 10.0, -1, None), ("q.y", 1.0, 6.0, 0, None), ("q.z", 4.0, 8.0, 0, None)]
    assert tr.self_times(spans)[0] == pytest.approx(3.0)


def test_errors_count_only_where_they_leave_a_module():
    spans = [
        ("op", 0.0, 5.0, -1, None),
        ("arcs.outer", 0.5, 4.0, 0, "ValueError"),
        ("arcs.inner", 1.0, 2.0, 1, "ValueError"),
        ("genfun.leaf", 1.2, 1.5, 2, "ValueError"),
    ]
    summary = tr.summarize(spans)
    assert summary["modules"]["arcs"]["errors"] == Counter({"ValueError": 1})
    assert summary["modules"]["genfun"]["errors"] == Counter({"ValueError": 1})


def test_wrap_and_restore_leave_every_binding_identical():
    before = [dict(vars(m)) for m in _namespaces()]
    arcs = importlib.import_module("cubelab.arcs")
    original = (arcs.weyl_sum, arcs._batch_rule, arcs._smooth_count, genfun.weyl_sum)
    with tr.Instrumentation(tr.Tracer()):
        assert arcs.weyl_sum is not original[0]
        assert arcs._batch_rule is not original[1]
        assert arcs._smooth_count is not original[2]
        assert arcs.weyl_sum is genfun.weyl_sum  # one wrapper per function
        assert arcs.weyl_sum.__wrapped__ is original[3]
    after = [dict(vars(m)) for m in _namespaces()]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_spans_nest_through_patched_module_bindings():
    t = tr.Tracer()
    spec = genfun.interval_spec(0, 10)
    with tr.Instrumentation(t, layers.HOOKS):
        t.run_op(genfun.weyl_sum, 0.25, spec)
    names = [(s[0], s[3]) for s in t.spans]
    assert names == [("op", -1), ("genfun.weyl_sum", 0), ("genfun.fractional_phases", 1)]
    assert t.counters["genfun.weyl_sum.terms"] == 10


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)


def test_cli_rows_compare_at_tolerance(tmp_path: Path):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    want.write_text("# manifest: x\nn,v\n3,0.5\n")
    got.write_text("# manifest: x\nn,v\n3,0.50000000001\n")
    assert run.compare_output(got, want, (1e-9, 0.0)) == (True, False)
    got.write_text("# manifest: x\nn,v\n4,0.5\n")
    assert run.compare_output(got, want, (1e-9, 0.0)) == (False, False)


def _keyed_ops(wl, records) -> int:
    return sum(isinstance(wl.family(inp["kind"]), PredictRows) for inp, *_ in records)


def test_forced_wrong_output_counts_as_failure(monkeypatch):
    wl = WORKLOADS["counting"]
    real = experiments.count_r

    def off_by_one(n, theta, allow_zero=False):
        rep = real(n, theta, allow_zero)
        return type(rep)(n=rep.n, theta=rep.theta, count=rep.count + 1, variant=rep.variant)

    monkeypatch.setattr(experiments, "count_r", off_by_one)
    records, _ = run.run_phase(wl, 5, 1e-9, 0, wl.run)
    failures = Counter()
    failed = run.check_records(wl, records, failures, [])
    assert len(records) == len(wl.cycle)
    assert failed == _keyed_ops(wl, records) > 0
    assert failures == Counter({"wrong_output": failed})


def test_raised_error_counts_as_failure_by_class(monkeypatch):
    wl = WORKLOADS["counting"]

    def boom(*args, **kwargs):
        raise OverflowError("forced")

    monkeypatch.setattr(experiments, "count_r", boom)
    records, _ = run.run_phase(wl, 5, 1e-9, 0, wl.run)
    failures = Counter()
    failed = run.check_records(wl, records, failures, [])
    assert failed == _keyed_ops(wl, records) > 0
    assert failures == Counter({"OverflowError": failed})


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_spec()
    assert len(spec["per_layer"]) <= 128
