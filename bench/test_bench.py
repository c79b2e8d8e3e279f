"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json

import pytest

import run

harness, workloads = run.import_layers()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
KNOWN_FAILURES = {"freegroup/dyadic/p6"}  # SupportOverflowError in GroupPoly.norm_even


def test_self_time_subtracts_child_coverage():
    S = harness.Span
    spans = [
        S("root", 0.0, 10.0, None, "r"),
        S("a", 1.0, 4.0, 0, "r"),
        S("c", 2.0, 3.0, 1, "r"),
        S("b", 5.0, 9.0, 0, "r"),
        S("d", 5.0, 6.0, 3, "r"),
        S("e", 5.5, 7.0, 3, "r"),  # overlaps d: b's covered time is [5, 7]
        S("a", 11.0, 12.5, None, "r"),  # same name again: self times add up
    ]
    got = harness.self_times(spans)
    want = {"root": 3.0, "a": 2.0 + 1.5, "c": 1.0, "b": 2.0, "d": 1.0, "e": 1.5}
    assert got == pytest.approx(want)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metric_names_match_benchmark_json(workload):
    cases = workloads.build(workload, seed=2)
    traced = harness.run_pass(cases, True, "test")

    failed = {o.name for o in traced.outcomes if o.error}
    assert failed <= KNOWN_FAILURES, [o for o in traced.outcomes if o.error]

    # every span and counter a case records is reported under a declared name
    ctx = traced.ctx
    assert {s.name for s in ctx.spans} <= set(harness.LAYER_SPANS) | {harness.CASE_SPAN}
    assert set(ctx.counts) <= set(harness.COUNTERS)
    assert set(ctx.maxima) <= set(harness.MAXIMA)

    e2e = harness.end_to_end_metrics([traced], setup_s=1.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    layers = harness.traced_metrics([traced], [traced])
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: harness.layer_unit(k) for k in layers
    }


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
