"""Unit tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

import tracer as tracing


def _originals() -> dict[tuple[str, str], object]:
    originals = {}
    for places in tracing.LAYER_FUNCTIONS.values():
        for module, path in places:
            owner, attr = tracing.resolve_place(module, path)
            originals[(module, path)] = owner.__dict__[attr]
    return originals


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 6.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("worker-a", 1.0, 5.0, 0),
        ("worker-b", 3.0, 8.0, 0),
        ("late", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_span_records_parent_and_failure():
    tracer = tracing.Tracer()
    with tracer.span("outer", app="a"):
        with pytest.raises(RuntimeError):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    outer, inner = tracer.spans
    assert outer[3] == -1 and inner[3] == 0
    assert inner[5] and not outer[5]
    assert inner[6] == "a"
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


# -- wrappers ----------------------------------------------------------------


def test_tracer_restores_every_patched_function():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer:
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
        assert len(tracer.patched_places()) == len(before)
    assert _originals() == before
    assert tracer.patched_places() == []


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(KeyError):
        with tracing.Tracer():
            raise KeyError("inside the traced run")
    assert _originals() == before


def test_wrapped_call_is_recorded_and_returns_its_result():
    from repro.workloads import suite

    tracer = tracing.Tracer()
    with tracer:
        app = suite.load_app("cb-gaussian-image", scale=0.05)
    assert app.name == "cb-gaussian-image"
    assert [row[0] for row in tracer.spans] == ["workloads.load"]


def test_kmeans_degenerate_count_reproduces_the_recorded_baseline():
    """cb-gaussian-buffer, scale 0.25, seed 0, default SimPoint options:
    528 of 900 k-means runs ask for more clusters than distinct points
    (the count recorded before the k range is clamped)."""
    from repro.gpu.device import HD4000
    from repro.sampling import pipeline
    from repro.workloads import suite

    app = suite.load_app("cb-gaussian-buffer", scale=0.25)
    workload = pipeline.profile_workload(app, HD4000, 0)
    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("bench.app", app=app.name):
            pipeline.explore_application(workload, jobs=1)
    assert tracer.kmeans_by_app[app.name] == [900, 528]


# -- workload inputs ---------------------------------------------------------


def test_serve_job_mix_is_the_same_for_every_seed():
    from collections import Counter

    from workloads import ServeColdWarm

    workload = ServeColdWarm()
    mixes = {
        seed: [(spec.kind, spec.app) for spec in workload.specs(seed)]
        for seed in range(5)
    }
    assert len({tuple(mix) for mix in mixes.values()}) > 1
    kinds = [Counter(kind for kind, _ in mix) for mix in mixes.values()]
    apps = [Counter(app for _, app in mix) for mix in mixes.values()]
    assert all(k == kinds[0] for k in kinds) and all(a == apps[0] for a in apps)
    trial_seeds = [spec.seed for seed in range(5) for spec in workload.specs(seed)]
    assert len(set(trial_seeds)) == len(trial_seeds)


# -- metric names ------------------------------------------------------------


def test_printed_metrics_match_benchmark_json():
    import json
    import pathlib
    import types

    import layers
    import run

    spec = json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json")
        .read_text()
    )
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    one_pass = types.SimpleNamespace(cpu_s=1.0, loop_s=0.02, values={})
    printed = layers.layer_metrics(tracing.Tracer(), one_pass, one_pass)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in printed.items()
    }
