"""Live observability: streaming deltas, the hub, the endpoint, gtpin top.

The conservation properties here are the load-bearing ones: heartbeat
deltas ship *cumulative* per-series state with per-source sequence
numbers, so the receiver-side merge must be idempotent, order
independent, and bit-exact against the worker registry's final values.
The endpoint tests then assert the acceptance criterion end to end: the
scraped totals equal the end-of-run merged telemetry exactly.
"""

import io
import json
import os
import queue
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry
from repro.faults import FaultPlan
from repro.gpu.device import HD4000
from repro.obs import events as obs_events
from repro.obs import live
from repro.obs.metrics import metric_name, parse_exposition
from repro.obs.top import render_top, run_top
from repro.parallel.pool import WORKER_ENV, _run_task, parallel_map
from repro.sampling.pipeline import profile_workload
from repro.telemetry.registry import Telemetry
from repro.telemetry.snapshot import DeltaAccumulator, DeltaTracker
from repro.workloads import load_app


@pytest.fixture
def hub():
    active = live.enable()
    yield active
    live.disable()


@pytest.fixture
def served_hub():
    active = live.enable(port=0)
    yield active
    live.disable()


def _url(hub, path):
    return f"http://127.0.0.1:{hub.server.port}{path}"


def _get(hub, path):
    with urllib.request.urlopen(_url(hub, path), timeout=5) as response:
        return response.read().decode()


# -- delta conservation properties -------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "gauge", "hist"]),
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)


def _apply_ops(tm, ops):
    for kind, name, value in ops:
        if kind == "inc":
            tm.inc(name, value)
        elif kind == "gauge":
            tm.observe(name, value)
        else:
            tm.observe_hist(name, value, "u")


def _capture_all(tm, tracker, ops, n_chunks):
    """Apply ``ops`` in ``n_chunks`` slices, capturing after each."""
    deltas = []
    size = max(1, len(ops) // n_chunks)
    for start in range(0, len(ops), size):
        _apply_ops(tm, ops[start:start + size])
        delta = tracker.capture(tm)
        if delta is not None:
            deltas.append(delta)
    final = tracker.capture(tm, final=True)
    if final is not None:
        deltas.append(final)
    return deltas


def _assert_conserves(acc, tm):
    """Accumulator totals must equal the registry's finals bit-exactly."""
    assert acc.counter_totals() == {
        name: c.value for name, c in tm.counters.counters.items()
    }
    gauges = acc.gauge_totals()
    assert set(gauges) == set(tm.counters.gauges)
    for name, gauge in tm.counters.gauges.items():
        got = gauges[name]
        assert (got.count, got.total, got.minimum, got.maximum) == (
            gauge.count, gauge.total, gauge.minimum, gauge.maximum
        )
        assert got.last == gauge.last
    hists = acc.histogram_totals()
    assert set(hists) == set(tm.counters.histograms)
    for name, hist in tm.counters.histograms.items():
        got = hists[name]
        assert (got.count, got.total, got.minimum, got.maximum) == (
            hist.count, hist.total, hist.minimum, hist.maximum
        )
        assert got.buckets == hist.buckets


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, data=st.data())
def test_delta_merge_is_exact_idempotent_and_order_independent(ops, data):
    tm = Telemetry()
    tracker = DeltaTracker("w0")
    deltas = _capture_all(
        tm, tracker, ops, n_chunks=data.draw(st.integers(1, 5))
    )
    assert deltas, "final capture must always produce a delta"

    order = data.draw(st.permutations(range(len(deltas))))
    duplicates = data.draw(
        st.lists(
            st.integers(0, len(deltas) - 1), min_size=0, max_size=5
        )
    )
    acc = DeltaAccumulator()
    for index in list(order) + duplicates:
        acc.apply(deltas[index])
    _assert_conserves(acc, tm)

    # Replaying the entire stream again changes nothing (idempotence).
    for delta in deltas:
        acc.apply(delta)
    _assert_conserves(acc, tm)


def test_delta_totals_sum_across_sources_exactly():
    acc = DeltaAccumulator()
    registries = []
    for worker in range(3):
        tm = Telemetry()
        tracker = DeltaTracker(f"w{worker}")
        _apply_ops(tm, [("inc", "jobs", 1.0 + worker)])
        tm.observe_hist("size", 2.0 * (worker + 1), "B")
        for delta in _capture_all(tm, tracker, [], 1):
            acc.apply(delta)
        registries.append(tm)
    totals = acc.counter_totals()
    assert totals["jobs"] == sum(
        r.counter_value("jobs") for r in registries
    )
    merged = acc.histogram_totals()["size"]
    assert merged.count == 3
    assert merged.minimum == 2.0
    assert merged.maximum == 6.0
    assert acc.sources() == {"w0", "w1", "w2"}
    acc.drop_source("w1")
    assert acc.counter_totals()["jobs"] == pytest.approx(1.0 + 3.0)


def test_stale_delta_never_regresses_a_newer_one():
    tm = Telemetry()
    tracker = DeltaTracker("w0")
    tm.inc("steps", 5)
    early = tracker.capture(tm)
    tm.inc("steps", 7)
    late = tracker.capture(tm, final=True)
    acc = DeltaAccumulator()
    assert acc.apply(late)
    assert not acc.apply(early)  # stale: every series already newer
    assert acc.counter_totals()["steps"] == 12.0
    assert acc.duplicates == 1


def test_tracker_ships_only_changed_series_and_event_tail():
    tm = Telemetry()
    with obs_events.session() as log:
        tracker = DeltaTracker("w0", task="demo")
        tm.inc("a")
        tm.inc("b")
        first = tracker.capture(tm, log)
        assert {c.name for c in first.counters} == {"a", "b"}
        tm.inc("a")
        log.warn("trouble", k=1)
        second = tracker.capture(tm, log)
        assert {c.name for c in second.counters} == {"a"}
        assert [e.name for e in second.events] == ["trouble"]
        assert second.seq == 1
        # Nothing changed: no heartbeat at all.
        assert tracker.capture(tm, log) is None
        final = tracker.capture(tm, log, final=True)
        assert final is not None and final.final


# -- the heartbeat path through _run_task ------------------------------------


def _noisy_task(n):
    tm = telemetry.get()
    for i in range(n):
        tm.inc("live.work")
        tm.observe_hist("live.sizes", i + 1.0, "B")
    obs_events.get().warn("live.trouble", n=n)
    return n


def test_run_task_ships_final_delta_over_the_side_channel():
    channel = queue.Queue()
    heartbeat = (channel, "src0", "noisy[0]", 0.02)
    try:
        result = _run_task(_noisy_task, (25,), True, heartbeat)
    finally:
        os.environ.pop(WORKER_ENV, None)
    assert result.value == 25
    assert result.final.source == "src0"
    deltas = []
    while not channel.empty():
        deltas.append(channel.get_nowait())
    assert deltas and deltas[-1].final
    acc = DeltaAccumulator()
    for delta in deltas:
        acc.apply(delta)
    assert acc.counter_totals()["live.work"] == 25.0
    hist = acc.histogram_totals()["live.sizes"]
    assert (hist.count, hist.minimum, hist.maximum) == (25, 1.0, 25.0)
    # The final delta in the task result carries the same finals as the
    # streamed ones.
    snap = {c.name: c.value for c in result.final.counters}
    assert snap["live.work"] == 25.0
    assert snap == acc.counter_totals()


# -- hub behavior ------------------------------------------------------------


def test_hub_progress_batches_and_health(hub):
    batch = hub.begin_batch("test.batch", 4)
    hub.task_done(batch)
    hub.task_done(batch, ok=False)
    doc = hub.health_doc()
    assert doc["tasks"] == {"done": 2, "total": 4, "failed": 1}
    assert doc["status"] == "running"
    assert doc["eta_seconds"] is not None
    hub.task_done(batch)
    hub.task_done(batch)
    hub.end_batch(batch)
    doc = hub.health_doc()
    assert doc["tasks"]["done"] == 4
    assert doc["status"] == "done"
    assert doc["eta_seconds"] is None


def test_hub_merges_parent_registry_with_unretired_sources(hub):
    with telemetry.session() as tm:
        tm.inc("demo.counter", 10)
        tracker = DeltaTracker("w7")
        worker_tm = Telemetry()
        worker_tm.inc("demo.counter", 5)
        hub.apply_delta(tracker.capture(worker_tm, final=True))
        parsed = parse_exposition(hub.metrics_text())
        name = metric_name("demo.counter") + "_total"
        assert parsed[name] == 15.0
        assert [w["source"] for w in hub.health_doc()["workers"]] == ["w7"]
        # Simulate the pool's end-of-task merge + retire: no double count.
        tm.inc("demo.counter", 5)
        hub.retire_source("w7")
        parsed = parse_exposition(hub.metrics_text())
        assert parsed[name] == 15.0
        assert hub.health_doc()["workers"] == []


def test_retire_source_drops_lane_and_is_idempotent(hub):
    tracker = DeltaTracker("w1")
    worker_tm = Telemetry()
    worker_tm.inc("retire.counter", 7)
    hub.apply_delta(tracker.capture(worker_tm))
    assert [w["source"] for w in hub.health_doc()["workers"]] == ["w1"]
    hub.retire_source("w1")
    assert hub.health_doc()["workers"] == []
    name = metric_name("retire.counter") + "_total"
    assert name not in parse_exposition(hub.metrics_text())
    # Retiring again -- or a source never seen -- must be a no-op.
    hub.retire_source("w1")
    hub.retire_source("never-registered")
    assert hub.health_doc()["workers"] == []


def test_recent_events_filter_by_level(hub):
    with obs_events.session() as log:
        log.debug("lane.debug", i=1)
        log.info("lane.info", i=2)
        log.warn("lane.warn", i=3)
        log.error("lane.error", i=4)
        default_tail = hub._recent_events()
        assert [e["name"] for e in default_tail] == [
            "lane.warn", "lane.error"
        ]
        everything = hub._recent_events(min_level="DEBUG")
        assert [e["name"] for e in everything] == [
            "lane.debug", "lane.info", "lane.warn", "lane.error"
        ]
        errors_only = hub._recent_events(min_level="ERROR")
        assert [e["name"] for e in errors_only] == ["lane.error"]


def test_recent_events_merge_shipped_worker_events(hub):
    # Worker-shipped events (via the delta side channel) merge with the
    # local log and dedup exactly; the level filter applies to local
    # records at read time.
    with obs_events.session() as log:
        log.warn("merge.local")
        tracker = DeltaTracker("w2")
        worker_tm = Telemetry()
        worker_log = obs_events.EventLog()
        worker_log.error("merge.shipped")
        hub.apply_delta(tracker.capture(worker_tm, log=worker_log))
        names = [e["name"] for e in hub._recent_events()]
    assert "merge.local" in names and "merge.shipped" in names


def test_disabled_hub_is_inert():
    assert live.get() is live.DISABLED_HUB
    assert not live.is_enabled()
    assert live.get().begin_batch("x", 3) == -1
    live.get().task_done(-1)
    live.get().retire_source("nope")


# -- the HTTP endpoint -------------------------------------------------------


def test_endpoint_serves_metrics_health_and_events(served_hub):
    with telemetry.session() as tm, obs_events.session() as log:
        tm.inc("endpoint.counter", 3)
        tm.observe_hist("endpoint.sizes", 7.0, "B")
        log.warn("endpoint.warned", k=2)
        served_hub.set_command("gtpin test")

        metrics = _get(served_hub, "/metrics")
        parsed = parse_exposition(metrics)
        assert parsed[metric_name("endpoint.counter") + "_total"] == 3.0
        assert parsed[metric_name("endpoint.sizes") + "_count"] == 1.0
        assert parsed[metric_name("endpoint.sizes") + "_min"] == 7.0
        assert metric_name("uptime_seconds") in metrics

        health = json.loads(_get(served_hub, "/health"))
        assert health["command"] == "gtpin test"
        assert health["events"]["counts"]["WARN"] == 1
        assert [e["name"] for e in health["events"]["recent"]] == [
            "endpoint.warned"
        ]

        events = json.loads(_get(served_hub, "/events"))
        assert [e["name"] for e in events] == ["endpoint.warned"]

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(served_hub, "/nope")
        assert err.value.code == 404


def test_endpoint_port_zero_binds_ephemeral(served_hub):
    assert served_hub.server.port > 0


def test_resolve_port_env(monkeypatch):
    monkeypatch.delenv(live.PORT_ENV, raising=False)
    assert live.resolve_port(None) is None
    assert live.resolve_port(9000) == 9000
    monkeypatch.setenv(live.PORT_ENV, "9100")
    assert live.resolve_port(None) == 9100
    monkeypatch.setenv(live.PORT_ENV, "nope")
    with pytest.raises(ValueError):
        live.resolve_port(None)


# -- gtpin top ---------------------------------------------------------------


def _sample_health():
    return {
        "status": "running",
        "command": "gtpin explore demo",
        "uptime_seconds": 12.5,
        "tasks": {"done": 3, "total": 10, "failed": 1},
        "eta_seconds": 42.0,
        "instructions": {"total": 1.5e6, "per_second": 1.2e5},
        "hit_rates": {"gpu_cache": 0.82},
        "active_spans": [
            {"name": "sampling.explore", "category": "sampling",
             "seconds": 3.2},
        ],
        "workers": [
            {"source": "b0.t1", "task": "score[1]", "age_seconds": 0.4,
             "heartbeats": 7, "final": False},
        ],
        "events": {
            "counts": {"DEBUG": 0, "INFO": 4, "WARN": 2, "ERROR": 0},
            "dropped": 0,
            "recent": [
                {"ts_unix": 1700000000.0, "level": "WARN",
                 "name": "fault.injected", "span_id": 3, "site": "jit.build"},
            ],
        },
        "flags": ["fault.injected"],
        "faults_injected": 2,
    }


def test_render_top_is_pure_and_complete():
    frame = render_top(_sample_health())
    for expected in (
        "gtpin explore demo", "3/10", "eta 42s", "120.00k/s",
        "gpu_cache 82%", "b0.t1", "score[1]", "fault.injected",
        "faults injected: 2", "sampling.explore",
    ):
        assert expected in frame, expected
    assert "\x1b" not in frame  # frames carry no escapes; the loop does


def test_run_top_once_renders_live_endpoint(served_hub):
    with telemetry.session() as tm:
        tm.inc("gtpin.instrumented_instructions", 1000)
        served_hub.set_command("gtpin once")
        out = io.StringIO()
        status = run_top(
            port=served_hub.server.port, once=True, stream=out
        )
    assert status == 0
    assert "gtpin once" in out.getvalue()
    assert "\x1b" not in out.getvalue()


def test_run_top_once_unreachable_is_an_error():
    out = io.StringIO()
    status = run_top(port=1, once=True, stream=out)
    assert status == 1
    assert "unreachable" in out.getvalue()


def test_run_top_once_server_disconnect_is_one_line_error():
    """A server that accepts then hangs up raises RemoteDisconnected
    (an http.client.HTTPException, not OSError); --once must turn it
    into the same one-line error, never a traceback."""
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def accept_and_close():
        try:
            conn, _ = listener.accept()
            conn.close()
        except OSError:
            pass

    thread = threading.Thread(target=accept_and_close, daemon=True)
    thread.start()
    try:
        out = io.StringIO()
        status = run_top(port=port, once=True, stream=out)
    finally:
        listener.close()
        thread.join(timeout=5)
    assert status == 1
    text = out.getvalue()
    assert "unreachable" in text
    assert len(text.strip().splitlines()) == 1
    assert "Traceback" not in text


# -- end-to-end: jobs=2 sweep under faults vs the endpoint -------------------

FAULT_SPEC = "seed=11;event.lost=0.4;trace.truncate=0.4"


def _profile_under_faults(app_name, scale, spec):
    app = load_app(app_name, scale=scale)
    with faults.session(FaultPlan.parse(spec)):
        workload = profile_workload(app, HD4000, 0)
    return workload.health.flags


@pytest.mark.slow
def test_endpoint_totals_match_merged_telemetry_under_parallel_faults():
    tasks = [
        ("cb-gaussian-buffer", 0.1, FAULT_SPEC),
        ("cb-gaussian-image", 0.1, FAULT_SPEC),
    ]
    with telemetry.session() as tm, obs_events.session() as log:
        hub = live.enable(port=0)
        try:
            outcomes = parallel_map(
                _profile_under_faults, tasks, jobs=2, label="live.fanout"
            )
            assert all(o.ok for o in outcomes), [o.error for o in outcomes]
            assert any(o.value for o in outcomes), "no degradation flags"

            parsed = parse_exposition(_get(hub, "/metrics"))
            health = json.loads(_get(hub, "/health"))
        finally:
            live.disable()

        # Acceptance: scraped totals equal merged telemetry EXACTLY.
        for name, counter in tm.counters.counters.items():
            metric = metric_name(name) + "_total"
            assert parsed[metric] == counter.value, name
        for name, hist in tm.counters.histograms.items():
            assert parsed[metric_name(name) + "_count"] == hist.count, name
            assert parsed[metric_name(name) + "_sum"] == hist.total, name
            assert parsed[metric_name(name) + "_min"] == hist.minimum, name
            assert parsed[metric_name(name) + "_max"] == hist.maximum, name

        assert health["tasks"] == {"done": 2, "total": 2, "failed": 0}
        instructions = tm.counter_value(
            "gtpin.instrumented_instructions"
        ) + tm.counter_value("simulation.stepped_instructions")
        assert health["instructions"]["total"] == instructions
        assert health["instructions"]["per_second"] > 0

        # Fault incidents that crossed the process boundary are visible.
        warn_count = len(
            [r for r in log.records() if r.name == "fault.injected"]
        )
        assert warn_count
        assert health["events"]["counts"]["WARN"] >= warn_count


def _count_then_maybe_die(die):
    telemetry.get().inc("live.dead_worker", 10)
    time.sleep(0.3)  # several heartbeats ship before the exit
    if die:
        os._exit(1)
    return die


def test_batch_retires_lanes_of_a_worker_that_died(monkeypatch):
    """A killed worker ships heartbeats but never a final delta; the
    batch must still retire its source, or the hub keeps the lane and
    double counts against the merged registry forever."""
    monkeypatch.setenv(live.INTERVAL_ENV, "0.05")
    name = metric_name("live.dead_worker") + "_total"
    with telemetry.session() as tm:
        hub = live.enable()
        try:
            outcomes = parallel_map(
                _count_then_maybe_die, [(False,), (True,)], jobs=2
            )
            assert not outcomes[1].ok
            assert hub.health_doc()["workers"] == []
            parsed = parse_exposition(hub.metrics_text())
        finally:
            live.disable()
        assert parsed.get(name, 0.0) == tm.counter_value("live.dead_worker")


def test_hub_shipped_events_are_bounded_and_retire_with_their_source():
    hub = live.LiveHub()
    worker_tm = Telemetry()
    for source, floods in (("w0", live.EVENT_TAIL), ("w1", 5)):
        tracker = DeltaTracker(source)
        worker_log = obs_events.EventLog()
        for i in range(floods):
            worker_log.warn("flood", source=source, i=i)
            hub.apply_delta(tracker.capture(worker_tm, log=worker_log))
    shipped = hub.accumulator.events()
    assert len(shipped) == live.EVENT_TAIL  # the oldest w0 records went
    assert [dict(r.fields)["source"] for r in shipped].count("w1") == 5
    hub.retire_source("w1")
    remaining = hub.accumulator.events()
    assert len(remaining) == live.EVENT_TAIL - 5
    assert {dict(r.fields)["source"] for r in remaining} == {"w0"}
