"""Worker -> parent telemetry: one delta type, one capture, one fold.

The parallel execution engine (:mod:`repro.parallel`) fans sweep stages
out to worker processes.  Each worker runs under its own fresh registry
and event log (:func:`repro.telemetry.session`), and everything it
reports to the parent travels as a :class:`TelemetryDelta`:

* while the task runs, optional *heartbeats* (:class:`DeltaTracker`)
  carry the cumulative state of the series that changed since the
  previous heartbeat plus a WARN/ERROR event tail -- the live
  endpoint's in-flight view (:mod:`repro.obs.live`);
* when the task ends, the *final* delta (:func:`capture_snapshot`)
  carries every series' cumulative state with gauge samples, every
  completed span, every event record, and the pid and clock anchors
  span alignment needs.  It is the task's whole end-of-task payload.

The parent folds the final delta into its live registry with
:func:`merge_snapshot` -- spans keep their parent/child structure *and
their ids* (span ids are namespaced by a per-process random high word,
so cross-process collisions cannot happen and no remapping is needed),
worker threads get synthetic negative thread ids so they render as
separate tracks -- so ``gtpin trace`` produces one complete Chrome
trace whether the sweep ran serially or across N processes.  Counter,
gauge and histogram state goes through :func:`fold_series`, the one
fold, which also computes :class:`DeltaAccumulator` totals and the live
hub's merged view.

Timestamps are aligned via each registry's wall-clock creation time:
``perf_counter_ns`` origins are process-local, so a worker span's offset
from its own origin is shifted by the wall-clock delta between the two
registries before being re-based on the parent's origin.
"""

from __future__ import annotations

import collections
import dataclasses
import os
from typing import Any, Iterable

from repro.telemetry.counters import CounterSet, Sample
from repro.telemetry.histograms import Histogram, HistogramSnapshot
from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import SpanRecord

#: Recent-event tail length: the shipped worker events the live hub
#: keeps, one heartbeat's WARN/ERROR tail, and the tail served by the
#: live endpoint's ``/events`` and ``/health``.
EVENT_TAIL = 50


@dataclasses.dataclass(frozen=True)
class CounterSnapshot:
    """Cumulative value of one worker-side counter.

    ``ops`` is the number of ``inc`` calls behind the value; the
    self-overhead attribution layer costs observability by operation
    count, so it must survive the process boundary too.
    """

    name: str
    value: float
    ops: int = 0


@dataclasses.dataclass(frozen=True)
class GaugeSnapshot:
    """Summary statistics of one worker-side gauge (``samples`` only in
    the final delta)."""

    name: str
    last: float
    count: int
    total: float
    minimum: float
    maximum: float
    samples: tuple[Sample, ...] = ()


# Shipping cumulative state (rather than arithmetic increments) is what
# makes the receiver-side merge *conservation-exact* under float sums
# and *idempotent* under retransmission: the receiver keeps, per
# (source, series), the state with the highest sequence number, so
# applying a delta twice -- or applying an older delta after a newer
# one -- changes nothing, and the final aggregate equals the worker's
# true final registry values bit-for-bit.


@dataclasses.dataclass(frozen=True)
class TelemetryDelta:
    """Cumulative state of a worker's series, stamped per source.

    A heartbeat carries only the series that changed and a WARN/ERROR
    event tail.  The ``final`` delta carries everything: every series,
    gauge samples, ``spans``, every event record, and the ``pid`` /
    clock anchors :func:`merge_snapshot` re-bases span times with.
    """

    source: str = ""
    seq: int = 0
    counters: tuple[CounterSnapshot, ...] = ()
    gauges: tuple[GaugeSnapshot, ...] = ()
    histograms: tuple[HistogramSnapshot, ...] = ()
    #: :class:`~repro.obs.events.EventRecord` instances.
    events: tuple = ()
    task: str = ""
    final: bool = False
    spans: tuple[SpanRecord, ...] = ()
    pid: int = 0
    time_origin_ns: int = 0
    created_unix_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.spans)


def _counter_state(counter: Any) -> CounterSnapshot:
    return CounterSnapshot(
        name=counter.name, value=counter.value, ops=counter.ops
    )


def _gauge_state(gauge: Any, samples: bool) -> GaugeSnapshot:
    return GaugeSnapshot(
        name=gauge.name,
        last=gauge.last,
        count=gauge.count,
        total=gauge.total,
        minimum=gauge.minimum,
        maximum=gauge.maximum,
        samples=tuple(gauge.samples) if samples else (),
    )


def capture_snapshot(telemetry: Telemetry, log: Any = None) -> TelemetryDelta:
    """The one full capture: a live registry (and event ``log``) reduced
    to a final :class:`TelemetryDelta`."""
    counters = telemetry.counters
    return TelemetryDelta(
        counters=tuple(
            _counter_state(c) for c in counters.counters.values()
        ),
        gauges=tuple(
            _gauge_state(g, samples=True) for g in counters.gauges.values()
        ),
        histograms=tuple(
            h.snapshot() for h in counters.histograms.values()
        ),
        events=tuple(log.records()) if log is not None else (),
        final=True,
        spans=tuple(telemetry.spans()),
        pid=os.getpid(),
        time_origin_ns=telemetry.time_origin_ns,
        created_unix_seconds=telemetry.created_unix_seconds,
    )


def fold_series(
    target: CounterSet,
    counters: Iterable[Any] = (),
    gauges: Iterable[Any] = (),
    histograms: Iterable[Histogram | HistogramSnapshot] = (),
    shift_ns: int = 0,
) -> None:
    """The one fold: add cumulative series states into ``target``.

    Accepts snapshots and live series alike.  Counters add value and
    operation count; gauges add count and total, widen min/max, take
    ``last`` and append samples shifted by ``shift_ns``; histograms
    merge bucket-wise.
    """
    for counter in counters:
        merged_counter = target.counter(counter.name)
        merged_counter.inc(counter.value)
        # inc() tallied one op for the fold itself; replace that with
        # the source's true operation count.
        merged_counter.ops += counter.ops - 1
    for gauge in gauges:
        merged = target.gauge(gauge.name)
        if gauge.count == 0:
            continue
        merged.last = gauge.last
        merged.count += gauge.count
        merged.total += gauge.total
        merged.minimum = min(merged.minimum, gauge.minimum)
        merged.maximum = max(merged.maximum, gauge.maximum)
        # Unshifted samples (in-process folds) are shared, not rebuilt.
        merged.samples.extend(
            (Sample(s.ts_ns + shift_ns, s.value) for s in gauge.samples)
            if shift_ns
            else gauge.samples
        )
    for hist in histograms:
        target.histogram(hist.name, hist.unit).merge(hist)


def merge_snapshot(
    target: Telemetry,
    payload: TelemetryDelta,
    parent_span_id: int | None = None,
) -> None:
    """Fold a worker's final delta into ``target``.

    Span ids are globally unique (each collector namespaces them with a
    per-process random high word), so worker spans keep their ids *and*
    their parent references verbatim -- including cross-process parents
    installed by an activated :class:`~repro.telemetry.context
    .TraceContext`.  Only parentless roots are re-parented under
    ``parent_span_id`` (typically the fan-out span that dispatched the
    task), so the merged trace stays one tree even for workers that ran
    without a trace context.  Event records are not touched here; the
    pool absorbs them into the parent's event log.
    """
    if not getattr(target, "enabled", False):
        return
    delta_ns = int(
        round(
            (payload.created_unix_seconds - target.created_unix_seconds)
            * 1e9
        )
    ) + (target.time_origin_ns - payload.time_origin_ns)

    # Synthetic negative thread ids: real thread idents are positive, so
    # worker tracks can never collide with (or interleave into) parent
    # threads' tracks, even under fork where idents are inherited.
    thread_map: dict[int, int] = {}

    def remap_thread(thread_id: int) -> int:
        if thread_id not in thread_map:
            thread_map[thread_id] = -(
                payload.pid * 1000 + len(thread_map) + 1
            )
        return thread_map[thread_id]

    collector = target._collector
    for span in payload.spans:
        collector.record(
            SpanRecord(
                span_id=span.span_id,
                parent_id=(
                    span.parent_id
                    if span.parent_id is not None
                    else parent_span_id
                ),
                name=span.name,
                category=span.category,
                start_ns=span.start_ns + delta_ns,
                end_ns=span.end_ns + delta_ns,
                thread_id=remap_thread(span.thread_id),
                depth=span.depth,
                args=dict(span.args),
                trace_id=span.trace_id,
            )
        )
    fold_series(
        target.counters, payload.counters, payload.gauges,
        payload.histograms, shift_ns=delta_ns,
    )


class DeltaTracker:
    """Worker-side capture state: successive heartbeat captures ship
    only the series that changed since the previous call; the final
    capture ships everything."""

    def __init__(self, source: str, task: str = "") -> None:
        self.source = source
        self.task = task
        self.seq = 0
        self._counter_marks: dict[str, tuple[float, int]] = {}
        self._gauge_marks: dict[str, int] = {}
        self._hist_marks: dict[str, int] = {}
        self._event_watermark = 0.0

    def capture(
        self, telemetry: Telemetry, log=None, final: bool = False
    ) -> TelemetryDelta | None:
        """One heartbeat from a live registry; ``None`` when nothing
        changed.  ``final=True`` returns :func:`capture_snapshot`'s full
        delta stamped with this source."""
        if final:
            delta = capture_snapshot(telemetry, log)
        else:
            delta = self._changed(telemetry, log)
            if delta is None:
                return None
        delta = dataclasses.replace(
            delta, source=self.source, seq=self.seq, task=self.task
        )
        self.seq += 1
        return delta

    def _changed(self, telemetry: Telemetry, log) -> TelemetryDelta | None:
        counters = telemetry.counters
        changed_counters = []
        for name, counter in list(counters.counters.items()):
            mark = (counter.value, counter.ops)
            if self._counter_marks.get(name) != mark:
                self._counter_marks[name] = mark
                changed_counters.append(_counter_state(counter))
        changed_gauges = []
        for name, gauge in list(counters.gauges.items()):
            if self._gauge_marks.get(name) != gauge.count:
                self._gauge_marks[name] = gauge.count
                changed_gauges.append(_gauge_state(gauge, samples=False))
        changed_hists = []
        for name, hist in list(counters.histograms.items()):
            if self._hist_marks.get(name) != hist.count:
                self._hist_marks[name] = hist.count
                changed_hists.append(hist.snapshot())
        fresh_events: tuple = ()
        if log is not None and getattr(log, "enabled", False):
            recent = [
                r
                for r in log.records(min_level="WARN")
                if r.ts_unix > self._event_watermark
            ][-EVENT_TAIL:]
            if recent:
                self._event_watermark = max(r.ts_unix for r in recent)
                fresh_events = tuple(recent)
        if not (
            changed_counters or changed_gauges or changed_hists
            or fresh_events
        ):
            return None
        return TelemetryDelta(
            counters=tuple(changed_counters),
            gauges=tuple(changed_gauges),
            histograms=tuple(changed_hists),
            events=fresh_events,
        )


_KINDS = ("counters", "gauges", "histograms")


class DeltaAccumulator:
    """Receiver-side aggregate over any number of delta sources.

    ``apply`` is idempotent and order-independent: per (source, series)
    only the highest-sequence cumulative state is retained, so
    duplicated or reordered heartbeats cannot inflate or corrupt the
    aggregate.  Totals across sources are exact sums of each source's
    latest state -- after every source's final delta has arrived they
    equal the end-of-run merged telemetry exactly.  Shipped event
    records are kept for display only, bounded to the newest
    :data:`EVENT_TAIL`.
    """

    def __init__(self) -> None:
        #: (source, kind, series name) -> (seq, cumulative state).
        self._latest: dict[tuple[str, str, str], tuple[int, Any]] = {}
        self._event_seqs: dict[str, set[int]] = {}
        self._events: collections.deque[tuple[str, Any]] = (
            collections.deque(maxlen=EVENT_TAIL)
        )
        self.applied = 0
        self.duplicates = 0

    def apply(self, delta: TelemetryDelta) -> bool:
        """Fold one delta in; ``False`` when every series in it was
        already known at an equal-or-newer sequence number."""
        fresh = False
        for kind in _KINDS:
            for state in getattr(delta, kind):
                key = (delta.source, kind, state.name)
                held = self._latest.get(key)
                if held is None or held[0] < delta.seq:
                    self._latest[key] = (delta.seq, state)
                    fresh = True
        if delta.events:
            seen = self._event_seqs.setdefault(delta.source, set())
            if delta.seq not in seen:
                seen.add(delta.seq)
                self._events.extend(
                    (delta.source, record) for record in delta.events
                )
                fresh = True
        if fresh:
            self.applied += 1
        else:
            self.duplicates += 1
        return fresh

    def drop_source(self, source: str) -> None:
        """Forget one source's contribution, events included (after its
        final delta has been merged into a real registry, keeping it
        would double count)."""
        for key in [k for k in self._latest if k[0] == source]:
            del self._latest[key]
        self._event_seqs.pop(source, None)
        kept = [item for item in self._events if item[0] != source]
        self._events.clear()
        self._events.extend(kept)

    def sources(self) -> set[str]:
        return {key[0] for key in self._latest}

    def events(self) -> list:
        """Shipped event records still held, oldest first."""
        return [record for _, record in self._events]

    def fold_into(self, target: CounterSet) -> CounterSet:
        """Fold every source's latest state into ``target`` in sequence
        order, so a gauge's ``last`` comes from its highest-sequence
        capture."""
        states: dict[str, list[Any]] = {kind: [] for kind in _KINDS}
        for (_, kind, _), (_, state) in sorted(
            self._latest.items(), key=lambda item: (item[1][0], item[0])
        ):
            states[kind].append(state)
        fold_series(target, **states)
        return target

    def counter_totals(self) -> dict[str, float]:
        """Per-counter sums of every source's latest cumulative value."""
        folded = self.fold_into(CounterSet())
        return {name: c.value for name, c in folded.counters.items()}

    def gauge_totals(self) -> dict[str, Any]:
        """Per-gauge aggregate across sources."""
        return self.fold_into(CounterSet()).gauges

    def histogram_totals(self) -> dict[str, Histogram]:
        """Per-histogram merge of every source's latest snapshot."""
        return self.fold_into(CounterSet()).histograms
