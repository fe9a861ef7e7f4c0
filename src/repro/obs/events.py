"""Leveled structured event log, correlated with the telemetry trace.

Spans and counters describe the *shape* of a run; events describe its
*incidents*: a fault injected here, a dispatch dropped there, a profile
cache bypassed, an empty cluster reseeded.  Each event is one
:class:`EventRecord` -- a level, a dotted name, a wall-clock timestamp,
free-form scalar fields, and the id of the telemetry span that was open
when it fired -- so ``jq`` can answer "which kernel's span absorbed the
event.lost faults" without parsing prose.

The registry mirrors :mod:`repro.telemetry.registry` exactly: one
process-global active log, a no-op :data:`DISABLED_EVENTS` singleton by
default, ``enable()/disable()/session()`` to switch.  Emit sites guard
on ``log.enabled`` where they sit inside hot loops, so the off cost is
one attribute check.

Worker processes run their own session; every record rides back in the
task's final :class:`~repro.telemetry.snapshot.TelemetryDelta` next to
the worker's spans and series, and the pool absorbs them into the
parent's log (see :mod:`repro.parallel.pool`), so the merged log is
complete under ``--jobs N``.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import json
import os
import threading
import time
from typing import IO, Any, Iterator

from repro import telemetry

#: Recognized severity levels, in increasing order.
LEVELS = ("DEBUG", "INFO", "WARN", "ERROR")

#: Ring-buffer capacity override (events kept in memory per log).
CAPACITY_ENV = "REPRO_EVENTS_CAP"

#: Default ring-buffer capacity.  Week-long runs emit events without
#: bound; the ring keeps the newest ``DEFAULT_CAPACITY`` and counts the
#: rest in ``dropped`` (mirrored as the ``events.dropped`` telemetry
#: counter), so the log's memory stays flat no matter how long the run.
DEFAULT_CAPACITY = 65536

#: Cap of the WARN/ERROR reserve: incidents evicted from the main ring
#: are parked here instead of lost, so high-volume DEBUG/INFO chatter
#: can never flush a run's few important records (fault injections,
#: degradations) out of reports and the live endpoint.
INCIDENT_RESERVE = 1024

_LEVEL_RANK = {level: rank for rank, level in enumerate(LEVELS)}
_WARN_RANK = _LEVEL_RANK["WARN"]


@dataclasses.dataclass(frozen=True)
class EventRecord:
    """One structured event (picklable for cross-process shipping)."""

    ts_unix: float
    level: str
    name: str
    span_id: int | None
    fields: tuple[tuple[str, Any], ...]

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "ts_unix": self.ts_unix,
            "level": self.level,
            "name": self.name,
            "span_id": self.span_id,
        }
        out.update(self.fields)
        return out


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _resolve_capacity(capacity: int | None) -> int:
    if capacity is not None:
        return max(1, int(capacity))
    raw = os.environ.get(CAPACITY_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(
                f"{CAPACITY_ENV} must be an integer, got {raw!r}"
            ) from None
    return DEFAULT_CAPACITY


class EventLog:
    """A live (recording) event log.

    Storage is a bounded ring (:data:`DEFAULT_CAPACITY` records, or the
    ``REPRO_EVENTS_CAP`` override): when full, the oldest record is
    evicted to admit the newest and ``dropped`` increments -- so the log
    of an arbitrarily long run occupies bounded memory while the *count*
    of what was lost stays exact.  Eviction is severity-aware: a
    WARN/ERROR record pushed out of the main ring parks in a small
    bounded reserve (:data:`INCIDENT_RESERVE`) instead of vanishing, so
    chatty DEBUG loops cannot flush the incidents that reports and the
    live endpoint exist to surface.
    """

    enabled = True

    def __init__(self, capacity: int | None = None) -> None:
        self._lock = threading.Lock()
        self.capacity = _resolve_capacity(capacity)
        self._records: collections.deque[EventRecord] = collections.deque()
        self._reserve_capacity = min(INCIDENT_RESERVE, self.capacity)
        self._reserve: collections.deque[EventRecord] = collections.deque()
        #: Records truly lost (evicted past the reserve); exact forever.
        self.dropped = 0
        # Absorbed worker records may carry timestamps older than
        # already-recorded parent events; sort lazily on read.
        self._needs_sort = False

    def _drop_one(self) -> None:
        self.dropped += 1
        tm = telemetry.get()
        if tm.enabled:
            tm.inc("events.dropped")

    def _admit(self, record: EventRecord) -> None:
        """Append under the lock, evicting when the ring is full."""
        if len(self._records) >= self.capacity:
            evicted = self._records.popleft()
            if _LEVEL_RANK[evicted.level] >= _WARN_RANK:
                if len(self._reserve) >= self._reserve_capacity:
                    self._reserve.popleft()
                    self._drop_one()
                self._reserve.append(evicted)
            else:
                self._drop_one()
        self._records.append(record)

    def emit(self, level: str, name: str, **fields: Any) -> None:
        """Record one event at ``level`` (one of :data:`LEVELS`)."""
        if level not in _LEVEL_RANK:
            raise ValueError(
                f"level must be one of {LEVELS}, got {level!r}"
            )
        record = EventRecord(
            ts_unix=time.time(),
            level=level,
            name=name,
            span_id=telemetry.get().current_span_id(),
            fields=tuple(
                (key, _scalar(value)) for key, value in fields.items()
            ),
        )
        with self._lock:
            self._admit(record)

    def debug(self, name: str, **fields: Any) -> None:
        self.emit("DEBUG", name, **fields)

    def info(self, name: str, **fields: Any) -> None:
        self.emit("INFO", name, **fields)

    def warn(self, name: str, **fields: Any) -> None:
        self.emit("WARN", name, **fields)

    def error(self, name: str, **fields: Any) -> None:
        self.emit("ERROR", name, **fields)

    def records(self, min_level: str = "DEBUG") -> list[EventRecord]:
        """All retained events at or above ``min_level``, chronological.

        Local emissions are already time-ordered; after an
        :meth:`absorb` the merged deque is re-sorted by timestamp
        (stable, so same-timestamp records keep their per-source
        emission order) -- interleaved worker/parent events therefore
        read chronologically in JSONL exports and reports.
        """
        floor = _LEVEL_RANK[min_level]
        with self._lock:
            if self._needs_sort:
                self._records = collections.deque(
                    sorted(self._records, key=lambda r: r.ts_unix)
                )
                self._needs_sort = False
            if self._reserve:
                # Reserved incidents predate everything still in the
                # main ring (they were evicted first); listing them
                # ahead keeps the stable sort's tie order = admit order.
                merged = sorted(
                    list(self._reserve) + list(self._records),
                    key=lambda r: r.ts_unix,
                )
            else:
                merged = self._records
            return [r for r in merged if _LEVEL_RANK[r.level] >= floor]

    def absorb(self, records: Iterator[EventRecord] | list[EventRecord]) -> None:
        """Fold shipped worker records in.

        Worker wall clocks are comparable to the parent's (both are
        ``time.time``), so absorbed records merge chronologically with
        local ones -- the sort happens lazily on the next read.
        """
        with self._lock:
            absorbed = False
            for record in records:
                self._admit(record)
                absorbed = True
            if absorbed:
                self._needs_sort = True

    def __len__(self) -> int:
        return len(self._records) + len(self._reserve)


class DisabledEventLog:
    """The no-op singleton active by default."""

    enabled = False
    dropped = 0
    capacity = 0

    def emit(self, level: str, name: str, **fields: Any) -> None:
        pass

    def debug(self, name: str, **fields: Any) -> None:
        pass

    def info(self, name: str, **fields: Any) -> None:
        pass

    def warn(self, name: str, **fields: Any) -> None:
        pass

    def error(self, name: str, **fields: Any) -> None:
        pass

    def records(self, min_level: str = "DEBUG") -> list[EventRecord]:
        return []

    def absorb(self, records: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The one disabled log (identity-comparable in tests).
DISABLED_EVENTS = DisabledEventLog()

_active: EventLog | DisabledEventLog = DISABLED_EVENTS


def get() -> EventLog | DisabledEventLog:
    """The active event log.  Hot paths hoist this once per operation."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def enable(capacity: int | None = None) -> EventLog:
    """Activate a fresh recording log and return it."""
    global _active
    _active = EventLog(capacity)
    return _active


def disable() -> None:
    """Deactivate recording; the no-op singleton becomes active again."""
    global _active
    _active = DISABLED_EVENTS


@contextlib.contextmanager
def session(capacity: int | None = None) -> Iterator[EventLog]:
    """Enable for a ``with`` block, then restore the previous log."""
    global _active
    previous = _active
    _active = EventLog(capacity)
    try:
        yield _active
    finally:
        _active = previous


def write_events_jsonl(
    log: EventLog | DisabledEventLog,
    path_or_file: str | IO[str],
    min_level: str = "DEBUG",
) -> None:
    """One JSON object per event line -- grep/jq-friendly."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as out:
            write_events_jsonl(log, out, min_level)
        return
    for record in log.records(min_level):
        path_or_file.write(json.dumps(record.to_json()))
        path_or_file.write("\n")
