"""SQLite-backed run ledger: every run leaves a durable record.

The paper's workflow is comparative -- a design-space sweep is only as
useful as the ability to line two runs up next to each other.  The
in-memory telemetry registry dies with the process, so this module
persists the *summary* of each profile/simulate/serve run (plus the
spans of its trace) into one SQLite file that survives daemon restarts:

* a **run record** -- trace id, command, app/kind/device/engine, wall
  duration, terminal status, :class:`~repro.faults.health.ProfileHealth`
  flags, key counters, histogram quantiles, and the bench-gate verdict
  when one was computed;
* the **spans** of the run's trace, stored with absolute wall-clock
  timestamps (microseconds) so spans recorded by different processes --
  client, daemon, workers -- assemble into one tree on read-back.

SQLite is used the boring way: WAL mode, short-lived connections, one
writer at a time per connection.  Both the client process and the
daemon process may append to the same file; WAL makes that safe.  The
ledger is strictly opt-in (``--ledger`` / ``REPRO_LEDGER``): no run
writes one unless asked.

``gtpin runs list|show|diff`` and ``gtpin trace show`` are thin CLI
wrappers over :class:`RunLedger`; the rendering helpers live here so
tests exercise the same text users see.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.telemetry.spans import SpanRecord

#: File name used when a directory (not a file) is configured.
DEFAULT_LEDGER_NAME = "gtpin-runs.sqlite"

#: Environment variable naming the ledger file (CLI flag wins).
LEDGER_ENV = "REPRO_LEDGER"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    trace_id TEXT NOT NULL DEFAULT '',
    command TEXT NOT NULL,
    app TEXT NOT NULL DEFAULT '',
    kind TEXT NOT NULL DEFAULT '',
    device TEXT NOT NULL DEFAULT '',
    engine TEXT NOT NULL DEFAULT '',
    status TEXT NOT NULL DEFAULT 'ok',
    started_unix REAL NOT NULL,
    duration_seconds REAL NOT NULL,
    health_flags TEXT NOT NULL DEFAULT '[]',
    counters TEXT NOT NULL DEFAULT '{}',
    quantiles TEXT NOT NULL DEFAULT '{}',
    verdict TEXT NOT NULL DEFAULT '',
    recorded_unix REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_trace_idx ON runs (trace_id);
CREATE TABLE IF NOT EXISTS spans (
    trace_id TEXT NOT NULL,
    span_id INTEGER NOT NULL,
    parent_id INTEGER,
    name TEXT NOT NULL,
    category TEXT NOT NULL DEFAULT '',
    start_us INTEGER NOT NULL,
    duration_us INTEGER NOT NULL,
    thread_id INTEGER NOT NULL DEFAULT 0,
    depth INTEGER NOT NULL DEFAULT 0,
    args TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (trace_id, span_id)
);
"""


def resolve_ledger_path(explicit: str | None = None) -> Path | None:
    """The configured ledger file, or ``None`` (ledger off).

    Precedence: explicit ``--ledger`` value, then :data:`LEDGER_ENV`.
    A value naming a directory gets :data:`DEFAULT_LEDGER_NAME`
    appended.
    """
    raw = explicit if explicit else os.environ.get(LEDGER_ENV, "")
    if not raw:
        return None
    path = Path(raw)
    if path.is_dir():
        path = path / DEFAULT_LEDGER_NAME
    return path


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One ledger row (``id`` is assigned by the database)."""

    command: str
    trace_id: str = ""
    app: str = ""
    kind: str = ""
    device: str = ""
    engine: str = ""
    status: str = "ok"
    started_unix: float = 0.0
    duration_seconds: float = 0.0
    health_flags: tuple[str, ...] = ()
    #: Flat counter totals worth comparing run-over-run.
    counters: Mapping[str, float] = dataclasses.field(default_factory=dict)
    #: Per-histogram quantiles, e.g. ``{"serve.job_seconds": {"p50": ...}}``.
    quantiles: Mapping[str, Mapping[str, float]] = dataclasses.field(
        default_factory=dict
    )
    verdict: str = ""
    recorded_unix: float = 0.0
    id: int | None = None

    def metrics(self) -> dict[str, float]:
        """Counters plus flattened quantiles, one comparable namespace
        (``hist/p99`` style keys) -- what :meth:`RunLedger.diff` walks."""
        flat: dict[str, float] = {"duration_seconds": self.duration_seconds}
        flat.update(
            (name, float(value)) for name, value in self.counters.items()
        )
        for hist, qs in self.quantiles.items():
            for q, value in qs.items():
                flat[f"{hist}/{q}"] = float(value)
        return flat


class RunLedger:
    """Append/query interface over one ledger file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=10.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    # -- writes --------------------------------------------------------------

    def record_run(self, record: RunRecord) -> int:
        """Append one run record; returns its assigned row id."""
        with self._connect() as conn:
            cursor = conn.execute(
                "INSERT INTO runs (trace_id, command, app, kind, device, "
                "engine, status, started_unix, duration_seconds, "
                "health_flags, counters, quantiles, verdict, recorded_unix) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.trace_id,
                    record.command,
                    record.app,
                    record.kind,
                    record.device,
                    record.engine,
                    record.status,
                    record.started_unix,
                    record.duration_seconds,
                    json.dumps(list(record.health_flags)),
                    json.dumps(dict(record.counters), sort_keys=True),
                    json.dumps(
                        {k: dict(v) for k, v in record.quantiles.items()},
                        sort_keys=True,
                    ),
                    record.verdict,
                    record.recorded_unix or time.time(),
                ),
            )
            return int(cursor.lastrowid)

    def record_spans(
        self,
        trace_id: str,
        spans: Iterable[SpanRecord],
        ns_to_unix: Any,
    ) -> int:
        """Store a trace's spans with wall-clock timestamps.

        ``ns_to_unix`` maps the recording registry's ``perf_counter``
        nanoseconds to unix seconds (:meth:`Telemetry.ns_to_unix`) --
        each process stores through its own clock mapping, so spans
        from different processes line up on read-back.  Idempotent per
        (trace, span): re-recording replaces.
        """
        rows = []
        for span in spans:
            start_us = int(round(ns_to_unix(span.start_ns) * 1e6))
            duration_us = max(0, int(round(span.duration_ns / 1e3)))
            rows.append((
                trace_id, span.span_id, span.parent_id, span.name,
                span.category, start_us, duration_us, span.thread_id,
                span.depth, json.dumps(span.args, default=str),
            ))
        if not rows:
            return 0
        with self._connect() as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO spans (trace_id, span_id, "
                "parent_id, name, category, start_us, duration_us, "
                "thread_id, depth, args) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def _row_to_record(row: tuple) -> RunRecord:
        (row_id, trace_id, command, app, kind, device, engine, status,
         started, duration, health, counters, quantiles, verdict,
         recorded) = row
        return RunRecord(
            command=command, trace_id=trace_id, app=app, kind=kind,
            device=device, engine=engine, status=status,
            started_unix=started, duration_seconds=duration,
            health_flags=tuple(json.loads(health)),
            counters=json.loads(counters),
            quantiles=json.loads(quantiles),
            verdict=verdict, recorded_unix=recorded, id=row_id,
        )

    _RUN_COLUMNS = (
        "id, trace_id, command, app, kind, device, engine, status, "
        "started_unix, duration_seconds, health_flags, counters, "
        "quantiles, verdict, recorded_unix"
    )

    def runs(self, limit: int = 20) -> list[RunRecord]:
        """Newest-first run records."""
        with self._connect() as conn:
            rows = conn.execute(
                f"SELECT {self._RUN_COLUMNS} FROM runs "
                "ORDER BY id DESC LIMIT ?",
                (max(1, limit),),
            ).fetchall()
        return [self._row_to_record(row) for row in rows]

    def run(self, run_id: int) -> RunRecord:
        """One run by id; raises :class:`KeyError` when absent."""
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {self._RUN_COLUMNS} FROM runs WHERE id = ?",
                (int(run_id),),
            ).fetchone()
        if row is None:
            raise KeyError(run_id)
        return self._row_to_record(row)

    def trace(self, trace_id: str) -> list[SpanRecord]:
        """A trace's spans, start-time order, as :class:`SpanRecord`\\ s
        (``start_ns``/``end_ns`` hold wall-clock nanoseconds)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT span_id, parent_id, name, category, start_us, "
                "duration_us, thread_id, depth, args FROM spans "
                "WHERE trace_id = ? ORDER BY start_us, span_id",
                (trace_id,),
            ).fetchall()
        spans = []
        for (span_id, parent_id, name, category, start_us, duration_us,
             thread_id, depth, args) in rows:
            start_ns = start_us * 1000
            spans.append(SpanRecord(
                span_id=span_id, parent_id=parent_id, name=name,
                category=category, start_ns=start_ns,
                end_ns=start_ns + duration_us * 1000,
                thread_id=thread_id, depth=depth,
                args=json.loads(args), trace_id=trace_id,
            ))
        return spans

    def trace_ids(self, limit: int = 20) -> list[str]:
        """Distinct trace ids, newest run first."""
        seen: list[str] = []
        for record in self.runs(limit=limit * 4):
            if record.trace_id and record.trace_id not in seen:
                seen.append(record.trace_id)
            if len(seen) >= limit:
                break
        return seen

    def diff(self, a: int, b: int) -> dict[str, Any]:
        """Metric deltas between runs ``a`` (baseline) and ``b``.

        Returns ``{"a": .., "b": .., "deltas": [...], "only_a": [...],
        "only_b": [...], "health_changed": bool}``; each delta is
        ``(name, a_value, b_value, delta, ratio)`` with ``ratio`` of
        ``None`` when the baseline value is 0.
        """
        run_a, run_b = self.run(a), self.run(b)
        metrics_a, metrics_b = run_a.metrics(), run_b.metrics()
        deltas = []
        for name in sorted(set(metrics_a) & set(metrics_b)):
            va, vb = metrics_a[name], metrics_b[name]
            ratio = vb / va if va else None
            deltas.append((name, va, vb, vb - va, ratio))
        return {
            "a": run_a,
            "b": run_b,
            "deltas": deltas,
            "only_a": sorted(set(metrics_a) - set(metrics_b)),
            "only_b": sorted(set(metrics_b) - set(metrics_a)),
            "health_changed": run_a.health_flags != run_b.health_flags,
        }

    def latest_pair(self, command: str | None = None) -> tuple[
        RunRecord, RunRecord
    ] | None:
        """The two newest runs (optionally same command), oldest first --
        the pair the HTML report and /metrics compare."""
        matches = [
            record
            for record in self.runs(limit=50)
            if command is None or record.command == command
        ]
        if len(matches) < 2:
            return None
        return matches[1], matches[0]


# -- rendering (shared by the CLI and its tests) ----------------------------

def render_runs_table(records: list[RunRecord]) -> str:
    """``gtpin runs list``: one aligned line per run, newest first."""
    if not records:
        return "ledger is empty (run with --ledger to record runs)"
    # Suite names run past any fixed width: size the column to fit.
    app_width = max(len("app"), *(len(r.app or "-") for r in records))
    lines = [
        f"{'id':>4}  {'when':19}  {'command':9}  {'app':{app_width}}  "
        f"{'status':7}  {'seconds':>8}  trace"
    ]
    for record in records:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.started_unix)
        )
        trace = record.trace_id[:16] + ".." if record.trace_id else "-"
        lines.append(
            f"{record.id:>4}  {when:19}  {record.command:9}  "
            f"{(record.app or '-'):{app_width}}  {record.status:7}  "
            f"{record.duration_seconds:8.3f}  {trace}"
        )
    return "\n".join(lines)


def render_run(record: RunRecord) -> str:
    """``gtpin runs show``: the full record, one field per line."""
    lines = [
        f"run {record.id}: {record.command} "
        f"({record.kind or '-'}/{record.app or '-'})",
        f"  status:    {record.status}"
        + (f" [{record.verdict}]" if record.verdict else ""),
        f"  device:    {record.device or '-'}"
        + (f"  engine: {record.engine}" if record.engine else ""),
        f"  started:   {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(record.started_unix))}",
        f"  duration:  {record.duration_seconds:.3f}s",
        f"  trace_id:  {record.trace_id or '-'}",
        f"  health:    {', '.join(record.health_flags) or 'ok'}",
    ]
    if record.counters:
        lines.append("  counters:")
        for name in sorted(record.counters):
            lines.append(f"    {name} = {record.counters[name]:g}")
    if record.quantiles:
        lines.append("  quantiles:")
        for hist in sorted(record.quantiles):
            qs = record.quantiles[hist]
            rendered = "  ".join(
                f"{q}={qs[q]:g}" for q in sorted(qs)
            )
            lines.append(f"    {hist}: {rendered}")
    return "\n".join(lines)


def render_diff(diff: Mapping[str, Any]) -> str:
    """``gtpin runs diff``: run-over-run metric deltas."""
    run_a, run_b = diff["a"], diff["b"]
    lines = [
        f"runs diff: {run_a.id} ({run_a.command}) -> "
        f"{run_b.id} ({run_b.command})"
    ]
    if run_a.status != run_b.status:
        lines.append(f"  status: {run_a.status} -> {run_b.status}")
    if diff["health_changed"]:
        lines.append(
            f"  health: {', '.join(run_a.health_flags) or 'ok'} -> "
            f"{', '.join(run_b.health_flags) or 'ok'}"
        )
    for name, va, vb, delta, ratio in diff["deltas"]:
        if delta == 0:
            continue
        shown_ratio = f" (x{ratio:.3f})" if ratio is not None else ""
        lines.append(
            f"  {name}: {va:g} -> {vb:g}  [{delta:+g}]{shown_ratio}"
        )
    if len(lines) == 1 + (run_a.status != run_b.status) + diff[
        "health_changed"
    ]:
        lines.append("  no metric changed")
    for label, names in (("only in a", diff["only_a"]),
                         ("only in b", diff["only_b"])):
        if names:
            lines.append(f"  {label}: {', '.join(names)}")
    return "\n".join(lines)
