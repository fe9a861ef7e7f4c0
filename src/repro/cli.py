"""Command-line front end: ``python -m repro`` or the ``gtpin`` script.

Subcommands mirror the paper's workflow::

    gtpin suite                       # Table I
    gtpin profile cb-throughput-ao    # GT-Pin characterization of one app
    gtpin characterize --scale 0.2    # Figures 3a-4c over the whole suite
    gtpin select cb-throughput-ao --scheme sync --feature BB
    gtpin explore cb-throughput-ao    # all 30 configurations
    gtpin overhead cb-throughput-ao   # Section III-C overhead measurement
    gtpin trace cb-throughput-ao --out trace.json   # Chrome/Perfetto trace

Any subcommand also accepts ``--telemetry`` to capture spans/counters
for that run and write a Chrome trace (``--telemetry-out``, default
``gtpin_trace.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import sys
from typing import Iterator, Sequence

from repro import __version__, faults, telemetry
from repro.faults import FaultPlan
from repro.analysis import (
    characterize_app,
    characterize_suite,
    figure3a_api_calls,
    figure3b_structures,
    figure3c_dynamic_work,
    figure4a_instruction_mixes,
    figure4b_simd_widths,
    figure4c_memory_activity,
    figure5_config_space,
    render_table,
    table1_suite,
)
from repro.analysis.characterize import SuiteCharacterization
from repro.gpu.device import HD4600, DeviceSpec
from repro.gpu.providers import (
    get_provider,
    known_device_tokens,
    list_providers,
    resolve_device,
)
from repro.gtpin.overhead import measure_overhead
from repro.parallel import ProfileCache
from repro.sampling import (
    FeatureKind,
    IntervalScheme,
    explore_application,
    profile_workload,
    select_simpoints,
)
from repro.simulation import detailed
from repro.workloads import SUITE_NAMES, SUITE_SPECS, load_app, load_suite

_SCHEMES = {s.value: s for s in IntervalScheme}
_FEATURES = {f.value: f for f in FeatureKind}


def _device(name: str) -> DeviceSpec:
    """Resolve a ``--device`` token through the provider registry."""
    try:
        return resolve_device(name)
    except KeyError as exc:
        print(f"gtpin: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None


def _cache(args: argparse.Namespace) -> ProfileCache | None:
    """The profile cache selected by ``--profile-cache`` / env, if any."""
    flag = getattr(args, "profile_cache", None)
    if flag is None:
        return ProfileCache.from_env()
    return ProfileCache(flag or None)


@contextlib.contextmanager
def _capture(
    events: bool = False, live: bool = False, port: int | None = None
) -> Iterator[tuple]:
    """The one CLI capture scope: telemetry, plus the event log with
    ``events`` and the live hub with ``live`` (serving ``port`` when
    given).  Registries a caller already enabled are reused; the ones
    enabled here are disabled on exit, restoring the previous state --
    also when enabling the live endpoint fails to bind its port.
    Yields ``(telemetry, event log, live hub)``.
    """
    from repro.obs import events as obs_events
    from repro.obs import live as obs_live

    restore = []
    try:
        tm = telemetry.get()
        if not tm.enabled:
            tm = telemetry.enable()
            restore.append(telemetry.disable)
        log = obs_events.get()
        if events and not log.enabled:
            log = obs_events.enable()
            restore.append(obs_events.disable)
        hub = obs_live.get()
        if live and not hub.enabled:
            hub = obs_live.enable(port=port)
            restore.append(obs_live.disable)
        yield tm, log, hub
    finally:
        for disable in reversed(restore):
            disable()


def _port_in_use(exc: OSError, what: str, port: int) -> int:
    """Turn a bind failure on an in-use port into one stderr line and
    exit status 2; any other OS error propagates."""
    if exc.errno != errno.EADDRINUSE:
        raise exc
    print(
        f"gtpin: {what} cannot bind port {port}: address already in use; "
        "pick another port (or 0 for an ephemeral one), or stop the "
        "process currently bound to it",
        file=sys.stderr,
    )
    return 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload volume scale (default 1.0; use ~0.2 for quick runs)",
    )
    parser.add_argument(
        "--device", default="hd4000", metavar="[PROVIDER:]NAME[@MHz]",
        help="target device, resolved through the provider registry: "
        "e.g. hd4000, gen:hd4600, wave64:w64-cu28, hd4000@700MHz "
        "(list with 'gtpin devices'; see docs/providers.md)",
    )
    parser.add_argument("--seed", type=int, default=0, help="trial seed")
    parser.add_argument(
        "--sim-engine", choices=detailed.ENGINES, default="batched",
        help="detailed-simulation engine: the cross-dispatch batched "
        "numpy engine (default) or the scalar reference interpreter; "
        "both produce bit-identical results (see docs/performance.md)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for parallel sweep stages (default: "
        "$REPRO_JOBS or 1 = serial; 0 = all cores; negative values are "
        "rejected); results are identical to a serial run",
    )
    parser.add_argument(
        "--profile-cache", nargs="?", const="", default=None, metavar="DIR",
        help="reuse profiled workloads from an on-disk cache (optional "
        "DIR; default location ~/.cache/repro/profiles, also enabled "
        "via $REPRO_PROFILE_CACHE)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="enable deterministic fault injection, e.g. "
        "'seed=42;jit.build=0.1;dispatch.resources=0.05:3' (also via "
        f"${faults.FAULTS_ENV}); see docs/robustness.md",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="capture telemetry (spans + counters) for this run and write "
        "a Chrome trace afterwards",
    )
    parser.add_argument(
        "--telemetry-out", default="gtpin_trace.json", metavar="FILE",
        help="where --telemetry writes the Chrome trace "
        "(default: gtpin_trace.json)",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE.html",
        help="run the command under telemetry + event capture and write "
        "a self-contained HTML run report (see docs/reports.md)",
    )
    parser.add_argument(
        "--live-port", type=int, default=None, metavar="PORT",
        help="serve live Prometheus-style metrics and a JSON health "
        "document on 127.0.0.1:PORT while the command runs (0 = pick an "
        "ephemeral port; also via $REPRO_LIVE_PORT); watch with "
        "'gtpin top' -- see docs/live.md",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="append this run's record (trace id, duration, counters, "
        "quantiles) and its trace's spans to a SQLite run ledger "
        "(also via $REPRO_LEDGER); inspect with 'gtpin runs' and "
        "'gtpin trace show' -- see docs/tracing.md",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtpin",
        description="GT-Pin reproduction: profiling, characterization, "
        "and simulation-subset selection for synthetic OpenCL workloads.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list the 25-application suite (Table I)")

    sub.add_parser(
        "devices",
        help="list registered device providers and their devices "
        "(see docs/providers.md)",
    )

    p = sub.add_parser("profile", help="GT-Pin profile one application")
    p.add_argument("app", choices=SUITE_NAMES)
    _add_common(p)

    p = sub.add_parser(
        "characterize", help="Figures 3a-4c over the whole suite"
    )
    _add_common(p)

    p = sub.add_parser("select", help="select simulation points for one app")
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="sync")
    p.add_argument("--feature", choices=sorted(_FEATURES), default="BB")
    _add_common(p)

    p = sub.add_parser("explore", help="score all 30 configurations")
    p.add_argument("app", choices=SUITE_NAMES)
    _add_common(p)

    p = sub.add_parser("overhead", help="measure GT-Pin profiling overhead")
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument(
        "--self", dest="self_overhead", action="store_true",
        help="measure the observability stack's own overhead instead: "
        "run the workflow with telemetry off then on and print the "
        "Section III-style per-site attribution table",
    )
    _add_common(p)

    p = sub.add_parser(
        "top",
        help="terminal view of a live run: poll another gtpin process's "
        "--live-port endpoint and render progress, instr/s, worker "
        "lanes, and recent events",
    )
    p.add_argument(
        "--port", type=int, default=None,
        help="live endpoint port (default: $REPRO_LIVE_PORT)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default 2s)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render one frame without ANSI escapes and exit "
        "(scripting / CI smoke tests)",
    )

    p = sub.add_parser(
        "serve",
        help="run the profiling-as-a-service daemon: accept "
        "profile/select/explore/simulate jobs as JSON over HTTP, serve "
        "results from the shared profile cache -- see docs/serve.md",
    )
    p.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="port to listen on (default 0 = pick an ephemeral port and "
        "print it)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job slots (default 2)",
    )
    p.add_argument(
        "--queue-capacity", type=int, default=32, metavar="N",
        help="bounded queue depth; submissions beyond it get HTTP 429 "
        "(default 32)",
    )
    p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="exit after this many seconds (default: run until "
        "interrupted; useful for CI smoke runs)",
    )
    p.add_argument(
        "--profile-cache", nargs="?", const="", default=None, metavar="DIR",
        help="serve results from this on-disk profile cache (optional "
        "DIR; default location ~/.cache/repro/profiles, also enabled "
        "via $REPRO_PROFILE_CACHE)",
    )
    p.add_argument(
        "--sim-engine", choices=detailed.ENGINES, default="batched",
    )
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="enable deterministic fault injection for every job "
        f"(also via ${faults.FAULTS_ENV}); see docs/robustness.md",
    )
    p.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="append every terminal job (and its trace's spans) to this "
        "SQLite run ledger; survives restarts (also via $REPRO_LEDGER)",
    )

    p = sub.add_parser(
        "runs",
        help="inspect the SQLite run ledger: list recorded runs, show "
        "one, or diff two (--ledger / $REPRO_LEDGER names the file)",
    )
    p.add_argument(
        "action", choices=("list", "show", "diff"),
        help="list recent runs / show one run's full record / diff two "
        "runs' metrics",
    )
    p.add_argument(
        "ids", nargs="*", type=int,
        help="run id for 'show', two run ids for 'diff'",
    )
    p.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="ledger file (default: $REPRO_LEDGER)",
    )
    p.add_argument(
        "--limit", type=int, default=20,
        help="how many runs 'list' shows (default 20)",
    )

    p = sub.add_parser(
        "report",
        help="run the full Sections IV+V evaluation and write one report "
        "(a .html --out produces the self-contained HTML run report)",
    )
    p.add_argument("--out", default="gtpin_report.txt")
    _add_common(p)

    p = sub.add_parser(
        "export",
        help="select simulation points and write the selection artifacts "
        "(JSON + SimPoint 3.0 .simpoints/.weights/.bb files)",
    )
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="sync")
    p.add_argument("--feature", choices=sorted(_FEATURES), default="BB")
    p.add_argument("--out", default=".", help="output directory")
    _add_common(p)

    p = sub.add_parser(
        "validate",
        help="Figure-8-style validation of one app's selection across "
        "trials, frequencies, and the HD4600",
    )
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=3)
    _add_common(p)

    p = sub.add_parser(
        "trace",
        help="run a workflow with telemetry enabled and write a "
        "Chrome-trace JSON plus a span-tree summary; or 'trace show "
        "<trace_id>' to render an assembled trace from the run ledger",
    )
    p.add_argument(
        "app", metavar="APP|show",
        help="application to trace, or the literal 'show' to render a "
        "recorded trace from the run ledger",
    )
    p.add_argument(
        "trace_id", nargs="?", default=None,
        help="with 'show': the trace id to render (see 'gtpin runs list')",
    )
    p.add_argument("--out", default="trace.json", help="Chrome trace path")
    p.add_argument(
        "--jsonl", default="", metavar="FILE",
        help="also write a structured JSONL event log",
    )
    p.add_argument(
        "--workflow", choices=("select", "explore", "profile", "simulate"),
        default="select",
        help="which existing workflow to run under telemetry "
        "(default: select)",
    )
    _add_common(p)

    p = sub.add_parser(
        "disasm",
        help="disassemble a kernel, optionally as GT-Pin instruments it",
    )
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--kernel", default="", help="kernel name (default: first)")
    p.add_argument(
        "--instrumented", action="store_true",
        help="show the GT-Pin-rewritten binary",
    )
    _add_common(p)

    return parser


def _cmd_suite() -> int:
    print(table1_suite(SUITE_SPECS))
    return 0


def _cmd_devices() -> int:
    """``gtpin devices``: the provider registry, one row per device."""
    rows = []
    for provider_name in list_providers():
        provider = get_provider(provider_name)
        caps = provider.capabilities
        for token, spec in provider.devices().items():
            width = (
                f"wave{caps.wavefront_width}"
                if caps.wavefront_width else "compile-width"
            )
            rows.append((
                f"{provider_name}:{token}",
                spec.name,
                f"{spec.eu_count} {spec.compute_unit_name}s",
                f"{spec.frequency_mhz:g} MHz",
                f"{spec.memory_bandwidth_gbps:g} GB/s",
                f"{spec.llc_kb} KB",
                width,
            ))
    print(
        render_table(
            "Registered device providers",
            ["Device", "Full name", "Units", "Clock", "Bandwidth",
             "LLC", "Threading"],
            rows,
        )
    )
    print()
    print("Use --device with any token above (bare names work when "
          "unambiguous; append @<freq>MHz to re-clock).")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    app = load_app(args.app, scale=args.scale)
    char = characterize_app(app, _device(args.device), args.seed)
    chars = SuiteCharacterization(apps=(char,))
    for renderer in (
        figure3a_api_calls,
        figure3b_structures,
        figure3c_dynamic_work,
        figure4a_instruction_mixes,
        figure4b_simd_widths,
        figure4c_memory_activity,
    ):
        print(renderer(chars))
        print()
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    apps = load_suite(scale=args.scale)
    chars = characterize_suite(apps, _device(args.device), args.seed)
    for renderer in (
        figure3a_api_calls,
        figure3b_structures,
        figure3c_dynamic_work,
        figure4a_instruction_mixes,
        figure4b_simd_widths,
        figure4c_memory_activity,
    ):
        print(renderer(chars))
        print()
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    app = load_app(args.app, scale=args.scale)
    workload = profile_workload(
        app, _device(args.device), args.seed, cache=_cache(args)
    )
    result = select_simpoints(
        workload, _SCHEMES[args.scheme], _FEATURES[args.feature]
    )
    selection = result.selection
    rows = [
        (
            s.interval.index,
            s.interval.start,
            s.interval.stop,
            s.interval.instruction_count,
            f"{s.ratio:.4f}",
        )
        for s in selection.selected
    ]
    print(
        render_table(
            f"Selected simulation points for {args.app} "
            f"({selection.config.label})",
            ["Interval", "First invocation", "Last+1", "Instructions", "Ratio"],
            rows,
        )
    )
    print()
    print(f"Error (Eq. 1):       {result.error_percent:.3f}%")
    print(f"Selection size:      {selection.selection_fraction * 100:.2f}% of instructions")
    print(f"Simulation speedup:  {selection.simulation_speedup:.1f}x")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    app = load_app(args.app, scale=args.scale)
    workload = profile_workload(
        app, _device(args.device), args.seed, cache=_cache(args)
    )
    exploration = explore_application(workload, jobs=args.jobs)
    print(figure5_config_space([exploration]))
    best = exploration.minimize_error()
    print()
    print(
        f"Error-minimizing config: {best.config.label} "
        f"({best.error_percent:.3f}% error, "
        f"{best.simulation_speedup:.1f}x speedup)"
    )
    if exploration.health is not None and not exploration.health.ok:
        print(
            "PARTIAL PROFILE: "
            + ", ".join(exploration.health.flags)
        )
    for config, error in exploration.errors.items():
        print(f"FAILED {config.label}: {error}")
    return 0 if not exploration.errors else 1


def _cmd_overhead(args: argparse.Namespace) -> int:
    app = load_app(args.app, scale=args.scale)
    if getattr(args, "self_overhead", False):
        return _cmd_self_overhead(args, app)
    report = measure_overhead(app, _device(args.device), trial_seed=args.seed)
    print(f"Application:            {report.application_name}")
    print(f"Native execution:       {report.native_seconds * 1e3:.2f} ms")
    print(f"Instrumented (GPU):     {report.instrumented_gpu_seconds * 1e3:.2f} ms")
    print(f"Host drain/post-proc:   {report.host_drain_seconds * 1e3:.2f} ms")
    print(f"Overhead factor:        {report.overhead_factor:.2f}x "
          f"(paper band: 2-10x)")
    return 0


def _cmd_self_overhead(args: argparse.Namespace, app) -> int:
    """``overhead --self``: Section III-C pointed at our own stack."""
    from repro.gtpin.overhead import measure_self_overhead
    from repro.gtpin.profiler import profile

    device = _device(args.device)
    report = measure_self_overhead(
        lambda: profile(app, device, trial_seed=args.seed)
    )
    print(f"Self-overhead attribution for 'gtpin profile {args.app}' "
          f"(observability off vs on):")
    print()
    print(report.table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.study import render_study, run_full_study

    if args.out.endswith((".html", ".htm")):
        return _cmd_report_html(args)
    results = run_full_study(
        scale=args.scale, seed=args.seed, device=_device(args.device),
        jobs=args.jobs, cache=_cache(args),
    )
    text = render_study(results)
    with open(args.out, "w") as out:
        out.write(text)
    print(text)
    print(f"(report written to {args.out})")
    return 0


def _cmd_report_html(args: argparse.Namespace) -> int:
    """``report --out x.html``: the full study under telemetry + event
    capture, rendered as one self-contained HTML page."""
    from repro.analysis.study import render_study, run_full_study
    from repro.obs.report import write_report

    with _capture(events=True) as (tm, log, _):
        results = run_full_study(
            scale=args.scale, seed=args.seed, device=_device(args.device),
            jobs=args.jobs, cache=_cache(args),
        )
        write_report(
            args.out, tm, log=log, study=results,
            title=f"GT-Pin full study (scale {args.scale:g}, "
            f"{args.device})",
        )
    print(render_study(results))
    print(f"(HTML report written to {args.out})")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import pathlib

    from repro.sampling import (
        build_feature_vectors,
        divide,
        run_simpoint,
        selection_to_json,
        write_frequency_vectors,
        write_simpoints,
    )
    from repro.sampling.selection import selection_from_simpoint

    app = load_app(args.app, scale=args.scale)
    workload = profile_workload(
        app, _device(args.device), args.seed, cache=_cache(args)
    )
    scheme, feature = _SCHEMES[args.scheme], _FEATURES[args.feature]
    intervals = divide(workload.log, scheme)
    vectors = build_feature_vectors(workload.log, intervals, feature)
    result = run_simpoint(
        vectors, [iv.instruction_count for iv in intervals]
    )
    from repro.sampling.selection import SelectionConfig

    selection = selection_from_simpoint(
        SelectionConfig(scheme, feature), intervals, result,
        workload.log.total_instructions,
    )

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.app}.{selection.config.label}"
    (out / f"{stem}.selection.json").write_text(selection_to_json(selection))
    with open(out / f"{stem}.bb", "w") as bb_file:
        write_frequency_vectors(vectors, bb_file)
    with open(out / f"{stem}.simpoints", "w") as sp, open(
        out / f"{stem}.weights", "w"
    ) as wt:
        write_simpoints(result, sp, wt)
    print(f"Wrote {stem}.selection.json, .bb, .simpoints, .weights to {out}/")
    print(
        f"{selection.k} simulation points, "
        f"{selection.selection_fraction * 100:.2f}% of instructions, "
        f"{selection.simulation_speedup:.1f}x speedup"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.gpu.device import FIGURE_8_FREQUENCIES_MHZ
    from repro.sampling.validation import (
        cross_architecture_errors,
        cross_frequency_errors,
        cross_trial_errors,
    )

    device = _device(args.device)
    app = load_app(args.app, scale=args.scale)
    workload = profile_workload(app, device, args.seed, cache=_cache(args))
    exploration = explore_application(workload, jobs=args.jobs)
    selection = exploration.minimize_error().selection
    print(
        f"Validating {selection.config.label} selection of {args.app} "
        f"({selection.k} intervals)\n"
    )
    trials = cross_trial_errors(
        workload.recording, selection, device,
        trial_seeds=range(args.seed + 1, args.seed + 1 + args.trials),
    )
    rows = [(p.condition, f"{p.error_percent:.2f}%") for p in trials.points]
    freqs = cross_frequency_errors(
        workload.recording, selection, device,
        frequencies_mhz=FIGURE_8_FREQUENCIES_MHZ,
    )
    rows += [(p.condition, f"{p.error_percent:.2f}%") for p in freqs.points]
    arch = cross_architecture_errors(workload.recording, selection, HD4600)
    rows += [(p.condition, f"{p.error_percent:.2f}%") for p in arch.points]
    print(render_table("Validation errors", ["Condition", "Error"], rows))
    return 0


def _resolve_ledger(args: argparse.Namespace):
    """The RunLedger named by ``--ledger`` / $REPRO_LEDGER, or None."""
    from repro.obs.ledger import RunLedger, resolve_ledger_path

    path = resolve_ledger_path(getattr(args, "ledger", None))
    if path is None:
        return None
    return RunLedger(path)


def _cmd_trace_show(args: argparse.Namespace) -> int:
    """``gtpin trace show <trace_id>``: render an assembled trace."""
    if not args.trace_id:
        print("gtpin trace show: missing <trace_id> "
              "(list candidates with 'gtpin runs list')", file=sys.stderr)
        return 2
    ledger = _resolve_ledger(args)
    if ledger is None:
        print("gtpin trace show: no ledger configured; pass --ledger "
              "FILE or set $REPRO_LEDGER", file=sys.stderr)
        return 2
    spans = ledger.trace(args.trace_id)
    if not spans:
        print(f"gtpin trace show: no spans recorded for trace "
              f"{args.trace_id!r}", file=sys.stderr)
        return 1
    print(telemetry.trace_tree_summary(spans, args.trace_id))
    if args.out:
        import json as _json

        with open(args.out, "w") as out:
            _json.dump(
                telemetry.trace_chrome_trace(spans, args.trace_id), out
            )
        print(f"(chrome trace written to {args.out}; open it in "
              "chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.app not in SUITE_NAMES:
        print(f"gtpin trace: unknown application {args.app!r} "
              "(list with 'gtpin suite', or use 'gtpin trace show "
              "<trace_id>')", file=sys.stderr)
        return 2
    with _capture() as (tm, _, _):
        device = _device(args.device)
        app = load_app(args.app, scale=args.scale)
        with tm.span(
            "cli.trace", category="cli",
            app=args.app, workflow=args.workflow,
        ):
            workload = profile_workload(
                app, device, args.seed, cache=_cache(args)
            )
            if args.workflow == "select":
                select_simpoints(workload)
            elif args.workflow == "explore":
                explore_application(workload, jobs=args.jobs)
            elif args.workflow == "profile":
                from repro.gtpin.profiler import profile

                profile(app, device, trial_seed=args.seed)
            elif args.workflow == "simulate":
                from repro.simulation.sampled import simulate_selection

                result = select_simpoints(workload)
                simulate_selection(
                    args.app, workload.recording.sources, workload.log,
                    result.selection, device, seed=args.seed,
                    engine=args.sim_engine,
                )
        telemetry.write_chrome_trace(tm, args.out)
        if args.jsonl:
            telemetry.write_jsonl(tm, args.jsonl)
        print(telemetry.span_tree_summary(tm))
        print()
        print(telemetry.counters_summary(tm))
        print()
        print(f"(chrome trace written to {args.out}; open it in "
              "chrome://tracing or https://ui.perfetto.dev)")
        if args.jsonl:
            print(f"(JSONL event log written to {args.jsonl})")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """``gtpin runs list|show|diff``: query the run ledger."""
    from repro.obs.ledger import render_diff, render_run, render_runs_table

    ledger = _resolve_ledger(args)
    if ledger is None:
        print("gtpin runs: no ledger configured; pass --ledger FILE or "
              "set $REPRO_LEDGER", file=sys.stderr)
        return 2
    if args.action == "list":
        print(render_runs_table(ledger.runs(limit=args.limit)))
        return 0
    if args.action == "show":
        if len(args.ids) != 1:
            print("gtpin runs show: expected exactly one run id",
                  file=sys.stderr)
            return 2
        try:
            print(render_run(ledger.run(args.ids[0])))
        except KeyError:
            print(f"gtpin runs show: no run {args.ids[0]} in the ledger",
                  file=sys.stderr)
            return 1
        return 0
    # action == "diff"
    if len(args.ids) != 2:
        print("gtpin runs diff: expected exactly two run ids (baseline "
              "first)", file=sys.stderr)
        return 2
    try:
        print(render_diff(ledger.diff(args.ids[0], args.ids[1])))
    except KeyError as exc:
        print(f"gtpin runs diff: no run {exc.args[0]} in the ledger",
              file=sys.stderr)
        return 1
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    app = load_app(args.app, scale=args.scale)
    kernel_name = args.kernel or sorted(app.sources)[0]
    if kernel_name not in app.sources:
        known = ", ".join(sorted(app.sources))
        print(f"unknown kernel {kernel_name!r}; kernels: {known}")
        return 1
    binary = app.sources[kernel_name].body
    if args.instrumented:
        from repro.gtpin.profiler import GTPinSession, default_tools

        session = GTPinSession(default_tools())
        binary = session.rewriter.rewrite(binary)
        print("// GT-Pin instrumented binary "
              "(probes marked with [gtpin])")
    print(binary.disassemble())
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "suite":
        return _cmd_suite()
    if args.command == "devices":
        return _cmd_devices()
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "select":
        return _cmd_select(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "overhead":
        return _cmd_overhead(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "disasm":
        return _cmd_disasm(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """``gtpin serve``: the profiling-as-a-service daemon."""
    import time

    from repro.serve.server import ServeDaemon

    cache = _cache(args)
    ledger = _resolve_ledger(args)
    with _capture(events=True, live=True) as (_, _, hub):
        hub.set_command("gtpin serve")
        try:
            daemon = ServeDaemon(
                port=args.port,
                host=args.host,
                workers=args.workers,
                capacity=args.queue_capacity,
                cache=cache,
                sim_engine=args.sim_engine,
                ledger=ledger,
            )
        except OSError as exc:
            return _port_in_use(exc, "gtpin serve", args.port)
        daemon.start()
        print(
            f"gtpin serve: listening on http://{args.host}:{daemon.port} "
            f"({args.workers} workers, queue capacity "
            f"{args.queue_capacity}, "
            f"cache {'on' if cache is not None else 'off'}, "
            f"ledger {'on' if ledger is not None else 'off'})"
        )
        print(
            f"  submit jobs:  POST http://{args.host}:{daemon.port}/v1/jobs"
        )
        print(
            f"  watch:        gtpin top --port {daemon.port}  "
            f"(or GET /health, /metrics)"
        )
        sys.stdout.flush()
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:  # pragma: no cover - interactive loop
                while True:
                    time.sleep(3600.0)
        except KeyboardInterrupt:
            print("\ngtpin serve: interrupted; draining...")
        finally:
            counts = daemon.queue.counts()
            daemon.stop()
    print(
        "gtpin serve: done "
        f"({counts['done']} done, {counts['failed']} failed, "
        f"{counts['cancelled']} cancelled)"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import live as obs_live
    from repro.obs.top import run_top

    port = obs_live.resolve_port(args.port)
    if port is None:
        print("gtpin top: no port; pass --port or set "
              f"${obs_live.PORT_ENV} (start the run with --live-port)")
        return 2
    return run_top(
        host=args.host, port=port, interval=args.interval, once=args.once
    )


def _append_run_record(
    ledger, args: argparse.Namespace, ctx, tm, started_unix: float,
    status: int,
) -> None:
    """Append one CLI run (record + trace spans) to the run ledger."""
    import time as time_mod

    from repro.obs.ledger import RunRecord

    trace_id = ctx.trace_id if ctx is not None else ""
    counters = {
        name: counter.value
        for name, counter in tm.counters.counters.items()
    }
    quantiles = {
        name: hist.percentiles()
        for name, hist in tm.counters.histograms.items()
        if hist.count
    }
    run_id = ledger.record_run(RunRecord(
        command=args.command,
        trace_id=trace_id,
        app=getattr(args, "app", "") or "",
        device=getattr(args, "device", "") or "",
        engine=getattr(args, "sim_engine", "") or "",
        status="ok" if status == 0 else f"exit {status}",
        started_unix=started_unix,
        duration_seconds=max(0.0, time_mod.time() - started_unix),
        counters=counters,
        quantiles=quantiles,
    ))
    if trace_id:
        ledger.record_spans(
            trace_id, tm.spans_for_trace(trace_id), tm.ns_to_unix
        )
    print(f"(run {run_id} recorded to ledger {ledger.path}; "
          f"trace {trace_id})")


def _run(args: argparse.Namespace) -> int:
    from repro.parallel.pool import resolve_jobs

    try:
        # Validate --jobs / $REPRO_JOBS up front: garbage fails with one
        # clear line, not a traceback from deep inside a sweep.
        resolve_jobs(getattr(args, "jobs", None))
    except ValueError as exc:
        print(f"gtpin: {exc}", file=sys.stderr)
        return 2
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "trace" and args.app == "show":
        # --ledger names the ledger to read here, not one to record to.
        return _cmd_trace_show(args)
    from repro.obs import live as obs_live

    want_trace = getattr(args, "telemetry", False)
    report_out = getattr(args, "report", None)
    live_port = obs_live.resolve_port(getattr(args, "live_port", None))
    ledger = _resolve_ledger(args)
    if (not want_trace and not report_out and live_port is None
            and ledger is None):
        return _dispatch(args)
    # --telemetry / --report / --live-port / --ledger: run the command
    # under capturing registries (live serving needs them too), then
    # export the Chrome trace / HTML report / ledger record and a
    # one-screen summary.
    from repro.telemetry import context as trace_context

    try:
        with _capture(
            events=bool(report_out or live_port is not None),
            live=live_port is not None,
            port=live_port,
        ) as (tm, log, hub):
            if hub.server is not None:
                hub.set_command(f"gtpin {args.command}")
                print(f"(live endpoint: http://127.0.0.1:{hub.server.port}"
                      "/metrics and /health -- watch with "
                      f"'gtpin top --port {hub.server.port}')")
            # With a ledger configured, the whole command is one trace:
            # root spans opened below join this context, and the record
            # + spans land in the ledger afterwards.
            run_ctx = (
                trace_context.TraceContext(telemetry.new_trace_id())
                if ledger is not None
                else None
            )
            import time as time_mod

            started_unix = time_mod.time()
            with trace_context.activate(run_ctx):
                status = _dispatch(args)
            if want_trace:
                telemetry.write_chrome_trace(tm, args.telemetry_out)
                print()
                print(telemetry.span_tree_summary(tm))
                print(f"(telemetry trace written to {args.telemetry_out}; "
                      "open it in chrome://tracing or "
                      "https://ui.perfetto.dev)")
            if ledger is not None:
                _append_run_record(
                    ledger, args, run_ctx, tm, started_unix, status
                )
            if report_out:
                from repro.obs.report import write_report

                write_report(
                    report_out, tm, log=log, ledger=ledger,
                    title=f"gtpin {args.command} run report",
                )
                print(f"(HTML run report written to {report_out})")
    except OSError as exc:
        return _port_in_use(exc, "--live-port", live_port)
    return status


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    spec = getattr(args, "faults", None)
    plan = FaultPlan.parse(spec) if spec else FaultPlan.from_env()
    if plan is None:
        return _run(args)
    print(plan.describe())
    with faults.session(plan) as injector:
        status = _run(args)
        print()
        print(injector.summary())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
