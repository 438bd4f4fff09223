"""Command-line entry points.

- ``repro-analyze``  — semantics-driven static analysis of a script
- ``repro-optimize`` — parallelizability & reordering advisor (plan.json)
- ``repro-lint``     — the syntactic baseline (ShellCheck-class)
- ``repro-typeof``   — type introspection (§4's ``typeOf`` utility)
- ``repro-monitor``  — run a command under runtime stream monitoring
- ``repro-verify``   — policy verification for curl-to-sh pipelines (§5)
- ``repro-mine``     — mine a command's specification from documentation
- ``repro-served``   — the resident analysis daemon
- ``repro-top``      — live ops console for a running daemon

Without a build step the same entry points are available as
``python -m repro.cli <tool> ...``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import List, Optional

from . import __version__


def _read_script(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Flags every entry point shares: --version, --stats, --trace."""
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print telemetry (counters, histograms, per-phase wall time) "
        "to stderr after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON file (load it in "
        "chrome://tracing or ui.perfetto.dev)",
    )


@contextmanager
def _observed(prog: str, options: argparse.Namespace):
    """Install a TraceRecorder for the run when --stats/--trace ask for one.

    With neither flag the no-op recorder stays active and the instrumented
    code paths cost ~nothing.
    """
    stats = getattr(options, "stats", False)
    trace = getattr(options, "trace", None)
    if not stats and not trace:
        yield None
        return
    from .obs import TraceRecorder, use_recorder
    from .obs.export import render_stats, write_chrome_trace

    recorder = TraceRecorder()
    with use_recorder(recorder):
        with recorder.span(prog):
            yield recorder
    if trace:
        try:
            write_chrome_trace(recorder, trace)
        except OSError as exc:
            print(f"{prog}: cannot write trace file: {exc}", file=sys.stderr)
    if stats:
        print(render_stats(recorder), file=sys.stderr)


# ---------------------------------------------------------------------------
# repro-analyze and repro-optimize: one request path
# ---------------------------------------------------------------------------


def _add_request_flags(parser: argparse.ArgumentParser, verb: str) -> None:
    """The flags analyze and optimize share: inputs, argv model, daemon,
    batch, cache and budget.  ``verb`` phrases the help ("analyze")."""
    parser.add_argument(
        "script",
        nargs="+",
        help="script path(s), director(ies), glob pattern(s), or - for stdin; "
        "more than one input (or a directory/glob) switches to batch mode",
    )
    parser.add_argument(
        "--args",
        nargs="+",
        default=None,
        metavar="ARG",
        help=f"concrete positional arguments to {verb} the script under; "
        "without this flag argv is modelled as unknown at entry",
    )
    parser.add_argument(
        "--n-args",
        type=int,
        default=None,
        metavar="N",
        help="model exactly N symbolic positional arguments instead of an "
        "unknown argv",
    )
    parser.add_argument(
        "--server",
        action="store_true",
        help="use a running repro-served daemon when available (falls back "
        "to running inline, once, when none answers)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="analysis-server socket (default: $REPRO_SERVER_SOCKET or a "
        "per-user runtime path)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=f"batch mode: {verb} up to N files in parallel "
        "(default: the machine's CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache location (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro/analysis); batch mode always uses a cache, a "
        "single script only when this flag is given",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"{verb} every file afresh, ignoring the cache",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="per-file wall-clock budget; on expiry the result degrades to "
        "a partial one (exit 3) instead of hanging",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="per-file symbolic evaluation-step budget (degrades like --timeout)",
    )
    _add_common_flags(parser)


def _run_op(op_name: str, prog: str, options: argparse.Namespace, emit) -> int:
    """The request path analyze and optimize share: single script versus
    batch, ``--server`` with the inline fallback, the cache flags and the
    exit status.  ``emit(result, single)`` prints the op's result."""
    inputs = options.script
    single = len(inputs) == 1 and (inputs[0] == "-" or os.path.isfile(inputs[0]))
    with _observed(prog, options) as recorder:
        # the analysis code is most of a one-shot process's cost: --stats
        # shows its import as a phase of its own
        with recorder.span("cli.import") if recorder else nullcontext():
            from .analysis.pipeline import OPS, BatchConfig

        op = OPS[op_name]
        config = BatchConfig(
            n_args=options.n_args,
            args=tuple(options.args) if options.args else None,
            platform_targets=tuple(options.platforms) if options.platforms else None,
            include_lint=options.lint,
            races=options.races,
            timeout=options.timeout,
            max_states=options.max_states,
        )
        result = source = None
        if single:
            try:
                source = _read_script(inputs[0])
            except (OSError, UnicodeDecodeError) as exc:
                result = op.read_failure(exc)  # as batch mode reports it
        if result is None and options.server:
            result = _run_via_server(prog, op_name, options, config, source, inputs)
        if result is None:
            cache = None
            if not options.no_cache and (options.cache_dir or not single):
                from .analysis.cache import ResultCache

                cache = ResultCache(options.cache_dir)
            if single:
                from .analysis.pipeline import run_source

                data, _ = run_source(op_name, source, config, cache)
                result = op.payload_type.from_dict(data)
            else:
                from .analysis.batch import run_batch

                result = run_batch(
                    inputs, config=config, jobs=options.jobs, cache=cache, op=op_name
                )
    if not single and not result.results:
        print(f"{prog}: no scripts found", file=sys.stderr)
        return 2
    emit(result, single)
    if result.unsafe:
        return 1
    return 3 if result.degraded else 0


def _run_via_server(
    prog: str, op_name: str, options: argparse.Namespace, config, source, inputs
):
    """The request via the daemon; None means fall back to inline."""
    from .analysis.pipeline import OPS
    from .obs import get_recorder
    from .server import ServerClient, ServerError, ServerUnavailable

    op = OPS[op_name]
    try:
        with ServerClient(options.socket) as client:
            if source is not None:
                result = op.payload_type.from_dict(client.run(op_name, source, config))
            else:
                result = client.batch(inputs, config, op=op_name)
            if options.stats:
                _print_server_stats(client, op.prefix)
            return result
    except (ServerUnavailable, ServerError) as exc:
        get_recorder().count("server.client.inline_fallback")
        print(f"{prog}: {exc}; {op.verb} inline", file=sys.stderr)
        return None


def _print_server_stats(client, prefix: str) -> None:
    """The daemon's view of the run: its cumulative ``server.*`` and
    ``{prefix}.*`` counters on stderr, next to the client-side --stats
    table."""
    from .server import ServerError, ServerUnavailable

    try:
        stats = client.stats()
    except (ServerUnavailable, ServerError):
        return  # the request already succeeded; stats are best-effort
    print(
        f"repro-served[{stats.get('pid', '?')}]: "
        f"{stats.get('requests', 0)} request(s), "
        f"uptime {stats.get('uptime_s', 0.0):.0f}s",
        file=sys.stderr,
    )
    counters = stats.get("metrics", {}).get("counters", {})
    for name in sorted(counters):
        if name.startswith(("server.", prefix + ".")):
            print(f"  {name} {'.' * max(2, 42 - len(name))} {counters[name]}", file=sys.stderr)


def main_analyze(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Ahead-of-time semantics-driven analysis of a shell script.",
        epilog="exit status: 0 clean; 1 definite incorrectness found; "
        "2 no scripts found; 3 completed, but some analysis was degraded "
        "(budget exhausted, component crash, or quarantined file)",
    )
    parser.add_argument(
        "--platforms", nargs="*", default=None, help="deployment platforms to check"
    )
    parser.add_argument("--lint", action="store_true", help="also run the syntactic baseline")
    parser.add_argument(
        "--races",
        action="store_true",
        dest="races",
        default=True,
        help="run the effect-graph hazard analysis (default)",
    )
    parser.add_argument(
        "--no-races",
        action="store_false",
        dest="races",
        help="skip the effect-graph hazard analysis",
    )
    parser.add_argument(
        "--errors-only", action="store_true", help="show only definite errors"
    )
    _add_request_flags(parser, "analyze")
    options = parser.parse_args(argv)

    from .diag import Severity

    min_severity = Severity.ERROR if options.errors_only else Severity.INFO

    def emit(result, single: bool) -> None:
        print(result.render(min_severity=min_severity))

    return _run_op("analyze", "repro-analyze", options, emit)


def main_optimize(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-optimize",
        description="Optimization advisor: classify pipeline stages by "
        "parallelizability (with merge operators) and derive race-checked "
        "'&'-reorder groups from the command dependence graph.",
        epilog="exit status: 0 plan emitted; 2 no scripts found; "
        "3 plan degraded (budget exhausted or analysis incomplete)",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="write the machine-readable plan JSON here (a single plan "
        "object, or an array of {path, plan} entries in batch mode)",
    )
    parser.add_argument(
        "--dot",
        default=None,
        metavar="FILE",
        help="write a Graphviz rendering of the dependence graph with "
        "verified '&'-groups highlighted (single-file mode)",
    )
    _add_request_flags(parser, "plan")
    # analyzer options repro-optimize does not expose
    parser.set_defaults(platforms=None, lint=False, races=True)
    options = parser.parse_args(argv)

    def emit(result, single: bool) -> None:
        print(result.render())
        if options.plan:
            import json

            document = (
                result.to_dict()
                if single
                else [{"path": r.path, "plan": r.plan.to_dict()} for r in result.results]
            )
            with open(options.plan, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if options.dot and single:
            with open(options.dot, "w", encoding="utf-8") as handle:
                handle.write(result.to_dot())

    return _run_op("optimize", "repro-optimize", options, emit)


# ---------------------------------------------------------------------------
# repro-lint
# ---------------------------------------------------------------------------


def main_lint(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint", description="Syntactic (ShellCheck-class) linting."
    )
    parser.add_argument("script")
    _add_common_flags(parser)
    options = parser.parse_args(argv)

    from .lint import lint

    with _observed("repro-lint", options):
        diagnostics = lint(_read_script(options.script))
    for diagnostic in diagnostics:
        print(diagnostic.render())
    return 1 if diagnostics else 0


# ---------------------------------------------------------------------------
# repro-typeof
# ---------------------------------------------------------------------------


def main_typeof(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-typeof",
        description="Type introspection: a named type, or a command invocation's "
        "stream signature.",
    )
    parser.add_argument(
        "what", nargs=argparse.REMAINDER, help="a type name, or a command + args"
    )
    _add_common_flags(parser)
    options = parser.parse_args(argv)
    if not options.what:
        parser.error("expected a type name or a command invocation")

    from .rtypes import named_type, named_type_names, signature_for

    with _observed("repro-typeof", options):
        if len(options.what) == 1:
            stream = named_type(options.what[0])
            if stream is not None:
                print(f"{options.what[0]} :: {stream.line.pattern}")
                return 0
        signature = signature_for(options.what)
    if signature is not None:
        print(signature)
        return 0
    print(
        f"no type for {' '.join(options.what)!r}; known named types: "
        + ", ".join(named_type_names()),
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# repro-monitor
# ---------------------------------------------------------------------------


def main_monitor(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-monitor",
        description="Run a command with stdout monitored against a regular type; "
        "the command is killed on the first violating line.",
    )
    parser.add_argument("--type", required=True, help="expected output line type")
    parser.add_argument("command", nargs="+")
    _add_common_flags(parser)
    options = parser.parse_args(argv)

    from .monitor import MonitorViolation, monitor_subprocess
    from .rtypes import type_of

    stdin_lines = [line.rstrip("\n") for line in sys.stdin] if not sys.stdin.isatty() else []
    with _observed("repro-monitor", options):
        try:
            for line in monitor_subprocess(
                options.command, stdin_lines, type_of(options.type)
            ):
                print(line)
        except MonitorViolation as violation:
            print(f"monitor: halted: {violation}", file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------------------
# repro-verify
# ---------------------------------------------------------------------------


def main_verify(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Verify a script against a policy before executing it "
        "(e.g. curl url | repro-verify --no-RW ~/mine - && curl url | sh).",
    )
    parser.add_argument("script", help="script path, or - for stdin")
    parser.add_argument(
        "--args",
        nargs="+",
        default=None,
        metavar="ARG",
        help="concrete positional arguments (default: argv unknown at entry)",
    )
    parser.add_argument("--n-args", type=int, default=None, metavar="N")
    parser.add_argument(
        "policy",
        nargs=argparse.REMAINDER,
        help="policy rules: --no-RW PATH, --no-W PATH, --no-R PATH",
    )
    _add_common_flags(parser)
    options, unknown = parser.parse_known_args(argv)

    from .monitor import Verdict, parse_policy, verify_script

    rules = parse_policy(list(unknown) + list(options.policy))
    with _observed("repro-verify", options):
        result = verify_script(
            _read_script(options.script),
            rules,
            n_args=options.n_args,
            args=options.args,
        )
    print(result.render())
    return 0 if result.verdict is Verdict.ALLOW else 1


# ---------------------------------------------------------------------------
# repro-served
# ---------------------------------------------------------------------------


def main_served(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-served",
        description="Resident analysis daemon: keeps the spec registry, "
        "DFA caches, and result cache warm and serves repro-analyze "
        "--server requests over a Unix socket (line-delimited JSON).",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="socket to listen on (default: $REPRO_SERVER_SOCKET or a "
        "per-user runtime path)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="size of the persistent analysis process pool "
        "(default: the machine's CPU count; 1 disables the pool)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache location "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro/analysis)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="serve without a result cache"
    )
    parser.add_argument(
        "--watch",
        nargs="+",
        default=None,
        metavar="PATH",
        help="watch mode: poll these files/directories and re-analyze "
        "scripts as they change, keeping the cache warm",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECS",
        help="watch-mode poll interval (default: 1s)",
    )
    parser.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="append structured JSONL ops events (request lifecycle, "
        "slow requests, watch scans, errors) to this file",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="minimum ops-log level (default: info)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a request.slow event for requests over this wall time "
        "(default: 1000ms)",
    )
    _add_common_flags(parser)
    options = parser.parse_args(argv)

    from .server import default_socket_path, serve
    from .server.daemon import DEFAULT_SLOW_MS

    socket_path = options.socket or default_socket_path()
    print(f"repro-served: listening on {socket_path}", file=sys.stderr)
    log = None
    if options.log_file:
        from .obs import OpsLogger

        log = OpsLogger(options.log_file, level=options.log_level)
    try:
        with _observed("repro-served", options) as recorder:
            server = serve(
                socket_path=socket_path,
                jobs=options.jobs,
                cache_dir=options.cache_dir,
                no_cache=options.no_cache,
                watch=options.watch,
                interval=options.interval,
                recorder=recorder,
                log=log,
                slow_ms=options.slow_ms if options.slow_ms is not None else DEFAULT_SLOW_MS,
                install_signals=True,
            )
    except KeyboardInterrupt:
        print("repro-served: interrupted", file=sys.stderr)
        return 0
    except OSError as exc:
        print(f"repro-served: cannot serve: {exc}", file=sys.stderr)
        return 2
    requests = server.recorder.counter("server.requests")
    print(f"repro-served: stopped after {requests} request(s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# repro-top
# ---------------------------------------------------------------------------


def _format_ms(value) -> str:
    if value is None:
        return "-"
    return f"{value:.1f}ms"


def _render_top_frame(stats: dict, previous=None) -> str:
    """One dashboard frame from a ``stats`` response.

    ``previous`` is ``(counters, monotonic_time)`` from the prior poll;
    when present, instantaneous rates are the counter deltas over the
    elapsed interval (otherwise only lifetime averages are shown).
    """
    counters = stats.get("metrics", {}).get("counters", {})

    def rate(name: str):
        if previous is None:
            return None
        prev_counters, prev_time, now = previous
        elapsed = now - prev_time
        if elapsed <= 0:
            return None
        return (counters.get(name, 0) - prev_counters.get(name, 0)) / elapsed

    def with_rate(count, name: str) -> str:
        instant = rate(name)
        return f"{count}" if instant is None else f"{count} ({instant:.1f}/s)"

    uptime = stats.get("uptime_s", 0.0)
    lines = [
        f"repro-top — repro-served pid {stats.get('pid', '?')} "
        f"v{stats.get('version', '?')} · uptime {uptime:.0f}s · "
        f"protocol {stats.get('protocol', '?')}",
        "",
        "  requests "
        + with_rate(stats.get("requests", 0), "server.requests")
        + f" · avg {stats.get('request_rate_rps', 0.0):.2f}/s"
        + f" · inflight {stats.get('inflight', 0)}/{stats.get('max_inflight', '?')}",
        f"  errors {stats.get('errors', 0)} · shed {stats.get('shed', 0)} · "
        f"slow(>{stats.get('slow_ms', 0):.0f}ms) {stats.get('slow_requests', 0)} · "
        f"budget clamps {stats.get('budget_clamps', 0)}",
    ]
    hit_rate = stats.get("cache_hit_rate")
    cache_pct = "-" if hit_rate is None else f"{100 * hit_rate:.1f}%"
    pool_state = "alive" if stats.get("pool_alive") else "idle/none"
    lines.append(
        f"  cache {cache_pct} hit "
        f"(hits {with_rate(stats.get('cache_hits', 0), 'batch.cache.hit')}, "
        f"misses {with_rate(stats.get('cache_misses', 0), 'batch.cache.miss')}) · "
        f"pool {stats.get('jobs', '?')} worker(s) [{pool_state}]"
    )
    lines.append(
        f"  watch rounds {stats.get('watch_rounds', 0)} · "
        f"watch stat errors {stats.get('watch_stat_errors', 0)} · "
        f"truncations {counters.get('symex.truncations', 0)} · "
        f"quarantined {counters.get('batch.quarantined', 0)}"
    )
    latency = stats.get("latency_ms", {})
    if latency:
        lines.append("")
        lines.append(
            f"  {'op':<12} {'n':>6} {'mean':>9} {'p50':>9} {'p95':>9} "
            f"{'p99':>9} {'max':>9}"
        )
        for op in sorted(latency):
            row = latency[op]
            lines.append(
                f"  {op:<12} {row.get('count', 0):>6} "
                f"{_format_ms(row.get('mean_ms')):>9} "
                f"{_format_ms(row.get('p50_ms')):>9} "
                f"{_format_ms(row.get('p95_ms')):>9} "
                f"{_format_ms(row.get('p99_ms')):>9} "
                f"{_format_ms(row.get('max_ms')):>9}"
            )
    hot = [
        name
        for name in ("batch.files", "symex.states_explored", "server.pool_rebuilds")
        if counters.get(name)
    ]
    if hot:
        lines.append("")
        for name in hot:
            lines.append(f"  {name} {'.' * max(2, 34 - len(name))} "
                         + with_rate(counters[name], name))
    return "\n".join(lines)


def main_top(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Live ops console for a running repro-served daemon: "
        "polls the stats op and renders request rates, per-op latency "
        "quantiles, cache hit rate, and shed/error counts.",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="analysis-server socket (default: $REPRO_SERVER_SOCKET or a "
        "per-user runtime path)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECS",
        help="poll interval (default: 2s)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no screen clearing; "
        "scriptable)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the daemon's Prometheus text exposition and exit",
    )
    _add_common_flags(parser)
    options = parser.parse_args(argv)

    import time as time_mod

    from .server import ServerClient, ServerError, ServerUnavailable

    previous = None
    while True:
        try:
            with ServerClient(options.socket) as client:
                if options.metrics:
                    print(client.metrics_text(), end="")
                    return 0
                while True:
                    stats = client.stats()
                    now = time_mod.monotonic()
                    frame_history = (
                        (previous[0], previous[1], now) if previous else None
                    )
                    frame = _render_top_frame(stats, frame_history)
                    previous = (
                        dict(stats.get("metrics", {}).get("counters", {})),
                        now,
                    )
                    if not options.once:
                        sys.stdout.write("\x1b[2J\x1b[H")
                    print(frame)
                    sys.stdout.flush()
                    if options.once:
                        return 0
                    time_mod.sleep(options.interval)
        except (ServerUnavailable, ServerError) as exc:
            print(f"repro-top: {exc}", file=sys.stderr)
            if options.once or options.metrics:
                return 1
            time_mod.sleep(options.interval)
        except KeyboardInterrupt:
            return 0


# ---------------------------------------------------------------------------
# repro-mine
# ---------------------------------------------------------------------------


def main_mine(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Mine a command's Hoare-triple specification from its "
        "documentation via instrumented probing (Fig. 4).",
    )
    parser.add_argument("command", help="command name (must have a bundled man page)")
    parser.add_argument(
        "--real", action="store_true", help="probe the real binary in a sandbox"
    )
    parser.add_argument("--max-flags", type=int, default=2)
    _add_common_flags(parser)
    options = parser.parse_args(argv)

    from .miner import ModelProber, SubprocessProber, mine_command

    prober = SubprocessProber() if options.real else ModelProber()
    with _observed("repro-mine", options):
        spec = mine_command(
            options.command, prober=prober, max_flags=options.max_flags
        )
    print(f"# mined specification for {spec.name}: {spec.summary}")
    for triple in spec.triples():
        print(triple)
    return 0


# ---------------------------------------------------------------------------
# repro-difftest
# ---------------------------------------------------------------------------


def main_difftest(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-difftest",
        description="Differential-correctness campaign: execute generated "
        "and corpus scripts in a confined sandbox and cross-check the "
        "static verdicts (dynamic oracle), and re-analyze "
        "semantics-preserving rewrites (metamorphic oracle); aggregate "
        "per-checker FP/FN counts into a deterministic precision benchmark.",
        epilog="exit status: 0 clean (or within baseline); 1 disagreements "
        "above baseline; 2 bad invocation",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=50,
        metavar="N",
        help="generate scripts for seeds 0..N-1 (safe mode; default 50)",
    )
    parser.add_argument(
        "--corpus",
        nargs="*",
        default=[],
        metavar="PATH",
        help="additional script files/directories/globs to campaign over",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run up to N scripts in parallel (default: cpu count)",
    )
    parser.add_argument(
        "--bench",
        default=None,
        metavar="FILE",
        help="write the precision benchmark JSON here (BENCH_precision.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare against this benchmark; exit 1 only on counts above it",
    )
    parser.add_argument(
        "--no-exec",
        action="store_true",
        help="skip the dynamic (execution) oracle",
    )
    parser.add_argument(
        "--no-meta",
        action="store_true",
        help="skip the metamorphic (rewrite) oracle",
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="keep full reproducers instead of minimizing disagreements",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECS",
        help="per-execution wall-clock limit inside the sandbox",
    )
    parser.add_argument(
        "--max-fork",
        type=int,
        default=16,
        metavar="N",
        help="analyzer fork bound for the campaign (default 16)",
    )
    options = parser.parse_args(argv)
    if options.no_exec and options.no_meta:
        print("repro-difftest: both oracles disabled", file=sys.stderr)
        return 2

    from .analysis.batch import discover
    from .analysis.difftest import (
        CampaignConfig,
        compare_to_baseline,
        run_campaign,
    )

    corpus = tuple(discover(options.corpus)) if options.corpus else ()
    config = CampaignConfig(
        seeds=tuple(range(max(0, options.seeds))),
        corpus=corpus,
        exec_enabled=not options.no_exec,
        meta_enabled=not options.no_meta,
        timeout=options.timeout,
        minimize=not options.no_minimize,
        max_fork=options.max_fork,
    )
    result = run_campaign(config, jobs=options.jobs)
    bench = result.to_bench_dict()
    if options.bench:
        with open(options.bench, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())

    scripts = bench["scripts"]
    print(
        f"{scripts['total']} script(s): {scripts['executed']} executed, "
        f"{scripts['skipped']} skipped"
    )
    for name, counts in sorted(bench["checkers"].items()):
        print(
            f"  {name}: checked={counts['checked']} fp={counts['fp']} "
            f"fn={counts['fn']}"
        )
    meta = bench["metamorphic"]
    print(f"  metamorphic: {meta['total_diffs']} diff(s)")
    for label, disagreement in result.disagreements:
        print(
            f"disagreement [{label}] {disagreement.checker}/"
            f"{disagreement.kind}: {disagreement.detail}"
        )

    if options.baseline:
        import json

        try:
            with open(options.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"repro-difftest: bad baseline: {exc}", file=sys.stderr)
            return 2
        problems = compare_to_baseline(bench, baseline)
        for problem in problems:
            print(f"regression: {problem}", file=sys.stderr)
        return 1 if problems else 0
    clean = not result.disagreements and meta["total_diffs"] == 0
    return 0 if clean else 1


_TOOLS = {
    "analyze": main_analyze,
    "optimize": main_optimize,
    "lint": main_lint,
    "typeof": main_typeof,
    "monitor": main_monitor,
    "verify": main_verify,
    "mine": main_mine,
    "served": main_served,
    "top": main_top,
    "difftest": main_difftest,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _TOOLS:
        print(f"usage: python -m repro.cli {{{','.join(_TOOLS)}}} ...", file=sys.stderr)
        return 2
    return _TOOLS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
