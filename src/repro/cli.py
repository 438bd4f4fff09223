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
- ``repro-difftest`` — differential-correctness campaign (precision benchmark)

This module holds the dispatcher, ``repro-analyze`` and the request
path analyze and optimize share; ``repro-optimize``, the other tools and
the ``--server`` path live in :mod:`repro.tools` and load on first use
(PEP 562), so a one-shot ``repro-analyze`` does not compile them.
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
from .lazy import exports


def _read_script(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _say(text: object = "", end: str = "\n") -> bool:
    """Print ``text`` to stdout; False once the reader has gone.

    A reader that stops early (``repro-analyze s.sh | head -1``) closes
    the pipe.  The rest of the output then goes to /dev/null, so the
    tool finishes without a traceback and exits with the status its
    verdict implies."""
    try:
        print(text, end=end, flush=True)
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False


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
            from .tools import run_via_server

            result = run_via_server(prog, op_name, options, config, source, inputs)
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
        _say(result.render(min_severity=min_severity))

    return _run_op("analyze", "repro-analyze", options, emit)


#: the tools ``python -m repro.cli`` dispatches to, each a ``main_<tool>``
_TOOLS = ("analyze", "optimize", "lint", "typeof", "monitor", "verify", "mine", "served",
          "top", "difftest")

#: the other tools' entry points, imported on first use
_LAZY = {f"main_{tool}": "tools" for tool in _TOOLS[1:]}
__getattr__ = exports(globals(), _LAZY)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _TOOLS:
        print(f"usage: python -m repro.cli {{{','.join(_TOOLS)}}} ...", file=sys.stderr)
        return 2
    name = f"main_{argv[0]}"
    return (globals().get(name) or __getattr__(name))(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
