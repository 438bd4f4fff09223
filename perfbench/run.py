#!/usr/bin/env python3
"""The analyzer's benchmark: four workloads, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it analyzes the sources under
``src/`` and ``examples/`` of that checkout.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` measures an untraced phase
and then a traced phase, and reports per-layer self time and counts
(see ``perfbench/README.md``).  The last line of standard output is the
result; the line before it holds details (report digest, failure
reasons, sample counts, percentiles, the unscaled timings).  Every
output is checked; a wrong one counts as a failed operation.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples" / "scripts"
#: everything a run writes goes below this directory of the checkout
TMP_ROOT = ROOT / ".perfbench_tmp"

#: set-up is repeated this many times per untraced run; the median is reported
SETUP_SAMPLES = 3

#: generated_seeds analyzes the scripts of these generator seeds, in an
#: order drawn from the workload seed.  The set is fixed because their
#: cost is heavy-tailed: a random draw of 15 from seeds 0-39 changes a
#: pass's time several-fold between workload seeds.  These are seeds
#: 0-19 without five of the six that take 0.6-4.5 s each (3, 7, 12, 13,
#: 17), so that a run holds several passes.  Seed 5, the heaviest
#: ``product`` user (thousands of calls on a few dozen operand pairs),
#: stays in: it is the case ROADMAP item 1's memoisation targets.
GENERATOR_SEEDS = (0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 14, 15, 16, 18, 19)

#: scripts served_mix never sends as ``optimize``: the plan of
#: fragment_pipeline.sh names a file-system node (``via node n0``) whose
#: number depends on what the process analyzed before, so a warm daemon's
#: plan differs from an inline one.  That is a defect of the analyzer,
#: recorded in perfbench/README.md; it is left out so that every
#: operation of the workload can pass on the current code.
OPTIMIZE_EXCLUDED = ("fragment_pipeline.sh",)

#: requests a served daemon answers before it is timed: one pass, then
#: hits.  Past 512 requests every request rebuilds the daemon's full
#: latency histograms (see perfbench/README.md), the state of a daemon
#: in use; a timed phase that crossed into it would measure two states.
PRIMING_REQUESTS = 600

#: the speed unit's time on the reference machine, one that runs it in
#: exactly a millisecond.  Every timing is reported as it would read
#: there (see "Machine speed" in perfbench/README.md).
REFERENCE_UNIT_S = 1e-3
#: the speed unit is timed this often, in a thread of its own
SPEED_PERIOD_S = 0.05


def _speed_unit() -> None:
    """A fixed piece of interpreter work, the yardstick of CPU speed."""
    table = {}
    for i in range(5000):
        table[i % 997] = table.get(i % 997, 0) + i


class Speedometer:
    """The speed of the CPU the run is pinned to, over time.

    The host runs that CPU at speeds that differ by up to 1.6 times and
    switch every few seconds.  A thread times :func:`_speed_unit` every
    :data:`SPEED_PERIOD_S` in its own CPU time (so a process that runs
    meanwhile on the CPU does not count), and :meth:`scale` turns the
    seconds of an operation into reference seconds."""

    def __init__(self):
        self.times = []
        self.units = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            _speed_unit()
            self.units.append(time.thread_time() - start)
            self.times.append(time.perf_counter())
            if self._stop.wait(SPEED_PERIOD_S):
                return

    def start(self) -> None:
        self._thread.start()
        self.wait_past(time.perf_counter())

    def close(self) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()

    def wait_past(self, moment: float) -> None:
        """Wait for a sample taken after ``moment``."""
        while not self.times or self.times[-1] <= moment:
            time.sleep(SPEED_PERIOD_S / 5)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``:
        the unit's reference time over its mean time in the samples from
        the last before ``start`` to the first after ``end``."""
        count = len(self.times)
        first = max(0, bisect.bisect_right(self.times, start, 0, count) - 1)
        last = min(count - 1, bisect.bisect_left(self.times, end, 0, count))
        return REFERENCE_UNIT_S / statistics.fmean(self.units[first:last + 1])

    def timed(self, fn) -> float:
        """Call ``fn`` and return its time in reference seconds."""
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        self.wait_past(end)
        return (end - start) * self.scale(start, end)


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(tmp / "cli-cache")
    env["REPRO_SERVER_SOCKET"] = str(tmp / "no-daemon.sock")
    return env


def _example_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(EXAMPLES.glob("*.sh"))}


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for index, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {index + 1}: got {a[:120]!r}, want {b[:120]!r}"
    return f"got {len(got_lines)} line(s), want {len(want_lines)}"


def _exit_code_for(report) -> int:
    """The ``repro-analyze`` exit status a report implies."""
    if report.unsafe:
        return 1
    return 3 if report.degraded else 0


def _predicts_buggy(report) -> bool:
    """E12's verdict rule (``benchmarks/test_bench_corpus.py``)."""
    return bool(
        report.errors()
        or [d for d in report.warnings() if d.source in ("semantic", "types")]
    )


class Outcome:
    """One operation.  ``key`` names the work it did (the script):
    operations with one key are repeats."""

    __slots__ = ("key", "latency_s", "text", "failure", "report", "handle_ms")

    def __init__(self, key, latency_s, text, failure=None, report=None, handle_ms=None):
        self.key = key
        self.latency_s = latency_s
        self.text = text
        self.failure = failure
        self.report = report
        self.handle_ms = handle_ms


class Phase:
    """The operations of one timed phase."""

    def __init__(self):
        #: in reference seconds
        self.latencies = []
        #: as measured
        self.raw_latencies = []
        self.keys = []
        self.failures = []
        self.attempted = 0
        self.passes = 0
        self.pass_seconds = []
        self.digest = hashlib.sha256()
        self.reports = []
        self.handle_ms = []
        self.transport_ms = []

    def add(self, outcome: Outcome, scale: float, first_pass: bool) -> None:
        self.attempted += 1
        self.latencies.append(outcome.latency_s * scale)
        self.raw_latencies.append(outcome.latency_s)
        self.keys.append(outcome.key)
        if outcome.failure:
            self.failures.append(outcome.failure)
        if first_pass:
            self.digest.update(outcome.text.encode("utf-8") + b"\0")
        if outcome.report is not None:
            self.reports.append(outcome.report)
        if outcome.handle_ms is not None:
            self.handle_ms.append(outcome.handle_ms)
            self.transport_ms.append(outcome.latency_s * 1e3 - outcome.handle_ms)

    @property
    def busy_s(self) -> float:
        """Operation time as measured."""
        return sum(self.raw_latencies)

    def typical_latencies(self) -> list:
        """Every operation's latency replaced by the median of its key's
        latencies in the phase (every key repeats across the passes).  The
        work of one key is deterministic, so its repeats differ only by
        interference from other processes on the machine; the median
        over a key's repeats filters that, and replacing every sample by
        it keeps each key at one rank, so a percentile names the same
        script in every run (see perfbench/README.md)."""
        typical = self.typical_by_key()
        return [typical[key] for key in self.keys]

    def typical_by_key(self, latencies=None) -> dict:
        samples = defaultdict(list)
        for key, latency in zip(self.keys, latencies or self.latencies):
            samples[key].append(latency)
        return {key: statistics.median(values) for key, values in samples.items()}


def measure(workload, seconds: float) -> Phase:
    """Whole passes in a closed loop until ``seconds`` have passed."""
    phase = Phase()
    speed = workload.speed
    timed = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in workload.pass_ops():
            op_start = time.perf_counter()
            outcome = workload.run(op)
            timed.append((outcome, op_start, time.perf_counter(), phase.passes == 0))
        phase.passes += 1
        phase.pass_seconds.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start >= seconds:
            break
    speed.wait_past(time.perf_counter())
    for outcome, op_start, op_end, first_pass in timed:
        phase.add(outcome, speed.scale(op_start, op_end), first_pass)
    return phase


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: fixed per workload so parent and change report the same percentile;
    #: chosen so that at least ten samples lie beyond it in a default run
    tail_pct = 50.0

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.rng = random.Random(f"{self.name}:{seed}")
        self.speed = Speedometer()
        self.tracer = None
        self.layer_snapshots = []
        self.import_ns = 0
        self.networkx_ns = 0
        #: wrapper targets that were not found (renamed or removed code)
        self.unwrapped = set()
        #: how many set-ups the run times (one when only per-layer metrics are wanted)
        self.setup_repeats = SETUP_SAMPLES
        #: a --trace 1 run: per-layer metrics only
        self.trace = False

    def setup(self) -> None:
        raise NotImplementedError

    def setup_samples(self, first: float) -> list:
        """Set-up reference seconds: this process's, plus fresh-process
        probes."""
        samples = [first]
        for _ in range(self.setup_repeats - 1):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", self.name,
                 "--seed", str(self.seed), "--setup-probe"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            if completed.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {completed.stderr[-2000:]}")
            samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
        return samples

    def pass_ops(self) -> list:
        raise NotImplementedError

    def run(self, op) -> Outcome:
        raise NotImplementedError

    def start_trace(self) -> None:
        """Install the layer wrappers in this process."""
        import layertrace

        self.tracer = layertrace.install(layertrace.Tracer(active=False))
        self.unwrapped.update(self.tracer.unwrapped)

    def layer_totals(self) -> dict:
        import layertrace

        snapshots = list(self.layer_snapshots)
        if self.tracer is not None:
            snapshots.append(self.tracer.snapshot())
        return layertrace.merge(*snapshots)

    def traced(self, fn, *args):
        """Call ``fn`` as one traced operation (no-op when untraced)."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.begin_op()
        self.tracer.active = True
        try:
            return fn(*args)
        finally:
            self.tracer.active = False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class InProcessWorkload(Workload):
    """Serial ``analyze`` calls in this process.  With ``cold_pass`` a
    first pass belongs to set-up and gives each script's reference
    render; without it the first render of each script is the
    reference the later passes must repeat."""

    cold_pass = True

    def items(self) -> list:
        """(label, source, analyze kwargs, expected buggy or None)."""
        raise NotImplementedError

    def setup(self) -> None:
        from repro.analysis import analyze

        self.analyze = analyze
        self.order = self.items()
        self.rng.shuffle(self.order)
        self.reference = {}
        if self.cold_pass:
            for label, source, kwargs, _ in self.order:
                self.reference[label] = analyze(source, **kwargs).render()

    def pass_ops(self) -> list:
        return self.order

    def _analyze(self, source, kwargs):
        report = self.analyze(source, **kwargs)
        return report, report.render()

    def run(self, op) -> Outcome:
        label, source, kwargs, buggy = op
        start = time.perf_counter()
        report, text = self.traced(self._analyze, source, kwargs)
        latency = time.perf_counter() - start
        failure = None
        expected = self.reference.setdefault(label, text)
        if report.degraded:
            failure = f"{label}: degraded report"
        elif text != expected:
            failure = (f"{label}: render differs from its reference, "
                       + _first_difference(text, expected))
        elif buggy is not None and _predicts_buggy(report) != buggy:
            failure = f"{label}: verdict does not match its label (buggy={buggy})"
        return Outcome(label, latency, text, failure, report=report)


class BatchCorpus(InProcessWorkload):
    name = "batch_corpus"
    tail_pct = 95.0

    def items(self) -> list:
        from repro.analysis.corpus import corpus

        items = [(f"examples/{name}", source, {}, None)
                 for name, source in _example_sources().items()]
        items += [(f"corpus/{script.name}", script.source, {"n_args": script.n_args}, script.buggy)
                  for script in corpus()]
        return items


class GeneratedSeeds(InProcessWorkload):
    name = "generated_seeds"
    tail_pct = 77.0
    #: generated scripts share little warm state: a first pass is no
    #: faster than a later one, so set-up is generating the scripts
    cold_pass = False

    def items(self) -> list:
        from repro.analysis.difftest.campaign import CampaignConfig
        from repro.analysis.difftest.gen import generate

        kwargs = CampaignConfig().analyze_kwargs()
        return [(f"gen/{seed}", generate(seed, safe=True), kwargs, None)
                for seed in GENERATOR_SEEDS]


class OneshotCli(Workload):
    """One fresh ``python -m repro.cli analyze FILE`` process per script."""

    name = "oneshot_cli"
    tail_pct = 66.0

    def setup(self) -> None:
        from repro.analysis import analyze

        sources = _example_sources()
        self.order = sorted(sources)
        self.rng.shuffle(self.order)
        self.expected = {}
        self.reports = {}
        for name in self.order:
            report = analyze(sources[name])
            self.reports[name] = report
            self.expected[name] = (report.render() + "\n", _exit_code_for(report))
        self.env = _child_env(self.tmp)
        self.max_rss_kb = 0
        self.trace_processes = False

    def pass_ops(self) -> list:
        return self.order

    def start_trace(self) -> None:
        self.trace_processes = True

    def run(self, name) -> Outcome:
        script = str((EXAMPLES / name).relative_to(ROOT))
        dump = self.tmp / "child-trace.json"
        if self.trace_processes:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "bootstrap.py"),
                   str(dump), "analyze", script]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "analyze", script]
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8")
        if self.trace_processes:
            self._absorb_child(dump, err_path)
        expected_out, expected_code = self.expected[name]
        failure = None
        if proc.returncode != expected_code:
            failure = f"{name}: exit {proc.returncode}, inline verdict implies {expected_code}"
        elif stdout != expected_out:
            failure = (f"{name}: stdout differs from the inline render, "
                       + _first_difference(stdout, expected_out))
        elif self.reports[name].degraded:
            failure = f"{name}: degraded report"
        return Outcome(name, latency, stdout, failure, report=self.reports[name])

    def _absorb_child(self, dump: Path, err_path: Path) -> None:
        with open(dump, encoding="utf-8") as handle:
            data = json.load(handle)
        self.layer_snapshots.append(data["totals"])
        self.unwrapped.update(data["unwrapped"])
        for line in err_path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us = int(fields[0])
            except ValueError:
                continue  # the column header
            self.import_ns += self_us * 1000
            if fields[2].strip().split(".")[0] == "networkx":
                self.networkx_ns += self_us * 1000

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


class ServedMix(Workload):
    """One client on one connection to a warm ``repro-served --jobs 1``
    daemon.  A pass removes the daemon's cache entries, then sends, per
    example script in one seeded order, an ``analyze`` (a miss) and an
    ``optimize`` (a miss), and then an ``analyze`` of every script again
    (hits).  A ``--trace 1`` run serves from an in-process
    ``AnalysisServer`` thread instead (as ``benchmarks/test_bench_server.py``
    does) in both of its phases, so the layer wrappers of this process
    see the client and the server."""

    name = "served_mix"
    tail_pct = 95.0
    #: request kind -> the per-request counter the daemon must report
    OUTCOMES = {"miss": "batch.cache.miss", "optimize": "optimize.cache.miss",
                "hit": "batch.cache.hit"}

    def setup(self) -> None:
        from repro.analysis import BatchConfig
        from repro.analysis.optimize import OptimizePlan

        self.config = BatchConfig()
        self.plan_type = OptimizePlan
        self.sources = _example_sources()
        names = sorted(self.sources)
        self.rng.shuffle(names)
        edits = []
        for name in names:
            edits.append(("miss", name))
            if name not in OPTIMIZE_EXCLUDED:
                edits.append(("optimize", name))
        self.order = edits + [("hit", name) for name in names]
        self.reference = {(kind, name): self._inline(kind, self.sources[name])
                          for kind, name in self.order}
        self.daemon = self.server = self.client = None
        self.daemons_started = 0
        #: traced self time per request kind and layer, and request counts
        self.kind_self_ns = defaultdict(lambda: defaultdict(int))
        self.kind_requests = defaultdict(int)
        self.setup_times = [self.speed.timed(self._restart_daemon)
                            for _ in range(self.setup_repeats)]

    def setup_samples(self, first: float) -> list:
        return self.setup_times

    def _restart_daemon(self) -> None:
        """Stop the running daemon, start one with an empty cache
        directory, wait for its first ping, and prime it with
        :data:`PRIMING_REQUESTS` requests."""
        from repro.analysis.cache import ResultCache
        from repro.server import AnalysisServer, ServerClient, ServerUnavailable
        from repro.server.client import CircuitBreaker

        self._stop_daemon()
        self.daemons_started += 1
        socket_path = os.path.relpath(self.tmp / f"d{self.daemons_started}.sock", ROOT)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))
        self.daemon_log = open(self.tmp / "daemon.log", "ab")
        if self.trace:
            self.server = AnalysisServer(socket_path=socket_path, jobs=1,
                                         cache=ResultCache(str(self.cache_dir)))
            self.daemon = threading.Thread(target=self.server.serve_forever)
            self.daemon.start()
        else:
            cmd = [sys.executable, "-m", "repro.cli", "served", "--socket", socket_path,
                   "--jobs", "1", "--cache-dir", str(self.cache_dir)]
            self.daemon = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(self.tmp),
                                           stdout=subprocess.DEVNULL, stderr=self.daemon_log)
        deadline = time.monotonic() + 60.0
        while True:
            if not self._daemon_alive() or time.monotonic() > deadline:
                log = (self.tmp / "daemon.log").read_text(encoding="utf-8", errors="replace")
                raise RuntimeError(f"daemon never answered: {log[-2000:]}")
            # the socket file appears at bind(), an instant before listen()
            if os.path.exists(socket_path):
                # a private breaker: start-up polling must not trip the shared one
                client = ServerClient(socket_path, breaker=CircuitBreaker())
                try:
                    client.connect().ping()
                    break
                except ServerUnavailable:
                    client.close()
            time.sleep(0.002)
        self.client = client
        priming = list(self.pass_ops())
        hits = [op for op in self.order if op[0] == "hit"]
        priming += [hits[i % len(hits)] for i in range(PRIMING_REQUESTS - len(priming))]
        for kind, name in priming:
            self._request(kind, self.sources[name])

    def _daemon_alive(self) -> bool:
        if self.trace:
            return self.daemon.is_alive()
        return self.daemon.poll() is None

    def _stop_daemon(self) -> None:
        if self.daemon is None:
            return
        from repro.server import ServerError, ServerUnavailable

        try:
            if self.client is None:
                raise ServerUnavailable("no client")
            self.client.shutdown()
        except (ServerUnavailable, ServerError):
            if self.trace:
                self.server._initiate_shutdown()
            else:
                self.daemon.terminate()
        if self.client is not None:
            self.client.close()
        if self.trace:
            self.daemon.join(timeout=20)
        else:
            try:
                self.daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.daemon_log.close()
        self.daemon = self.server = self.client = None

    def pass_ops(self) -> list:
        for entry in self.cache_dir.iterdir():
            shutil.rmtree(entry)
        return self.order

    def _request(self, kind, source):
        if kind == "optimize":
            plan = self.plan_type.from_dict(self.client.optimize_source(source, self.config))
            return None, plan.render(), plan.degraded
        report = self.client.analyze_source(source, self.config)
        return report, report.render(), report.degraded

    def _inline(self, kind, source) -> str:
        from repro.analysis import analyze
        from repro.analysis.optimize import optimize_source

        if kind == "optimize":
            return self.plan_type.from_dict(optimize_source(source, self.config)).render()
        return analyze(source, **self.config.analyze_kwargs()).render()

    def run(self, op) -> Outcome:
        kind, name = op
        before = dict(self.tracer.self_ns) if self.tracer is not None else None
        start = time.perf_counter()
        report, text, degraded = self.traced(self._request, kind, self.sources[name])
        latency = time.perf_counter() - start
        if before is not None:
            self.kind_requests[kind] += 1
            for layer, ns in self.tracer.self_ns.items():
                if "." not in layer:
                    self.kind_self_ns[kind][layer] += ns - before.get(layer, 0)
        counters = (self.client.last_metrics or {}).get("counters", {})
        failure = None
        if degraded:
            failure = f"{kind} {name}: degraded response"
        elif text != self.reference[op]:
            failure = (f"{kind} {name}: served render differs from the inline render, "
                       + _first_difference(text, self.reference[op]))
        elif not counters.get(self.OUTCOMES[kind]):
            failure = f"{kind} {name}: the daemon did not report {self.OUTCOMES[kind]}"
        return Outcome(f"{kind}:{name}", latency, text, failure, report=report,
                       handle_ms=self.client.last_elapsed_ms)

    def kind_self_ms(self) -> dict:
        """Traced self time per request of each kind, by layer."""
        return {kind: {layer: round(ns / 1e6 / self.kind_requests[kind], 4)
                       for layer, ns in sorted(layers.items())}
                for kind, layers in self.kind_self_ns.items()}

    @staticmethod
    def kind_p50_ms(phase: Phase) -> dict:
        """The p50 of each request kind over its scripts' typical latencies."""
        by_kind = defaultdict(list)
        for key, latency in phase.typical_by_key().items():
            by_kind[key.split(":", 1)[0]].append(latency)
        return {kind: statistics.median(by_kind[kind]) * 1e3 for kind in ServedMix.OUTCOMES}

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.daemon.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        self._stop_daemon()


WORKLOADS = {cls.name: cls for cls in (OneshotCli, BatchCorpus, GeneratedSeeds, ServedMix)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _tail(phase: Phase, pct: float) -> dict:
    n = len(phase.latencies)
    return {"percentile": pct, "samples": n,
            "beyond": n - max(1, math.ceil(pct / 100.0 * n))}


def end_to_end(workload, phase: Phase, setup: list) -> dict:
    typical = phase.typical_latencies()
    return {
        "setup_s": (statistics.median(setup), "s"),
        "scripts_per_s": (len(typical) / sum(typical), "1/s"),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "latency_tail_ms": (_percentile(typical, workload.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def per_layer(workload, untraced: Phase, traced: Phase) -> dict:
    import layertrace

    totals = workload.layer_totals()
    self_ns, calls, counts = totals["self_ns"], totals["calls"], totals["counts"]
    ops = traced.attempted

    def per_op_ms(ns):
        return ns / 1e6 / ops

    metrics = {
        "import.self_ms": (per_op_ms(workload.import_ns - workload.networkx_ns), "ms"),
        "import.networkx_ms": (per_op_ms(workload.networkx_ns), "ms"),
    }
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.self_ms"] = (per_op_ms(self_ns.get(layer, 0)), "ms")
    metrics["shell.calls"] = (calls.get("shell", 0) / ops, "count")
    metrics["expansion.calls"] = (calls.get("expansion", 0) / ops, "count")
    for field in ("paths_explored", "paths_merged", "truncations"):
        values = [getattr(report, field) for report in traced.reports] or [0]
        metrics[f"symex.{field}"] = (statistics.fmean(values), "count")
    for name in sorted(layertrace.DETAILED):
        key = f"rlang.{name}"
        metrics[f"{key}.self_ms"] = (per_op_ms(self_ns.get(key, 0)), "ms")
        metrics[f"{key}.calls"] = (calls.get(key, 0) / ops, "count")
    distinct = counts.get("rlang.product.distinct_pairs", 0)
    metrics["rlang.product.distinct_pairs"] = (distinct / ops, "count")
    metrics["rlang.product.reuse_ratio"] = (
        calls.get("rlang.product", 0) / distinct if distinct else 0.0, "ratio")
    lookups = counts.get("specs.lookups", 0)
    metrics["specs.lookups"] = (lookups / ops, "count")
    metrics["specs.hit_ratio"] = (counts.get("specs.hits", 0) / lookups if lookups else 0.0, "ratio")
    metrics["fs.forks"] = (counts.get("fs.forks", 0) / ops, "count")
    gets = counts.get("cache.gets", 0)
    metrics["cache.hit_ratio"] = (counts.get("cache.get_hits", 0) / gets if gets else 0.0, "ratio")
    metrics["server.handle_ms"] = (statistics.median(untraced.handle_ms) if untraced.handle_ms else 0.0, "ms")
    metrics["server.transport_ms"] = (
        statistics.median(untraced.transport_ms) if untraced.transport_ms else 0.0, "ms")
    attributed = sum(ns for key, ns in self_ns.items() if "." not in key) + workload.import_ns
    metrics["unattributed.self_ms"] = (per_op_ms(traced.busy_s * 1e9 - attributed), "ms")
    # per key, so that which scripts each phase happened to cover cancels out
    plain, wrapped = untraced.typical_by_key(), traced.typical_by_key()
    overhead = statistics.median(
        wrapped[key] / plain[key] for key in wrapped if key in plain) - 1.0
    metrics["trace_overhead_pct"] = (overhead * 100.0, "%")
    kinds = ServedMix.kind_p50_ms(untraced) if isinstance(workload, ServedMix) else {}
    for kind in ServedMix.OUTCOMES:
        metrics[f"served.{kind}_p50_ms"] = (kinds.get(kind, 0.0), "ms")
    return metrics


def _result(phases, metrics) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run(args) -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    workload = WORKLOADS[args.workload](args.seed, tmp)
    workload.trace = bool(args.trace)
    if args.trace or args.setup_probe:
        workload.setup_repeats = 1
    try:
        workload.speed.start()
        setup_first = workload.speed.timed(workload.setup)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        if args.trace:
            untraced = measure(workload, args.seconds / 2.0)
            workload.start_trace()
            traced = measure(workload, args.seconds / 2.0)
            phases = [untraced, traced]
            metrics = per_layer(workload, untraced, traced)
        else:
            setup = workload.setup_samples(setup_first)
            phase = measure(workload, args.seconds)
            phases = [phase]
            metrics = end_to_end(workload, phase, setup)
        head = phases[0]
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "report_digest": head.digest.hexdigest(),
            "failed_share": sum(len(p.failures) for p in phases) / sum(p.attempted for p in phases),
            "failures": [f for p in phases for f in p.failures][:10],
            "passes": [p.passes for p in phases],
            "pass_seconds": [round(t, 3) for p in phases for t in p.pass_seconds],
            "latency_tail": _tail(head, workload.tail_pct),
        }
        if args.trace:
            details["unwrapped"] = sorted(workload.unwrapped)
            if isinstance(workload, ServedMix):
                details["kind_self_ms"] = workload.kind_self_ms()
        else:
            details["setup_samples_s"] = setup
            raw = list(head.typical_by_key(head.raw_latencies)[key] for key in head.keys)
            details["unscaled"] = {"scripts_per_s": len(raw) / sum(raw),
                                   "latency_p50_ms": statistics.median(raw) * 1e3}
            details["speed_unit_ms"] = [round(q * 1e3, 4) for q in
                                        statistics.quantiles(workload.speed.units, n=4)]
            if isinstance(workload, ServedMix):
                details["kind_p50_ms"] = ServedMix.kind_p50_ms(head)
        print(json.dumps({"details": details}, sort_keys=True))
        print(json.dumps(_result(phases, metrics)))
        return 0
    finally:
        workload.close()
        workload.speed.close()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this fresh process and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not EXAMPLES.is_dir():
        print(f"perfbench: no analyzer sources under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))  # imported lazily: set-up times the import
    # The load is one closed loop, so nothing in it runs in parallel.  On
    # one CPU (inherited by the processes it starts) a client and its
    # daemon hand over without a cross-CPU wake-up, whose cost on a shared
    # VM follows the host's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still stops its daemon and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
