"""The daemon's language table: one for the daemon's lifetime, shared by
every ``analyze`` and ``optimize`` request and handler thread, and
replaced once it holds more than ``LANGUAGE_STATES`` DFA states.  A
batch runs each file on a table of its own.

Sharing must be invisible.  A served payload equals the inline payload
of the same script whatever the daemon served before, also under a
DFA-state cap tight enough to degrade the report; handler threads that
share the table answer as serial inline runs do; and no two DFA
structures ever get one key, however the threads interleave."""

import functools
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis import deps as deps_mod
from repro.analysis import pipeline as pipeline_mod
from repro.analysis.corpus import corpus
from repro.analysis.difftest.gen import generate
from repro.analysis.optimize import advisor as advisor_mod
from repro.analysis.pipeline import OPS, BatchConfig, run_source
from repro.budget import ResourceBudget
from repro.rlang import Regex
from repro.rlang.table import RunTable
from repro.server import AnalysisServer, ServerClient, protocol
from repro.server import daemon as daemon_mod
from repro.symex import engine as engine_mod
from tests.serving import wait_until_serving

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scripts"

#: the generator seeds run at the campaign's fork cap: at the default
#: cap an optimize of seed 36 alone takes about 20 s
SEED_CONFIG = BatchConfig(max_fork=16)


def _examples():
    return [(path.stem, path.read_text(encoding="utf-8"), BatchConfig())
            for path in sorted(EXAMPLES.glob("*.sh"))]


def _corpus():
    return [(script.name, script.source, BatchConfig(n_args=script.n_args))
            for script in corpus()]


def _seeds(seeds=range(40)):
    return [(f"seed{seed:02d}", generate(seed, safe=True), SEED_CONFIG) for seed in seeds]


GROUPS = {"examples": _examples, "corpus": _corpus, "seeds": _seeds}


def _served(server, op, source, config):
    """The payload the daemon answers for one script."""
    response = server.handle_request(
        {"op": op, "source": source, "config": protocol.config_to_wire(config)}
    )
    assert response["ok"], response
    return response["result"][OPS[op].wire]


def _inline(server, op, source, config):
    """The payload an inline run gives under the daemon's clamped budget."""
    return run_source(op, source, server._clamped(config))[0]


def _mismatches(server, cases):
    """``(op, name)`` of every case whose served payload differs from its
    inline one.  The inline runs, each on a table of its own, go to one
    worker process and run beside the daemon's."""
    jobs = [(op, name, source, server._clamped(config))
            for name, source, config in cases for op in OPS]
    with ProcessPoolExecutor(max_workers=1) as pool:
        inline = [pool.submit(run_source, op, source, config) for op, _, source, config in jobs]
        served = [_served(server, op, source, config) for op, _, source, config in jobs]
        return [(op, name) for (op, name, _, _), want, got in zip(jobs, inline, served)
                if got != want.result()[0]]


@pytest.fixture(scope="module")
def server():
    """A daemon (no socket, no cache: every request is a miss) that has
    already served the labelled corpus."""
    server = AnalysisServer(socket_path="unbound.sock", jobs=1, cache=None)
    server.warm()
    for _, source, config in _corpus():
        for op in OPS:
            _served(server, op, source, config)
    return server


@pytest.mark.parametrize("group", list(GROUPS))
def test_served_payload_equals_inline_after_other_scripts(server, group):
    """Examples come after the corpus, the corpus a second time after
    itself, and every seed after the examples, the corpus and the seeds
    before it."""
    assert _mismatches(server, GROUPS[group]()) == []
    assert server._languages.leaves and server._languages.products
    assert server.recorder.counter("server.languages_reset") == 0


@contextmanager
def no_table():
    yield None


@pytest.mark.parametrize("cap", [4, 12, 40])
def test_tight_dfa_cap_serves_what_an_untabled_run_gives(server, monkeypatch, cap):
    """Every budget a request builds carries the cap.  The reference runs
    with no table at all; the daemon reuses automata it built uncapped
    for earlier requests, and must re-check each against the cap."""
    cases = _seeds((5, 11)) + [case for case in _examples() if case[0] == "steam_updater"]
    monkeypatch.setattr(
        pipeline_mod, "ResourceBudget", functools.partial(ResourceBudget, max_dfa_states=cap)
    )
    expected = {}
    with monkeypatch.context() as untabled:
        for module in (engine_mod, deps_mod, advisor_mod):
            untabled.setattr(module, "run_table", no_table)
        for name, source, config in cases:
            for op in OPS:
                expected[op, name] = _inline(server, op, source, config)
    served = {(op, name): _served(server, op, source, config)
              for name, source, config in cases for op in OPS}
    assert served == expected
    if cap == 4:
        assert all(OPS[op].payload_type.from_dict(payload).degraded
                   for (op, _), payload in served.items())


def test_handler_threads_answer_as_serial_inline_runs(tmp_path):
    """Four clients send every example through one daemon at once, in
    rotated orders, with a short switch interval; all share its table."""
    server = AnalysisServer(socket_path=str(tmp_path / "served.sock"), jobs=1, cache=None)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wait_until_serving(server.socket_path)
    requests = [(op, name, source) for name, source, _ in _examples() for op in OPS]
    serial = {(op, name): _inline(server, op, source, BatchConfig())
              for op, name, source in requests}
    clients = 4
    start = threading.Barrier(clients)
    got = {}

    def work(index):
        order = requests[index * 5:] + requests[:index * 5]
        with ServerClient(server.socket_path) as client:
            start.wait(10)
            got[index] = {(op, name): client.run(op, source) for op, name, source in order * 2}

    workers = [threading.Thread(target=work, args=(i,)) for i in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
    finally:
        sys.setswitchinterval(interval)
        server._initiate_shutdown()
        thread.join(timeout=5.0)
    assert not any(worker.is_alive() for worker in workers)
    assert got == {i: serial for i in range(clients)}


class _YieldingDict(dict):
    """A dict whose ``setdefault`` lets other threads run first: it
    widens the window between computing a new key and storing it, which
    an interpreter may open at any switch."""

    def setdefault(self, key, default=None):
        time.sleep(0.0002)
        return super().setdefault(key, default)


def test_threads_never_give_two_structures_one_key():
    """Threads key their own DFA objects for one list of patterns, each in
    another order, on one table: every thread gets one key per structure
    and no key names two structures."""
    patterns = [f"{chr(97 + i % 26)}{i}[a-c]*" for i in range(60)]
    threads = 4
    builds = [[Regex.compile(pattern).dfa for pattern in patterns] for _ in range(threads)]
    table = RunTable()
    table.keys = _YieldingDict()
    start = threading.Barrier(threads)
    got = {}

    def work(index):
        shift = index * len(patterns) // threads
        order = list(range(shift, len(patterns))) + list(range(shift))
        if index % 2:
            order.reverse()
        start.wait(10)
        got[index] = {i: table.key(builds[index][i]) for i in order}

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(60)
    keys = got[0]
    assert all(got[i] == keys for i in range(threads))
    assert len(set(keys.values())) == len(patterns) == len(table.keys)


def test_a_full_table_is_replaced_and_counted(monkeypatch):
    """Past the bound the next request starts a fresh table and counts
    ``server.languages_reset``; the payload does not change."""
    monkeypatch.setattr(daemon_mod, "LANGUAGE_STATES", 10)
    server = AnalysisServer(socket_path="unbound.sock", jobs=1, cache=None)
    source = (EXAMPLES / "steam_updater.sh").read_text(encoding="utf-8")
    wire = protocol.config_to_wire(BatchConfig())
    tables, responses = [], []
    for _ in range(3):
        responses.append(server.handle_request({"op": "analyze", "source": source, "config": wire}))
        tables.append(server._languages)
    counters = [response["metrics"]["counters"] for response in responses]
    assert "server.languages_reset" not in counters[0]
    assert [c.get("server.languages_reset") for c in counters[1:]] == [1, 1]
    assert server.recorder.counter("server.languages_reset") == 2
    assert responses[0]["result"] == responses[1]["result"] == responses[2]["result"]
    assert tables[0] is not tables[1] and tables[1] is not tables[2]
    # the last request's table took over its automata; the bound only
    # applies when the next request begins
    assert tables[2].states > 10


def test_a_batch_leaves_the_daemon_table_alone(monkeypatch):
    """An inline batch (``--jobs 1``) runs each file on a table of its
    own, as in-process callers do.  The bound is checked once per
    request, so a batch of any length must not grow the daemon's table:
    it ends the batch as it began, under the bound."""
    monkeypatch.setattr(daemon_mod, "LANGUAGE_STATES", 10)
    server = AnalysisServer(socket_path="unbound.sock", jobs=1, cache=None)
    server.warm()
    table, states = server._languages, server._languages.states
    wire = protocol.config_to_wire(BatchConfig())
    for op in OPS:
        response = server.handle_request(
            {"op": "batch", "of": op, "inputs": [str(EXAMPLES)], "config": wire}
        )
        assert response["ok"], response
        assert len(response["result"]["results"]) == len(_examples())
    assert server._languages is table and table.states == states
    assert server.recorder.counter("server.languages_reset") == 0
