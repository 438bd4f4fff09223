"""EventLog: O(1) forking, provenance stamping, and region markers."""

from repro.fs import EventLog, FsEvent, FsOp, Origin


def filled(n, prefix="/f"):
    log = EventLog()
    for idx in range(n):
        log.record(FsOp.WRITE, f"{prefix}{idx}", idx)
    return log


class TestForking:
    def test_fork_shares_prefix_structurally(self):
        log = filled(5)
        child = log.fork()
        assert child._head is log._head  # same sealed segment chain
        assert child._tail == [] and log._tail == []

    def test_fork_isolation(self):
        log = filled(3)
        child = log.fork()
        log.record(FsOp.READ, "/parent-only", None)
        child.record(FsOp.READ, "/child-only", None)
        assert [e.path for e in log][-1] == "/parent-only"
        assert [e.path for e in child][-1] == "/child-only"
        assert len(log) == 4 and len(child) == 4

    def test_fork_of_fork(self):
        log = filled(2)
        a = log.fork()
        a.record(FsOp.READ, "/a", None)
        b = a.fork()
        b.record(FsOp.READ, "/b", None)
        assert [e.path for e in b] == ["/f0", "/f1", "/a", "/b"]
        assert [e.path for e in a] == ["/f0", "/f1", "/a"]

    def test_fork_copies_origin_and_task(self):
        log = EventLog()
        log.set_origin(Origin(label="cmd"))
        log.task = 7
        child = log.fork()
        assert child.origin.label == "cmd"
        assert child.task == 7


class TestJournal:
    def test_every_fork_records_into_the_journal(self):
        journal = []
        log = filled(2)
        log.journal = journal
        left, right = log.fork(), log.fork()
        left.record(FsOp.READ, "/left", 1)
        right.record(FsOp.WRITE, "/right", 2)
        right.fork().record(FsOp.DELETE, "/grandchild", 3)
        assert [e.path for e in journal] == ["/left", "/right", "/grandchild"]
        assert [e.path for e in left][-1] == "/left"

    def test_no_journal_by_default(self):
        log = filled(1)
        assert log.journal is None and log.fork().journal is None


class TestViews:
    def test_len_and_iter_across_segments(self):
        log = filled(4)
        log.fork()  # seals
        log.record(FsOp.READ, "/late", None)
        assert len(log) == 5
        assert [e.path for e in log] == ["/f0", "/f1", "/f2", "/f3", "/late"]
        assert log.events == list(log)

    def test_reads_writes_exclude_markers(self):
        log = EventLog()
        log.open_region(1, label="bg")
        log.record(FsOp.WRITE, "/w", 1)
        log.record(FsOp.READ, "/r", 2)
        log.close_region(1)
        assert [e.path for e in log.writes()] == ["/w"]
        assert [e.path for e in log.reads()] == ["/r"]


class TestProvenance:
    def test_record_stamps_origin_and_task(self):
        log = EventLog()
        origin = Origin(label="grep x f")
        log.set_origin(origin)
        log.task = 3
        log.record(FsOp.READ, "/f", 9, "contents")
        [event] = list(log)
        assert event.origin is origin
        assert event.task == 3

    def test_region_markers(self):
        log = EventLog()
        log.open_region(2, label="cmd >f", origin=Origin(label="cmd >f"))
        log.close_region(2, label="cmd >f")
        opened, closed = list(log)
        assert opened.op is FsOp.BG_OPEN and opened.region == 2
        assert closed.op is FsOp.BG_CLOSE and closed.region == 2
        assert opened.op.is_marker and closed.op.is_marker
        assert not FsOp.WRITE.is_marker

    def test_origin_describe(self):
        assert Origin(label="cmd").describe() == "`cmd`"
        assert "1:2" in Origin(label="cmd", pos="1:2").describe()
