"""Wire fault classes: truncated, corrupt, oversized, and stalled
frames.  The invariant under test: every request that reaches the
daemon gets exactly one response envelope, and no wire-level fault
wedges a handler thread or kills the daemon."""

import json
import socket
import threading
import time

import pytest

from repro.server import protocol
from repro.server.protocol import (
    FrameReader,
    FrameTooLarge,
    PartialFrameTimeout,
    TruncatedFrame,
)

from .faults import read_until_closed, response_lines, send_raw


class TestFrameReaderUnits:
    """FrameReader over a socketpair: each failure mode is distinct."""

    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_reads_complete_frames(self):
        a, b = self._pair()
        a.sendall(b'{"op":"ping"}\n{"op":"stats"}\n')
        reader = FrameReader(b)
        assert reader.read_frame() == b'{"op":"ping"}'
        assert reader.read_frame() == b'{"op":"stats"}'
        a.close()
        assert reader.read_frame() is None  # clean EOF between frames
        b.close()

    def test_frame_split_across_chunks(self):
        a, b = self._pair()
        reader = FrameReader(b)
        result = {}

        def read():
            result["frame"] = reader.read_frame()

        thread = threading.Thread(target=read)
        thread.start()
        a.sendall(b'{"op":')
        time.sleep(0.05)
        a.sendall(b'"ping"}\n')
        thread.join(timeout=5.0)
        assert result["frame"] == b'{"op":"ping"}'
        a.close()
        b.close()

    def test_truncated_frame_raises(self):
        a, b = self._pair()
        a.sendall(b'{"op":"pi')  # no newline
        a.close()
        reader = FrameReader(b)
        with pytest.raises(TruncatedFrame):
            reader.read_frame()
        b.close()

    def test_oversized_frame_raises(self):
        a, b = self._pair()
        reader = FrameReader(b, max_bytes=64)
        a.sendall(b"x" * 200 + b"\n")
        with pytest.raises(FrameTooLarge):
            reader.read_frame()
        a.close()
        b.close()

    def test_oversized_without_newline_raises_early(self):
        a, b = self._pair()
        reader = FrameReader(b, max_bytes=64)
        a.sendall(b"y" * 200)  # still no terminator
        with pytest.raises(FrameTooLarge):
            reader.read_frame()
        a.close()
        b.close()

    def test_partial_frame_timeout(self, monkeypatch):
        monkeypatch.setattr(protocol, "FRAME_DEADLINE", 0.2)
        a, b = self._pair()
        a.sendall(b'{"op":')  # start a frame, then stall
        reader = FrameReader(b)
        started = time.monotonic()
        with pytest.raises(PartialFrameTimeout):
            reader.read_frame()
        assert time.monotonic() - started < 5.0
        a.close()
        b.close()

    def test_idle_connection_waits_without_deadline(self, monkeypatch):
        # the frame deadline starts at a frame's first byte: a client
        # that is quiet between requests is not cut off
        monkeypatch.setattr(protocol, "FRAME_DEADLINE", 0.1)
        a, b = self._pair()
        reader = FrameReader(b)
        result = {}
        thread = threading.Thread(
            target=lambda: result.setdefault("frame", reader.read_frame())
        )
        thread.start()
        time.sleep(0.3)
        a.sendall(b'{"op":"ping"}\n')
        thread.join(timeout=5.0)
        assert result["frame"] == b'{"op":"ping"}'
        a.close()
        b.close()


class TestDaemonWireFaults:
    """The live daemon answering raw (hostile) byte streams."""

    def test_garbage_json_gets_error_envelope(self, daemon):
        raw = send_raw(daemon.socket_path, b"this is not json\n")
        envelopes = response_lines(raw)
        assert len(envelopes) == 1
        assert envelopes[0]["ok"] is False
        assert "JSON" in envelopes[0]["error"] or "frame" in envelopes[0]["error"]

    def test_connection_survives_garbage_between_requests(self, daemon):
        # garbage then a valid ping on the same connection: the stream
        # resyncs at the newline and the ping still gets its envelope
        raw = send_raw(
            daemon.socket_path, b'not json\n{"op":"ping","telemetry":false}\n'
        )
        envelopes = response_lines(raw)
        assert len(envelopes) == 2
        assert envelopes[0]["ok"] is False
        assert envelopes[1]["ok"] is True
        assert isinstance(envelopes[1]["result"]["pid"], int)

    def test_truncated_frame_closes_silently(self, daemon):
        before = daemon.recorder.counter("server.requests")
        raw = send_raw(daemon.socket_path, b'{"op":"pi')  # EOF mid-frame
        assert response_lines(raw) == []  # peer is gone; nothing owed
        assert daemon.recorder.counter("server.requests") == before
        assert daemon.recorder.snapshot().counter("server.protocol_errors") >= 1

    def test_oversized_frame_answered_then_closed(self, tmp_path):
        from .conftest import start_daemon

        server, stop = start_daemon(tmp_path)
        try:
            huge = b'{"op":"analyze","source":"' + b"x" * 256 + b'"}\n'
            with _small_frame_limit(64):
                raw = send_raw(server.socket_path, huge + b'{"op":"ping"}\n')
            envelopes = response_lines(raw)
            # exactly one error envelope, then the daemon closed: the
            # trailing ping on the poisoned stream is never answered
            assert len(envelopes) == 1
            assert envelopes[0]["ok"] is False
            assert "exceeds" in envelopes[0]["error"]
        finally:
            stop()

    def test_stalled_partial_frame_answered_then_closed(self, tmp_path, monkeypatch):
        from .conftest import start_daemon

        monkeypatch.setattr(protocol, "FRAME_DEADLINE", 0.2)
        server, stop = start_daemon(tmp_path)
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(server.socket_path)
            sock.sendall(b'{"op":"ana')  # start, then stall
            envelopes = response_lines(read_until_closed(sock))
            sock.close()
            assert len(envelopes) == 1
            assert envelopes[0]["ok"] is False
            assert "deadline" in envelopes[0]["error"]
            assert (
                server.recorder.snapshot().counter("server.protocol_errors")
                >= 1
            )
        finally:
            stop()

    def test_exactly_one_envelope_per_request(self, daemon):
        payload = b"".join(
            protocol.encode({"op": "ping", "telemetry": False})
            for _ in range(5)
        )
        raw = send_raw(daemon.socket_path, payload)
        envelopes = response_lines(raw)
        assert len(envelopes) == 5
        assert all(env["ok"] for env in envelopes)
        request_ids = [env["request_id"] for env in envelopes]
        assert len(set(request_ids)) == 5  # distinct ids, no double answers


class _small_frame_limit:
    """Temporarily shrink the daemon-side frame limit (module global)."""

    def __init__(self, limit: int):
        self.limit = limit

    def __enter__(self):
        self.saved = protocol.MAX_LINE_BYTES
        protocol.MAX_LINE_BYTES = self.limit
        return self

    def __exit__(self, *exc):
        protocol.MAX_LINE_BYTES = self.saved
