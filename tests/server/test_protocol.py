"""Wire-protocol unit tests: framing, config marshalling, socket paths."""

import dataclasses
import inspect
import io

import pytest

from repro.analysis import analyze
from repro.analysis.batch import BatchConfig
from repro.server import protocol


def _non_default(field: dataclasses.Field):
    """A value other than ``field``'s default, chosen from its type."""
    if isinstance(field.default, bool):
        return not field.default
    if isinstance(field.default, (int, float)):
        return field.default + 1
    for marker, value in (("Tuple", ("x",)), ("float", 0.5), ("int", 3)):
        if marker in str(field.type):
            return value
    raise AssertionError(f"no sample value for {field.name}: {field.type}")


class TestFraming:
    def test_encode_is_one_line(self):
        frame = protocol.encode({"op": "ping"})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_round_trip(self):
        message = {"op": "analyze", "source": "echo hi\n", "config": {}}
        assert protocol.decode(protocol.encode(message).rstrip(b"\n")) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json at all {")

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2, 3]")

    def test_read_message_eof(self):
        assert protocol.read_message(io.BytesIO(b"")) is None

    def test_read_message_sequence(self):
        stream = io.BytesIO(protocol.encode({"op": "ping"}) + protocol.encode({"op": "stats"}))
        assert protocol.read_message(stream) == {"op": "ping"}
        assert protocol.read_message(stream) == {"op": "stats"}
        assert protocol.read_message(stream) is None

    def test_ok_and_error_shapes(self):
        assert protocol.ok({"x": 1}) == {"ok": True, "result": {"x": 1}}
        assert protocol.error("boom") == {"ok": False, "error": "boom"}


class TestConfigMarshalling:
    def test_default_config_is_empty_on_the_wire(self):
        assert protocol.config_to_wire(BatchConfig()) == {}

    def test_round_trip_preserves_fingerprint(self):
        config = BatchConfig(
            args=("a", "b"),
            platform_targets=("debian",),
            include_lint=True,
            max_loop=3,
            timeout=5.0,
        )
        wire = protocol.config_to_wire(config)
        restored = protocol.config_from_wire(wire)
        assert restored == config
        assert restored.fingerprint() == config.fingerprint()

    def test_unknown_fields_ignored(self):
        restored = protocol.config_from_wire({"n_args": 2, "from_the_future": True})
        assert restored.n_args == 2

    def test_lists_become_tuples(self):
        restored = protocol.config_from_wire({"args": ["x", "y"]})
        assert restored.args == ("x", "y")

    def test_none_config(self):
        assert protocol.config_from_wire(None) == BatchConfig()

    @pytest.mark.parametrize(
        "field", dataclasses.fields(BatchConfig), ids=lambda field: field.name
    )
    def test_every_field_is_one_place(self, field):
        """Each option round-trips over the wire, and keys the cache and
        reaches analyze() exactly when it is not a budget limit."""
        config = BatchConfig(**{field.name: _non_default(field)})
        assert protocol.config_from_wire(protocol.config_to_wire(config)) == config
        is_budget = config.budget() is not None
        assert (config.fingerprint() != BatchConfig().fingerprint()) is not is_budget
        assert (field.name in config.analyze_kwargs()) is not is_budget
        if not is_budget:
            assert field.name in inspect.signature(analyze).parameters


class TestSocketPath:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(protocol.SOCKET_ENV, "/tmp/custom.sock")
        assert protocol.default_socket_path() == "/tmp/custom.sock"

    def test_default_is_per_user(self, monkeypatch):
        monkeypatch.delenv(protocol.SOCKET_ENV, raising=False)
        path = protocol.default_socket_path()
        assert path.endswith(".sock")
