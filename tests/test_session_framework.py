"""Tests for the session multiplexing framework (broadcast/base.py)."""

import pytest

from repro.broadcast import SESSION_REGISTRY, Session, SessionHost, register_session
from repro.errors import ProtocolError
from repro.sim import FifoScheduler, Runtime

from tests.helpers import run_hosts


@register_session("echo-test")
class EchoSession(Session):
    """Toy session: dealer (pid in sid) broadcasts; everyone echoes back;
    dealer finishes when it hears n echoes."""

    def __init__(self, host, sid):
        super().__init__(host, sid)
        self.echoes = set()

    def start(self):
        if self.me == self.sid[1]:
            self.send_all(("ping",))

    def handle(self, sender, payload):
        if payload[0] == "ping":
            self.send(self.sid[1], ("echo",))
            if self.me != self.sid[1]:
                self.finish("echoed")
        elif payload[0] == "echo" and self.me == self.sid[1]:
            self.echoes.add(sender)
            if len(self.echoes) == len(self.peers):
                self.finish("done")


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ProtocolError):
            @register_session("echo-test")
            class Other(Session):
                pass

    def test_reregistering_same_class_is_fine(self):
        register_session("echo-test")(EchoSession)

    def test_unknown_session_type_rejected(self):
        def kick(host):
            with pytest.raises(ProtocolError):
                host.open_session(("no-such-proto", 0))

        run_hosts(2, 0, on_ready=kick)


class TestLazyInstantiation:
    def test_remote_message_creates_local_endpoint(self):
        sid = ("echo-test", 0)

        def kick(host):
            if host.me == 0:
                host.open_session(sid)

        hosts, _ = run_hosts(3, 0, on_ready=kick)
        # Parties 1 and 2 never opened the session locally, yet it exists
        # and ran to completion.
        assert hosts[1].results[sid] == "echoed"
        assert hosts[0].results[sid] == "done"

    def test_await_already_finished_fires_immediately(self):
        sid = ("echo-test", 0)
        fired = []

        def kick(host):
            if host.me == 0:
                host.open_session(sid)

        hosts, _ = run_hosts(3, 0, on_ready=kick)
        hosts[1].await_session(sid, lambda s, r: fired.append((s, r)),
                               create=False)
        assert fired == [(sid, "echoed")]

    def test_finish_is_idempotent(self):
        sid = ("echo-test", 0)

        def kick(host):
            if host.me == 0:
                session = host.open_session(sid)

        hosts, _ = run_hosts(2, 0, on_ready=kick)
        session = hosts[0].sessions[sid]
        before = session.result
        session.finish("changed")  # ignored
        assert session.result == before


class TestHostPlumbing:
    def test_plain_message_ignored_by_default(self):
        # Honest hosts never send non-session messages, so a peer's is
        # Byzantine noise: the host must not crash on it.
        from repro.sim.process import FuncProcess

        host = SessionHost(1, [0, 1], {"t": 0})
        procs = {
            0: FuncProcess(on_start=lambda ctx: ctx.send(1, "not-a-session")),
            1: host,
        }
        result = Runtime(procs, FifoScheduler()).run()
        assert result.messages_delivered == 3
        assert host.sessions == {}

    def test_pending_sends_flush_on_next_activation(self):
        """Sends triggered outside an activation (driver callbacks) are
        queued and flushed when the host next runs."""
        sid = ("echo-test", 0)
        host = SessionHost(0, [0, 1], {"t": 0})
        peer = SessionHost(1, [0, 1], {"t": 0})
        # Queue a send before the simulation starts:
        host.session_send(sid, 1, ("ping",))
        assert host._pending_sends
        result = Runtime({0: host, 1: peer}, FifoScheduler()).run()
        assert not host._pending_sends
        assert peer.results.get(sid) == "echoed"

    def test_rng_requires_active_context(self):
        host = SessionHost(0, [0], {"t": 0})
        with pytest.raises(ProtocolError):
            host.current_rng()

    def test_config_defaults(self):
        host = SessionHost(0, [0], {})
        assert host.config["t"] == 0
