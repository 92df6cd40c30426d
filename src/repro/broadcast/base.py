"""Session multiplexing: many protocol instances inside one process.

The MPC engines run n parallel AVSS instances, each of which runs reliable
broadcasts, while n binary-agreement instances run beside them. Rather than
one simulated process per protocol instance, a player runs one
:class:`SessionHost` process and any number of :class:`Session` objects
inside it, each addressed by a structured *session id* (sid).

Sids are tuples whose first element names the protocol type (registered in
:data:`SESSION_REGISTRY`), so a host can lazily instantiate the local
endpoint of a session the first time a message for it arrives — necessary
in an asynchronous network, where a peer's message can precede any local
decision to participate.

Sessions communicate through ``self.send`` / ``self.send_all`` (payloads are
automatically tagged with the sid) and report their result with
``self.finish(value)``. Anyone (typically a parent protocol) can subscribe
to a session's result with ``host.await_session(sid, callback)``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ProtocolError
from repro.sim.process import Context, Process

SESSION_REGISTRY: dict[str, type] = {}
"""Maps sid[0] to the Session subclass implementing that protocol."""


def register_session(name: str):
    """Class decorator: make a Session type instantiable from its sid."""

    def decorator(cls):
        if name in SESSION_REGISTRY and SESSION_REGISTRY[name] is not cls:
            raise ProtocolError(f"duplicate session type {name!r}")
        SESSION_REGISTRY[name] = cls
        cls.protocol_name = name
        return cls

    return decorator


class Session:
    """One protocol instance inside a :class:`SessionHost`.

    Subclasses implement :meth:`start` (called once, when the session is
    created locally or on first incoming message) and :meth:`handle`.
    State that must be reconstructible by a remote endpoint has to be
    derivable from the sid plus the host's shared ``config``.
    """

    protocol_name = "session"
    sid_len: Optional[int] = None
    """Length of a well-formed sid, or None when any length is. A peer's
    message under a sid of another length is noise."""
    peer_opened = True
    """Whether a peer's message may open this kind of session. When False,
    only a local ``open_session`` creates one, and a peer's message under
    a sid not yet open here is noise."""

    @classmethod
    def accepts(cls, sid: tuple) -> bool:
        return cls.sid_len is None or len(sid) == cls.sid_len

    def __init__(self, host: "SessionHost", sid: tuple) -> None:
        self.host = host
        self.sid = sid
        self.result: Any = None
        self.finished = False

    # -- environment shortcuts ----------------------------------------------

    @property
    def me(self) -> int:
        return self.host.me

    @property
    def peers(self) -> list[int]:
        return self.host.peers

    @property
    def n(self) -> int:
        return len(self.host.peers)

    @property
    def t(self) -> int:
        return self.host.config["t"]

    @property
    def rng(self):
        return self.host.current_rng()

    def config(self, key: str, default: Any = None) -> Any:
        return self.host.config.get(key, default)

    # -- messaging -----------------------------------------------------------

    def send(self, recipient: int, payload: Any) -> None:
        self.host.session_send(self.sid, recipient, payload)

    def send_all(self, payload: Any) -> None:
        """Send to every peer, including ourselves (simplifies thresholds)."""
        host, sid = self.host, self.sid
        session_send = host.session_send
        for peer in host.peers:
            session_send(sid, peer, payload)

    def finish(self, result: Any) -> None:
        """Record this session's result and notify subscribers (idempotent)."""
        if self.finished:
            return
        self.finished = True
        self.result = result
        self.host._session_finished(self.sid, result)

    # -- protocol hooks --------------------------------------------------------

    def start(self) -> None:
        """Called exactly once when the session comes into existence."""

    def handle(self, sender: int, payload: Any) -> None:
        raise NotImplementedError


class SessionHost(Process):
    """The per-player process multiplexing protocol sessions.

    ``config`` is shared by all sessions on this host and must agree across
    honest hosts on: ``t`` (fault bound), ``field``, and any dealt setup
    material. ``on_ready`` (if given) is called with the host once the
    process has started — used by top-level drivers to kick off root
    sessions.
    """

    def __init__(
        self,
        me: int,
        peers: list[int],
        config: dict,
        on_ready: Optional[Callable[["SessionHost"], None]] = None,
    ) -> None:
        self.me = me
        self.peers = list(peers)
        self.config = dict(config)
        self.config.setdefault("t", 0)
        self.on_ready = on_ready
        self.sessions: dict[tuple, Session] = {}
        self.results: dict[tuple, Any] = {}
        self._subscribers: dict[tuple, list[Callable[[tuple, Any], None]]] = {}
        self._ctx: Optional[Context] = None
        self._pending_sends: list[tuple[tuple, int, Any]] = []

    # -- session management ----------------------------------------------------

    def open_session(self, sid: tuple, cls: Optional[type] = None) -> Session:
        """Get or lazily create the local endpoint of session ``sid``."""
        session = self.sessions.get(sid)
        if session is not None:
            return session
        if cls is None:
            cls = SESSION_REGISTRY.get(sid[0])
            if cls is None:
                raise ProtocolError(f"unknown session type in sid {sid!r}")
        if not cls.accepts(sid):
            raise ProtocolError(f"malformed {cls.protocol_name} sid {sid!r}")
        session = cls(self, sid)
        self.sessions[sid] = session
        session.start()
        return session

    def await_session(
        self, sid: tuple, callback: Callable[[tuple, Any], None],
        create: bool = True,
    ) -> None:
        """Invoke ``callback(sid, result)`` when session ``sid`` finishes."""
        if sid in self.results:
            callback(sid, self.results[sid])
            return
        if create:
            self.open_session(sid)
        self._subscribers.setdefault(sid, []).append(callback)

    def _session_finished(self, sid: tuple, result: Any) -> None:
        self.results[sid] = result
        for callback in self._subscribers.pop(sid, []):
            callback(sid, result)

    # -- messaging plumbing ------------------------------------------------------

    def session_send(self, sid: tuple, recipient: int, payload: Any) -> None:
        """Every session message leaves through here (deviations override
        it to censor or rewrite a host's traffic)."""
        ctx = self._ctx
        if ctx is None:
            # Sends can be triggered before/outside an activation (e.g. by a
            # driver callback); they are flushed on the next activation.
            self._pending_sends.append((sid, recipient, payload))
            return
        ctx.send(recipient, (sid, payload))

    def current_rng(self):
        if self._ctx is None:
            raise ProtocolError("no active context (rng unavailable)")
        return self._ctx.rng

    def _flush_pending(self) -> None:
        pending, self._pending_sends = self._pending_sends, []
        for sid, recipient, payload in pending:
            self._ctx.send(recipient, (sid, payload))

    # -- Process interface ---------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._ctx = ctx
        try:
            if self.on_ready is not None:
                self.on_ready(self)
            if self._pending_sends:
                self._flush_pending()
        finally:
            self._ctx = None

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        self._ctx = ctx
        try:
            if self._pending_sends:
                self._flush_pending()
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], tuple)
            ):
                sid, inner = payload
                try:
                    session = self.sessions.get(sid)
                except TypeError:
                    return  # unhashable sid: Byzantine noise
                if session is None:
                    # A peer's message opens the local endpoint of a session
                    # of a registered, peer-opened kind under a well-formed
                    # sid; any other sid is noise.
                    cls = SESSION_REGISTRY.get(sid[0]) if sid else None
                    if (
                        cls is None
                        or not cls.peer_opened
                        or not cls.accepts(sid)
                    ):
                        return
                    session = self.open_session(sid, cls)
                session.handle(sender, inner)
                if self._pending_sends:
                    self._flush_pending()
            else:
                self.on_plain_message(ctx, sender, payload)
        finally:
            self._ctx = None

    def on_plain_message(self, ctx: Context, sender: int, payload: Any) -> None:
        """Hook for non-session messages. Honest hosts send none, so by
        default they are Byzantine noise and ignored."""

    def release(self) -> None:
        """Drop the sessions and subscriptions: each points back at this
        host. ``results`` stay readable."""
        self.sessions.clear()
        self._subscribers.clear()
