"""A library of deviation strategies for mediator and cheap-talk games.

Mediator-game deviations have signature ``factory(pid, own_type) -> Process``
(the :class:`~repro.mediator.games.MediatorGame` convention); cheap-talk
deviations take ``factory(pid, own_type, config) -> Process`` (they may need
the host config to participate in the protocol while misbehaving).

The catalogue covers the behaviours the paper's adversary can combine:
crashing, lying about inputs, sending corrupted protocol data, stalling
mid-protocol, selective silence toward a subset of players, and the
Section 6.1 covert-channel signalling to the environment via self-messages.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.cheaptalk.game import CheapTalkPlayer
from repro.mediator.protocol import HonestMediatorPlayer, mediator_pid
from repro.mpc.engine import MpcEngine
from repro.sim.process import Context, Process


# ---------------------------------------------------------------------------
# The uniform factory adapter
# ---------------------------------------------------------------------------

def _accepts_config(factory: Callable) -> bool:
    """Does ``factory`` expect the cheap-talk ``(pid, own_type, config)``?"""
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins / C callables: assume modern
        return True
    positional = 0
    for param in sig.parameters.values():
        if param.kind == param.VAR_POSITIONAL:
            return True
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            positional += 1
    return positional >= 3


class UniformDeviation:
    """One call shape over the two deviation-factory arities.

    Mediator-game factories take ``(pid, own_type)``; cheap-talk factories
    take ``(pid, own_type, config)``. Wrapping either in this adapter yields
    a callable that accepts *both* shapes — ``config`` defaults to ``None``
    and is forwarded only when the underlying factory wants it — so the
    audit strategy space (and anything else composing deviations across run
    modes) can treat every factory identically. Raw factories keep working
    everywhere they did before; the adapter is purely additive.
    """

    __slots__ = ("factory", "_takes_config")

    def __init__(self, factory: Callable) -> None:
        if isinstance(factory, UniformDeviation):
            factory = factory.factory
        self.factory = factory
        self._takes_config = _accepts_config(factory)

    def __call__(self, pid: int, own_type: Any, config: Any = None):
        if self._takes_config:
            return self.factory(pid, own_type, config)
        return self.factory(pid, own_type)


def unify_profile(profile: Mapping[int, Callable]) -> dict[int, UniformDeviation]:
    """Wrap every factory of a ``{pid: factory}`` profile in the adapter."""
    return {pid: UniformDeviation(factory) for pid, factory in profile.items()}


# ---------------------------------------------------------------------------
# Generic processes
# ---------------------------------------------------------------------------

class Crash(Process):
    """Never sends anything."""

    def on_message(self, ctx, sender, payload):
        pass


class StallAfter(Process):
    """Behave exactly like ``inner`` until ``limit`` activations, then stop.

    This is the canonical deadlock-forcing deviation for the punishment
    theorems: the deviator participates long enough to be depended upon,
    then goes silent.
    """

    def __init__(self, inner: Process, limit: int) -> None:
        self.inner = inner
        self.limit = limit
        self.activations = 0

    def on_start(self, ctx):
        self.activations += 1
        if self.activations <= self.limit:
            self.inner.on_start(ctx)

    def on_message(self, ctx, sender, payload):
        self.activations += 1
        if self.activations <= self.limit:
            self.inner.on_message(ctx, sender, payload)

    def on_deadlock(self, pid):
        return self.inner.on_deadlock(pid)

    def release(self):
        self.inner.release()


class CovertSignaller(Process):
    """Section 6.1's covert channel: encode observations in self-messages.

    After each delivered message, sends ``encode(payload)`` empty messages
    to itself, letting a colluding environment count them. Used by the
    coordination experiments (E12).
    """

    def __init__(self, inner: Process, encode: Callable[[Any], int]) -> None:
        self.inner = inner
        self.encode = encode

    def on_start(self, ctx):
        self.inner.on_start(ctx)

    def on_message(self, ctx, sender, payload):
        if payload != "__tick__":
            for _ in range(self.encode(payload)):
                ctx.send(ctx.pid, "__tick__")
            self.inner.on_message(ctx, sender, payload)

    def on_deadlock(self, pid):
        return self.inner.on_deadlock(pid)

    def release(self):
        self.inner.release()


# ---------------------------------------------------------------------------
# Mediator-game deviations: factory(pid, own_type) -> Process
# ---------------------------------------------------------------------------

def crash() -> Callable:
    return lambda pid, own_type: Crash()


def misreport(spec, fake_type: Any, will=None) -> Callable:
    """Report ``fake_type`` to the mediator but keep the true default move."""

    def factory(pid, own_type):
        player = HonestMediatorPlayer(spec, pid, fake_type, will=will)
        player.own_type = fake_type
        return player

    return factory


def stall_after_messages(spec, limit: int, will=None) -> Callable:
    def factory(pid, own_type):
        return StallAfter(
            HonestMediatorPlayer(spec, pid, own_type, will=will), limit
        )

    return factory


def disobedient(spec, remap: Callable[[Any], Any], will=None) -> Callable:
    """Follow the protocol but play ``remap(recommendation)`` at the end."""

    class Disobedient(HonestMediatorPlayer):
        def on_message(self, ctx, sender, payload):
            if (
                sender == mediator_pid(spec.game.n)
                and isinstance(payload, tuple)
                and payload[0] == "stop"
            ):
                if not ctx.has_output():
                    ctx.output(remap(payload[1]))
                ctx.halt()
                return
            super().on_message(ctx, sender, payload)

    return lambda pid, own_type: Disobedient(spec, pid, own_type, will=will)


# ---------------------------------------------------------------------------
# Cheap-talk deviations: factory(pid, own_type, config) -> Process
# ---------------------------------------------------------------------------

def ct_crash() -> Callable:
    return lambda pid, own_type, config: Crash()


def ct_misreport(spec, fake_type: Any, will=None) -> Callable:
    """Feed a forged input into the MPC engine."""

    def factory(pid, own_type, config):
        forged = dict(config)
        forged["mpc_input"] = spec.encode_type(fake_type)
        return CheapTalkPlayer(spec, pid, own_type, forged, will=will)

    return factory


class _LyingEngine(MpcEngine):
    """Engine variant adding an offset to every opening share it sends."""

    LIE_OFFSET = 3

    def _ensure_open(self, key, share, private_to=None):
        opening = self._opening(key, private_to)
        if opening.announced:
            return
        opening.announced = True
        opening.mine = share
        value = share.my_value(self.pack) + self.field(self.LIE_OFFSET)
        recipients = [private_to] if private_to is not None else self.peers
        for recipient in recipients:
            mac = None
            if self.mode == "bkr":
                mac = share.my_mac_for(recipient, self.pack)
            self.send(
                recipient,
                ("osh", key, int(value), None if mac is None else int(mac)),
            )
        self._try_resolve(key)


def ct_lying_shares(spec, will=None) -> Callable:
    """Send corrupted shares in every opening (defeated by EC or MACs)."""

    from repro.cheaptalk.game import ENGINE_SID

    def factory(pid, own_type, config):
        player = CheapTalkPlayer(spec, pid, own_type, config, will=will)
        original_kick = player._kick

        def kick(host):
            host.open_session(ENGINE_SID, cls=_LyingEngine)
            original_kick(host)

        player.on_ready = kick
        return player

    return factory


def ct_stall_after(spec, limit: int, will=None) -> Callable:
    """Participate honestly for ``limit`` activations, then go silent."""

    def factory(pid, own_type, config):
        return StallAfter(
            CheapTalkPlayer(spec, pid, own_type, config, will=will), limit
        )

    return factory


class _SelectiveSilenceHost(CheapTalkPlayer):
    """Honest computation, but never sends to the victim set."""

    victims: frozenset[int] = frozenset()

    def session_send(self, sid, recipient, payload):
        if recipient in self.victims:
            return
        super().session_send(sid, recipient, payload)


def ct_selective_silence(spec, victims: Iterable[int], will=None) -> Callable:
    victim_set = frozenset(victims)

    def factory(pid, own_type, config):
        player = _SelectiveSilenceHost(spec, pid, own_type, config, will=will)
        player.victims = victim_set
        return player

    return factory
