"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FieldError(ReproError):
    """Invalid finite-field operation (mixed moduli, zero inverse, ...)."""


class DecodingError(ReproError):
    """Reed-Solomon / interpolation decoding failed (too many errors)."""


class SimulationError(ReproError):
    """The asynchronous simulation reached an invalid internal state."""


class SchedulerError(SimulationError):
    """A scheduler violated its contract (e.g. delivered unknown message)."""


class StepLimitExceeded(SimulationError):
    """The runtime hit its step limit before the run quiesced.

    This normally indicates a livelock in a protocol under test; fair
    schedulers plus terminating protocols should always quiesce.
    """


class GameError(ReproError):
    """Malformed game description (utility table shape, type space, ...)."""


class StrategyError(GameError):
    """A strategy was queried outside its domain."""


class ProtocolError(ReproError):
    """A distributed protocol received an impossible/forbidden message."""


class SecurityViolation(ProtocolError):
    """An invariant that the adversary model promises was broken.

    Raised by verification harnesses, never by honest protocol code paths.
    """


class CheatingDetected(ProtocolError):
    """A MAC/consistency check caught an incorrect share or message.

    For the epsilon-variant engines this is an *expected* runtime event
    (probability <= epsilon under an active adversary); the cheap-talk layer
    converts it into the deadlock/default-move path.
    """


class MediatorError(ReproError):
    """Mediator strategy violated canonical form or circuit constraints."""


class CompilationError(ReproError):
    """Cheap-talk compilation failed (bounds not met, missing punishment)."""


class LintError(ReproError):
    """Invalid ``repro lint`` invocation (unknown rule, bad path/ref).

    Findings are data, not exceptions — this is only for problems with the
    lint run itself.
    """


class StoreError(ReproError):
    """Invalid result-store operation (bad path, corrupt row, schema skew).

    The store's immutability contract — a cell fingerprint is written once
    and never overwritten — is enforced with ``INSERT OR IGNORE``, so
    contract violations surface as silent no-ops, not this error; this is
    only for problems with the store itself.
    """


class ObsError(ReproError):
    """Invalid telemetry operation (metric kind clash, malformed span JSON,
    unparseable Chrome trace document).

    Telemetry is strictly out-of-band: nothing in ``repro.obs`` may alter a
    ``RunRecord`` or stored byte, so this error never signals corrupted
    results — only a misuse of the observability API itself.
    """


class ExperimentError(ReproError):
    """Invalid experiment specification or registry lookup.

    Raised by the ``repro.experiments`` layer for unknown scenarios,
    schedulers, deviation profiles, malformed grids, and theorem/deviation
    combinations that do not make sense together.
    """


class SpecError(ExperimentError):
    """A scenario document does not parse into a :class:`ScenarioSpec`.

    Raised by ``ScenarioSpec.from_dict`` for unknown top-level keys — the
    message lists the accepted fields so stored PR-era documents that
    predate (or postdate) a spec axis fail loudly instead of silently
    dropping data. Subclasses :class:`ExperimentError` so existing callers
    that catch spec problems keep working.
    """


class NetError(ReproError):
    """Invalid real-network substrate operation (``repro.net``).

    Unknown latency-model names, transport wiring failures, and a TCP
    transport that stops making progress all surface here. Protocol-level
    problems keep their existing types (:class:`SimulationError` etc.) so
    a net run fails the same way a simulated run does.
    """


class FaultError(ReproError):
    """Invalid fault-injection operation (``repro.faults``).

    Unknown fault-plan names, malformed plan parameters (a crash step that
    never arrives, a partition that heals before it starts), and plans that
    target pids a scenario does not have all surface here. Failures *caused
    by* an injected fault are not errors at all — they are the experiment.
    """
