"""repro — reproduction of *Implementing Mediators with Asynchronous Cheap Talk*.

Abraham, Dolev, Geffner, Halpern (PODC 2019 / arXiv:1806.01214).

The package implements, from scratch:

* a deterministic asynchronous-network simulator with strategic
  environments (schedulers), including the paper's *relaxed* schedulers;
* normal-form Bayesian games and the paper's solution concepts
  (k-resilience, t-immunity, (k,t)-robustness and their epsilon variants);
* mediator games with arithmetic-circuit mediators, canonical form, and the
  Section 6.4 minimally-informative transform;
* the asynchronous secure-computation substrate (reliable broadcast, ABA,
  ACS, AVSS, robust Shamir openings, BCG-style t<n/4 and BKR-style t<n/3
  MPC engines);
* the cheap-talk compilers of Theorems 4.1, 4.2, 4.4 and 4.5, with both the
  AH-approach (wills) and default-move semantics for deadlock;
* analysis tooling: deviation library, empirical robustness checking,
  implementation distance, t-bisimulation/t-emulation/cotermination checks;
* the robustness-audit engine: coalition enumeration with symmetry
  reduction, compositional deviation search (exhaustive / random / greedy),
  and the (k, t, ε) robustness frontier.
"""

__version__ = "1.0.0"

from repro.errors import (
    ReproError,
    FieldError,
    DecodingError,
    SimulationError,
    GameError,
    ProtocolError,
    CheatingDetected,
    MediatorError,
    CompilationError,
)

__all__ = [
    "ReproError",
    "FieldError",
    "DecodingError",
    "SimulationError",
    "GameError",
    "ProtocolError",
    "CheatingDetected",
    "MediatorError",
    "CompilationError",
    "__version__",
    "compile_theorem41",
    "compile_theorem42",
    "compile_theorem44",
    "compile_theorem45",
    "compile_r1",
    "MediatorGame",
    "CheapTalkGame",
    "Runtime",
    "RunResult",
    "Scheduler",
    "scheduler_zoo",
    "TimingModel",
    "Asynchronous",
    "LockStep",
    "BoundedDelay",
    "timing_from_name",
    "make_game",
    "register_game",
    "GameDef",
    "register_family",
    "family_names",
    "random_game_def",
    "ScenarioSpec",
    "RunRecord",
    "ExperimentResult",
    "ExperimentRunner",
    "run_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "AuditSpec",
    "AuditResult",
    "run_audit",
    "run_frontier",
    "get_audit",
    "register_audit",
    "audit_names",
    "run_fuzz",
    "ResultStore",
    "StoreOutcome",
    "open_store",
    "resolve_store_path",
    "MetricsRegistry",
    "Span",
    "Tracer",
]

_SIM_EXPORTS = (
    "Runtime",
    "RunResult",
    "Scheduler",
    "scheduler_zoo",
    "TimingModel",
    "Asynchronous",
    "LockStep",
    "BoundedDelay",
    "timing_from_name",
)
_GAME_REGISTRY_EXPORTS = ("make_game", "register_game")
_GAME_DSL_EXPORTS = (
    "GameDef",
    "register_family",
    "family_names",
    "random_game_def",
)
_EXPERIMENT_EXPORTS = (
    "ScenarioSpec",
    "RunRecord",
    "ExperimentResult",
    "ExperimentRunner",
    "run_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
)
_STORE_EXPORTS = (
    "ResultStore",
    "StoreOutcome",
    "open_store",
    "resolve_store_path",
)
_OBS_EXPORTS = (
    "MetricsRegistry",
    "Span",
    "Tracer",
)
_AUDIT_EXPORTS = (
    "AuditSpec",
    "AuditResult",
    "run_audit",
    "run_frontier",
    "get_audit",
    "register_audit",
    "audit_names",
    "run_fuzz",
)


def __getattr__(name):
    """Lazy re-exports of the primary API (avoids import cycles at load)."""
    if name in (
        "compile_theorem41",
        "compile_theorem42",
        "compile_theorem44",
        "compile_theorem45",
    ):
        from repro import cheaptalk

        return getattr(cheaptalk, name)
    if name == "compile_r1":
        from repro.cheaptalk.sync import compile_r1

        return compile_r1
    if name == "CheapTalkGame":
        from repro.cheaptalk import CheapTalkGame

        return CheapTalkGame
    if name == "MediatorGame":
        from repro.mediator import MediatorGame

        return MediatorGame
    if name in _SIM_EXPORTS:
        from repro import sim

        return getattr(sim, name)
    if name in _GAME_REGISTRY_EXPORTS:
        from repro.games import registry

        return getattr(registry, name)
    if name in _GAME_DSL_EXPORTS:
        from repro import games

        return getattr(games, name)
    if name in _EXPERIMENT_EXPORTS:
        from repro import experiments

        return getattr(experiments, name)
    if name in _AUDIT_EXPORTS:
        from repro import audit

        return getattr(audit, name)
    if name in _STORE_EXPORTS:
        from repro import store

        return getattr(store, name)
    if name in _OBS_EXPORTS:
        from repro import obs

        return getattr(obs, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
