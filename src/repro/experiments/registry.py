"""The scenario registry: the paper's claims as named, runnable grids.

Each canonical scenario encodes one claim of AbrahamDGH19 (or one standard
comparison workload) as a :class:`~repro.experiments.spec.ScenarioSpec`.
``python -m repro scenarios`` lists them; ``python -m repro sweep <name>``
runs them; library users call :func:`get_scenario` /
:func:`register_scenario`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from repro.errors import ExperimentError
from repro.experiments.spec import ScenarioSpec

_SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(
    scenario: Union[ScenarioSpec, Callable[[], ScenarioSpec]]
) -> Union[ScenarioSpec, Callable[[], ScenarioSpec]]:
    """Register a spec, or decorate a zero-arg factory returning one."""
    spec = scenario() if callable(scenario) else scenario
    if not isinstance(spec, ScenarioSpec):
        raise ExperimentError(
            "register_scenario needs a ScenarioSpec or a factory returning one"
        )
    if spec.name in _SCENARIOS:
        raise ExperimentError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = spec
    return scenario


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; known scenarios: "
            f"{', '.join(scenario_names())}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def iter_scenarios() -> Iterator[ScenarioSpec]:
    for name in scenario_names():
        yield _SCENARIOS[name]


# ---------------------------------------------------------------------------
# Canonical scenarios (one per paper claim / comparison workload)
# ---------------------------------------------------------------------------

register_scenario(ScenarioSpec(
    name="thm41-honest",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo", "random", "eager"),
    deviations=("honest",),
    seed_count=3,
    description="Thm 4.1 (n>4k+4t): honest play coordinates under every "
                "environment.",
))

register_scenario(ScenarioSpec(
    name="thm41-crash-liar",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo", "random"),
    deviations=("honest", "crash+liar"),
    seed_count=2,
    description="Thm 4.1 tolerates k+t arbitrary deviators (crash + wrong "
                "shares).",
))

register_scenario(ScenarioSpec(
    name="thm42-epsilon",
    game="consensus",
    n=7,
    theorem="4.2",
    k=1,
    t=1,
    epsilon=1e-3,
    schedulers=("fifo", "random"),
    deviations=("honest", "lying-last"),
    seed_count=2,
    description="Thm 4.2 (n>3k+3t, ε via MAC field): liars are rejected.",
))

register_scenario(ScenarioSpec(
    name="thm44-punishment",
    game="consensus",
    n=8,
    theorem="4.4",
    k=1,
    t=1,
    schedulers=("fifo", "batch-random"),
    deviations=("honest", "stall-last"),
    seed_count=2,
    description="Thm 4.4 (n>3k+4t): punishment wills deter stalling.",
))

register_scenario(ScenarioSpec(
    name="thm45-punishment",
    game="consensus",
    n=6,
    theorem="4.5",
    k=1,
    t=0,
    epsilon=1e-3,
    schedulers=("fifo",),
    deviations=("honest", "stall-last"),
    seed_count=2,
    description="Thm 4.5 (n>2k+3t, ε): statistical substrate plus "
                "punishment wills.",
))

register_scenario(ScenarioSpec(
    name="r1-baseline",
    game="consensus",
    n=7,
    theorem="r1",
    k=1,
    t=1,
    seed_count=4,
    description="Synchronous R1 baseline at n>3k+3t (works where async "
                "Thm 4.1 refuses).",
))

register_scenario(ScenarioSpec(
    name="cost-asynchrony-sync",
    game="consensus",
    n=9,
    theorem="r1",
    k=1,
    t=1,
    seed_count=2,
    description="Cost of asynchrony, synchronous leg: R1 at n=9.",
))

register_scenario(ScenarioSpec(
    name="cost-asynchrony-async",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=2,
    description="Cost of asynchrony, asynchronous leg: Thm 4.1 at n=9 "
                "(compare message counts with the sync leg).",
))

register_scenario(ScenarioSpec(
    name="thm41-timing-models",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    timings=("async", "lockstep", "bounded-4", "bounded-32"),
    schedulers=("fifo", "random"),
    deviations=("honest",),
    seed_count=2,
    description="Thm 4.1 across timing models: the async protocol still "
                "coordinates under lock-step rounds and bounded-delay "
                "partial synchrony.",
))

register_scenario(ScenarioSpec(
    name="mediator-honest",
    game="consensus",
    n=9,
    theorem="mediator",
    k=1,
    t=1,
    schedulers=("fifo", "random", "laggard-first"),
    deviations=("honest",),
    seed_count=3,
    description="The ideal mediator game itself (the target the cheap talk "
                "implements).",
))

register_scenario(ScenarioSpec(
    name="sec64-leak-attack",
    game="section64",
    n=7,
    theorem="mediator",
    k=2,
    t=0,
    mediator_variant="leaky-sec64",
    schedulers=("colluding",),
    deviations=("leak-attack",),
    seed_count=10,
    description="Sec 6.4 counterexample: leaky mediator + colluding "
                "environment converts 1.0-runs into 1.1.",
))

register_scenario(ScenarioSpec(
    name="sec64-leaky-honest",
    game="section64",
    n=7,
    theorem="mediator",
    k=2,
    t=0,
    mediator_variant="leaky-sec64",
    schedulers=("colluding",),
    deviations=("honest",),
    seed_count=10,
    description="Sec 6.4 leaky mediator, honest play under the colluding "
                "environment — the audit baseline the searched coalition "
                "attack must beat.",
))

register_scenario(ScenarioSpec(
    name="sec64-minimal-honest",
    game="section64",
    n=7,
    theorem="mediator",
    k=2,
    t=0,
    mediator_variant="minimal-sec64",
    schedulers=("colluding",),
    deviations=("honest",),
    seed_count=10,
    description="Sec 6.4 minimally-informative mediator, honest play — the "
                "audit baseline against which no searched deviation "
                "profits.",
))

register_scenario(ScenarioSpec(
    name="sec64-minimal-defense",
    game="section64",
    n=7,
    theorem="mediator",
    k=2,
    t=0,
    mediator_variant="minimal-sec64",
    schedulers=("colluding",),
    deviations=("leak-attack",),
    seed_count=10,
    description="Sec 6.4 fix: against the minimally-informative transform "
                "the identical attack earns nothing.",
))

register_scenario(ScenarioSpec(
    name="consensus-scaling",
    game="consensus",
    n=9,
    theorem="mediator",
    k=1,
    t=0,
    games=("consensus@n3", "consensus@n5", "consensus@n7", "consensus@n9"),
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=2,
    description="The games axis scanning game size: the ideal consensus "
                "mediator from n=3 to n=9 in one grid.",
))

register_scenario(ScenarioSpec(
    name="mediator-fuzz",
    game="random@n4s0",
    n=4,
    theorem="mediator",
    k=1,
    t=0,
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=3,
    description="Seeded random mediator game (the audit-fuzz baseline "
                "template: `repro audit fuzz` swaps the game per seed).",
))

register_scenario(ScenarioSpec(
    name="byz-agreement-thm41",
    game="byz-agreement",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo", "random"),
    deviations=("honest",),
    seed_count=2,
    description="Byzantine agreement with input bits through the Thm 4.1 "
                "compiler (the introduction's motivating example).",
))

register_scenario(ScenarioSpec(
    name="chicken-mediator",
    game="chicken",
    n=2,
    theorem="mediator",
    k=1,
    t=0,
    schedulers=("fifo", "random"),
    deviations=("honest",),
    seed_count=6,
    description="Aumann's chicken under the correlated-equilibrium "
                "mediator (EGL comparison workload).",
))

# -- netcheck family: the real-network substrate vs. the simulated kernel --

register_scenario(ScenarioSpec(
    name="thm41-equivalence",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=1,
    description="Netcheck reference cell: Thm 4.1 honest play, single "
                "fifo/seed leg. Run it as-is for the simulated kernel, or "
                "with --runtime net --latency ... for seeded latency "
                "order; payoffs and outcome taxonomy must match "
                "(invariant 9).",
))

register_scenario(ScenarioSpec(
    name="netcheck-thm41",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo",),
    deviations=("honest", "crash+liar"),
    seed_count=2,
    runtime="net",
    latency="lognormal@m5s2",
    description="Thm 4.1 in the order of seeded lognormal latency — "
                "deterministic, and record-equivalent to the fifo "
                "schedule.",
))

register_scenario(ScenarioSpec(
    name="netcheck-sec64",
    game="section64",
    n=7,
    theorem="mediator",
    k=2,
    t=0,
    mediator_variant="minimal-sec64",
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=3,
    runtime="net",
    latency="gst-8-1@50",
    description="Sec 6.4 minimally-informative mediator over the wire: "
                "chaotic pre-GST latency settling to a fixed bound, same "
                "payoffs as the kernel's colluding-free baseline.",
))

register_scenario(ScenarioSpec(
    name="netcheck-tcp",
    game="consensus",
    n=5,
    theorem="4.1",
    k=1,
    t=0,
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=1,
    runtime="net-tcp",
    latency="fixed-2",
    description="n=5 localhost TCP smoke: every protocol message crosses "
                "a real socket; payoff/outcome parity with the simulated "
                "kernel (timing fields relaxed).",
))

# -- faultcheck family: the masking oracle's grids (repro faults check) --
#
# Every plan on these faults axes is *within budget* and must leave the
# honest players' records byte-identical to the fault-free leg; the
# over-budget plans expected to break live in
# repro.faults.masking.BREAKING_PLANS.

register_scenario(ScenarioSpec(
    name="faultcheck-thm41",
    game="consensus",
    n=9,
    theorem="4.1",
    k=1,
    t=1,
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=2,
    faults=(
        "none",
        "crash@p0s5",
        "crash@p0s5+crash@p8s9",
        "crash-restart@p2s6r40",
        "drop-0.05",
        "dup-0.1",
        "partition@{0,1}t10h60",
    ),
    description="Masking oracle, Thm 4.1 (n > 4k+4t): up to k+t crashes, "
                "a crash-restart, 5% loss, duplication, and a healed "
                "partition all leave honest records identical to the "
                "fault-free leg; k+t+1 crashes must break "
                "(`repro faults check`).",
))

register_scenario(ScenarioSpec(
    name="faultcheck-sec64",
    game="section64",
    n=7,
    theorem="mediator",
    k=2,
    t=0,
    mediator_variant="minimal-sec64",
    schedulers=("fifo",),
    deviations=("honest",),
    seed_count=2,
    faults=(
        "none",
        "crash@p0s5",
        "crash@p0s5+crash@p1s5",
    ),
    description="Masking oracle, Sec 6.4 mediator: up to k player crashes "
                "mask (the payoff table is flat in ≤k ⊥s), but crashing "
                "the mediator itself, a k+1-th crash, or mere 5% message "
                "loss breaks it — the single point of failure cheap talk "
                "removes (`repro faults check`).",
))

register_scenario(ScenarioSpec(
    name="raw-chicken-matrix",
    game="chicken",
    n=2,
    theorem="raw-game",
    k=1,
    t=0,
    action_profiles=(("D", "D"), ("D", "C"), ("C", "D"), ("C", "C")),
    description="The raw chicken payoff matrix (no simulation): the hull "
                "the correlated equilibrium beats.",
))
