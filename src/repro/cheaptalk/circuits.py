"""Arithmetic-circuit mediators for the game library.

Each library game gets a hand-built circuit whose cleartext semantics agree
with the spec's ``mediator_fn``/``mediator_dist``. The builder is picked by
game-name prefix, so :func:`mediator_circuit_for` checks every circuit it
builds against the spec's own ``mediator_dist`` before handing it out: a
``file:`` game whose name borrows a library prefix must not run that
library game's mediator. Builders that need parameters read them from the
spec's mediator rule, never from its name. Inputs are encoded types
(``spec.encode_type``), outputs encoded actions (``spec.decode_action``),
one private output wire per player labelled ``act@<pid>``.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.circuits import Circuit
from repro.errors import MediatorError
from repro.field import GF
from repro.games.library import GameSpec


def output_label(pid: int) -> str:
    return f"act@{pid}"


def default_inputs(spec: GameSpec) -> dict[int, int]:
    """The encoded input that stands in for each player whose own input
    never arrives: its type in the type space's first profile."""
    first = spec.game.type_space.profiles()[0]
    return {pid: spec.encode_type(first[pid]) for pid in range(spec.game.n)}


def _rule_params(spec: GameSpec, rule: str) -> dict:
    """The parameters of the spec's mediator rule, which must be ``rule``."""
    mediator = spec.definition.mediator if spec.definition is not None else {}
    if mediator.get("rule") != rule:
        raise MediatorError(
            f"the circuit for spec {spec.name!r} needs a {rule!r} mediator "
            f"rule, not {mediator.get('rule')!r}"
        )
    return mediator.get("params", {})


def _coin_circuit(spec: GameSpec, field: GF) -> Circuit:
    """Common random bit to everyone (consensus / section64 mediators)."""
    n = spec.game.n
    circuit = Circuit(field, f"coin-mediator({spec.name})")
    bit = circuit.randbit()
    for pid in range(n):
        circuit.output(bit, pid, output_label(pid))
    return circuit


def _majority_circuit(spec: GameSpec, field: GF) -> Circuit:
    """Majority of reported bits to everyone (byzantine agreement)."""
    n = spec.game.n
    circuit = Circuit(field, f"majority-mediator({spec.name})")
    bits = [circuit.input(pid) for pid in range(n)]
    maj = circuit.majority(bits)
    for pid in range(n):
        circuit.output(maj, pid, output_label(pid))
    return circuit


def _free_rider_circuit(spec: GameSpec, field: GF) -> Circuit:
    """Uniformly choose a duty subset; tell each player share/ride.

    Encoded actions: share=0, ride=1 (matching the spec's decoding).
    """
    n = spec.game.n
    m = int(_rule_params(spec, "rotate-duty")["count"])
    subsets = list(itertools.combinations(range(n), m))
    circuit = Circuit(field, f"free-rider-mediator(n={n},m={m})")
    pick = circuit.randint(len(subsets))
    domain = list(range(len(subsets)))
    for pid in range(n):
        table = {
            idx: (0 if pid in subset else 1)
            for idx, subset in enumerate(subsets)
        }
        wire = circuit.lookup(pick, table, domain)
        circuit.output(wire, pid, output_label(pid))
    return circuit


def _shamir_circuit(spec: GameSpec, field: GF) -> Circuit:
    """Linear reconstruction of the secret from the first d+1 share reports.

    Types are Shamir shares over Z_q embedded into the MPC field; the
    secret is a public linear combination (Lagrange weights at zero) of the
    first d+1 shares. No multiplications — reconstruction is free under
    MPC. Error correction against misreports is the ideal mediator's
    luxury; the circuit path documents this as a fidelity limit (misreports
    inside the quorum shift the recommendation, which the robustness
    experiments surface).
    """
    from repro.field import lagrange_coefficients_at_zero

    params = _rule_params(spec, "shamir-decode")
    q = int(params["modulus"])
    d = int(params["degree"])
    n = spec.game.n
    if field.p % q == 0:
        raise MediatorError("MPC field must differ from the share modulus")
    small = GF(q)
    xs = list(range(1, d + 2))
    lambdas = lagrange_coefficients_at_zero(small, xs)
    circuit = Circuit(field, f"shamir-mediator({spec.name})")
    ins = [circuit.input(pid) for pid in range(d + 1)]
    # Compute sum(lambda_i * share_i) mod q via lookup of each scaled term.
    domain = list(range(q))
    acc = None
    for wire, lam in zip(ins, lambdas):
        table = {v: (int(lam) * v) % q for v in domain}
        term = circuit.lookup(wire, table, domain)
        acc = term if acc is None else circuit.add(acc, term)
    # acc is a sum of residues: reduce modulo q with one more lookup.
    sum_domain = list(range((q - 1) * (d + 1) + 1))
    secret = circuit.lookup(acc, {v: v % q for v in sum_domain}, sum_domain)
    for pid in range(n):
        circuit.output(secret, pid, output_label(pid))
    return circuit


def _uniform_choice_circuit(spec: GameSpec, field: GF) -> Circuit:
    """Generic builder: mediator_dist is uniform over its cells.

    One randint gate selects the cell; each player's output is a lookup
    from the cell index to its encoded action. Covers chicken, volunteer,
    public-goods, minority, battle-of-sexes and any other uniform
    correlated device with an exact ``mediator_dist``.
    """
    n = spec.game.n
    dist = spec.mediator_dist(spec.game.type_space.profiles()[0])
    cells = sorted(dist)
    probs = [dist[c] for c in cells]
    if max(probs) - min(probs) > 1e-9:
        raise MediatorError(
            f"uniform-choice builder needs a uniform mediator_dist "
            f"({spec.name})"
        )
    encode_action = {v: k for k, v in spec.action_decoding.items()}
    circuit = Circuit(field, f"uniform-mediator({spec.name})")
    pick = circuit.randint(len(cells))
    domain = list(range(len(cells)))
    for pid in range(n):
        table = {
            idx: encode_action[cell[pid]] for idx, cell in enumerate(cells)
        }
        wire = circuit.lookup(pick, table, domain)
        circuit.output(wire, pid, output_label(pid))
    return circuit


_BUILDERS: dict[str, Callable[[GameSpec, GF], Circuit]] = {
    "consensus": _coin_circuit,
    "section64": _coin_circuit,
    "byz-agreement": _majority_circuit,
    "chicken": _uniform_choice_circuit,
    "free-rider": _free_rider_circuit,
    "shamir-secret": _shamir_circuit,
    "volunteer": _uniform_choice_circuit,
    "battle-of-sexes": _uniform_choice_circuit,
    "public-goods": _uniform_choice_circuit,
    "minority": _uniform_choice_circuit,
}


def _output_distribution(
    spec: GameSpec, circuit: Circuit, types: tuple
) -> dict[tuple, float]:
    """The circuit's exact distribution over decoded action profiles.

    Every ``randbit``/``randint`` gate is uniform and independent, so
    pinning each combination of their values (``randomness``) and
    evaluating in the clear enumerates the distribution exactly.
    """
    draws = [
        (idx, 2 if gate.op == "randbit" else gate.param)
        for idx, gate in enumerate(circuit.gates)
        if gate.op in ("randbit", "randint")
    ]
    weight = 1.0
    for _, size in draws:
        weight /= size
    inputs = {
        pid: spec.encode_type(types[pid]) for pid in circuit.input_players()
    }
    dist: dict[tuple, float] = {}
    for values in itertools.product(*(range(size) for _, size in draws)):
        randomness = {
            idx: circuit.field(value)
            for (idx, _), value in zip(draws, values)
        }
        out = circuit.evaluate(inputs, None, randomness=randomness)
        actions = tuple(
            spec.decode_action(int(out[output_label(pid)]))
            for pid in range(spec.game.n)
        )
        dist[actions] = dist.get(actions, 0.0) + weight
    return dist


def mediator_circuit_for(spec: GameSpec, field: GF) -> Circuit:
    """Build the arithmetic-circuit mediator for a library game.

    Raises :class:`MediatorError` when no builder matches the name, or
    when the built circuit's output distribution at the first type
    profile differs from ``spec.mediator_dist`` there.
    """
    for prefix, builder in _BUILDERS.items():
        if spec.name.startswith(prefix) or spec.name == prefix:
            circuit = builder(spec, field)
            circuit.validate()
            types = spec.game.type_space.profiles()[0]
            built = _output_distribution(spec, circuit, types)
            declared = spec.mediator_dist(types)
            if any(
                abs(built.get(cell, 0.0) - declared.get(cell, 0.0)) > 1e-9
                for cell in set(built) | set(declared)
            ):
                raise MediatorError(
                    f"the {prefix!r} circuit does not implement the "
                    f"mediator of spec {spec.name!r}: its output "
                    f"distribution at types {types} differs from the "
                    f"spec's mediator_dist"
                )
            return circuit
    raise MediatorError(f"no circuit builder for spec {spec.name!r}")
