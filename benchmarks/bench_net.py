"""E12 — Network substrate: fifo kernel vs seeded latency vs TCP throughput.

Claims regenerated:
* ``runtime="net"`` — the simulated kernel under a ``LatencyScheduler`` —
  is record-equivalent to the fifo kernel on the netcheck reference cell
  (invariant 9), and its seeded-latency schedules are deterministic
  across repeats;
* every protocol message survives a real localhost TCP socket with the
  same payoffs and outcome taxonomy (timing fields relaxed);
* measured rows: wall-clock per schedule/substrate on the same Thm 4.1
  cell.
"""

import time

from conftest import report

from repro.experiments import ExperimentRunner, get_scenario
from repro.net.conformance import conformance_diff


def run_leg(runner, spec):
    t0 = time.perf_counter()
    result = runner.run(spec)
    return result, time.perf_counter() - t0


def test_substrate_throughput(benchmark):
    net_spec = get_scenario("netcheck-thm41").replace(
        deviations=("honest",), seed_count=1
    )
    sim_spec = net_spec.replace(runtime="sim", latency="zero")
    tcp_spec = get_scenario("netcheck-tcp")

    rows = []
    with ExperimentRunner() as runner:
        runner.run(sim_spec)  # warm the artifact caches
        sim, sim_s = run_leg(runner, sim_spec)
        net, net_s = run_leg(runner, net_spec)
        repeat, _ = run_leg(runner, net_spec)
        tcp, tcp_s = run_leg(runner, tcp_spec)
        tcp_sim, _ = run_leg(
            runner, tcp_spec.replace(runtime="sim", latency="zero")
        )

        assert conformance_diff(sim.records, net.records) == []
        assert net.records == repeat.records, "net repeats diverged"
        assert conformance_diff(tcp_sim.records, tcp.records) == []

        rows.append(f"sim kernel (fifo) n=9: {sim_s * 1000:7.1f} ms")
        rows.append(
            f"net (latency)     n=9: {net_s * 1000:7.1f} ms "
            f"({net_spec.latency})"
        )
        rows.append(
            f"net-tcp localhost n=5: {tcp_s * 1000:7.1f} ms "
            f"({tcp_spec.latency})"
        )
        report("E12 substrate throughput (fifo vs latency vs TCP)", rows)

        benchmark(lambda: runner.run(net_spec))
