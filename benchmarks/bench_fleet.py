"""Fleet-simulation benchmark: a million devices through sharded streams.

Times the two halves of :mod:`repro.fleet` separately:

* the **cohort pass** (real simulations through the cached runner —
  constant in fleet size), and
* the **device pass** (pure per-device arithmetic into mergeable
  aggregates — linear in fleet size, no per-device records kept),

then proves the headline property: the 1M-device fleet aggregated in
many shards is *numerically the same fleet* as one aggregated in a
single pass, because sampling is counter-based and the histograms merge
exactly.

``REPRO_FLEET_DEVICES`` scales the big run (default 1,000,000).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.tables import format_table
from repro.fleet import FleetSimulator, PopulationModel
from repro.sim.system import ScaledRun

FLEET_DEVICES = int(os.environ.get("REPRO_FLEET_DEVICES", "1000000"))

#: Cohort simulations stay short: fleet scaling is the point here.
COHORT_RUN = ScaledRun(instructions=50_000)


@pytest.fixture(scope="module")
def simulator():
    sim = FleetSimulator(
        PopulationModel(seed=2015), run=COHORT_RUN, shard_size=100_000
    )
    sim.build_profiles()  # pay the cohort pass once, outside the timers
    return sim


def test_bench_cohort_pass(benchmark):
    """The constant-cost half: every (benchmark, policy) cohort job."""

    def build():
        sim = FleetSimulator(
            PopulationModel(seed=2015), run=COHORT_RUN, shard_size=100_000
        )
        return sim.build_profiles()

    profiles = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(profiles) == 3 * 3  # personas x schemes


def test_bench_million_device_pass(benchmark, simulator, show):
    """The linear half: 1M devices streamed into shard aggregates."""

    # Timed here rather than from benchmark.stats, which is absent
    # under --benchmark-disable.
    timing = {}

    def simulate():
        start = time.perf_counter()
        report = simulator.simulate(FLEET_DEVICES)
        timing["wall_s"] = time.perf_counter() - start
        return report

    report = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert report.devices == FLEET_DEVICES
    assert report.shards == -(-FLEET_DEVICES // simulator.shard_size)
    summary = report.summary()
    rate = FLEET_DEVICES / max(timing["wall_s"], 1e-9)
    show(format_table(
        ["metric", "value"],
        [[k, v] for k, v in summary.items()]
        + [["devices/second", f"{rate:,.0f}"]],
        title=f"fleet: {FLEET_DEVICES:,} devices, {report.shards} shards",
    ))
    # The fleet-wide story must match the paper's device story: MECC
    # saves a large fraction of memory energy at a small IPC cost.
    assert summary["saving_fraction.mean"] > 0.25
    assert summary["normalized_ipc.mecc.mean"] > 0.9
    # Never slower than ~20k devices/s, or the streaming layer regressed.
    assert rate > 20_000


def test_bench_shard_invariance(benchmark, simulator):
    """Same seed, wildly different shard sizes -> identical aggregates."""
    devices = 30_000

    def both():
        coarse = FleetSimulator(
            simulator.population, run=COHORT_RUN, shard_size=devices
        ).simulate(devices)
        fine = FleetSimulator(
            simulator.population, run=COHORT_RUN, shard_size=1_024
        ).simulate(devices)
        return coarse, fine

    coarse, fine = benchmark.pedantic(both, rounds=1, iterations=1)
    assert coarse.shards == 1
    assert fine.shards == 30
    a, b = coarse.aggregate, fine.aggregate
    assert a.persona_counts == b.persona_counts
    assert a.best_policy_counts == b.best_policy_counts
    for name, metric in a.metrics.items():
        other = b.metrics[name]
        assert metric.histogram.counts == other.histogram.counts, name
        assert metric.moments.count == other.moments.count, name
        assert metric.moments.mean == pytest.approx(
            other.moments.mean, rel=1e-12, abs=1e-15
        ), name
