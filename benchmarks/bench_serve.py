"""Advisory-service benchmark: latency/throughput under concurrent load.

Drives the asyncio policy-advisory service (:mod:`repro.fleet.service`)
with hundreds of concurrent in-process requests and reports the
latency distribution (p50/p95/p99) plus sustained throughput, then
checks the two load-shedding contracts:

* at a queue sized for the offered concurrency, *every* request
  completes (the service sustains >= 200 concurrent requests), and
* at a deliberately tiny queue, the excess is *rejected immediately*
  (bounded backpressure) — never silently dropped or left hanging.

``REPRO_SERVE_REQUESTS`` scales the storm (default 2,000).
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.analysis.tables import format_table
from repro.fleet import (
    AdvisoryService,
    FleetSimulator,
    PolicyIndex,
    PopulationModel,
    run_request_storm,
)
from repro.sim.system import ScaledRun

STORM_REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "2000"))
CONCURRENCY = 200


@pytest.fixture(scope="module")
def index():
    simulator = FleetSimulator(
        PopulationModel(seed=2015), run=ScaledRun(instructions=50_000)
    )
    return PolicyIndex.build(simulator)


def _profiles(n: int) -> list[dict]:
    """A deterministic sweep across the idle/intensity space."""
    return [
        {
            "idle_fraction": 0.55 + 0.44 * (i % 89) / 88.0,
            "mpki": 0.05 * (1.22 ** (i % 53)),
        }
        for i in range(n)
    ]


def test_bench_serve_throughput(benchmark, index, show):
    """>= 200 concurrent requests, all completed, percentiles recorded."""
    service = AdvisoryService(
        index, max_queue=512, workers=8, request_timeout_s=5.0
    )

    # Timed here rather than from benchmark.stats, which is absent
    # under --benchmark-disable.
    timing = {}

    def storm():
        async def run():
            await service.start()
            try:
                return await run_request_storm(
                    service, _profiles(STORM_REQUESTS), concurrency=CONCURRENCY
                )
            finally:
                await service.stop()

        start = time.perf_counter()
        outcomes = asyncio.run(run())
        timing["wall_s"] = time.perf_counter() - start
        return outcomes

    outcomes = benchmark.pedantic(storm, rounds=1, iterations=1)
    snapshot = service.metrics_snapshot()
    wall = timing["wall_s"]
    show(format_table(
        ["metric", "value"],
        sorted(outcomes.items())
        + sorted(snapshot.items())
        + [["requests/second", f"{STORM_REQUESTS / max(wall, 1e-9):,.0f}"]],
        title=(
            f"serve: {STORM_REQUESTS} requests at concurrency {CONCURRENCY}"
        ),
    ))
    assert outcomes["ok"] == STORM_REQUESTS
    assert outcomes["overloaded"] == outcomes["timeout"] == 0
    assert snapshot["queue_high_water"] <= 512
    # The percentile contract: latency tails are recorded and sane.
    assert "latency_p50_ms" in snapshot and "latency_p95_ms" in snapshot
    assert 0.0 <= snapshot["latency_p50_ms"] <= snapshot["latency_p95_ms"]


def test_bench_serve_backpressure(benchmark, index, show):
    """A tiny queue sheds excess load immediately and loses nothing."""
    service = AdvisoryService(
        index, max_queue=16, workers=2, request_timeout_s=5.0
    )
    n = 400

    def storm():
        async def run():
            await service.start()
            try:
                return await run_request_storm(
                    service, _profiles(n), concurrency=CONCURRENCY
                )
            finally:
                await service.stop()

        return asyncio.run(run())

    outcomes = benchmark.pedantic(storm, rounds=1, iterations=1)
    show(format_table(
        ["disposition", "count"],
        sorted(outcomes.items()),
        title=f"serve backpressure: queue 16, {n} offered",
    ))
    # Every request is accounted for: served or honestly rejected.
    assert sum(outcomes.values()) == n
    assert outcomes["ok"] >= 16
    assert outcomes["overloaded"] > 0
    assert outcomes["error"] == 0
    assert service.queue_high_water <= 16
