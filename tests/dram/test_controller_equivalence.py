"""The flat memory controller reproduces the object-per-bank oracle exactly.

Seeded random read/write streams drive :class:`MemoryController` and
``tests.dram.reference_controller.ReferenceMemoryController`` side by
side.  Every read completion, every ``flush_writes`` result, every
``ControllerStats`` field and all per-bank, per-rank and per-channel
state must agree after every call, value *and* type (so a ``max`` tie broken the other way shows up under
float timings).  Whole simulations of every policy must also return equal
``SimResult`` objects on either controller.
"""

from __future__ import annotations

import random

import pytest

from repro.core.policy import Ecc6Policy, MeccPolicy, NoEccPolicy, SecdedPolicy
from repro.core.smd import SelectiveMemoryDowngrade
from repro.dram.config import DramOrganization, DramTimings
from repro.dram.controller import MemoryController
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationEngine
from repro.workloads.spec import BENCHMARKS_BY_NAME
from tests.dram.reference_controller import ReferenceMemoryController

#: 2 channels x 2 ranks x 4 banks, 2 KB rows.
MULTI_ORG = DramOrganization(
    capacity_bytes=2 * 2 * 4 * 1024 * 2048, channels=2, ranks=2, banks=4, rows=1024
)
#: 3 channels x 1 rank x 3 banks: a bank count that is not a power of two.
ODD_ORG = DramOrganization(
    capacity_bytes=3 * 1 * 3 * 512 * 1024, channels=3, ranks=1, banks=3, rows=512
)
#: Fractional timings: every derived cycle is a non-integral float.
FRACTIONAL_TIMINGS = DramTimings(
    t_rcd=24.5, t_rp=23.25, t_cl=24.0, t_ras=64.5, t_rc=88.25, t_burst=32.5,
    t_wr=24.0, t_rfc=176.5, t_refi=12496.5, t_xp=16.5, t_rrd=16.25, t_faw=80.75,
)
#: Integral-valued floats mixed with ints: int and float cycles tie, so
#: which side of a ``max`` wins shows up in the result's type.
MIXED_TIMINGS = DramTimings(
    t_xp=16.0, t_rrd=16.0, t_faw=80.0, t_rfc=176.0, t_refi=12496.0
)
#: A refresh window every 400 cycles: accesses collide with it often.
TIGHT_REFRESH = DramTimings(t_rfc=150, t_refi=400)
#: 8 banks per rank: more ACTs in flight than the tFAW window admits.
EIGHT_BANK_ORG = DramOrganization(banks=8, rows=8 * 1024)
#: A tFAW longer than a row access: it binds even with 4 banks per rank.
WIDE_FAW = DramTimings(t_faw=200)

SCENARIOS = {
    "row-interleaved": {},
    "block-interleaved": {"mapping_policy": "block-interleaved"},
    "multi-channel-rank": {"org": MULTI_ORG},
    "multi-channel-rank-block": {"org": MULTI_ORG, "mapping_policy": "block-interleaved"},
    "odd-bank-count": {"org": ODD_ORG},
    "odd-bank-count-block": {"org": ODD_ORG, "mapping_policy": "block-interleaved"},
    "fractional-timings": {"timings": FRACTIONAL_TIMINGS},
    "mixed-float-timings": {"timings": MIXED_TIMINGS},
    "tight-refresh": {"timings": TIGHT_REFRESH},
    "eight-bank-rank": {"org": EIGHT_BANK_ORG},
    "wide-faw": {"timings": WIDE_FAW},
    "small-write-queue": {"write_queue_capacity": 3, "write_drain_low": 1},
    "short-powerdown-gap": {"powerdown_gap_cycles": 4},
}

STREAM_OPS = 4000


def _typed(value):
    return type(value).__name__, value


def _stats(controller):
    return {k: _typed(v) for k, v in vars(controller.stats).items()}


def _state(flat, ref):
    """Comparable (flat, reference) snapshots of all per-run state."""
    def typed_list(values):
        return [_typed(v) for v in values]

    flat_state = (
        typed_list(flat.open_row),
        typed_list(flat.ready_at),
        typed_list(flat.last_act_at),
        typed_list(flat._data_bus_free_at),
        typed_list(flat._last_act_start),
        [typed_list(w) for w in flat._act_window],
        _typed(flat._busy_until),
        _typed(flat._next_refresh_at),
        list(flat.write_queue),
    )
    ref_state = (
        typed_list(b.open_row for b in ref.banks),
        typed_list(b.ready_at for b in ref.banks),
        typed_list(b.last_act_at for b in ref.banks),
        typed_list(ref._data_bus_free_at),
        typed_list(ref._last_act_start),
        [typed_list(w) for w in ref._act_window],
        _typed(ref._busy_until),
        _typed(ref._next_refresh_at),
        list(ref.write_queue),
    )
    return flat_state, ref_state


def _address(rng, org, last):
    """A mix of row hits, same-bank conflicts, new banks and wrap-arounds."""
    line = org.line_bytes
    pick = rng.random()
    if pick < 0.35:
        return last + line  # sequential: mostly row hits
    if pick < 0.55:
        return last + rng.randrange(1, 64) * org.row_bytes  # other rows/banks
    if pick < 0.75:
        return rng.randrange(0, 16 * org.row_bytes, line)  # a few hot rows
    if pick < 0.95:
        return rng.randrange(0, org.capacity_bytes, line)
    return rng.randrange(org.capacity_bytes, 3 * org.capacity_bytes, line)  # wraps


def _gap(rng):
    pick = rng.random()
    if pick < 0.3:
        return 0
    if pick < 0.8:
        gap = rng.randrange(1, 40)
    elif pick < 0.97:
        gap = rng.randrange(40, 2000)
    else:
        gap = rng.randrange(2000, 60_000)  # long idle: power-down, skipped refreshes
    # Half the gaps keep the clock on the 8-cycle grid every default timing
    # sits on, so arrivals often tie with a bank, rank or bus timestamp.
    return gap - gap % 8 if rng.random() < 0.5 else gap


def _drive(seed, refresh=True, **kwargs):
    """Run one seeded stream on both controllers, checking after every call."""
    flat = MemoryController(**kwargs)
    ref = ReferenceMemoryController(**kwargs)
    if not refresh:
        flat.set_refresh_enabled(False)
        ref.set_refresh_enabled(False)
    org = flat.org
    rng = random.Random(seed)
    now = 0
    address = 0
    totals: dict[str, int] = {}
    for step in range(STREAM_OPS):
        if step == STREAM_OPS // 2:
            for name, value in vars(flat.stats).items():
                totals[name] = totals.get(name, 0) + value
            flat.reset()
            ref.reset()
            now = rng.randrange(0, 5000)
        now += _gap(rng)
        address = _address(rng, org, address)
        op = rng.random()
        if op < 0.6:
            done = flat.read(address, now)
            assert _typed(done) == _typed(ref.read(address, now)), step
            if rng.random() < 0.7:  # a blocking read moves the clock
                now = done + rng.choice((0, 0, 2, 8, 30))
        elif op < 0.9:
            flat.write(address, now)
            ref.write(address, now)
        elif op < 0.98:
            # Short runs, and bursts long enough to force a drain.
            n = rng.randrange(1, 8) if rng.random() < 0.7 else rng.randrange(24, 48)
            addresses = [_address(rng, org, address) for _ in range(n)]
            nows = [now + i * rng.randrange(0, 3) for i in range(len(addresses))]
            flat.write_batch(addresses, nows)
            ref.write_batch(addresses, nows)
            now = nows[-1]
        else:
            done = flat.flush_writes(now)
            assert _typed(done) == _typed(ref.flush_writes(now)), step
        assert _stats(flat) == _stats(ref), step
        flat_state, ref_state = _state(flat, ref)
        assert flat_state == ref_state, step
    for name, value in vars(flat.stats).items():
        totals[name] = totals.get(name, 0) + value
    return totals


class TestControllerMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_stream_identical(self, scenario, seed):
        totals = _drive(seed, **SCENARIOS[scenario])
        # The streams must reach the paths they are meant to lock down.
        assert totals["activates"] > 0 and totals["row_hits"] > 0
        assert totals["powerdown_exits"] > 0
        assert totals["write_drains"] > 0
        assert totals["refresh_windows_hit"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_refresh_disabled(self, seed):
        totals = _drive(seed, refresh=False)
        assert totals["refresh_windows_hit"] == 0
        assert totals["activates"] > 0

    def test_refresh_toggled_mid_stream(self):
        flat = MemoryController(timings=TIGHT_REFRESH)
        ref = ReferenceMemoryController(timings=TIGHT_REFRESH)
        rng = random.Random(7)
        now = 0
        for step in range(3000):
            if step % 500 == 0:
                enabled = (step // 500) % 2 == 1
                flat.set_refresh_enabled(enabled)
                ref.set_refresh_enabled(enabled)
            now += _gap(rng)
            address = rng.randrange(0, 1 << 24, 64)
            assert flat.read(address, now) == ref.read(address, now)
        assert _stats(flat) == _stats(ref)
        assert flat.stats.refresh_windows_hit > 0

    def test_negative_address_rejected_at_service_time(self):
        flat, ref = MemoryController(), ReferenceMemoryController()
        for controller in (flat, ref):
            with pytest.raises(ConfigurationError):
                controller.read(-64, 0)


POLICIES = {
    "baseline": NoEccPolicy,
    "secded": SecdedPolicy,
    "ecc6": Ecc6Policy,
    "mecc": lambda: MeccPolicy(),
    "mecc+smd": lambda: MeccPolicy(smd=SelectiveMemoryDowngrade()),
}


class TestEngineResultsMatchReference:
    """Whole simulations: the same ``SimResult`` on either controller."""

    @pytest.mark.parametrize(
        "workload, instructions",
        [("h264ref", 200_000), ("sphinx", 40_000), ("lbm", 20_000)],
    )
    def test_sim_results_identical(self, workload, instructions):
        trace = BENCHMARKS_BY_NAME[workload].trace(instructions, calibrate=False)
        assert trace.writes > 0
        for name, make_policy in POLICIES.items():
            flat = SimulationEngine(policy=make_policy(), controller=MemoryController())
            ref = SimulationEngine(
                policy=make_policy(), controller=ReferenceMemoryController()
            )
            assert flat.run(trace) == ref.run(trace), name
            assert vars(flat.controller.stats) == vars(ref.controller.stats), name
