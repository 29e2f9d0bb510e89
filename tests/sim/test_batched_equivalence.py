"""Batched engine updates are bit-identical to the scalar per-record loop.

Two locks on the batching work:

* A *scalar reference engine* — the pre-batching per-record loop,
  re-implemented verbatim here — must produce the same cycles, latency
  sums, controller stats, and policy counters as
  :class:`repro.sim.engine.SimulationEngine`'s coalesced write runs, for
  every policy the paper evaluates.
* The seeded Fig. 7 / Fig. 10 / Fig. 14 mini-sweeps must produce
  *bit-identical* numbers whichever codec backend is selected (the
  matrix scalar loop vs the bitsliced lane engine), checked both
  by exact equality and through :func:`repro.fidelity.golden.compare_golden`
  at the golden-figure tolerance.
"""

import copy

import pytest

from repro.core.policy import MeccPolicy, NoEccPolicy, SecdedPolicy, Ecc6Policy
from repro.core.smd import SelectiveMemoryDowngrade
from repro.dram.controller import MemoryController
from repro.ecc.backend import reset_backend, set_backend
from repro.fidelity.golden import GOLDEN_RTOL, compare_golden
from repro.sim.engine import SimulationEngine
from repro.sim.system import ScaledRun
from repro.types import MemoryOp
from repro.workloads.spec import BENCHMARKS_BY_NAME

#: Small but non-trivial slice: thousands of coalescible write runs.
TRACE_INSTRUCTIONS = 40_000

#: Mini-sweep scale for the figure-level checks.
MINI_RUN = ScaledRun(instructions=30_000)
MINI_BENCHMARKS = ("povray", "libq")


def _scalar_reference_run(policy, controller, trace):
    """The pre-batching engine loop: one policy/controller call per record."""
    controller.reset()
    policy.reset()
    cpi = trace.nonmem_cpi
    retire = 0.0
    reads = 0
    latency_sum = 0
    for record in trace.records:
        if record.gap:
            retire += record.gap * cpi
        now = int(retire)
        if record.op is MemoryOp.READ:
            action = policy.on_read(record.address, now)
            data_done = controller.read(record.address, now)
            completion = int(data_done + action.decode_cycles)
            if action.writeback:
                controller.write(record.address, completion)
            reads += 1
            latency_sum += completion - now
            retire = float(completion)
        else:
            policy.on_write(record.address, now)
            controller.write(record.address, now)
    total_cycles = max(1, int(retire))
    policy.on_run_end(total_cycles)
    return total_cycles, reads, latency_sum


POLICIES = {
    "baseline": NoEccPolicy,
    "secded": SecdedPolicy,
    "ecc6": Ecc6Policy,
    "mecc": lambda: MeccPolicy(),
    "mecc+smd": lambda: MeccPolicy(smd=SelectiveMemoryDowngrade()),
}


class TestEngineCoalescingEquivalence:
    """Coalesced write runs reproduce the scalar loop cycle for cycle."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("workload", ["sphinx", "omnetpp"])
    def test_cycle_identical_stats(self, policy_name, workload):
        trace = BENCHMARKS_BY_NAME[workload].trace(
            TRACE_INSTRUCTIONS, calibrate=False
        )
        assert trace.writes > 0  # the coalescing path must actually engage

        ref_policy = POLICIES[policy_name]()
        ref_controller = MemoryController()
        ref = _scalar_reference_run(ref_policy, ref_controller, trace)
        ref_stats = copy.deepcopy(vars(ref_controller.stats))

        engine = SimulationEngine(
            policy=POLICIES[policy_name](), controller=MemoryController()
        )
        result = engine.run(trace)

        assert (result.cycles, result.reads, result.read_latency_sum) == ref
        assert vars(engine.controller.stats) == ref_stats
        assert (
            engine.policy.strong_decodes,
            engine.policy.weak_decodes,
            engine.policy.downgrades,
        ) == (
            ref_policy.strong_decodes,
            ref_policy.weak_decodes,
            ref_policy.downgrades,
        )


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


def _mini_sweeps():
    """One seeded Fig. 7 + Fig. 10 + Fig. 14 pass at mini scale."""
    from repro.analysis.experiments import (
        fig7_performance,
        fig10_total_energy,
        fig14_smd_disabled,
    )

    benchmarks = tuple(BENCHMARKS_BY_NAME[n] for n in MINI_BENCHMARKS)
    fig7 = fig7_performance(MINI_RUN, benchmarks=benchmarks)
    return {
        "fig7": fig7.per_benchmark,
        "fig10": fig10_total_energy(MINI_RUN, benchmarks=benchmarks),
        "fig14": fig14_smd_disabled(MINI_RUN, benchmarks=benchmarks),
    }


class TestFigureSweepsBackendInvariant:
    """Fig. 7/10/14 numbers do not depend on the codec backend."""

    @pytest.mark.slow
    def test_mini_sweeps_bit_identical_across_backends(self):
        set_backend("matrix")
        reference = _mini_sweeps()
        set_backend("bitsliced")
        got = _mini_sweeps()
        # Bit-identical, not merely within tolerance...
        assert got == reference
        # ...and a fortiori within the golden-figure tolerance the
        # fidelity gate applies to checked-in fixtures.
        assert compare_golden(got, reference, rtol=GOLDEN_RTOL) == []
