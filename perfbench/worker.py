"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition is cold: no in-process memo, trace memo or code fingerprint
survives from the previous one, and the on-disk result cache is a fresh
empty directory.  The script writes one JSON document to ``--out``:

* ``ready``: ``time.monotonic()`` just before the timed region, from
  which the parent derives ``setup_s`` (process start to first timed
  call: interpreter start, imports, runner configuration, fingerprint),
  with the set-up's host speed and probe time (see ``speedprobe.py``);
* ``wall_s`` and ``peak_rss_mb`` of the timed region, and on untraced
  repetitions ``norm_wall_s``, the wall time at the reference host speed;
* ``outputs``: ``[name, value]`` pairs checked against the reference;
* ``jobs``: the runner manifest's job count, failures and per-job wall
  times;
* with ``--traced 1``: per-layer metrics and the span records.

Usage (normally driven by run.py)::

    PYTHONPATH=src python3 perfbench/worker.py --workload sim-sweep \
        --seed 0 --traced 0 --cache-dir DIR --out FILE
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speedprobe import SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

#: Instructions per simulated slice on the sim workloads.  The CLI default
#: is 400k; a fifth keeps one cold repetition of all 728 jobs near 6 s on
#: a 2-core host, so a run holds several repetitions.
SIM_INSTRUCTIONS = 80_000
#: Accesses per footprint line on footprint-scan.  The fig11 exhibit uses
#: 2.0, which takes about a minute; a tenth runs the same per-address path
#: over every benchmark's whole footprint layout in about 6 s.
FOOTPRINT_COVERAGE = 0.2
#: ``evaluate_claims`` passes per repetition on fidelity-gate.
FIDELITY_PASSES = 3
#: Codec backend pinned for every workload (what ``auto`` resolves to).
CODEC_BACKEND = "bitsliced"
#: Exhibits a workload can build; each gets an ``exhibit.<id>.wall_s``.
EXHIBITS = (
    "fig3", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "table3",
)
SIM_COUNTERS = ("instructions", "cycles", "reads", "writes", "downgrades")


def seeded_benchmarks(seed: int):
    """The registry benchmarks with every ``BenchmarkSpec.seed`` offset."""
    from repro.workloads.spec import ALL_BENCHMARKS

    if seed == 0:
        return ALL_BENCHMARKS
    return tuple(dataclasses.replace(b, seed=b.seed + seed) for b in ALL_BENCHMARKS)


def table(exhibit_id: str, mapping: dict) -> dict:
    """``{row: {column: value}}`` (or ``{row: value}``) as rounded rows."""
    from repro.report.render import rounded
    from repro.report.spec import ExhibitData

    rows, columns = [], ("value",)
    for key, value in mapping.items():
        if isinstance(value, dict):
            columns = tuple(value)
            rows.append((key, *value.values()))
        else:
            rows.append((key, value))
    data = rounded(ExhibitData(exhibit_id, ("key", *columns), tuple(rows)))
    return {"columns": list(data.columns), "rows": [list(r) for r in data.rows]}


class Workload:
    """Runs one workload's timed region and collects its outputs."""

    def __init__(self, tracer, seed: int):
        self.tracer = tracer
        self.seed = seed
        self.outputs: list[list] = []

    def exhibit(self, exhibit_id: str, build) -> None:
        with self.tracer.span(f"exhibit.{exhibit_id}"):
            try:
                value = build()
            except Exception as exc:  # a failed exhibit is a failed operation
                traceback.print_exc()
                value = {"error": f"{type(exc).__name__}: {exc}"}
        self.outputs.append([exhibit_id, value])

    def sim_sweep(self) -> None:
        from repro.analysis import experiments as X
        from repro.sim.system import ScaledRun
        from repro.workloads.spec import MpkiClass

        run = ScaledRun(instructions=SIM_INSTRUCTIONS)
        benchmarks = seeded_benchmarks(self.seed)

        def fig3():
            # fig3_ecc_overhead_by_class takes no benchmark tuple; this is
            # its job set and its class geomeans over the seeded tuple.
            perf = X.fig7_performance(run, benchmarks, ("baseline", "secded", "ecc6"))
            out = {
                cls.value: {p: perf.class_geomean(p, cls) for p in ("secded", "ecc6")}
                for cls in MpkiClass
            }
            out["ALL"] = {p: perf.geomean(p) for p in ("secded", "ecc6")}
            return table("fig3", out)

        self.exhibit("fig3", fig3)
        self.exhibit("fig7", lambda: table(
            "fig7", X.fig7_performance(run, benchmarks).per_benchmark))
        self.exhibit("fig9", lambda: table(
            "fig9", X.fig9_active_metrics(run, benchmarks)))
        self.exhibit("fig10", lambda: table(
            "fig10", X.fig10_total_energy(run, benchmarks=benchmarks)))
        self.exhibit("fig12", lambda: table(
            "fig12", X.fig12_latency_sensitivity(run=run, benchmarks=benchmarks)))
        self.exhibit("fig13", lambda: table(
            "fig13", X.fig13_transition(run=run, benchmarks=benchmarks)))
        self.exhibit("fig14", lambda: table(
            "fig14", X.fig14_smd_disabled(run, benchmarks)))
        self.exhibit("table3", lambda: table(
            "table3", X.table3_characterization(run, benchmarks)))

    def footprint_scan(self) -> None:
        from repro.analysis import experiments as X

        benchmarks = seeded_benchmarks(self.seed)
        self.exhibit("fig11", lambda: table("fig11", X.fig11_mdt_tracking(
            benchmarks, coverage_factor=FOOTPRINT_COVERAGE)))

    def fidelity_gate(self) -> None:
        from repro.fidelity.claims import claims_in_set
        from repro.fidelity.engine import evaluate_claims
        from repro.report.render import round_scalar

        ids = [claim.id for claim in claims_in_set("reduced")]
        for _ in range(FIDELITY_PASSES):
            with self.tracer.span("fidelity", key="evaluate_claims"):
                report = evaluate_claims(ids)
            for result in report.results:
                self.outputs.append([result.claim.id, {
                    "measured": round_scalar(result.measured),
                    "passed": result.passed,
                    "error": result.error,
                }])


WORKLOADS = {
    "sim-sweep": Workload.sim_sweep,
    "footprint-scan": Workload.footprint_scan,
    "fidelity-gate": Workload.fidelity_gate,
}


def install(tracer: Tracer) -> None:
    """Patch the layers' public callables for one traced repetition."""
    from repro.analysis import runner, validation
    from repro.core.mdt import MemoryDowngradeTracker
    from repro.core.policy import EccPolicy
    from repro.dram.controller import MemoryController
    from repro.fidelity.claims import EVALUATORS
    from repro.sim.engine import SimulationEngine
    from repro.workloads.spec import BenchmarkSpec
    from repro.workloads.synth import SyntheticTraceGenerator

    tracer.wrap_span(runner.ExperimentRunner, "run", "runner.run")
    tracer.wrap_aggregate(runner.ResultCache, "load", "runner.cache.load", leaf=True)
    tracer.wrap_aggregate(runner.ResultCache, "store", "runner.cache.store", leaf=True)
    tracer.wrap_span(runner, "execute_job", "runner.job")
    tracer.wrap_span(BenchmarkSpec, "trace", "workloads.trace")
    tracer.wrap_span(SimulationEngine, "run", "sim.engine")
    for name in ("read", "write", "write_batch"):
        tracer.wrap_aggregate(MemoryController, name, "dram.controller", leaf=True)
    policies, todo = [], [EccPolicy]
    while todo:
        cls = todo.pop()
        policies.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in policies:
        for name in ("on_read", "on_write_batch"):
            if name in cls.__dict__:
                tracer.wrap_aggregate(cls, name, "core.policy")
    tracer.wrap_generator(
        SyntheticTraceGenerator, "iter_read_addresses", "workloads.addr_stream"
    )
    tracer.wrap_aggregate(
        MemoryDowngradeTracker, "record_downgrade", "core.mdt", leaf=True
    )
    tracer.wrap_dict_entries(EVALUATORS, "fidelity")

    def count_trials(result) -> None:
        tracer.extra["validation.trials"] += result.trials

    for name in list(vars(validation)):
        if name.startswith("validate_"):
            tracer.wrap_span(validation, name, "validation", on_result=count_trials)


def job_summary(manifest: dict) -> dict:
    ran = [r for r in manifest["jobs"] if r["source"] == "run" and r["status"] == "ok"]
    return {
        "attempted": len(manifest["jobs"]),
        "failed": manifest["totals"]["failed_jobs"],
        "walls": [r["wall_s"] for r in ran],
        "instructions": sum(r["instructions"] for r in ran),
        "workers": manifest["parallelism"]["jobs"],
        "cache_hits": manifest["cache"]["hits"],
        "cache_misses": manifest["cache"]["misses"],
    }


def sim_counters(runner, manifest: dict) -> list[list]:
    """Exact simulated counts summed over every job that ran."""
    from repro.types import SimResult

    totals = dict.fromkeys(SIM_COUNTERS, 0)
    keys = {r["key"] for r in manifest["jobs"] if r["status"] == "ok"}
    for key in sorted(keys):
        result = SimResult.from_dict(runner.cache.load(key)["result"])
        for name in SIM_COUNTERS:
            totals[name] += getattr(result, name)
    return [[f"sim.{name}", value] for name, value in totals.items()] + [
        ["runner.unique_jobs", len(keys)]
    ]


@contextmanager
def count_mdt_marks():
    """Count every region any ``MemoryDowngradeTracker`` marks in the block.

    Yields a dict whose ``marked`` entry, once the block ends, is the
    regions cleared by ``reset`` plus those still marked at the end.  Only
    the tracker's construction and ``reset`` are patched, never the
    per-access ``record_downgrade``, so the count costs nothing measurable
    and is taken on every repetition.
    """
    from repro.core.mdt import MemoryDowngradeTracker as MDT

    trackers: list = []
    counts = {"marked": 0}
    init, reset = MDT.__init__, MDT.reset

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        trackers.append(self)

    def counting_reset(self):
        counts["marked"] += self.marked_count
        reset(self)

    MDT.__init__, MDT.reset = counting_init, counting_reset
    try:
        yield counts
    finally:
        MDT.__init__, MDT.reset = init, reset
        counts["marked"] += sum(t.marked_count for t in trackers)


def layer_metrics(tracer: Tracer, jobs: dict, outputs: list[list]) -> dict:
    """Per-layer metrics of one traced repetition."""
    t = tracer
    values = dict(outputs)
    metrics = {
        "dram.controller.calls": t.calls("dram.controller"),
        "dram.controller.busy_s": t.busy_s("dram.controller"),
        "sim.engine.runs": t.calls("sim.engine"),
        "sim.engine.self_s": t.self_s("sim.engine"),
        "core.policy.calls": t.calls("core.policy"),
        "core.policy.busy_s": t.busy_s("core.policy"),
        "workloads.trace.calls": t.calls("workloads.trace"),
        "workloads.trace.busy_s": t.busy_s("workloads.trace"),
        "runner.jobs": jobs["attempted"],
        "runner.cache_misses": jobs["cache_misses"],
        "runner.cache_hits": jobs["cache_hits"],
        "runner.failed_jobs": jobs["failed"],
        "runner.cache.load_s": t.busy_s("runner.cache.load"),
        "runner.cache.store_s": t.busy_s("runner.cache.store"),
        "runner.wait_s": t.self_s("runner.run"),
        "runner.pool.busy_ratio": (
            sum(jobs["walls"]) / (jobs["workers"] * t.busy_s("runner.run"))
            if t.busy_s("runner.run") else 0.0
        ),
        "workloads.addr_stream.addresses": t.calls("workloads.addr_stream"),
        "workloads.addr_stream.busy_s": t.busy_s("workloads.addr_stream"),
        "core.mdt.calls": t.calls("core.mdt"),
        "core.mdt.busy_s": t.busy_s("core.mdt"),
        "validation.trials": t.extra["validation.trials"],
        "validation.busy_s": t.busy_s("validation"),
        "fidelity.claims": sum(1 for s in t.spans if s["name"] == "fidelity"
                               and s.get("key") != "evaluate_claims"),
        "fidelity.claims_failed": sum(
            1 for _, v in outputs if isinstance(v, dict) and v.get("passed") is False
        ),
        "fidelity.self_s": t.self_s("fidelity"),
    }
    for exhibit_id in EXHIBITS:
        metrics[f"exhibit.{exhibit_id}.wall_s"] = t.busy_s(f"exhibit.{exhibit_id}")
    for name in SIM_COUNTERS:
        metrics[f"sim.{name}"] = values.get(f"sim.{name}", 0)
    metrics["core.mdt.marked_regions"] = values.get("core.mdt.marked_regions", 0)
    # Time in no code layer: the root's own time plus the exhibit spans'
    # self time (the experiment functions' glue around the layers).
    metrics["unattributed_s"] = t.root_self_s + sum(
        t.self_s(f"exhibit.{exhibit_id}") for exhibit_id in EXHIBITS
    )
    return metrics


def provenance(runner, code_fingerprint) -> dict:
    import numpy

    from repro.ecc import backend as codec_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "code_fingerprint": code_fingerprint(),
        "start_method": runner.start_method or multiprocessing.get_start_method(),
        "runner_backend": runner.backend,
        "runner_jobs": runner.jobs,
        "codec_backend": codec_backend.selected_backend(),
        "instructions_per_slice": SIM_INSTRUCTIONS,
        "footprint_coverage": FOOTPRINT_COVERAGE,
        "fidelity_passes": FIDELITY_PASSES,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: everything a workload imports, the pinned runner and codec
    # backend, and the code fingerprint (computed once per process).
    setup_probe = SpeedProbe()
    setup_probe.start()
    import repro.analysis.experiments  # noqa: F401
    import repro.fidelity.engine  # noqa: F401
    from repro.analysis.runner import code_fingerprint, configure_runner
    from repro.ecc import backend as codec_backend

    runner = configure_runner(jobs=1, cache_dir=args.cache_dir, backend="local")
    codec_backend.set_backend(CODEC_BACKEND)
    code_fingerprint()
    setup_probe.stop()
    ready = time.monotonic()
    record: dict = {
        "ready": ready,
        "setup_probe_s": sum(setup_probe.samples),
        "setup_speed": setup_probe.speed,
    }
    if not args.setup_only:
        tracer = Tracer() if args.traced else NullTracer()
        workload = Workload(tracer, args.seed)
        with count_mdt_marks() as mdt:
            if args.traced:
                install(tracer)
                try:
                    with tracer.root():
                        WORKLOADS[args.workload](workload)
                finally:
                    tracer.uninstall()
                wall_s = tracer.wall_s
            else:
                # The probe stays out of traced repetitions: its samples
                # would land in whichever layer they interrupt.
                probe = SpeedProbe()
                probe.start()
                WORKLOADS[args.workload](workload)
                probe.stop()
                wall_s = probe.wall_s
                record.update(norm_wall_s=wall_s * probe.speed, speed=probe.speed)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        manifest = runner.manifest()
        outputs = workload.outputs
        if manifest["jobs"]:
            outputs += sim_counters(runner, manifest)
        outputs.append(["core.mdt.marked_regions", mdt["marked"]])
        jobs_info = job_summary(manifest)
        record.update(
            wall_s=wall_s,
            peak_rss_mb=usage / 1024.0,
            outputs=outputs,
            jobs=jobs_info,
            provenance=provenance(runner, code_fingerprint),
        )
        if args.traced:
            record["layers"] = layer_metrics(tracer, jobs_info, outputs)
            record["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(record, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
