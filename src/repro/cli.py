"""Command-line interface: regenerate any paper exhibit.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro fig7 --instructions 400000 --jobs 4
    python -m repro all --instructions 200000 --cache-dir ~/.cache/repro
    python -m repro report --exhibits fig7,fig10 --format csv,json --out report
    python -m repro report --exhibits table1,fig2,fig8 --diff report/baseline

Simulation-backed exhibits route through the parallel cached experiment
runner (:mod:`repro.analysis.runner`): ``--jobs N`` fans independent
simulations out over N worker processes, ``--cache-dir`` persists
results across invocations (``--no-cache`` disables it), and
``--manifest PATH`` writes the per-job timing/cache manifest as JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.analysis.tables import format_table
from repro.ecc.backend import BACKEND_NAMES, ENV_VAR, set_backend
from repro.report.spec import ExhibitSpec, all_exhibits
from repro.sim.system import ScaledRun


def _exhibit_renderer(spec: ExhibitSpec) -> Callable[[ScaledRun], str]:
    def render_fn(run: ScaledRun) -> str:
        data = spec.build(run)
        return format_table(
            list(data.columns),
            [list(row) for row in data.rows],
            title=spec.title,
        )

    return render_fn


#: Exhibit verbs, derived from the repro.report registry: one entry per
#: registered exhibit, rendered as an aligned terminal table.
EXHIBITS: dict[str, tuple[str, Callable[[ScaledRun], str]]] = {
    spec.id: (spec.title, _exhibit_renderer(spec)) for spec in all_exhibits()
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from the Morphable ECC paper (DSN 2015).",
    )
    parser.add_argument(
        "exhibit",
        choices=sorted(EXHIBITS)
        + [
            "all",
            "list",
            "report",
            "csv",
            "trace-gen",
            "trace-sim",
            "fault-inject",
            "chaos",
            "fidelity",
            "validate",
            "fleet",
            "dse",
            "tune",
        ],
        help="exhibit to regenerate ('list' to enumerate, 'all' for everything, "
        "'report' for a markdown report via --output), a trace tool "
        "(trace-gen / trace-sim), a codec fault-injection campaign "
        "(fault-inject), a control-plane chaos campaign (chaos), the "
        "paper-claim conformance gate (fidelity), the "
        "analytic-vs-Monte-Carlo cross-checks (validate), a fleet-scale "
        "population study (fleet), a design-space exploration producing "
        "a Pareto frontier + knee report (dse), or the learned "
        "per-workload operating-point tuner with its golden drift check "
        "(tune)",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=400_000,
        help="instructions per benchmark slice for simulation-backed exhibits "
        "(default 400000; the paper uses 4e9 — see DESIGN.md on scaling)",
    )
    parser.add_argument(
        "--benchmark",
        default="libq",
        help="benchmark name for trace-gen (see repro.workloads.spec)",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="output trace file for trace-gen"
    )
    parser.add_argument(
        "--input", "-i", default=None, help="input trace file for trace-sim"
    )
    parser.add_argument(
        "--policy",
        default="mecc",
        choices=("baseline", "secded", "ecc6", "mecc", "mecc+smd"),
        help="ECC policy for trace-sim",
    )
    parser.add_argument(
        "--codec-backend",
        default=None,
        choices=BACKEND_NAMES,
        help="codec batch backend for this invocation (overrides "
        f"${ENV_VAR}; 'auto' picks the fastest available lane engine, "
        "'matrix' forces the scalar fast path; results are bit-identical "
        "across backends)",
    )
    parser.add_argument(
        "--exhibits",
        default=None,
        help="comma-separated exhibit subset for 'report' (default: all)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_exhibits",
        help="report: enumerate the registered exhibits (id, kind, paper "
        "anchor, cost class) and exit",
    )
    parser.add_argument(
        "--format",
        default=None,
        metavar="FMT,FMT,...",
        help="report: artifact formats to render — any of csv,json,md,tex "
        "(default: all four)",
    )
    parser.add_argument(
        "--out",
        default="report",
        metavar="DIR",
        help="report: root output directory; the artifact tree lands in "
        "DIR/<run-id>/ (default: report)",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        help="report: artifact-tree name under --out "
        "(default: a UTC timestamp)",
    )
    parser.add_argument(
        "--diff",
        default=None,
        metavar="BASELINE",
        help="report: after generating, compare the fresh tree against the "
        "artifact tree at BASELINE with per-cell tolerance bands; exits "
        "nonzero on drift (JSON artifacts required in both trees)",
    )
    parser.add_argument(
        "--fidelity-summary",
        action="store_true",
        help="report: also evaluate the reduced fidelity claim set and "
        "stamp the digest into the tree manifest",
    )
    parser.add_argument(
        "--mode",
        default="strong",
        choices=("strong", "weak"),
        help="ECC mode under test for fault-inject",
    )
    parser.add_argument(
        "--errors",
        type=int,
        default=None,
        help="fixed bit-flip count per trial for fault-inject "
        "(default: sample at the paper's 1 s BER instead)",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="trial count for fault-inject and chaos (default 200) or "
        "Monte-Carlo samples for validate (default 40000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed for fault-inject and chaos"
    )
    parser.add_argument(
        "--campaign",
        default="metadata",
        help="chaos campaign: a named control-plane campaign (metadata, "
        "all) or comma-separated fault-class names (see "
        "repro.chaos.FAULT_CLASSES)",
    )
    parser.add_argument(
        "--no-scrub",
        action="store_true",
        help="chaos: disable the patrol-scrub mode-repair mitigation",
    )
    parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="chaos: disable the conservative MDT idle-fallback mitigation",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation-backed exhibits "
        "(default: $REPRO_JOBS or 1; results are identical at any value)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result-cache directory (default: $REPRO_CACHE_DIR, "
        "else no persistence); keyed by a content hash of trace spec, "
        "policy config, org/timings, and code version",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        help="write the run manifest (per-job wall times, cache hit/miss "
        "counters) to this JSON file",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline for simulation jobs; on expiry "
        "the worker pool is killed and the job retried "
        "(default: $REPRO_JOB_TIMEOUT_S, else unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="extra attempts for failed or timed-out simulation jobs, "
        "with exponential backoff (default: $REPRO_RETRIES, else 0)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="rewrite the run manifest atomically after every job so an "
        "interrupted sweep can be resumed with --resume",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume an interrupted sweep from its checkpoint manifest "
        "(requires the same --cache-dir; completed jobs are served "
        "from the cache and only unfinished jobs run)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="for trace-sim: run with the structured event tracer and "
        "runtime invariant checkers attached, exporting the event "
        "stream as JSONL to PATH (see repro.obs)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a unified metrics snapshot (sim/dram/ecc/runner/obs "
        "namespaces, see repro.obs.metrics) as JSON to PATH",
    )
    parser.add_argument(
        "--claims",
        default=None,
        metavar="ID,ID,...",
        help="fidelity: evaluate only these claim IDs "
        "(see 'repro fidelity --list-claims')",
    )
    parser.add_argument(
        "--claim-set",
        default="full",
        choices=("reduced", "full"),
        help="fidelity: named claim set — 'reduced' is the analytic-only "
        "CI merge gate, 'full' adds the simulation-backed claims",
    )
    parser.add_argument(
        "--list-claims",
        action="store_true",
        help="fidelity: list the registered paper claims and exit",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="fidelity: write the conformance report (per-claim measured "
        "value, relative error, verdict) as JSON to PATH",
    )
    parser.add_argument(
        "--golden",
        default=None,
        metavar="PATH",
        help="fidelity/tune: compare the golden fixture at PATH against "
        "a fresh computation (default fixtures: "
        "tests/fidelity/golden_figures.json / tests/dse/"
        "golden_frontier.json)",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="fidelity/tune: regenerate the golden fixture (at --golden "
        "PATH, or the checked-in default) instead of comparing",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=100_000,
        help="fleet: population size to simulate (default 100000; the "
        "sharded streaming aggregation makes 1M+ routine)",
    )
    parser.add_argument(
        "--mix",
        default=None,
        metavar="NAME:W,...",
        help="fleet: persona mix like 'light:0.45,moderate:0.35,heavy:0.2' "
        "(default: the built-in mix; see repro.fleet.population)",
    )
    parser.add_argument(
        "--fleet-seed",
        type=int,
        default=0,
        help="fleet: population sampling seed (same seed, same fleet, "
        "at any shard size)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=100_000,
        help="fleet: devices per aggregation shard (default 100000; "
        "aggregates are invariant to this)",
    )
    parser.add_argument(
        "--schemes",
        default=None,
        metavar="S,S,...",
        help="fleet: comma-separated policy schemes to evaluate per device "
        "(default baseline,secded,mecc)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="validate: relative-error tolerance for agreement (default 0.05)",
    )
    parser.add_argument(
        "--sigma",
        type=float,
        default=4.0,
        help="validate: counting-noise fallback width in sigmas; 0 disables "
        "the fallback so only --tolerance decides (default 4.0)",
    )
    parser.add_argument(
        "--grid",
        default=None,
        metavar="AXIS=V,V;...",
        help="dse/tune: sweep grid shorthand like "
        "'ecc=4,6;period=0.256,1.024;threshold=1,2;mdt=512,1024' "
        "(axes: ecc/period/threshold/mdt/policy; default: the built-in "
        "64-point grid — see repro.dse.GridSpec)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        metavar="NAME,NAME,...",
        help="dse: workload mix scored at every operating point "
        "(default povray,libq)",
    )
    parser.add_argument(
        "--idle-fraction",
        type=float,
        default=None,
        help="dse: fraction of the device-day spent idle (default 0.95)",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="dse: active bursts per device-day (default 60)",
    )
    parser.add_argument(
        "--frontier-out",
        default=None,
        metavar="PATH",
        help="dse: write the full frontier report as canonical JSON "
        "(byte-identical across --jobs values and runner backends)",
    )
    parser.add_argument(
        "--slowdown-cap",
        type=float,
        default=0.05,
        help="dse/tune: max slowdown an operating point may impose to be "
        "eligible as a workload's best (default 0.05, the fleet "
        "ipc_floor)",
    )
    parser.add_argument(
        "--personas",
        default=None,
        metavar="NAME,NAME,...",
        help="tune: personas to sweep as training workloads "
        "(default: every registered persona; see repro.workloads.personas)",
    )
    parser.add_argument(
        "--tuner-out",
        default=None,
        metavar="PATH",
        help="tune: write the fitted tuner (samples + feature bounds) as "
        "JSON to PATH",
    )
    parser.add_argument(
        "--knn",
        type=int,
        default=1,
        help="tune: nearest-neighbour count for the operating-point vote "
        "(default 1 — exact on the training set)",
    )
    parser.add_argument(
        "--drift-check",
        action="store_true",
        help="tune: recompute the golden mini-sweep fresh and exit 1 when "
        "the predicted best point moved or energies drifted past "
        "--drift-tolerance (fixture: tests/dse/golden_frontier.json, "
        "override with --golden; regenerate with --update-golden)",
    )
    parser.add_argument(
        "--drift-tolerance",
        type=float,
        default=0.02,
        help="tune --drift-check: relative energy drift tolerated before "
        "the check trips (default 0.02)",
    )
    return parser


def _trace_gen(args) -> int:
    from repro.workloads.spec import BENCHMARKS_BY_NAME
    from repro.workloads.trace import write_trace

    if args.benchmark not in BENCHMARKS_BY_NAME:
        print(f"unknown benchmark {args.benchmark!r}; choose from "
              f"{', '.join(sorted(BENCHMARKS_BY_NAME))}", file=sys.stderr)
        return 2
    if not args.output:
        print("trace-gen requires --output FILE", file=sys.stderr)
        return 2
    spec = BENCHMARKS_BY_NAME[args.benchmark]
    trace = spec.trace(args.instructions)
    with open(args.output, "w", encoding="ascii") as stream:
        write_trace(trace, stream)
    print(f"wrote {len(trace)} records ({trace.instructions} instructions, "
          f"MPKI {trace.mpki:.2f}) to {args.output}")
    return 0


def _trace_sim(args) -> int:
    from repro.sim.engine import SimulationEngine
    from repro.sim.system import SystemConfig
    from repro.workloads.trace import read_trace

    if not args.input:
        print("trace-sim requires --input FILE", file=sys.stderr)
        return 2
    with open(args.input, encoding="ascii") as stream:
        trace = read_trace(stream)
    config = SystemConfig()
    tracer = invariants = None
    if args.trace or args.metrics_out:
        from repro.obs import EventTracer, default_invariant_suite

        tracer = EventTracer()
        invariants = default_invariant_suite(tolerant=True)
    engine = SimulationEngine(
        policy=config.policy_by_name(args.policy),
        tracer=tracer,
        invariants=invariants,
    )
    result = engine.run(trace)
    print(format_table(
        ["metric", "value"],
        [
            ["trace", trace.name],
            ["policy", args.policy],
            ["instructions", result.instructions],
            ["cycles", result.cycles],
            ["IPC", result.ipc],
            ["MPKI", result.mpki],
            ["avg read latency (cycles)", result.avg_read_latency],
            ["downgrades", result.downgrades],
            ["energy (J)", result.energy.total],
        ],
        title=f"trace-sim: {args.input}",
    ))
    if args.trace:
        count = tracer.export_jsonl(args.trace)
        print(f"wrote {count} trace events to {args.trace} "
              f"({tracer.dropped} dropped by the ring buffer)")
    if invariants is not None:
        summary = invariants.summary()
        print(f"invariants: {summary['evaluations']} evaluations, "
              f"{summary['violations']} violations")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_sim_result(result)
        registry.record_controller_stats(engine.controller.stats)
        registry.record_tracer(tracer)
        registry.record_invariants(invariants)
        registry.record_codec_backend()
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    return 0


def _fault_inject(args) -> int:
    from repro.reliability.faults import FaultInjectionCampaign
    from repro.reliability.retention import BER_AT_1S
    from repro.types import EccMode

    mode = EccMode.STRONG if args.mode == "strong" else EccMode.WEAK
    trials = args.trials if args.trials is not None else 200
    campaign = FaultInjectionCampaign(seed=args.seed)
    if args.errors is not None:
        stats = campaign.run_fixed_errors(mode, args.errors, trials)
        what = f"{args.errors} fixed errors"
    else:
        stats = campaign.run_ber(mode, BER_AT_1S, trials)
        what = f"BER {BER_AT_1S:.2e} (the paper's 1 s operating point)"
    print(format_table(
        ["outcome", "count"],
        sorted(((k.value, v) for k, v in stats.outcomes.items())),
        title=(
            f"fault-inject: {trials} trials, {args.mode} mode, {what}; "
            f"silent-corruption rate {stats.silent_corruption_rate:.4f}"
        ),
    ))
    return 0


def _chaos(args) -> int:
    from repro.chaos import CAMPAIGNS, ChaosCampaign, resolve_classes
    from repro.errors import ConfigurationError

    names = CAMPAIGNS.get(args.campaign)
    if names is None:
        names = tuple(n.strip() for n in args.campaign.split(",") if n.strip())
    try:
        classes = resolve_classes(names)
        campaign = ChaosCampaign(
            classes=classes,
            trials=args.trials if args.trials is not None else 200,
            seed=args.seed,
            scrub=not args.no_scrub,
            conservative=not args.no_fallback,
        )
    except ConfigurationError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    report = campaign.run()
    print(report.render_table())
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_chaos(report)
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    return 0


def _validate(args) -> int:
    """Run the analytic-vs-Monte-Carlo cross-checks; nonzero on disagreement."""
    from repro.analysis.validation import run_all_validations

    trials = args.trials if args.trials is not None else 40_000
    samples = args.trials if args.trials is not None else 50_000
    results = run_all_validations(trials=trials, samples=samples)
    failed = []
    rows = []
    for result in results:
        ok = result.agrees(args.tolerance, sigmas=args.sigma)
        rows.append([
            result.what, result.analytic, result.empirical,
            result.relative_error, "PASS" if ok else "FAIL",
        ])
        if not ok:
            failed.append(result.what)
    print(format_table(
        ["check", "analytic", "empirical", "rel err", "verdict"],
        rows,
        title=(
            f"model validation (tolerance {args.tolerance:g}, "
            f"sigma {args.sigma:g})"
        ),
    ))
    for what in failed:
        print(f"DISAGREEMENT: {what}", file=sys.stderr)
    return 1 if failed else 0


def _fidelity(args, runner) -> int:
    """Evaluate registered paper claims; nonzero when any band is exceeded."""
    import json as _json

    from repro.errors import ConfigurationError
    from repro.fidelity import (
        CLAIMS,
        FidelityContext,
        check_golden_file,
        claims_in_set,
        default_golden_path,
        evaluate_claims,
        resolve_claims,
        write_golden,
    )

    if args.list_claims:
        print(format_table(
            ["id", "kind", "source", "expected", "band"],
            [[c.id, c.kind, c.source, c.expected, f"[{c.low:g}, {c.high:g}]"]
             for c in CLAIMS.values()],
            title=f"registered paper claims ({len(CLAIMS)})",
        ))
        return 0
    try:
        if args.claims:
            ids = [part.strip() for part in args.claims.split(",") if part.strip()]
            claims = resolve_claims(ids)
        else:
            claims = claims_in_set(args.claim_set)
    except ConfigurationError as exc:
        print(f"fidelity: {exc}", file=sys.stderr)
        return 2
    context = FidelityContext(run=ScaledRun(instructions=args.instructions))
    report = evaluate_claims([c.id for c in claims], context)
    print(report.render_table())
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as stream:
            _json.dump(report.as_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote conformance report to {args.report_json}")
    golden_ok = True
    if args.update_golden:
        path = args.golden or str(default_golden_path())
        write_golden(path)
        print(f"wrote golden figures to {path}")
    elif args.golden:
        mismatches = check_golden_file(args.golden)
        if mismatches:
            golden_ok = False
            for mismatch in mismatches:
                print(f"GOLDEN MISMATCH {mismatch}", file=sys.stderr)
        else:
            print(f"golden figures match {args.golden}")
    if args.manifest:
        runner.write_manifest(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_fidelity(report)
        registry.record_runner(runner)
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    return 0 if report.passed and golden_ok else 1


def _fleet(args, runner) -> int:
    """Simulate a persona-mixed device fleet; print the summary table."""
    from repro.errors import ConfigurationError
    from repro.fleet import FleetSimulator, PopulationModel, parse_mix

    schemes = (
        tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        if args.schemes
        else None
    )
    kwargs = {"run": ScaledRun(instructions=args.instructions)}
    if schemes:
        kwargs["schemes"] = schemes
    try:
        population = PopulationModel(
            mix=parse_mix(args.mix) if args.mix else None, seed=args.fleet_seed
        )
        simulator = FleetSimulator(
            population, shard_size=max(1, args.shard_size), **kwargs
        )
        report = simulator.simulate(max(1, args.devices))
    except ConfigurationError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    summary = report.summary()
    print(format_table(
        ["metric", "value"],
        [[k, v] for k, v in summary.items()],
        title=(
            f"fleet: {report.devices} devices, {report.shards} shard(s), "
            f"seed {simulator.population.seed}"
        ),
    ))
    if args.output:
        import json as _json

        with open(args.output, "w", encoding="utf-8") as stream:
            _json.dump(report.as_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote fleet report to {args.output}")
    from repro.analysis.report import render_runner_summary

    if args.manifest:
        runner.write_manifest(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_fleet(report)
        registry.record_runner(runner)
        registry.record_codec_backend()
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    runner_summary = render_runner_summary(runner)
    if runner_summary:
        print(runner_summary)
    return 0


def _report(args, runner) -> int:
    """The publication pipeline verb.

    ``--list`` enumerates the registry; ``-o FILE`` keeps the legacy
    single-file markdown report; otherwise a manifest-stamped artifact
    tree is generated under ``--out/<run-id>/`` and, with ``--diff``,
    compared against a baseline tree (nonzero exit on drift).
    """
    from repro.errors import ConfigurationError
    from repro.report import ReportPipeline, diff_trees, resolve_exhibits

    if args.list_exhibits:
        try:
            specs = resolve_exhibits(args.exhibits)
        except ConfigurationError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        print(format_table(
            ["id", "kind", "anchor", "cost", "title"],
            [[s.id, s.kind, s.paper_anchor,
              "simulated" if s.simulated else "analytic", s.title]
             for s in specs],
            title=f"registered exhibits ({len(specs)})",
        ))
        return 0

    run = ScaledRun(instructions=args.instructions)
    if args.output:
        # Legacy single-file markdown report (kept for scripting compat).
        from repro.analysis.report import write_report

        include = args.exhibits.split(",") if args.exhibits else None
        try:
            write_report(args.output, run, include)
        except ConfigurationError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote report to {args.output}")
        _finish_runner(args, runner)
        return 0

    try:
        pipeline = ReportPipeline(
            out_dir=args.out,
            run_id=args.run_id,
            formats=args.format,
            run=run,
            fidelity=args.fidelity_summary,
        )
        tree = pipeline.generate(args.exhibits)
    except ConfigurationError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    print(f"wrote artifact tree to {tree}")
    _finish_runner(args, runner)
    if args.diff:
        result = diff_trees(tree, args.diff, exhibits=args.exhibits)
        print(result.render())
        if not result.clean:
            return 1
    return 0


def _build_grid(args):
    """The sweep grid from --grid shorthand (or the built-in default)."""
    from repro.dse import GridSpec, parse_grid

    return parse_grid(args.grid) if args.grid else GridSpec()


def _dse(args, runner) -> int:
    """Design-space exploration: score a grid, print frontier + knee."""
    from repro.dse import DesignSpaceExplorer, PAPER_POINT
    from repro.errors import ConfigurationError

    try:
        grid = _build_grid(args)
        kwargs = {}
        if args.benchmarks:
            kwargs["benchmarks"] = tuple(
                b.strip() for b in args.benchmarks.split(",") if b.strip()
            )
        if args.idle_fraction is not None:
            kwargs["idle_fraction"] = args.idle_fraction
        if args.sessions is not None:
            kwargs["sessions_per_day"] = args.sessions
        explorer = DesignSpaceExplorer(
            grid=grid,
            run=ScaledRun(instructions=args.instructions),
            **kwargs,
        )
        report = explorer.explore()
    except ConfigurationError as exc:
        print(f"dse: {exc}", file=sys.stderr)
        return 2
    frontier = set(report.frontier_keys)
    rows = [
        [
            r.point.key(),
            f"{r.energy_j_day:.2f}",
            f"{r.slowdown:.4f}",
            f"{r.failure_prob_day:.3e}",
            ("knee" if r.point.key() == report.knee_key
             else "frontier" if r.point.key() in frontier else ""),
        ]
        for r in report.results
    ]
    print(format_table(
        ["operating point", "energy J/day", "slowdown", "p(fail)/day", ""],
        rows,
        title=(
            f"dse: {len(report.results)}-point grid, "
            f"{len(frontier)} on frontier, {report.sim_jobs} sim jobs"
        ),
    ))
    summary = report.summary()
    print(format_table(
        ["metric", "value"],
        [[k, v] for k, v in summary.items()],
        title=f"knee: {report.knee_key} "
        f"(paper point {PAPER_POINT.key()})",
    ))
    if args.frontier_out:
        with open(args.frontier_out, "w", encoding="utf-8") as stream:
            stream.write(report.to_json())
        print(f"wrote frontier report to {args.frontier_out}")
    if args.manifest:
        runner.write_manifest(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_dse(report)
        registry.record_runner(runner)
        registry.record_codec_backend()
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    from repro.analysis.report import render_runner_summary

    runner_summary = render_runner_summary(runner)
    if runner_summary:
        print(runner_summary)
    return 0


def _tune(args, runner) -> int:
    """Train/evaluate the per-workload tuner, or run the drift check."""
    from repro.dse import golden as dse_golden
    from repro.dse import train_tuner
    from repro.dse.tuner import WorkloadFeatures
    from repro.errors import ConfigurationError
    from repro.workloads.personas import ALL_PERSONAS, ALL_PERSONAS_BY_NAME

    if args.drift_check:
        path = args.golden or dse_golden.default_golden_path()
        try:
            if args.update_golden:
                payload = dse_golden.compute_golden()
                written = dse_golden.write_golden(path, payload)
                print(f"wrote golden DSE fixture to {written}")
                return 0
            golden = dse_golden.load_golden(path)
            report = dse_golden.drift_check(
                golden, tolerance=args.drift_tolerance
            )
        except ConfigurationError as exc:
            print(f"tune: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        return 0 if report.ok else 1

    try:
        grid = _build_grid(args)
        if args.personas:
            names = [p.strip() for p in args.personas.split(",") if p.strip()]
            unknown = sorted(set(names) - set(ALL_PERSONAS_BY_NAME))
            if unknown:
                raise ConfigurationError(
                    f"unknown personas: {', '.join(unknown)}; choose from "
                    f"{', '.join(sorted(ALL_PERSONAS_BY_NAME))}"
                )
            personas = tuple(ALL_PERSONAS_BY_NAME[n] for n in names)
        else:
            personas = ALL_PERSONAS
        tuner, reports = train_tuner(
            grid=grid,
            personas=personas,
            run=ScaledRun(instructions=args.instructions),
            k=args.knn,
            slowdown_cap=args.slowdown_cap,
        )
    except ConfigurationError as exc:
        print(f"tune: {exc}", file=sys.stderr)
        return 2
    card = tuner.report_card()
    print(format_table(
        ["workload", "best point", "LOO prediction", "hit", "regret"],
        [
            [row["workload"], row["best"], row["predicted"],
             "yes" if row["hit"] else "no", f"{row['regret']:.4f}"]
            for row in card
        ],
        title=(
            f"tuner report card: {len(tuner.samples)} workloads, "
            f"k={tuner.k}, grid {grid.size} points"
        ),
    ))
    hits = sum(1 for row in card if row["hit"])
    mean_regret = sum(row["regret"] for row in card) / len(card)
    print(f"leave-one-out: {hits}/{len(card)} exact, "
          f"mean regret {mean_regret:.4f}")
    for persona in sorted(personas, key=lambda p: p.name):
        predicted = tuner.predict(WorkloadFeatures.from_persona(persona))
        print(f"  {persona.name}: {predicted}")
    if args.tuner_out:
        print(f"wrote tuner to {tuner.save(args.tuner_out)}")
    if args.manifest:
        runner.write_manifest(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_tuner(tuner)
        registry.record_runner(runner)
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    return 0


def _configure_runner(args):
    """Install the process-wide experiment runner from CLI flags/env."""
    from repro.analysis.runner import configure_runner

    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    timeout_s = args.timeout
    if timeout_s is None:
        env = os.environ.get("REPRO_JOB_TIMEOUT_S") or None
        timeout_s = float(env) if env else None
    retries = args.retries
    if retries is None:
        retries = int(os.environ.get("REPRO_RETRIES", "0") or "0")
    # A resumed sweep keeps checkpointing to the same manifest unless
    # the user redirects it explicitly.
    checkpoint = args.checkpoint or args.resume or None
    runner = configure_runner(
        jobs=max(1, jobs),
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=max(0, retries),
        checkpoint_path=checkpoint,
        start_method=os.environ.get("REPRO_POOL_START_METHOD") or None,
    )
    if args.resume:
        if cache_dir is None:
            print(
                "warning: --resume without --cache-dir; completed jobs have "
                "no cache to be served from and will re-run",
                file=sys.stderr,
            )
        completed = runner.resume_from(args.resume)
        print(f"resuming from {args.resume}: {completed} job(s) already complete")
    return runner


def _finish_runner(args, runner) -> None:
    """Emit the runner's observability outputs (summary, manifest, metrics)."""
    from repro.analysis.report import render_runner_summary

    if args.manifest:
        runner.write_manifest(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_runner(runner)
        registry.record_codec_backend()
        registry.write_json(args.metrics_out)
        print(f"wrote {len(registry)} metrics to {args.metrics_out}")
    summary = render_runner_summary(runner)
    if summary:
        print(summary)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.codec_backend is not None:
        set_backend(args.codec_backend)
    if args.exhibit == "list":
        print(format_table(
            ["name", "exhibit"], [[k, v[0]] for k, v in EXHIBITS.items()]
        ))
        return 0
    if args.exhibit == "trace-gen":
        return _trace_gen(args)
    if args.exhibit == "trace-sim":
        return _trace_sim(args)
    if args.exhibit == "fault-inject":
        return _fault_inject(args)
    if args.exhibit == "chaos":
        return _chaos(args)
    if args.exhibit == "validate":
        return _validate(args)
    runner = _configure_runner(args)
    if args.exhibit == "fidelity":
        return _fidelity(args, runner)
    if args.exhibit == "fleet":
        return _fleet(args, runner)
    if args.exhibit == "dse":
        return _dse(args, runner)
    if args.exhibit == "tune":
        return _tune(args, runner)
    if args.exhibit == "csv":
        from repro.analysis.export import export_all

        if not args.output:
            print("csv requires --output DIRECTORY", file=sys.stderr)
            return 2
        paths = export_all(args.output, ScaledRun(instructions=args.instructions))
        print(f"wrote {len(paths)} CSV files to {args.output}")
        _finish_runner(args, runner)
        return 0
    if args.exhibit == "report":
        return _report(args, runner)
    run = ScaledRun(instructions=args.instructions)
    names = sorted(EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    for name in names:
        print(EXHIBITS[name][1](run))
        print()
    _finish_runner(args, runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
