"""The repository benchmark: one workload, timed, checked, optionally traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-sweep --seed 0 --seconds 30 --trace 0

Each repetition runs cold in a fresh ``worker.py`` process with a fresh
on-disk result cache; repetitions repeat until ``--seconds`` have passed
(at least two).  End-to-end metrics are medians over the repetitions,
measured with tracing off.  Times are scaled to a reference host speed
that ``speedprobe.py`` samples during each timed region, so that the
drift of a shared host's speed does not read as a change of the code;
the raw medians are in the provenance line.  ``--trace 1`` alternates
untraced and traced repetitions instead and reports the per-layer
metrics of the traced ones.

Every repetition's outputs are checked: on ``--seed 0`` against the
reference recorded under ``perfbench/reference/``, on any other seed
against the run's first repetition (counts must repeat exactly, traced
outputs must equal untraced ones).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the host provenance.  Spans and
provenance are also written to ``.perfbench_out/``.

``--record-reference`` rewrites the workload's reference from one seed-0
repetition (only meaningful on an unmodified tree).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sim-sweep", "footprint-scan", "fidelity-gate")
#: The seed the reference covers: the registry's own benchmark seeds.
REFERENCE_SEED = 0
MIN_REPS = 2
#: Extra set-up-only processes per run, so ``setup_s`` is a median of
#: enough samples to be steady.
SETUP_RUNS = 6
#: No new repetition starts after this much of the run.
DEADLINE_S = 120.0
#: A repetition still running this long after the run started is killed
#: and the run fails (a run must end within 180 s).
RUN_LIMIT_S = 170.0


class RunFailed(RuntimeError):
    pass


def worker_env() -> dict:
    """The caller's environment without any ``REPRO_*`` override."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(
    workload: str, seed: int, traced: bool, setup_only: bool = False,
    timeout: float = RUN_LIMIT_S,
) -> dict:
    """Run one repetition in a fresh process and return its record."""
    TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        out = Path(tmp) / "rep.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--traced", str(int(traced)),
            "--cache-dir", str(Path(tmp) / "cache"), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=sys.stderr)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunFailed(f"{workload} repetition exceeded {timeout:.0f} s")
        if proc.returncode != 0:
            raise RunFailed(f"{workload} worker exited with {proc.returncode}")
        with open(out, encoding="utf-8") as stream:
            record = json.load(stream)
    # Set-up time at the reference host speed; see speedprobe.py.
    record["setup_wall_s"] = record["ready"] - start - record["setup_probe_s"]
    record["setup_s"] = record["setup_wall_s"] * record["setup_speed"]
    return record


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check(reps: list[dict], expected: dict) -> tuple[int, int]:
    """(attempted, failed) operations over every repetition.

    An operation is one runner job, one exhibit table, one claim or one
    exact counter.  It fails when the job failed, when the output carries
    an error or a failed claim verdict, or when it differs from
    ``expected``.
    """
    attempted = failed = 0
    for rep in reps:
        attempted += rep["jobs"]["attempted"]
        failed += rep["jobs"]["failed"]
        seen = set()
        for name, value in rep["outputs"]:
            seen.add(name)
            attempted += 1
            bad = isinstance(value, dict) and (
                value.get("error") is not None or value.get("passed") is False
            )
            if bad or name not in expected or expected[name] != value:
                failed += 1
        missing = set(expected) - seen
        attempted += len(missing)
        failed += len(missing)
    return attempted, failed


def first_values(outputs: list[list]) -> dict:
    values: dict = {}
    for name, value in outputs:
        values.setdefault(name, value)
    return values


def record_reference(workload: str) -> int:
    rep = run_rep(workload, REFERENCE_SEED, traced=False)
    values = first_values(rep["outputs"])
    if any(values[name] != value for name, value in rep["outputs"]):
        raise RunFailed("outputs differ between passes of one repetition")
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    payload = {"workload": workload, "seed": REFERENCE_SEED,
               "provenance": rep["provenance"], "outputs": values}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(values)} outputs)", file=sys.stderr)
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []

    def time_left() -> bool:
        elapsed = time.monotonic() - t0
        return elapsed < seconds and elapsed < DEADLINE_S

    def rep(tracing: bool, setup_only: bool = False) -> dict:
        timeout = RUN_LIMIT_S - (time.monotonic() - t0)
        return run_rep(workload, seed, tracing, setup_only, timeout)

    if trace:
        while not traced or time_left():
            untraced.append(rep(tracing=False))
            traced.append(rep(tracing=True))
    else:
        while len(untraced) < MIN_REPS or time_left():
            untraced.append(rep(tracing=False))
    setup_runs = [rep(tracing=False, setup_only=True) for _ in range(SETUP_RUNS)]

    if seed == REFERENCE_SEED:
        path = REFERENCE_DIR / f"{workload}.json"
        expected = json.loads(path.read_text())["outputs"]
    else:
        expected = first_values(untraced[0]["outputs"])
    attempted, failed = check(untraced + traced, expected)

    walls = [r["wall_s"] for r in untraced]
    setups = untraced + setup_runs
    metrics = {}
    if not trace:
        metrics["norm_wall_s"] = (
            statistics.median(r["norm_wall_s"] for r in untraced), "s")
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in setups), "s")
        metrics["peak_rss_mb"] = (
            statistics.median([r["peak_rss_mb"] for r in untraced]), "MB")
    else:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        for name, value in layers.items():
            metrics[name] = (value, "s" if name.endswith("_s") else "count")
        metrics["runner.pool.busy_ratio"] = (layers["runner.pool.busy_ratio"], "ratio")
        metrics["sim_minstr_per_s"] = (statistics.median(
            r["jobs"]["instructions"] / r["wall_s"] / 1e6 for r in untraced), "Minstr/s")
        metrics["job_p50_ms"] = (statistics.median(
            1000 * percentile(r["jobs"]["walls"], 50) for r in untraced), "ms")
        metrics["job_p98_ms"] = (statistics.median(
            1000 * percentile(r["jobs"]["walls"], 98) for r in untraced), "ms")
        metrics["job_samples"] = (
            statistics.median(len(r["jobs"]["walls"]) for r in untraced), "count")
        metrics["error_rate"] = (failed / attempted, "ratio")
        metrics["trace_overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(walls), "s")

    provenance = dict(untraced[0]["provenance"])
    provenance.update(
        workload=workload, seed=seed, seconds=seconds, trace=int(trace),
        repetitions=len(untraced), traced_repetitions=len(traced),
        setup_samples=len(setups), git_rev=git_rev(),
        wall_s=statistics.median(walls),
        host_speed=statistics.median(r["speed"] for r in untraced),
        setup_wall_s=statistics.median(r["setup_wall_s"] for r in setups),
    )
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    dump.write_text(json.dumps({
        "provenance": provenance,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [r["spans"] for r in traced],
    }))
    print(json.dumps({"provenance": provenance}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference(args.workload)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
