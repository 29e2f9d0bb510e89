"""Regression: forced codec backends must reach pool workers.

The bug: ``repro --codec-backend X`` called
:func:`repro.ecc.backend.set_backend` in the parent process only.  The
override lives in module-local state, so ``ProcessPoolExecutor``
workers — which under the spawn start method begin from fresh module
state — silently resolved ``auto`` instead, and a forced-backend sweep
measured the wrong engine.  The fix ships the parent's *request* to
every worker through a pool initializer (override + environment) and
has each job report the backend the executing process actually
resolved, so the run manifest proves which engine did the work.

The spawn start method is what makes these tests regress on the
pre-fix behavior: under fork the workers inherit the parent's override
by memory copy and the bug is masked.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.analysis.runner import ExperimentRunner, JobSpec, ResultCache
from repro.ecc.backend import reset_backend, set_backend
from repro.errors import ConfigurationError
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=20_000)

needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


@pytest.fixture(autouse=True)
def _clean_backend():
    reset_backend()
    yield
    reset_backend()


def spec_for(policy: str) -> JobSpec:
    return JobSpec.build(BENCHMARKS_BY_NAME["povray"], RUN, policy)


class TestInlineBackendReporting:
    def test_outcome_and_manifest_carry_resolved_backend(self):
        set_backend("matrix")
        runner = ExperimentRunner(jobs=1)
        outcomes = runner.run([spec_for("baseline")])
        (outcome,) = outcomes.values()
        assert outcome.backend == "matrix"
        manifest = runner.manifest()
        assert manifest["codec_backends"] == ["matrix"]
        assert [job["backend"] for job in manifest["jobs"]] == ["matrix"]

    def test_cache_hits_preserve_original_backend(self, tmp_path):
        set_backend("matrix")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec_for("baseline")])
        # A later run under a different backend must report the engine
        # that *computed* the cached entry, not the current selection.
        set_backend("bitsliced")
        runner = ExperimentRunner(jobs=1, cache=cache)
        outcomes = runner.run([spec_for("baseline")])
        (outcome,) = outcomes.values()
        assert outcome.cached
        assert outcome.backend == "matrix"
        assert runner.manifest()["codec_backends"] == ["matrix"]


class TestWorkerBackendPropagation:
    @needs_spawn
    def test_spawn_workers_honor_forced_backend(self):
        """The regression proper: pre-fix, spawn workers resolved `auto`
        (bitsliced) while the parent forced `matrix`."""
        set_backend("matrix")
        runner = ExperimentRunner(jobs=2, start_method="spawn")
        specs = [spec_for("baseline"), spec_for("secded")]
        outcomes = runner.run(specs)
        assert len(outcomes) == 2
        assert {o.backend for o in outcomes.values()} == {"matrix"}
        manifest = runner.manifest()
        assert manifest["codec_backends"] == ["matrix"]
        assert manifest["parallelism"]["start_method"] == "spawn"
        for job in manifest["jobs"]:
            assert job["backend"] == "matrix", job

    @needs_spawn
    def test_spawn_workers_match_inline_results(self):
        """Propagation must not perturb results: spawn + forced backend
        is bit-identical to the inline run."""
        set_backend("bitsliced")
        spec = spec_for("mecc")
        inline = ExperimentRunner(jobs=1).run([spec])[spec]
        pooled = ExperimentRunner(jobs=2, start_method="spawn").run([spec])[spec]
        assert pooled.result == inline.result
        assert pooled.backend == inline.backend == "bitsliced"

    def test_fork_workers_also_report(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        set_backend("matrix")
        runner = ExperimentRunner(jobs=2, start_method="fork")
        outcomes = runner.run([spec_for("baseline"), spec_for("mecc")])
        assert {o.backend for o in outcomes.values()} == {"matrix"}

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(start_method="teleport")
