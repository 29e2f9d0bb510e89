"""Tests for the parallel, cached experiment runner."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.runner import (
    CACHE_SCHEMA,
    ExperimentRunner,
    JobSpec,
    ResultCache,
    code_fingerprint,
    configure_runner,
)
from repro.errors import ConfigurationError
from repro.sim.system import ScaledRun, SystemConfig
from repro.workloads.spec import BENCHMARKS_BY_NAME

RUN = ScaledRun(instructions=20_000)
POVRAY = BENCHMARKS_BY_NAME["povray"]
LIBQ = BENCHMARKS_BY_NAME["libq"]


def spec_for(policy: str, benchmark=POVRAY, config=None) -> JobSpec:
    return JobSpec.build(benchmark, RUN, policy, config=config)


class TestJobSpec:
    def test_specs_are_hashable_and_equal_by_value(self):
        assert spec_for("mecc") == spec_for("mecc")
        assert {spec_for("mecc"), spec_for("mecc")} == {spec_for("mecc")}

    def test_key_is_stable(self):
        assert spec_for("baseline").key("abc") == spec_for("baseline").key("abc")

    def test_key_varies_with_job_and_code(self):
        base = spec_for("baseline")
        keys = {
            base.key("abc"),
            base.key("xyz"),  # code change
            spec_for("mecc").key("abc"),  # policy change
            spec_for("baseline", benchmark=LIBQ).key("abc"),  # benchmark change
            spec_for(
                "baseline", config=SystemConfig(weak_decode_cycles=7)
            ).key("abc"),  # config change
            dataclasses.replace(base, instructions=40_000).key("abc"),
        }
        assert len(keys) == 6

    def test_smd_spec_carries_scaling_parameters(self):
        spec = spec_for("mecc+smd")
        assert spec.threshold_mpkc is not None
        assert spec.quantum_cycles == RUN.quantum_cycles

    def test_code_fingerprint_is_memoized_hex(self):
        tag = code_fingerprint()
        assert tag == code_fingerprint()
        int(tag, 16)


class TestResultCache:
    def test_cold_miss_then_bit_identical_hit(self, tmp_path):
        spec = spec_for("mecc")
        cold = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run([spec])[spec]
        assert not first.cached
        assert cold.cache_misses == 1

        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run([spec])[spec]
        assert second.cached
        assert warm.cache_hits == 1
        # Bit-identical round trip, floats included.
        assert second.result.to_dict() == first.result.to_dict()
        assert second.result.energy.total == first.result.energy.total

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        runner.run([spec_for("baseline")])
        changed = spec_for("baseline", config=SystemConfig(weak_decode_cycles=9))
        outcome = runner.run([changed])[changed]
        assert not outcome.cached
        assert cache.hits == 0 and cache.misses == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = spec_for("baseline")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec])
        key = spec.key()
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        rerun = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        assert not rerun.run([spec])[spec].cached

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        spec = spec_for("baseline")
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run([spec])
        key = spec.key()
        path = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        miss_cache = ResultCache(tmp_path)
        assert miss_cache.load(key) is None
        assert miss_cache.misses == 1


class TestRunner:
    def test_rejects_bad_jobs(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=0)

    def test_deduplicates_specs(self):
        runner = ExperimentRunner(jobs=1)
        spec = spec_for("baseline")
        outcomes = runner.run([spec, spec, spec])
        assert len(outcomes) == 1
        assert len(runner.records) == 1

    def test_parallel_matches_serial(self):
        """jobs=2 must produce bit-identical results to jobs=1."""
        specs = [
            spec_for("baseline"),
            spec_for("mecc"),
            spec_for("mecc+smd", benchmark=LIBQ),
        ]
        serial = ExperimentRunner(jobs=1).run(specs)
        parallel = ExperimentRunner(jobs=2).run(specs)
        for spec in specs:
            assert parallel[spec].result.to_dict() == serial[spec].result.to_dict()
            assert (
                parallel[spec].smd_disabled_fraction
                == serial[spec].smd_disabled_fraction
            )

    def test_smd_outcome_reports_disabled_fraction(self):
        runner = ExperimentRunner(jobs=1)
        plain = spec_for("mecc")
        smd = spec_for("mecc+smd")
        outcomes = runner.run([plain, smd])
        assert outcomes[plain].smd_disabled_fraction is None
        assert 0.0 <= outcomes[smd].smd_disabled_fraction <= 1.0


class TestManifest:
    def test_manifest_counts_and_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        specs = [spec_for("baseline"), spec_for("mecc")]
        runner.run(specs)
        runner.run(specs)  # second pass: all hits
        manifest = runner.manifest()
        assert manifest["schema"] == CACHE_SCHEMA
        assert manifest["code_version"] == code_fingerprint()
        assert manifest["parallelism"]["jobs"] == 1
        assert manifest["totals"]["job_count"] == 4
        assert manifest["cache"]["hits"] == 2
        assert manifest["cache"]["misses"] == 2
        assert manifest["cache"]["hit_rate"] == 0.5
        assert len(manifest["jobs"]) == 4
        record = manifest["jobs"][0]
        assert record["benchmark"] == "povray"
        assert record["source"] == "run"
        assert record["wall_s"] >= 0.0

    def test_write_manifest_round_trips(self, tmp_path):
        runner = ExperimentRunner(jobs=1)
        runner.run([spec_for("baseline")])
        path = tmp_path / "manifest.json"
        runner.write_manifest(path)
        payload = json.loads(path.read_text())
        assert payload["totals"]["job_count"] == 1
        assert "created" in payload

    def test_runner_summary_renders(self):
        from repro.analysis.report import render_runner_summary

        runner = ExperimentRunner(jobs=1)
        assert render_runner_summary(runner) == ""
        runner.run([spec_for("baseline"), spec_for("mecc")])
        text = render_runner_summary(runner)
        assert "baseline" in text and "mecc" in text and "TOTAL" in text


class TestBackendContract:
    """``local`` is the only execution backend; the keyword stays."""

    @pytest.fixture(autouse=True)
    def _restore_runner(self):
        yield
        configure_runner(jobs=1, cache_dir=None)

    def test_local_backend_configures_a_local_runner(self, tmp_path):
        runner = configure_runner(jobs=1, cache_dir=tmp_path, backend="local")
        assert runner.backend == "local"
        runner.run([spec_for("baseline")])
        manifest = runner.manifest()
        assert manifest["parallelism"]["jobs"] == 1
        assert "dispatch" not in manifest

    @pytest.mark.parametrize("backend", ["dispatch", "remote", ""])
    def test_other_backends_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="only backend is 'local'"):
            configure_runner(jobs=1, backend=backend)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(backend=backend)


class TestTraceMemo:
    """The per-process trace memo tells reseeded specs apart."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        from repro.analysis.runner import clear_trace_memo

        clear_trace_memo()
        yield
        clear_trace_memo()

    def test_reseeded_spec_gets_its_own_trace(self):
        from repro.analysis import experiments as X
        from repro.analysis.runner import trace_for

        reseeded = dataclasses.replace(LIBQ, seed=LIBQ.seed + 1)
        first = trace_for(LIBQ, RUN.instructions)
        second = trace_for(reseeded, RUN.instructions)
        assert second is not first
        assert second.records == reseeded.trace(RUN.instructions).records
        assert second.records != first.records
        # Equal specs still share one trace, through either entry point.
        assert trace_for(LIBQ, RUN.instructions) is first
        assert X._trace_for(reseeded, RUN) is second

    def test_reseeded_job_result_matches_a_fresh_process(self):
        from repro.analysis.runner import clear_trace_memo, execute_job

        reseeded = spec_for("baseline", benchmark=dataclasses.replace(LIBQ, seed=7))
        execute_job(spec_for("baseline", benchmark=LIBQ))  # primes the memo
        after_seed0 = execute_job(reseeded)[0]
        clear_trace_memo()
        assert execute_job(reseeded)[0] == after_seed0
