"""Tests for the ablation sweeps."""

import pytest

from repro.analysis import sweep
from repro.sim.system import ScaledRun
from repro.workloads.spec import BENCHMARKS_BY_NAME
from tests.workloads.scalar_oracle import scalar_entry_sweep


class TestMdtSweep:
    def test_storage_and_granularity_tradeoff(self):
        out = sweep.mdt_entry_sweep(
            BENCHMARKS_BY_NAME["libq"], entry_counts=(128, 1024), coverage_factor=1.0
        )
        assert out[128]["storage_bytes"] == 16
        assert out[1024]["storage_bytes"] == 128
        # Coarser regions never track less memory than finer ones.
        assert out[128]["tracked_mb"] >= out[1024]["tracked_mb"]

    def test_upgrade_time_tracks_tracked_mb(self):
        out = sweep.mdt_entry_sweep(
            BENCHMARKS_BY_NAME["sphinx"], entry_counts=(256, 2048), coverage_factor=1.0
        )
        for row in out.values():
            expected_ms = row["tracked_mb"] / 1024 * 400.0
            assert row["upgrade_ms"] == pytest.approx(expected_ms, rel=0.1)

    def test_equals_per_address_scan(self):
        spec = BENCHMARKS_BY_NAME["povray"]
        entries = (128, 256, 512, 1024, 2048, 4096)
        assert sweep.mdt_entry_sweep(spec, entries) == scalar_entry_sweep(
            spec, entries, coverage_factor=3.0
        )


class TestModeBitSweep:
    def test_redundancy_monotone(self):
        out = sweep.mode_bit_redundancy_sweep(ber=1e-3)
        probs = [out[r]["misresolve_p"] for r in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_paper_choice_is_safe(self):
        out = sweep.mode_bit_redundancy_sweep()
        assert out[4]["misresolve_p"] < 1e-12


class TestStrengthSweeps:
    def test_stronger_ecc_longer_period(self):
        out = sweep.ecc_strength_refresh_sweep((2, 6))
        assert out[6] > out[2]
        assert 0.9 <= out[6] <= 1.6  # ECC-6 sustains ~1 second

    def test_refresh_period_power_sweep(self):
        # 1.0 s is the paper's nominal slow period; at 1.024 s the power-law
        # BER is ~9% higher, which tips ECC-5 just past the 1e-6 target and
        # would demand one more level.
        out = sweep.refresh_period_power_sweep((0.064, 1.0))
        assert out[0.064]["idle_power_norm"] == pytest.approx(1.0)
        assert out[1.0]["idle_power_norm"] < 0.6
        assert out[0.064]["required_ecc_t"] < out[1.0]["required_ecc_t"]
        assert out[1.0]["required_ecc_t"] == 6


class TestSmdThresholdSweep:
    def test_higher_threshold_more_disabled_time(self):
        run = ScaledRun(instructions=60_000)
        subset = tuple(BENCHMARKS_BY_NAME[n] for n in ("povray", "sphinx"))
        out = sweep.smd_threshold_sweep((0.5, 8.0), run, subset)
        assert (
            out[8.0]["mean_disabled_fraction"]
            >= out[0.5]["mean_disabled_fraction"]
        )
        assert out[8.0]["never_enabled_count"] >= out[0.5]["never_enabled_count"]
