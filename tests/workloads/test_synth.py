"""Tests for the synthetic trace generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.types import MemoryOp
from repro.workloads.spec import ALL_BENCHMARKS
from repro.workloads.synth import LINE_BYTES, Phase, SyntheticTraceGenerator
from tests.workloads.scalar_oracle import scalar_read_addresses


def make_generator(**kwargs):
    defaults = dict(
        name="test",
        mpki=10.0,
        target_ipc=0.8,
        footprint_bytes=4 << 20,
        seed=1,
    )
    defaults.update(kwargs)
    return SyntheticTraceGenerator(**defaults)


class TestStatistics:
    def test_mpki_close_to_target(self):
        trace = make_generator(mpki=10.0).generate(200_000)
        assert trace.mpki == pytest.approx(10.0, rel=0.08)

    def test_low_mpki(self):
        trace = make_generator(mpki=0.5).generate(400_000)
        assert trace.mpki == pytest.approx(0.5, rel=0.25)

    def test_write_fraction(self):
        trace = make_generator(write_fraction=0.5).generate(200_000)
        assert trace.writes / trace.reads == pytest.approx(0.5, rel=0.1)

    def test_zero_write_fraction(self):
        trace = make_generator(write_fraction=0.0).generate(50_000)
        assert trace.writes == 0

    def test_instruction_budget_met(self):
        trace = make_generator().generate(100_000)
        assert trace.instructions == pytest.approx(100_000, rel=0.02)

    def test_footprint_respects_working_set(self):
        generator = make_generator(working_set_bytes=64 * 1024)
        trace = generator.generate(300_000)
        assert trace.footprint_bytes() <= 64 * 1024 + 3 * LINE_BYTES

    def test_addresses_line_aligned(self):
        trace = make_generator().generate(20_000)
        assert all(r.address % LINE_BYTES == 0 for r in trace.records)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = make_generator(seed=7).generate(50_000)
        b = make_generator(seed=7).generate(50_000)
        assert a.records == b.records

    def test_different_seed_different_trace(self):
        a = make_generator(seed=7).generate(50_000)
        b = make_generator(seed=8).generate(50_000)
        assert a.records != b.records


class TestPhases:
    def test_intensity_shifts_traffic(self):
        generator = make_generator(
            phases=(Phase(0.5, 0.2), Phase(0.5, 1.8)), mpki=10.0
        )
        trace = generator.generate(200_000)
        # Split records at the instruction midpoint.
        instrs = 0
        first_half_reads = 0
        for record in trace.records:
            instrs += record.gap + (1 if record.op is MemoryOp.READ else 0)
            if instrs <= 100_000 and record.op is MemoryOp.READ:
                first_half_reads += 1
        second_half_reads = trace.reads - first_half_reads
        assert second_half_reads > 4 * first_half_reads

    def test_average_mpki_preserved(self):
        generator = make_generator(phases=(Phase(0.5, 0.2), Phase(0.5, 1.8)))
        trace = generator.generate(300_000)
        assert trace.mpki == pytest.approx(10.0, rel=0.12)

    def test_phase_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            make_generator(phases=(Phase(0.5, 1.0),))

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            Phase(weight=0.0, intensity=1.0)
        with pytest.raises(ConfigurationError):
            Phase(weight=0.5, intensity=-1.0)


class TestSegments:
    def test_segments_spread_across_memory(self):
        generator = make_generator(segments=3, footprint_bytes=3 << 20)
        trace = generator.generate(100_000)
        regions = {r.address >> 26 for r in trace.records}  # 64 MB granules
        assert len(regions) == 3

    def test_single_segment(self):
        generator = make_generator(segments=1)
        trace = generator.generate(50_000)
        assert len({r.address >> 26 for r in trace.records}) == 1


class TestAddressOnlyPath:
    def test_yields_requested_count(self):
        generator = make_generator()
        addresses = list(generator.iter_read_addresses(10_000))
        assert len(addresses) == 10_000
        assert all(a % LINE_BYTES == 0 for a in addresses)

    def test_covers_footprint(self):
        """The fast path sweeps most of the full footprint."""
        generator = make_generator(footprint_bytes=1 << 20, segments=1)
        lines = 1 << 20 >> 6
        touched = set(generator.iter_read_addresses(4 * lines))
        assert len(touched) > 0.8 * lines

    def test_deterministic(self):
        g = make_generator()
        assert list(g.iter_read_addresses(1000)) == list(g.iter_read_addresses(1000))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            list(make_generator().iter_read_addresses(-1))


def expand(runs):
    return [
        line * LINE_BYTES for first, count in runs for line in range(first, first + count)
    ]


class TestReadRuns:
    """``iter_read_runs`` expands to exactly the per-access walk."""

    @pytest.mark.parametrize("n", [0, 1, 2, 33, 5_000])
    def test_matches_oracle_at_any_length(self, n):
        """Cuts before, inside and after the first streams."""
        generator = make_generator()
        assert expand(generator.iter_read_runs(n)) == list(
            scalar_read_addresses(generator, n)
        )

    @pytest.mark.parametrize("spec", ALL_BENCHMARKS[::5], ids=lambda s: s.name)
    def test_matches_oracle_on_benchmarks(self, spec):
        generator = spec.generator()
        assert expand(generator.iter_read_runs(20_000)) == list(
            scalar_read_addresses(generator, 20_000)
        )

    @pytest.mark.parametrize("footprint_bytes", [64, 3 * 64, 40 * 64, 1000 * 64])
    @pytest.mark.parametrize("stream_fraction", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("seed", [0, 3, 2015])
    def test_matches_oracle_on_tiny_footprints(self, footprint_bytes, stream_fraction, seed):
        """Streams wrap their extents many times over."""
        for segments in (1, 3):
            generator = make_generator(
                footprint_bytes=footprint_bytes,
                stream_fraction=stream_fraction,
                segments=segments,
                seed=seed,
            )
            assert expand(generator.iter_read_runs(3_000)) == list(
                scalar_read_addresses(generator, 3_000)
            )

    def test_runs_sum_to_n_and_stay_inside_extents(self):
        generator = make_generator(footprint_bytes=40 * 64, stream_fraction=1.0)
        runs = list(generator.iter_read_runs(2_000))
        assert sum(count for _, count in runs) == 2_000
        assert all(count >= 1 for _, count in runs)
        extents = generator.footprint_extents
        for first, count in runs:
            assert any(
                start <= first and first + count <= start + size
                for start, size in extents
            )

    def test_streams_come_out_as_runs(self):
        generator = make_generator(stream_fraction=1.0)
        runs = list(generator.iter_read_runs(10_000))
        assert len(runs) < 10_000 / 10

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            list(make_generator().iter_read_runs(-1))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mpki": 0.0},
            {"target_ipc": 0.0},
            {"target_ipc": 2.5},
            {"footprint_bytes": 32},
            {"write_fraction": 1.5},
            {"stream_fraction": -0.1},
            {"segments": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_generator(**kwargs)

    def test_rejects_zero_instructions(self):
        with pytest.raises(ConfigurationError):
            make_generator().generate(0)


@given(mpki=st.floats(min_value=2.0, max_value=40.0),
       stream=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_property_generator_statistics(mpki, stream, seed):
    generator = make_generator(mpki=mpki, stream_fraction=stream, seed=seed)
    trace = generator.generate(60_000)
    assert trace.mpki == pytest.approx(mpki, rel=0.35)
    assert trace.nonmem_cpi >= 0.5
