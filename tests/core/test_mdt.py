"""Tests for Memory Downgrade Tracking (paper Sec. VI-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError
from repro.obs.trace import EventTracer

LINES_PER_GB = (1 << 30) // 64
LINES_PER_MB = (1 << 20) // 64


@pytest.fixture
def mdt():
    return MemoryDowngradeTracker()


class TestPaperConfiguration:
    def test_1k_entries_cost_128_bytes(self, mdt):
        """Paper: 'a simple MDT with 128 bytes storage'."""
        assert mdt.entries == 1024
        assert mdt.storage_bytes == 128

    def test_region_is_1mb(self, mdt):
        """1 GB / 1K entries = 1 MB regions."""
        assert mdt.region_bytes == 1 << 20
        assert mdt.lines_per_region == 16384


class TestTracking:
    def test_region_of_uses_top_bits(self, mdt):
        assert mdt.region_of(0) == 0
        assert mdt.region_of((1 << 20) - 1) == 0
        assert mdt.region_of(1 << 20) == 1
        assert mdt.region_of(512 << 20) == 512

    def test_record_and_query(self, mdt):
        mdt.record_downgrade(5 << 20)
        assert mdt.is_marked(5)
        assert not mdt.is_marked(6)
        assert mdt.marked_count == 1

    def test_same_region_marked_once(self, mdt):
        mdt.record_downgrade(100)
        mdt.record_downgrade(200)
        mdt.record_downgrade(1000)
        assert mdt.marked_count == 1

    def test_tracked_bytes(self, mdt):
        for region in range(128):
            mdt.record_downgrade(region << 20)
        assert mdt.tracked_bytes == 128 << 20
        assert mdt.lines_to_upgrade() == 128 * 16384

    def test_reset(self, mdt):
        mdt.record_downgrade(0)
        mdt.reset()
        assert mdt.marked_count == 0

    def test_addresses_wrap_at_capacity(self, mdt):
        assert mdt.region_of(1 << 30) == 0

    def test_is_marked_bounds(self, mdt):
        with pytest.raises(ConfigurationError):
            mdt.is_marked(1024)


def traced(entries=1024):
    mdt = MemoryDowngradeTracker(entries=entries)
    mdt.tracer = EventTracer()
    return mdt


def replay(mdt, runs, per_address):
    for first, count in runs:
        if per_address:
            for line in range(first, first + count):
                mdt.record_downgrade(line * 64)
        else:
            mdt.record_line_run(first, count)
    return mdt


def events(mdt):
    return [(e.kind, e.data) for e in mdt.tracer.events]


class TestLineRuns:
    """``record_line_run`` marks (and traces) what per-line calls would."""

    RUNS = {
        "inside-one-region": [(5 * LINES_PER_MB + 3, 100)],
        "straddles-boundary": [(LINES_PER_MB - 2, 5)],
        "spans-many-regions": [(3 * LINES_PER_MB - 1, 4 * LINES_PER_MB + 2)],
        "ends-on-last-line": [(LINES_PER_GB - 7, 7)],
        "wraps-capacity": [(LINES_PER_GB - 3, 2 * LINES_PER_MB)],
        "starts-beyond-capacity": [(LINES_PER_GB + 7 * LINES_PER_MB - 1, 3)],
        "revisits-marked": [(0, 10), (LINES_PER_MB, 1), (5, LINES_PER_MB + 10)],
        "empty": [(12, 0)],
    }

    @pytest.mark.parametrize("entries", [128, 1024, 4096])
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_matches_per_line_downgrades(self, case, entries):
        runs = self.RUNS[case]
        scalar = replay(traced(entries), runs, per_address=True)
        ranged = replay(traced(entries), runs, per_address=False)
        assert ranged.marked_regions == scalar.marked_regions
        assert events(ranged) == events(scalar)

    def test_untraced_matches_traced(self):
        runs = self.RUNS["wraps-capacity"] + self.RUNS["spans-many-regions"]
        plain = replay(MemoryDowngradeTracker(), runs, per_address=False)
        assert plain.marked_regions == replay(traced(), runs, False).marked_regions

    def test_events_in_address_order(self):
        mdt = replay(traced(), [(LINES_PER_GB - LINES_PER_MB, 2 * LINES_PER_MB)], False)
        assert [data["region"] for _, data in events(mdt)] == [1023, 0]
        assert [data["marked"] for _, data in events(mdt)] == [1, 2]

    def test_run_longer_than_capacity_marks_everything(self):
        mdt = MemoryDowngradeTracker(entries=128)
        mdt.record_line_run(LINES_PER_MB // 2, 3 * LINES_PER_GB)
        assert mdt.marked_count == 128

    def test_line_run_regions_split_at_the_wrap(self, mdt):
        assert mdt.line_run_regions(LINES_PER_GB - 1, 2 * LINES_PER_MB) == [
            range(1023, 1024),
            range(0, 2),
        ]
        assert mdt.line_run_regions(7, 0) == []

    def test_rejects_negative_runs(self, mdt):
        with pytest.raises(ConfigurationError):
            mdt.record_line_run(-1, 4)
        with pytest.raises(ConfigurationError):
            mdt.record_line_run(0, -4)


class TestConfiguration:
    def test_coarser_table(self):
        mdt = MemoryDowngradeTracker(entries=128)
        assert mdt.region_bytes == 8 << 20
        assert mdt.storage_bytes == 16

    def test_rejects_non_dividing_entries(self):
        with pytest.raises(ConfigurationError):
            MemoryDowngradeTracker(entries=1000)  # 1 GB % 1000 != 0

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            MemoryDowngradeTracker(entries=0)

    def test_rejects_subline_regions(self):
        tiny = DramOrganization(capacity_bytes=1 << 20, rows=64)
        with pytest.raises(ConfigurationError):
            MemoryDowngradeTracker(tiny, entries=32768)  # 32 B regions


@given(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1), max_size=200))
@settings(max_examples=50)
def test_property_tracked_bytes_bound_footprint(addresses):
    """MDT never under-tracks: every downgraded address's region is marked,
    and tracked bytes never exceed memory capacity."""
    mdt = MemoryDowngradeTracker()
    for a in addresses:
        mdt.record_downgrade(a)
    for a in addresses:
        assert mdt.is_marked(mdt.region_of(a))
    assert mdt.tracked_bytes <= 1 << 30
    assert mdt.marked_count <= len(set(a >> 20 for a in addresses))
