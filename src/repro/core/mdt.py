"""Memory Downgrade Tracking (paper Sec. VI-A).

A table of single bits, one per memory region (default: 1K entries of
1 MB each over 1 GB — 128 *bytes* of controller storage).  The bit for a
region is set when any line in it undergoes ECC-Downgrade.  On idle entry
only the marked regions are scanned for ECC-Upgrade, cutting the upgrade
pass from ~400 ms (full memory) to ~50 ms (typical 128 MB footprint) and
saving 8x of the encoder energy.  The table resets after each upgrade.
"""

from __future__ import annotations

from repro.dram.config import DramOrganization
from repro.errors import ConfigurationError


class MemoryDowngradeTracker:
    """The MDT bit table.

    Args:
        org: memory organization (for capacity/line size).
        entries: number of regions tracked (paper default: 1024).
    """

    def __init__(self, org: DramOrganization | None = None, entries: int = 1024):
        if entries < 1:
            raise ConfigurationError("entries must be >= 1")
        self.org = org or DramOrganization()
        if self.org.capacity_bytes % entries:
            raise ConfigurationError("entries must divide memory capacity")
        self.entries = entries
        self.region_bytes = self.org.capacity_bytes // entries
        if self.region_bytes < self.org.line_bytes:
            raise ConfigurationError("regions must hold at least one line")
        self._marked: set[int] = set()
        #: Optional :class:`repro.obs.trace.EventTracer`; None = no tracing.
        self.tracer = None

    @property
    def storage_bytes(self) -> int:
        """Hardware cost of the table: one bit per entry (128 B default)."""
        return (self.entries + 7) // 8

    @property
    def lines_per_region(self) -> int:
        return self.region_bytes // self.org.line_bytes

    def region_of(self, byte_address: int) -> int:
        """Region index of an address (top MSBs of the line address)."""
        if byte_address < 0:
            raise ConfigurationError("address must be non-negative")
        return (byte_address % self.org.capacity_bytes) // self.region_bytes

    def record_downgrade(self, byte_address: int) -> None:
        """Set the bit for the region containing a downgraded line."""
        region = self.region_of(byte_address)
        if region not in self._marked:
            self._marked.add(region)
            if self.tracer is not None:
                self.tracer.emit(
                    "mdt", "set", region=region, marked=len(self._marked)
                )

    def line_run_regions(self, first_line: int, count: int) -> list[range]:
        """Region ranges the lines ``first_line .. first_line+count-1`` touch.

        In address order, split where the run wraps at the memory
        capacity (the modulo :meth:`region_of` applies).  Consecutive
        line addresses step by at most one region, so each non-wrapping
        piece touches every region between its first and last line.
        """
        if first_line < 0 or count < 0:
            raise ConfigurationError("line run must be non-negative")
        line_bytes = self.org.line_bytes
        capacity = self.org.capacity_bytes
        region_bytes = self.region_bytes
        address = first_line * line_bytes % capacity
        spans = []
        while count:
            fit = min(count, -(-(capacity - address) // line_bytes))
            last = address + (fit - 1) * line_bytes
            spans.append(range(address // region_bytes, last // region_bytes + 1))
            count -= fit
            if len(spans) == 2:
                # The second piece starts in region 0: if the run goes on,
                # that piece reached the top and every region is covered.
                break
            address = (address + fit * line_bytes) % capacity
        return spans

    def record_line_run(self, first_line: int, count: int) -> None:
        """Set the bits for a run of consecutive downgraded lines.

        Marks what ``count`` :meth:`record_downgrade` calls over the
        run's line addresses would, with the same ``mdt/set`` events in
        the same order when a tracer is attached.
        """
        for span in self.line_run_regions(first_line, count):
            if self.tracer is None:
                self._marked.update(span)
                continue
            for region in span:
                if region not in self._marked:
                    self._marked.add(region)
                    self.tracer.emit(
                        "mdt", "set", region=region, marked=len(self._marked)
                    )

    def is_marked(self, region: int) -> bool:
        if not 0 <= region < self.entries:
            raise ConfigurationError(f"region {region} out of range")
        return region in self._marked

    @property
    def marked_regions(self) -> frozenset[int]:
        return frozenset(self._marked)

    @property
    def marked_count(self) -> int:
        return len(self._marked)

    @property
    def tracked_bytes(self) -> int:
        """Memory the upgrade pass must scan (Fig. 11's y-axis)."""
        return self.marked_count * self.region_bytes

    def lines_to_upgrade(self) -> int:
        """Number of lines the MDT-guided ECC-Upgrade scans."""
        return self.marked_count * self.lines_per_region

    def reset(self) -> None:
        """Clear the table (done after each ECC-Upgrade pass)."""
        if self._marked and self.tracer is not None:
            self.tracer.emit("mdt", "clear", cleared=len(self._marked))
        self._marked.clear()

    # -- fault injection (chaos harness) ------------------------------------

    def inject_set(self, region: int) -> None:
        """Fault-inject: spuriously set a region bit (false-set fault).

        Models a bit flip in the controller's MDT SRAM.  A false-set bit
        costs extra idle-entry scan work but cannot lose data; the
        coherence invariant is expected to flag it.
        """
        if not 0 <= region < self.entries:
            raise ConfigurationError(f"region {region} out of range")
        self._marked.add(region)
        if self.tracer is not None:
            self.tracer.emit("mdt", "fault-set", region=region)

    def inject_clear(self, region: int) -> None:
        """Fault-inject: spuriously clear a region bit (false-clear fault).

        The dangerous direction: downgraded lines in the region will be
        skipped by an MDT-guided ECC-Upgrade unless the conservative
        fallback or the patrol scrubber catches them.
        """
        if not 0 <= region < self.entries:
            raise ConfigurationError(f"region {region} out of range")
        self._marked.discard(region)
        if self.tracer is not None:
            self.tracer.emit("mdt", "fault-clear", region=region)
