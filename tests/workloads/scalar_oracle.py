"""Per-address reference for the run-length footprint scan.

The address-only stream used to be walked one access at a time and fed
to the MDT one address at a time.  The loops below are that walk and
that scan, kept as oracles: the run-length generator, the MDT's range
marking and the early-stopping footprint scans must reproduce them
exactly.
"""

from __future__ import annotations

import random

from repro.core.mdt import MemoryDowngradeTracker
from repro.dram.device import DramDevice
from repro.workloads.synth import LINE_BYTES, STREAM_RUN_MEAN


def scalar_read_addresses(generator, n_accesses: int):
    """The per-access walk behind ``iter_read_addresses``."""
    extents = generator._segment_extents(generator.footprint_bytes)
    rng = random.Random(generator.seed ^ 0x5EED)
    positions = [start for start, _ in extents]
    current = 0
    left = 0
    for _ in range(n_accesses):
        if left > 0:
            left -= 1
        elif rng.random() < max(generator.stream_fraction, 0.5):
            current = rng.randrange(len(extents))
            left = max(0, int(rng.expovariate(1.0 / (4 * STREAM_RUN_MEAN))) - 1)
        else:
            start, count = extents[rng.randrange(len(extents))]
            yield (start + rng.randrange(count)) * LINE_BYTES
            continue
        start, count = extents[current]
        positions[current] = start + (positions[current] - start + 1) % count
        yield positions[current] * LINE_BYTES


def scalar_mdt(spec, coverage_factor: float, org=None, entries: int = 1024):
    """An MDT fed every address of the scan, one ``record_downgrade`` each."""
    mdt = MemoryDowngradeTracker(org, entries=entries)
    n_accesses = int(coverage_factor * spec.footprint_bytes / 64)
    for address in scalar_read_addresses(spec.generator(), n_accesses):
        mdt.record_downgrade(address)
    return mdt


def scalar_fig11(benchmarks, coverage_factor: float, mdt_entries: int = 1024):
    """``fig11_mdt_tracking`` as computed by the per-address scan."""
    device = DramDevice()
    out: dict[str, dict[str, float]] = {}
    for spec in benchmarks:
        mdt = scalar_mdt(spec, coverage_factor, device.org, mdt_entries)
        tracked_mb = mdt.tracked_bytes / (1 << 20)
        out[spec.name] = {
            "tracked_mb": tracked_mb,
            "footprint_mb": spec.footprint_mb,
            "upgrade_ms": 1000.0
            * device.upgrade_seconds_for_regions(mdt.marked_count, mdt.region_bytes),
        }
    out["ALL"] = {
        "tracked_mb": sum(v["tracked_mb"] for v in out.values()) / len(out),
        "footprint_mb": sum(b.footprint_mb for b in benchmarks) / len(benchmarks),
        "upgrade_ms": sum(v["upgrade_ms"] for v in out.values()) / len(out),
    }
    return out


def scalar_entry_sweep(spec, entry_counts, coverage_factor: float):
    """``mdt_entry_sweep`` as computed by the per-address scan."""
    device = DramDevice()
    out: dict[int, dict[str, float]] = {}
    for entries in entry_counts:
        mdt = scalar_mdt(spec, coverage_factor, device.org, entries)
        out[entries] = {
            "storage_bytes": mdt.storage_bytes,
            "tracked_mb": mdt.tracked_bytes / (1 << 20),
            "upgrade_ms": 1000.0
            * device.upgrade_seconds_for_regions(mdt.marked_count, mdt.region_bytes),
        }
    return out
