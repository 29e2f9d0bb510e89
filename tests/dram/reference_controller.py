"""Object-per-bank reference for the flat memory controller.

The controller used to decode every address into a ``LineLocation``
through ``AddressMapper.locate``, keep one ``Bank`` object per bank and
time each access with ``Bank.access`` and ``max()``.  The classes below
are that code, kept verbatim as the oracle (docstrings and trace emits
dropped): the flat per-access path of
:class:`repro.dram.controller.MemoryController` must reproduce every
completion cycle and every statistic it produces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dram.address import MAPPING_POLICIES, LineLocation
from repro.dram.config import PROC_HZ, DramOrganization, DramTimings
from repro.dram.controller import ControllerStats
from repro.errors import ConfigurationError
from repro.power.calculator import BankUtilization


class ReferenceAddressMapper:
    """``AddressMapper`` with the per-access ``locate`` it used to have."""

    def __init__(
        self,
        org: DramOrganization | None = None,
        policy: str = "row-interleaved",
    ):
        if policy not in MAPPING_POLICIES:
            raise ConfigurationError(
                f"unknown mapping policy {policy!r}; choose from {MAPPING_POLICIES}"
            )
        self.org = org or DramOrganization()
        self.policy = policy
        self._lines_per_row = self.org.lines_per_row
        self._banks = self.org.banks * self.org.ranks * self.org.channels
        self._rows = self.org.rows

    def line_address(self, byte_address: int) -> int:
        """Line index of a byte address."""
        if byte_address < 0:
            raise ConfigurationError("address must be non-negative")
        return byte_address // self.org.line_bytes

    def locate(self, byte_address: int) -> LineLocation:
        """Coordinates of the line containing ``byte_address``."""
        line = self.line_address(byte_address) % self.org.total_lines
        if self.policy == "row-interleaved":
            column_line = line % self._lines_per_row
            line //= self._lines_per_row
            bank = line % self._banks
            row = (line // self._banks) % self._rows
        else:  # block-interleaved
            bank = line % self._banks
            line //= self._banks
            column_line = line % self._lines_per_row
            row = (line // self._lines_per_row) % self._rows
        return LineLocation(bank=bank, row=row, column_line=column_line)

    @property
    def total_banks(self) -> int:
        return self._banks


@dataclass
class ReferenceBank:
    """One bank object with the ``Bank.access`` timing rules."""

    timings: DramTimings
    open_row: int | None = None
    ready_at: int = 0
    last_act_at: int = -(10 ** 12)

    def access(self, row: int, start: int) -> tuple[int, bool, int]:
        t = self.timings
        begin = max(start, self.ready_at)
        if self.open_row == row:
            data_done = begin + t.row_hit_latency
            self.ready_at = data_done
            return data_done, True, 0
        if self.open_row is not None:
            # Precharge may not start before tRAS after the ACT.
            begin = max(begin, self.last_act_at + t.t_ras)
            begin += t.t_rp
        # ACT-to-ACT same bank must respect tRC.
        begin = max(begin, self.last_act_at + t.t_rc)
        self.last_act_at = begin
        self.open_row = row
        data_done = begin + t.row_empty_latency
        self.ready_at = data_done
        return data_done, False, 1

    def precharge_all(self) -> None:
        self.open_row = None


class ReferenceMemoryController:
    """The object-per-bank controller, timing rules unchanged."""

    def __init__(
        self,
        org: DramOrganization | None = None,
        timings: DramTimings | None = None,
        write_queue_capacity: int = 32,
        write_drain_low: int = 8,
        powerdown_gap_cycles: int = 48,
        mapping_policy: str = "row-interleaved",
    ):
        self.org = org or DramOrganization()
        self.timings = timings or DramTimings()
        if write_drain_low >= write_queue_capacity:
            raise ConfigurationError("write_drain_low must be < write_queue_capacity")
        if write_queue_capacity < 1:
            raise ConfigurationError("write_queue_capacity must be >= 1")
        self.mapper = ReferenceAddressMapper(self.org, policy=mapping_policy)
        self.banks = [ReferenceBank(self.timings) for _ in range(self.mapper.total_banks)]
        self.write_queue: deque[int] = deque()
        self.write_queue_capacity = write_queue_capacity
        self.write_drain_low = write_drain_low
        self.powerdown_gap_cycles = powerdown_gap_cycles
        self.stats = ControllerStats()
        self.tracer = None
        self._banks_per_channel = self.org.banks * self.org.ranks
        self._data_bus_free_at = [0] * self.org.channels
        self._busy_until = 0
        self._next_refresh_at = self.timings.t_refi
        self._refresh_enabled = True
        n_ranks = self.org.channels * self.org.ranks
        self._last_act_start = [-(10 ** 12)] * n_ranks
        self._act_window: list[deque[int]] = [deque(maxlen=4) for _ in range(n_ranks)]

    def set_refresh_enabled(self, enabled: bool) -> None:
        self._refresh_enabled = enabled

    def reset(self) -> None:
        self.banks = [ReferenceBank(self.timings) for _ in range(self.mapper.total_banks)]
        self.write_queue.clear()
        self.stats = ControllerStats()
        self._data_bus_free_at = [0] * self.org.channels
        self._busy_until = 0
        self._next_refresh_at = self.timings.t_refi
        n_ranks = self.org.channels * self.org.ranks
        self._last_act_start = [-(10 ** 12)] * n_ranks
        self._act_window = [deque(maxlen=4) for _ in range(n_ranks)]

    def read(self, address: int, now: int) -> int:
        self._opportunistic_drain(now)
        if len(self.write_queue) >= self.write_queue_capacity:
            self._drain_writes(now)
        done = int(self._service(address, now))
        self.stats.reads += 1
        self.stats.read_latency_sum += done - now
        return done

    def write(self, address: int, now: int) -> None:
        self.write_queue.append(address)
        if len(self.write_queue) >= self.write_queue_capacity:
            self._drain_writes(now)

    def write_batch(self, addresses, nows) -> None:
        queue = self.write_queue
        capacity = self.write_queue_capacity
        for address, now in zip(addresses, nows):
            queue.append(address)
            if len(queue) >= capacity:
                self._drain_writes(now)

    def flush_writes(self, now: int) -> int:
        done = now
        while self.write_queue:
            address = self.write_queue.popleft()
            done = self._service(address, done)
            self.stats.writes += 1
        return done

    def _opportunistic_drain(self, now: int) -> None:
        slot = 2 * self.timings.t_burst
        while self.write_queue and now - self._busy_until >= slot:
            address = self.write_queue.popleft()
            self._service(address, self._busy_until)
            self.stats.writes += 1

    def _drain_writes(self, now: int) -> None:
        self.stats.write_drains += 1
        t = now
        while len(self.write_queue) > self.write_drain_low:
            address = self.write_queue.popleft()
            t = self._service(address, t)
            self.stats.writes += 1

    def _service(self, address: int, now: int) -> int:
        loc = self.mapper.locate(address)
        begin = now
        if begin - self._busy_until >= self.powerdown_gap_cycles:
            begin += self.timings.t_xp
            self.stats.powerdown_exits += 1
        begin = self._apply_refresh(begin)
        bank = self.banks[loc.bank]
        rank = loc.bank // self.org.banks
        if bank.open_row != loc.row:
            t = self.timings
            begin = max(begin, self._last_act_start[rank] + t.t_rrd)
            window = self._act_window[rank]
            if len(window) == 4:
                begin = max(begin, window[0] + t.t_faw)
        data_done, row_hit, activates = bank.access(loc.row, begin)
        if activates:
            act_start = data_done - self.timings.row_empty_latency
            self._last_act_start[rank] = max(self._last_act_start[rank], act_start)
            self._act_window[rank].append(act_start)
        channel = loc.bank // self._banks_per_channel
        data_start = data_done - self.timings.t_burst
        if data_start < self._data_bus_free_at[channel]:
            shift = self._data_bus_free_at[channel] - data_start
            data_done += shift
            bank.ready_at += shift
        self._data_bus_free_at[channel] = data_done
        self.stats.activates += activates
        if row_hit:
            self.stats.row_hits += 1
        overlap_start = max(begin, self._busy_until)
        if data_done > overlap_start:
            self.stats.busy_cycles += int(data_done - overlap_start)
        self._busy_until = max(self._busy_until, data_done)
        return data_done

    def _apply_refresh(self, begin: int) -> int:
        if not self._refresh_enabled:
            return begin
        t = self.timings
        while self._next_refresh_at + t.t_rfc <= begin:
            self._next_refresh_at += t.t_refi
        if self._next_refresh_at <= begin:
            begin = self._next_refresh_at + t.t_rfc
            self._next_refresh_at += t.t_refi
            for bank in self.banks:
                bank.precharge_all()
            self.stats.refresh_windows_hit += 1
        return begin

    def utilization(self, total_cycles: int) -> BankUtilization:
        if total_cycles <= 0:
            raise ConfigurationError("total_cycles must be positive")
        seconds = total_cycles / PROC_HZ
        busy_frac = min(1.0, self.stats.busy_cycles / total_cycles)
        return BankUtilization(
            frac_active_standby=busy_frac,
            frac_precharge_standby=0.0,
            frac_active_powerdown=0.0,
            frac_precharge_powerdown=1.0 - busy_frac,
            activates_per_second=self.stats.activates / seconds,
            read_bursts_per_second=self.stats.reads / seconds,
            write_bursts_per_second=self.stats.writes / seconds,
        )
