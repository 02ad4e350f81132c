"""The budgeted manager: a hard byte cap with LRU spill to simulated
SSD.

``BudgetedManager`` makes "this run fits in X bytes" a testable
contract. It is an :class:`~repro.mem.manager.ArenaManager` whose
*resident* footprint -- live blocks plus pooled free blocks, minus
blocks currently spilled -- never exceeds ``budget_bytes``:

* an allocation that would breach the cap first drops pooled free
  blocks (really releasing them), then spills the coldest live
  buffers (LRU order, never the buffer being allocated or touched)
  to the simulated SSD;
* spilling charges honest simulated I/O time from the same
  :class:`~repro.simhw.ssd.SsdArray` service model SAFS uses
  (page-granular, ``max(bandwidth, IOPS)`` term; the array model is
  symmetric, so a spill-out write and a spill-in read price alike).
  The time accrues in ``spill_ns`` on the counters rollup -- not in
  the iteration records -- so a run's ``sim_ns`` and results stay
  bit-identical across managers;
* when even spilling everything else cannot make room (a single
  request larger than the whole budget), the manager raises a typed
  :class:`~repro.errors.MemoryBudgetError`. It never silently grows.

Because the SSD is simulated, a "spilled" buffer's bytes physically
remain in the ndarray -- the spill is accounting plus simulated time.
That is exactly what keeps results bit-identical by construction: a
stale ``touch`` cannot corrupt values, only under-report I/O time.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.errors import MemoryBudgetError
from repro.mem.manager import ArenaManager, MemoryPoolStats


class BudgetedManager(ArenaManager):
    """Arena with a hard resident-byte cap and LRU cold-buffer spill."""

    name = "budget"

    def __init__(self, budget_bytes: int, *, ssd: Any = None) -> None:
        super().__init__()
        if budget_bytes <= 0:
            raise MemoryBudgetError(
                f"budget_bytes must be > 0, got {budget_bytes}"
            )
        if ssd is None:
            from repro.simhw.ssd import OCZ_INTREPID_ARRAY

            ssd = OCZ_INTREPID_ARRAY
        self.budget_bytes = int(budget_bytes)
        self.ssd = ssd
        # LRU order over live block ids: dict insertion order, oldest
        # first; ``touch``/``alloc`` move an id to the hot end.
        self._lru: dict[int, None] = {}
        self._spilled: set[int] = set()
        self.spilled_bytes = 0

    # -- accounting ---------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes actually held in (simulated) RAM right now."""
        return self.live_bytes + self.pooled_bytes - self.spilled_bytes

    def _io_ns(self, nbytes: int) -> float:
        pages = max(1, math.ceil(nbytes / self.ssd.page_bytes))
        return float(self.ssd.read(1, pages).service_ns)

    def _spill_one(self, exclude: frozenset[int]) -> bool:
        """Spill the coldest unspilled live block; False if none left."""
        for key in self._lru:
            if key in self._spilled or key in exclude:
                continue
            block = self._live[key]
            ns = self._io_ns(block.size_class)
            self._spilled.add(key)
            self.spilled_bytes += block.size_class
            self.spill_count += 1
            self.spill_bytes += block.size_class
            self.spill_ns += ns
            if self._bus is not None:
                self._bus.on_spill(block.tag, block.size_class, ns, "out")
            return True
        return False

    def _make_room(self, need: int, exclude: frozenset[int]) -> None:
        """Ensure ``need`` more resident bytes fit under the cap."""
        if need > self.budget_bytes:
            raise MemoryBudgetError(
                f"allocation of {need} backing bytes exceeds the whole "
                f"budget of {self.budget_bytes} bytes"
            )
        # Pooled free blocks first: releasing memory beats spilling.
        while (
            self.resident_bytes + need > self.budget_bytes
            and self.pooled_bytes > 0
        ):
            cls = max(c for c, b in self._free.items() if b)
            self._free[cls].pop()
            self.pooled_bytes -= cls
        while self.resident_bytes + need > self.budget_bytes:
            if not self._spill_one(exclude):
                raise MemoryBudgetError(
                    f"cannot fit {need} more bytes: "
                    f"{self.resident_bytes} resident of "
                    f"{self.budget_bytes} budget and nothing left to "
                    f"spill"
                )

    # -- allocation protocol ------------------------------------------

    def alloc(self, shape, dtype=np.float64, *, tag="", zero=False):
        from repro.mem.manager import _nbytes, _round_shape, _size_class

        cls = _size_class(
            _nbytes(_round_shape(shape), np.dtype(dtype))
        )
        # Reusing a pooled block of this class adds nothing resident.
        pooled_hit = bool(self._free.get(cls))
        if not pooled_hit:
            self._make_room(cls, frozenset())
        view = super().alloc(shape, dtype, tag=tag, zero=zero)
        self._lru[id(view)] = None
        return view

    def free(self, arr):
        if arr is None:
            return
        key = id(arr)
        block = self._live.get(key)
        if block is not None and block.view is arr:
            self._lru.pop(key, None)
            if key in self._spilled:
                # Freed while cold: the backing block returns to the
                # pool, so it becomes resident again -- without a
                # spill-in charge (nobody read the bytes back).
                self._spilled.discard(key)
                self.spilled_bytes -= block.size_class
        super().free(arr)

    def touch(self, arr):
        if arr is None:
            return
        key = id(arr)
        block = self._live.get(key)
        if block is None or block.view is not arr:
            return
        if key in self._spilled:
            # Spill-in: the bytes come back from SSD before use.
            self._spilled.discard(key)
            self.spilled_bytes -= block.size_class
            self._make_room(0, frozenset((key,)))
            ns = self._io_ns(block.size_class)
            self.spill_count += 1
            self.spill_bytes += block.size_class
            self.spill_ns += ns
            if self._bus is not None:
                self._bus.on_spill(block.tag, block.size_class, ns, "in")
        self._lru.pop(key, None)
        self._lru[key] = None

    def _bump_peak(self):
        # The cap governs (and peak reports) *resident* bytes; spilled
        # blocks live on the simulated SSD, not in RAM.
        resident = self.resident_bytes
        if resident > self.peak_bytes:
            self.peak_bytes = resident

    def pool_stats(self) -> MemoryPoolStats:
        stats = super().pool_stats()
        return MemoryPoolStats(
            manager=self.name,
            live_blocks=stats.live_blocks,
            live_bytes=stats.live_bytes,
            pooled_blocks=stats.pooled_blocks,
            pooled_bytes=stats.pooled_bytes,
            peak_bytes=stats.peak_bytes,
        )
