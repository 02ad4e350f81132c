"""The memory-manager plane: who owns the library's large buffers.

Every long-lived or per-iteration array in the system -- workspace
norm/GEMM-operand caches, distance-block buffers, accumulation
scratch, per-thread partial centroids, the SEM cache backing arrays,
allreduce payload staging and checkpoint assembly buffers -- is
allocated through a :class:`MemoryManager` instead of bare
``np.empty``/``np.zeros`` calls. The protocol follows the external
memory-manager plugin design of numba's NBEP 7 (a small
alloc/free/stats surface the host library routes every allocation
through, so a plugin can substitute its own pooling policy without the
kernels knowing).

Three managers ship:

* :class:`NumpyManager` -- today's behavior: every ``alloc`` is a
  fresh numpy array and ``free`` merely drops the bookkeeping. The
  default; all results are bit-identical to the pre-plane library by
  construction.
* :class:`ArenaManager` -- power-of-two size-class free lists. A freed
  buffer's backing block parks in its size class and the next ``alloc``
  of that class reuses it, so steady-state hot loops perform **zero**
  new backing allocations after the first iteration (pinned by the
  allocation-count regression suite). Reuse is safe because ``alloc``
  has ``np.empty`` semantics -- contents are unspecified and every
  caller fully writes its buffers -- and ``zero=True`` requests are
  explicitly zero-filled, so results are bit-identical to
  :class:`NumpyManager`.
* :class:`~repro.mem.budget.BudgetedManager` -- an arena with a hard
  byte cap: allocations beyond the cap spill the coldest (LRU)
  resident buffers to the simulated SSD, charged honest simulated I/O
  time, or raise :class:`~repro.errors.MemoryBudgetError` when even an
  empty arena cannot host the request. Never silent growth.

The two-plane invariant extends to this plane: a manager may change
*where bytes live* and *how much simulated time* spilling costs, but
never the values the kernels compute -- results are bit-identical
across all three managers, faults included.

Threading model
---------------

Components default to the *current* manager -- a module-level stack
manipulated by :func:`use_manager` -- at construction time, so the
drivers opt a whole run into a manager with one ``with`` block and no
parameter threading through every kernel. The default stack bottom is
a shared :class:`NumpyManager`, i.e. exactly the historical behavior.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import ConfigError

#: Accepted values for the ``--mem`` manager selector.
MANAGER_NAMES = ("numpy", "arena", "budget")

#: Smallest backing block an arena hands out; sub-64 B requests round
#: up so tiny buffers (a ``(k,)`` counts vector) still pool cleanly.
MIN_BLOCK_BYTES = 64


def check_manager(name: str) -> str:
    """Validate a ``--mem`` manager name and pass it through."""
    if name not in MANAGER_NAMES:
        raise ConfigError(
            f"mem manager must be one of {MANAGER_NAMES}, got {name!r}"
        )
    return name


@dataclass(frozen=True)
class MemoryCounters:
    """One run's memory-footprint rollup (the Table-1-style report).

    ``peak_bytes`` counts backing bytes the manager held at the high-
    water mark (live + pooled); ``reuse_rate`` is the fraction of
    allocations served from a free list instead of fresh backing
    memory. The spill tallies are zero outside
    :class:`~repro.mem.budget.BudgetedManager`; ``spill_ns`` is
    reported here rather than folded into the iteration records, so a
    run's ``sim_ns`` stays bit-identical across managers.
    """

    manager: str
    peak_bytes: int
    live_bytes: int
    n_allocs: int
    n_frees: int
    n_reuses: int
    backing_allocs: int
    spill_count: int = 0
    spill_bytes: int = 0
    spill_ns: float = 0.0
    budget_bytes: int | None = None

    @property
    def reuse_rate(self) -> float:
        return self.n_reuses / self.n_allocs if self.n_allocs else 0.0

    @property
    def budget_utilization(self) -> float:
        """Resident bytes as a fraction of the budget (0.0 unbudgeted).

        The elastic autoscaler's memory-pressure signal: a manager
        running hot against its byte cap is about to spill, and a
        spilling machine wants a peer more than a bigger EWMA.
        """
        if not self.budget_bytes:
            return 0.0
        return self.live_bytes / self.budget_bytes

    def to_dict(self) -> dict:
        """JSON-safe rollup for benches and the CLI footprint line."""
        return {
            "manager": self.manager,
            "peak_bytes": self.peak_bytes,
            "live_bytes": self.live_bytes,
            "n_allocs": self.n_allocs,
            "n_frees": self.n_frees,
            "n_reuses": self.n_reuses,
            "reuse_rate": self.reuse_rate,
            "backing_allocs": self.backing_allocs,
            "spill_count": self.spill_count,
            "spill_bytes": self.spill_bytes,
            "spill_ns": self.spill_ns,
            "budget_bytes": self.budget_bytes,
        }


@dataclass(frozen=True)
class MemoryPoolStats:
    """A manager's instantaneous pool state (NBEP-7 ``get_memory_info``
    analog): what is handed out vs parked in free lists right now."""

    manager: str
    live_blocks: int
    live_bytes: int
    pooled_blocks: int
    pooled_bytes: int
    peak_bytes: int


def _round_shape(shape: int | Sequence[int]) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


def _nbytes(shape: tuple[int, ...], dtype: np.dtype) -> int:
    n = 1
    for s in shape:
        n *= s
    return n * dtype.itemsize


class MemoryManager:
    """Base manager: observer fan-out, counters, and the shared
    ``ensure_capacity`` grow-guard. Subclasses implement ``alloc`` /
    ``free`` policy."""

    name = "base"

    def __init__(self) -> None:
        self._observers: list[Any] = []
        self._bus: Any = None  # chain over _observers; None when empty
        self.n_allocs = 0
        self.n_frees = 0
        self.n_reuses = 0
        self.unknown_frees = 0
        self.live_bytes = 0
        self.pooled_bytes = 0
        self.peak_bytes = 0
        self.backing_allocs = 0
        self.spill_count = 0
        self.spill_bytes = 0
        self.spill_ns = 0.0
        self.budget_bytes: int | None = None

    # -- observer bus -------------------------------------------------

    def attach_observer(self, observer: Any) -> None:
        """Route ``on_alloc``/``on_free``/``on_spill`` events to a
        :class:`~repro.runtime.observer.RunObserver`."""
        # Imported here: the runtime package imports this module.
        from repro.runtime.observer import chain_observers

        if observer not in self._observers:
            self._observers.append(observer)
            self._bus = chain_observers(self._observers)

    # -- allocation protocol ------------------------------------------

    def alloc(
        self,
        shape: int | Sequence[int],
        dtype: Any = np.float64,
        *,
        tag: str = "",
        zero: bool = False,
    ) -> np.ndarray:
        """A writable array of ``shape``/``dtype``. Contents are
        unspecified (``np.empty`` semantics) unless ``zero=True``."""
        raise NotImplementedError

    def free(self, arr: np.ndarray | None) -> None:
        """Return an array obtained from :meth:`alloc`. ``None`` and
        foreign arrays are tolerated (counted, not raised) so release
        paths need no ownership bookkeeping of their own."""
        raise NotImplementedError

    def touch(self, arr: np.ndarray | None) -> None:
        """Mark an owned buffer as recently used (LRU hint). A no-op
        outside the budgeted manager."""

    def ensure_capacity(
        self,
        arr: np.ndarray | None,
        shape: int | Sequence[int],
        dtype: Any = np.float64,
        *,
        tag: str = "",
    ) -> np.ndarray:
        """The one grow-guard: return ``arr`` if it can hold ``shape``,
        else free it and allocate a larger buffer.

        Replaces the inline ``if m > capacity: np.empty(...)`` pattern
        previously repeated across workspace/scratch sites. The
        returned array is the *full* capacity buffer; callers slice
        the view they need. Existing contents are not preserved across
        a grow (no call site relies on that).
        """
        shape = _round_shape(shape)
        dtype = np.dtype(dtype)
        if (
            arr is not None
            and arr.dtype == dtype
            and arr.ndim == len(shape)
            and all(
                have >= need for have, need in zip(arr.shape, shape)
            )
        ):
            self.touch(arr)
            return arr
        if arr is not None:
            self.free(arr)
        return self.alloc(shape, dtype, tag=tag)

    # -- reporting ----------------------------------------------------

    def counters(self) -> MemoryCounters:
        return MemoryCounters(
            manager=self.name,
            peak_bytes=self.peak_bytes,
            live_bytes=self.live_bytes,
            n_allocs=self.n_allocs,
            n_frees=self.n_frees,
            n_reuses=self.n_reuses,
            backing_allocs=self.backing_allocs,
            spill_count=self.spill_count,
            spill_bytes=self.spill_bytes,
            spill_ns=self.spill_ns,
            budget_bytes=self.budget_bytes,
        )

    def _bump_peak(self) -> None:
        resident = self.live_bytes + self.pooled_bytes
        if resident > self.peak_bytes:
            self.peak_bytes = resident


class NumpyManager(MemoryManager):
    """The bit-identical default: plain numpy allocation, tracked.

    ``free`` only adjusts the accounting -- the array is released by
    the interpreter when its last reference drops, exactly as before
    the memory plane existed.
    """

    name = "numpy"

    def alloc(self, shape, dtype=np.float64, *, tag="", zero=False):
        shape = _round_shape(shape)
        dtype = np.dtype(dtype)
        arr = (
            np.zeros(shape, dtype=dtype)
            if zero
            else np.empty(shape, dtype=dtype)
        )
        self.n_allocs += 1
        self.backing_allocs += 1
        self.live_bytes += arr.nbytes
        self._bump_peak()
        if self._bus is not None:
            self._bus.on_alloc(tag, arr.nbytes, False)
        return arr

    def free(self, arr):
        if arr is None:
            return
        self.n_frees += 1
        self.live_bytes = max(0, self.live_bytes - arr.nbytes)
        if self._bus is not None:
            self._bus.on_free("", arr.nbytes)

    def pool_stats(self) -> MemoryPoolStats:
        return MemoryPoolStats(
            manager=self.name,
            live_blocks=self.n_allocs - self.n_frees,
            live_bytes=self.live_bytes,
            pooled_blocks=0,
            pooled_bytes=0,
            peak_bytes=self.peak_bytes,
        )


@dataclass
class _LiveBlock:
    """One handed-out arena view and its backing block."""

    view: np.ndarray
    raw: np.ndarray  # uint8 backing block, len == size_class
    size_class: int
    tag: str


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two block >= ``nbytes`` (floor 64 B)."""
    if nbytes <= MIN_BLOCK_BYTES:
        return MIN_BLOCK_BYTES
    return 1 << (int(nbytes) - 1).bit_length()


class ArenaManager(MemoryManager):
    """Size-class free-list arena: freed blocks are reused, not
    released.

    ``alloc`` rounds the request up to a power-of-two backing block
    and hands out a ``raw[:nbytes].view(dtype).reshape(shape)`` view;
    ``free`` parks the backing block on its size class's free list.
    ``backing_allocs`` counts only *fresh* backing blocks -- the
    steady-state regression suite asserts it stops moving after the
    first iteration of every hot loop.
    """

    name = "arena"

    def __init__(self) -> None:
        super().__init__()
        self._free: dict[int, list[np.ndarray]] = {}
        self._live: dict[int, _LiveBlock] = {}

    def alloc(self, shape, dtype=np.float64, *, tag="", zero=False):
        shape = _round_shape(shape)
        dtype = np.dtype(dtype)
        nbytes = _nbytes(shape, dtype)
        cls = _size_class(nbytes)
        bucket = self._free.get(cls)
        if bucket:
            raw = bucket.pop()
            reused = True
            self.n_reuses += 1
            self.pooled_bytes -= cls
        else:
            raw = np.empty(cls, dtype=np.uint8)
            reused = False
            self.backing_allocs += 1
        view = raw[:nbytes].view(dtype).reshape(shape)
        if zero:
            view.fill(0)
        self._live[id(view)] = _LiveBlock(view, raw, cls, tag)
        self.n_allocs += 1
        self.live_bytes += cls
        self._bump_peak()
        if self._bus is not None:
            self._bus.on_alloc(tag, nbytes, reused)
        return view

    def free(self, arr):
        if arr is None:
            return
        block = self._live.pop(id(arr), None)
        if block is None or block.view is not arr:
            if block is not None:  # id collision: not ours after all
                self._live[id(arr)] = block
            self.unknown_frees += 1
            return
        self.n_frees += 1
        self.live_bytes -= block.size_class
        self.pooled_bytes += block.size_class
        self._free.setdefault(block.size_class, []).append(block.raw)
        if self._bus is not None:
            self._bus.on_free(block.tag, arr.nbytes)

    def owns(self, arr: np.ndarray) -> bool:
        """Is ``arr`` a live view handed out by this arena?"""
        block = self._live.get(id(arr))
        return block is not None and block.view is arr

    def trim(self) -> int:
        """Release every pooled free block; returns bytes released."""
        released = self.pooled_bytes
        self._free.clear()
        self.pooled_bytes = 0
        return released

    def pool_stats(self) -> MemoryPoolStats:
        return MemoryPoolStats(
            manager=self.name,
            live_blocks=len(self._live),
            live_bytes=self.live_bytes,
            pooled_blocks=sum(len(b) for b in self._free.values()),
            pooled_bytes=self.pooled_bytes,
            peak_bytes=self.peak_bytes,
        )


# ---------------------------------------------------------------------
# The current-manager stack.
# ---------------------------------------------------------------------

#: The bottom of the stack: the always-available bit-identical default.
DEFAULT_MANAGER = NumpyManager()

_stack: list[MemoryManager] = [DEFAULT_MANAGER]


def current_manager() -> MemoryManager:
    """The manager components bind to when none is passed explicitly."""
    return _stack[-1]


@contextmanager
def use_manager(manager: MemoryManager | None) -> Iterator[MemoryManager]:
    """Make ``manager`` the current manager for the ``with`` body.

    ``None`` is a no-op pass-through (the current manager stays), so
    drivers can wrap their build-and-run block unconditionally.
    """
    if manager is None:
        yield current_manager()
        return
    _stack.append(manager)
    try:
        yield manager
    finally:
        _stack.pop()


def build_manager(
    spec: str | MemoryManager | None,
    *,
    budget_bytes: int | None = None,
    ssd: Any = None,
) -> MemoryManager | None:
    """Resolve a ``--mem`` spec into a manager instance.

    ``None`` passes through (keep the current manager); an instance
    passes through unchanged; a name builds a fresh manager.
    ``budget_bytes``/``ssd`` apply to ``"budget"`` only.
    """
    if spec is None or isinstance(spec, MemoryManager):
        return spec
    check_manager(spec)
    if spec == "numpy":
        return NumpyManager()
    if spec == "arena":
        return ArenaManager()
    from repro.mem.budget import BudgetedManager

    if budget_bytes is None:
        raise ConfigError(
            "mem='budget' needs budget_bytes (CLI: --mem-budget-mb)"
        )
    return BudgetedManager(budget_bytes, ssd=ssd)
