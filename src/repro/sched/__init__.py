"""Task schedulers for the ||Lloyd's super-phase.

The paper compares three policies (Section 8.4, Figure 5):

* **static** -- each thread is pre-assigned ``n/T`` contiguous rows; no
  queue, no locks, no stealing. Optimal when work per row is uniform
  (MTI disabled).
* **FIFO** -- per-thread queues with unrestricted work stealing: an idle
  thread takes the next task from any backlog, regardless of where the
  task's data lives.
* **NUMA-aware partitioned priority queue** (knori's default, Figure 2)
  -- the queue is partitioned per thread, each partition has its own
  lock, and idle threads steal from partitions bound to the *same NUMA
  node first*, falling back to remote partitions only after one full
  priority-seeking cycle. This keeps stolen work node-local, which is
  what preserves the memory-locality optimization once MTI skews the
  per-task work.

All schedulers consume :class:`repro.simhw.TaskWork` items and answer
the engine's ``next_task`` calls with
:class:`repro.simhw.ScheduleDecision` records that carry exact lock
probe counts, so queue contention is charged faithfully.

Each policy also describes its own-partition take
(``own_queue_takes``: the partitions in pop order, the probe tuple an
own take meets given how many partitions are empty, and whether idle
threads steal), and ``commit_own_takes`` pops what the engine replayed
from it. The engine replays every take before the first possible steal
in closed form and calls ``next_task`` only from there on, and only if
tasks remain: once per later dispatch and once per thread as it parks.
A subclass
that overrides ``next_task`` gets no description and runs every task
through ``next_task``. The bookkeeping is O(1) per call:

* ``next_task`` returning ``None`` has no side effects.
* Own-queue pops and calls after the phase has drained cost O(1): the
  remaining-task and empty-partition counts are kept as tasks are
  taken, never recounted. Only a real steal scans victims.
* NUMA-aware steal orders are cached per thread->node map.

The pre-change schedulers are frozen in :mod:`repro.perf.legacy`, and
``tests/test_sched.py`` checks every decision against them.
"""

from repro.sched.base import BaseScheduler, owner_of_task
from repro.sched.static import StaticScheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.numa_aware import NumaAwareScheduler
from repro.sched.blocks import build_task_blocks, DEFAULT_TASK_ROWS

__all__ = [
    "BaseScheduler",
    "owner_of_task",
    "StaticScheduler",
    "FifoScheduler",
    "NumaAwareScheduler",
    "build_task_blocks",
    "DEFAULT_TASK_ROWS",
]
