"""Static pre-assignment scheduler.

Each thread receives its ``n/T`` contiguous rows up front and never
takes a lock: there is no queue to contend on and no stealing. The
paper notes this is *sufficient for optimal performance when MTI
pruning is disabled* -- uniform work needs no balancing -- but it
collapses under pruning skew (Figure 5), because a thread whose
partition holds the "hard" rows finishes long after its peers.
"""

from __future__ import annotations

from repro.sched.base import BaseScheduler, describes_own_takes
from repro.simhw.engine import ScheduleDecision
from repro.simhw.thread import SimThread


class StaticScheduler(BaseScheduler):
    """No locks, no stealing: drain your own preassigned queue."""

    steals = False

    def own_probes(self, n_empty: int) -> tuple[int, ...]:
        """Static assignment has no shared state, hence no lock probes."""
        return ()

    @describes_own_takes
    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Drain the caller's preassigned queue; never steal."""
        queue = self._queues[thread.thread_id]
        if not queue:
            return None
        return ScheduleDecision(
            task=self._take(queue),
            probe_contenders=self.own_probes(self._n_prowling),
        )
