"""FIFO work-stealing scheduler (NUMA-oblivious stealing).

The Figure 5 baseline: threads first drain the tasks local to their own
partition, then steal from straggler threads *whose data resides on any
NUMA node* -- the stealing order ignores topology, so a stolen task is
usually remote. Every queue access takes that partition's lock; an idle
thread probing partitions in id order is exactly the scan a FIFO
stealing pool performs.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.sched.base import BaseScheduler, describes_own_takes
from repro.simhw.engine import ScheduleDecision
from repro.simhw.thread import SimThread


class FifoScheduler(BaseScheduler):
    """Partitioned queues, steal from anyone in thread-id order."""

    @describes_own_takes
    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Own queue first, then steal from any backlog in id order."""
        if not self._n_remaining:
            return None
        tid = thread.thread_id
        own = self._queues[tid]
        # Prowling stealers spread over T partition locks; the expected
        # contention on any one lock is their per-lock share.
        probes = self.own_probes(self._n_prowling)
        if own:
            return ScheduleDecision(
                task=self._take(own), probe_contenders=probes
            )
        # Steal scan: walk partitions in id order starting after ours --
        # topology-oblivious, so the first victim found is usually on a
        # different NUMA node (the stolen task's data is remote). Every
        # probe, the failed one of our own included, meets the same
        # contention.
        n_threads = self._n_threads
        for step in range(1, n_threads):
            victim = (tid + step) % n_threads
            queue = self._queues[victim]
            if queue:
                return ScheduleDecision(
                    task=self._take(queue),
                    probe_contenders=probes * (step + 1),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        raise SchedulerError("remaining-task count out of sync with queues")
