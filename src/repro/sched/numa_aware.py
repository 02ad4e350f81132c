"""NUMA-aware partitioned priority task queue (Figure 2).

knori's default scheduler. The queue is partitioned into ``T`` parts,
one per worker, each guarded by its own lock. A task's priority for a
given thread is determined by where its data lives: node-local tasks
are high priority, remote tasks low. The acquisition protocol follows
Section 5.2:

1. Take from your own partition if it has work (always node-local).
2. Otherwise cycle once through the other partitions *on your NUMA
   node* -- stolen work stays local, costing no remote traffic.
3. Only after that single high-priority cycle fails, settle for a
   (possibly lower-priority) task from a remote partition. This
   trade-off "avoids starvation and ensures threads are idle for
   negligible periods".

Compared to :class:`repro.sched.fifo.FifoScheduler`, the only change is
the steal *order* -- yet that is what preserves memory locality under
pruning skew, which is the entire point of Figure 5.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.sched.base import BaseScheduler, describes_own_takes
from repro.simhw.engine import ScheduleDecision, TaskWork
from repro.simhw.thread import SimThread


class NumaAwareScheduler(BaseScheduler):
    """Partitioned priority queue with local-node-first stealing."""

    def __init__(self) -> None:
        super().__init__()
        # Steal orders depend only on (thread id, node) and the
        # thread->node map, so they are built once per map.
        self._orders_map: tuple[int, ...] | None = None
        self._steal_orders: dict[tuple[int, int], tuple[int, ...]] = {}

    def assign(self, tasks: list[TaskWork], threads: list[SimThread]) -> None:
        """Load the tasks; drop cached steal orders if the map changed."""
        super().assign(tasks, threads)
        if self._thread_nodes != self._orders_map:
            self._orders_map = self._thread_nodes
            self._steal_orders = {}

    def _steal_order(self, thread: SimThread) -> tuple[int, ...]:
        """Partitions to probe: same-node first, then remote, both in
        deterministic id order starting after the caller."""
        key = (thread.thread_id, thread.node)
        order = self._steal_orders.get(key)
        if order is None:
            tid, node = key
            n_threads = self._n_threads
            ring = [(tid + s) % n_threads for s in range(1, n_threads)]
            local = [v for v in ring if self._thread_nodes[v] == node]
            remote = [v for v in ring if self._thread_nodes[v] != node]
            order = self._steal_orders[key] = tuple(local + remote)
        return order

    @describes_own_takes
    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Own partition, then same-node victims, then remote."""
        if not self._n_remaining:
            return None
        own = self._queues[thread.thread_id]
        # Contention on a partition lock: its owner plus any prowling
        # stealers that reached it. Partitioning keeps this near 1.
        probes = self.own_probes(self._n_prowling)
        if own:
            return ScheduleDecision(
                task=self._take(own), probe_contenders=probes
            )
        # n_probed counts our own failed probe plus each victim so far;
        # every probe meets the same contention.
        for n_probed, victim in enumerate(self._steal_order(thread), 2):
            queue = self._queues[victim]
            if queue:
                # Steal from the *back* of the victim's queue: the
                # owner keeps working the front, minimizing interference.
                return ScheduleDecision(
                    task=self._take(queue, back=True),
                    probe_contenders=probes * n_probed,
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        raise SchedulerError("remaining-task count out of sync with queues")
