"""Scheduler base class and shared helpers."""

from __future__ import annotations

import abc
import inspect
from collections import deque
from typing import Callable, ClassVar, Mapping

from repro.errors import SchedulerError
from repro.simhw.engine import OwnQueueTakes, ScheduleDecision, TaskWork
from repro.simhw.thread import SimThread

NextTask = Callable[..., "ScheduleDecision | None"]


def describes_own_takes(next_task: NextTask) -> NextTask:
    """Mark a policy's ``next_task`` as one whose own-partition take is
    exactly what :meth:`BaseScheduler.own_queue_takes` describes: pop
    the front of the caller's partition, meet
    :meth:`BaseScheduler.own_probes` of the current empty-partition
    count, touch nothing else. A subclass that overrides ``next_task``
    without this mark gets no closed-form replay."""
    next_task.describes_own_takes = True  # type: ignore[attr-defined]
    return next_task


def owner_of_task(task_id: int, n_tasks: int, n_threads: int) -> int:
    """Thread that owns a task under the paper's block partitioning.

    Tasks are contiguous row blocks in dataset order; thread ``t`` owns
    the ``t``-th equal share of them, mirroring Figure 1's layout where
    thread ``t``'s data partition is rows ``[t*alpha, (t+1)*alpha)``.
    """
    if n_tasks <= 0:
        raise SchedulerError("no tasks to own")
    if not 0 <= task_id < n_tasks:
        raise SchedulerError(f"task_id {task_id} out of range")
    return min(task_id * n_threads // n_tasks, n_threads - 1)


class BaseScheduler(abc.ABC):
    """Common queue bookkeeping for all three scheduling policies.

    Two counters follow every take: the tasks still queued, and the
    partitions already empty -- their owners are the prowling stealers
    contending on everyone else's partition lock. A dispatch reads them
    in O(1) instead of scanning all ``T`` partitions.
    """

    #: Whether a thread whose own partition is empty steals from the
    #: others (True) or parks at the barrier (False).
    steals: ClassVar[bool] = True

    def __init__(self) -> None:
        self._queues: list[deque[TaskWork]] = []
        self._thread_nodes: tuple[int, ...] = ()
        self._n_threads = 0
        self._n_remaining = 0
        self._n_prowling = 0

    def assign(self, tasks: list[TaskWork], threads: list[SimThread]) -> None:
        """Load a fresh iteration's tasks into per-thread queues."""
        if not threads:
            raise SchedulerError("assign() needs at least one thread")
        n_threads = len(threads)
        n_tasks = len(tasks)
        ids = [task.task_id for task in tasks]
        if ids and (min(ids) < 0 or max(ids) >= n_tasks):
            bad = next(i for i in ids if not 0 <= i < n_tasks)
            raise SchedulerError(f"task_id {bad} out of range")
        queues: list[deque[TaskWork]] = [deque() for _ in threads]
        for task_id, task in zip(ids, tasks):
            # owner_of_task's block partitioning; ids validated above.
            owner = min(task_id * n_threads // n_tasks, n_threads - 1)
            queues[owner].append(task)
        self._n_threads = n_threads
        self._thread_nodes = tuple(th.node for th in threads)
        self._queues = queues
        self._n_remaining = n_tasks
        self._n_prowling = sum(1 for q in queues if not q)

    def queue_lengths(self) -> list[int]:
        """Remaining tasks per partition (for tests and introspection)."""
        return [len(q) for q in self._queues]

    def own_probes(self, n_empty: int) -> tuple[int, ...]:
        """Probe tuple an own-partition take meets while ``n_empty``
        partitions are empty: one lock, contended by its owner plus
        the prowling stealers' per-lock share ``ceil(n_empty / T)``.
        A failed steal scan meets the same contention at every probe.
        """
        n_threads = self._n_threads
        return (1 + (n_empty + n_threads - 1) // n_threads,)

    def own_queue_takes(self) -> OwnQueueTakes | None:
        """Describe this phase's own-partition takes for the engine's
        closed-form replay, or ``None`` when ``type(self).next_task``
        is not an implementation marked with
        :func:`describes_own_takes` (a wrapper that sets
        ``__wrapped__`` counts as what it wraps)."""
        impl = inspect.unwrap(type(self).next_task)
        if not getattr(impl, "describes_own_takes", False):
            return None
        return OwnQueueTakes(
            queues=self._queues, probes=self.own_probes, steals=self.steals
        )

    def commit_own_takes(self, counts: Mapping[int, int]) -> None:
        """Pop the first ``counts[t]`` tasks of partition ``t``: the
        takes the engine replayed in closed form."""
        for tid, n in counts.items():
            queue = self._queues[tid]
            if n == len(queue):
                queue.clear()
                self._n_prowling += 1
            else:
                for _ in range(n):
                    queue.popleft()
            self._n_remaining -= n

    def _take(self, queue: deque[TaskWork], *, back: bool = False) -> TaskWork:
        """Pop one task from ``queue`` and keep the counters current."""
        task = queue.pop() if back else queue.popleft()
        self._n_remaining -= 1
        if not queue:
            self._n_prowling += 1
        return task

    @abc.abstractmethod
    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Hand ``thread`` its next task, or ``None`` when it should
        park at the barrier. Returning ``None`` changes no state."""
