"""Schedulers: completeness, steal ordering, and priority invariants."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.perf import legacy
from repro.sched import (
    FifoScheduler,
    NumaAwareScheduler,
    StaticScheduler,
    build_task_blocks,
    owner_of_task,
)
from repro.sched.blocks import auto_task_rows
from repro.simhw import FOUR_SOCKET_XEON, SimMachine, TaskWork
from repro.simhw.thread import spawn_threads
from repro.simhw.topology import BindPolicy


def make_tasks(n, home=None):
    return [
        TaskWork(i, 10, 100, 640, 120, home if home is not None else i % 4)
        for i in range(n)
    ]


def make_threads(t):
    return spawn_threads(
        FOUR_SOCKET_XEON.topology, t, BindPolicy.NUMA_BIND
    )


def drain(sched, tasks, threads, order=None):
    """Round-robin drain; returns {thread_id: [task_ids]}."""
    sched.assign(tasks, threads)
    got = {th.thread_id: [] for th in threads}
    active = list(threads) if order is None else [threads[i] for i in order]
    while active:
        still = []
        for th in active:
            dec = sched.next_task(th)
            if dec is not None:
                got[th.thread_id].append(dec.task.task_id)
                still.append(th)
        active = still
    return got


@pytest.mark.parametrize(
    "sched_cls", [StaticScheduler, FifoScheduler, NumaAwareScheduler]
)
def test_every_task_dispatched_exactly_once(sched_cls):
    tasks = make_tasks(37)
    threads = make_threads(5)
    got = drain(sched_cls(), tasks, threads)
    all_ids = sorted(i for ids in got.values() for i in ids)
    assert all_ids == list(range(37))


def test_owner_of_task_block_structure():
    owners = [owner_of_task(i, 16, 4) for i in range(16)]
    assert owners == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4


def test_owner_of_task_validation():
    with pytest.raises(SchedulerError):
        owner_of_task(0, 0, 4)
    with pytest.raises(SchedulerError):
        owner_of_task(16, 16, 4)


def test_static_never_steals():
    tasks = make_tasks(16)
    threads = make_threads(4)
    sched = StaticScheduler()
    sched.assign(tasks, threads)
    # Exhaust thread 0's own queue; it must then get None even though
    # other queues still hold work.
    while (dec := sched.next_task(threads[0])) is not None:
        assert not dec.was_steal
    assert sum(sched.queue_lengths()) == 12


def test_static_no_lock_probes():
    tasks = make_tasks(8)
    threads = make_threads(4)
    sched = StaticScheduler()
    sched.assign(tasks, threads)
    dec = sched.next_task(threads[0])
    assert dec.probe_contenders == ()


def test_fifo_steals_from_any_node():
    tasks = make_tasks(16)
    threads = make_threads(4)
    sched = FifoScheduler()
    sched.assign(tasks, threads)
    # Drain thread 3's own queue, then steal: FIFO scans in id order
    # from tid+1, so the first steal victim is thread 0 (remote node).
    for _ in range(4):
        sched.next_task(threads[3])
    dec = sched.next_task(threads[3])
    assert dec.was_steal
    assert dec.stolen_from_node == threads[0].node
    assert dec.stolen_from_node != threads[3].node


def test_numa_aware_steals_local_node_first():
    threads = make_threads(8)  # 2 threads per node
    tasks = make_tasks(32)
    sched = NumaAwareScheduler()
    sched.assign(tasks, threads)
    # Thread 0 and 1 share node 0. Drain thread 0's own queue.
    while sched.queue_lengths()[0] > 0:
        sched.next_task(threads[0])
    dec = sched.next_task(threads[0])
    assert dec.was_steal
    assert dec.stolen_from_node == threads[0].node  # local-node victim


def test_numa_aware_falls_back_to_remote():
    threads = make_threads(8)
    tasks = make_tasks(32)
    sched = NumaAwareScheduler()
    sched.assign(tasks, threads)
    # Empty both node-0 queues entirely.
    for tid in (0, 1):
        while sched.queue_lengths()[tid] > 0:
            sched.next_task(threads[tid])
    dec = sched.next_task(threads[0])
    assert dec.was_steal
    assert dec.stolen_from_node != threads[0].node
    # The probe list shows it scanned its local partitions first.
    assert len(dec.probe_contenders) > 2


def test_numa_aware_steals_from_back():
    threads = make_threads(2)
    tasks = make_tasks(8)
    sched = NumaAwareScheduler()
    sched.assign(tasks, threads)
    # Thread 1 owns tasks 4..7; drain thread 0 then steal: the steal
    # takes the *back* of the victim queue (task 7), not the front.
    for _ in range(4):
        sched.next_task(threads[0])
    dec = sched.next_task(threads[0])
    assert dec.task.task_id == 7


def test_fifo_steals_from_front():
    threads = make_threads(2)
    tasks = make_tasks(8)
    sched = FifoScheduler()
    sched.assign(tasks, threads)
    for _ in range(4):
        sched.next_task(threads[0])
    dec = sched.next_task(threads[0])
    assert dec.task.task_id == 4


def test_assign_requires_threads():
    with pytest.raises(SchedulerError):
        NumaAwareScheduler().assign(make_tasks(4), [])


@settings(max_examples=30, deadline=None)
@given(
    n_tasks=st.integers(1, 60),
    n_threads=st.integers(1, 16),
    drain_order_seed=st.integers(0, 100),
)
def test_completeness_under_any_drain_order(
    n_tasks, n_threads, drain_order_seed
):
    rng = np.random.default_rng(drain_order_seed)
    tasks = make_tasks(n_tasks)
    threads = make_threads(n_threads)
    order = rng.permutation(n_threads).tolist()
    for cls in (StaticScheduler, FifoScheduler, NumaAwareScheduler):
        got = drain(cls(), tasks, threads, order=order)
        ids = sorted(i for ids in got.values() for i in ids)
        assert ids == list(range(n_tasks))


#: Each live scheduler next to its frozen pre-rework copy.
ORACLE_PAIRS = [
    (StaticScheduler, legacy.LegacyStaticScheduler),
    (FifoScheduler, legacy.LegacyFifoScheduler),
    (NumaAwareScheduler, legacy.LegacyNumaAwareScheduler),
]


def _decision_key(dec):
    if dec is None:
        return None
    return (
        dec.task.task_id,
        dec.probe_contenders,
        dec.stolen_from_node,
        dec.was_steal,
    )


def _drain_against_oracle(new, old, tasks, threads, rng):
    """Random drain order, parked threads included: every call must
    decide exactly what the oracle decides and leave the same queues."""
    new.assign(tasks, threads)
    old.assign(tasks, threads)
    assert new.queue_lengths() == old.queue_lengths()
    parked: set[int] = set()
    while len(parked) < len(threads):
        thread = threads[int(rng.integers(len(threads)))]
        got = new.next_task(thread)
        want = old.next_task(thread)
        assert _decision_key(got) == _decision_key(want)
        assert new.queue_lengths() == old.queue_lengths()
        if got is None:
            parked.add(thread.thread_id)
    assert sum(new.queue_lengths()) == 0


@seed(20171)
@settings(max_examples=80, deadline=None)
@given(
    n_threads=st.integers(1, 48),
    n_tasks=st.integers(1, 120),
    policy=st.sampled_from([BindPolicy.NUMA_BIND, BindPolicy.OBLIVIOUS]),
    n_threads_next=st.integers(1, 48),
    drain_seed=st.integers(0, 2**32 - 1),
)
@example(n_threads=48, n_tasks=1, policy=BindPolicy.NUMA_BIND,
         n_threads_next=48, drain_seed=0)
@example(n_threads=48, n_tasks=1, policy=BindPolicy.OBLIVIOUS,
         n_threads_next=48, drain_seed=1)
@example(n_threads=48, n_tasks=13, policy=BindPolicy.NUMA_BIND,
         n_threads_next=5, drain_seed=2)
@example(n_threads=1, n_tasks=7, policy=BindPolicy.OBLIVIOUS,
         n_threads_next=3, drain_seed=3)
def test_decisions_match_frozen_oracle(
    n_threads, n_tasks, policy, n_threads_next, drain_seed
):
    """Every scheduler decides call for call what its pre-rework copy
    in :mod:`repro.perf.legacy` decides. Each instance is reused for a
    second phase on another thread->node map, so cached steal orders
    must follow the map."""
    rng = np.random.default_rng(drain_seed)
    topo = FOUR_SOCKET_XEON.topology
    other = (
        BindPolicy.OBLIVIOUS if policy is BindPolicy.NUMA_BIND
        else BindPolicy.NUMA_BIND
    )
    phases = [
        (make_tasks(n_tasks), spawn_threads(topo, n_threads, policy)),
        (make_tasks(n_tasks // 2 + 1),
         spawn_threads(topo, n_threads_next, other)),
    ]
    for new_cls, old_cls in ORACLE_PAIRS:
        new, old = new_cls(), old_cls()
        for tasks, threads in phases:
            _drain_against_oracle(new, old, tasks, threads, rng)


class TestBuildTaskBlocks:
    def test_block_aggregation(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=4)
        n = 1000
        dist = np.arange(n, dtype=np.int64) % 7
        needs = np.arange(n) % 3 == 0
        tasks = build_task_blocks(
            n, 8, machine, dist_per_row=dist, needs_data=needs,
            task_rows=128,
        )
        assert len(tasks) == 8
        assert sum(t.n_rows for t in tasks) == n
        assert sum(t.n_dist for t in tasks) == int(dist.sum())
        assert sum(t.data_bytes for t in tasks) == int(needs.sum()) * 64

    def test_home_nodes_partitioned(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=8)
        tasks = build_task_blocks(
            800, 8, machine,
            dist_per_row=np.full(800, 5), task_rows=100,
        )
        assert [t.home_node for t in tasks] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_validation(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=2)
        with pytest.raises(SchedulerError):
            build_task_blocks(0, 8, machine, dist_per_row=np.zeros(0))
        with pytest.raises(SchedulerError):
            build_task_blocks(10, 8, machine, dist_per_row=None)
        with pytest.raises(SchedulerError):
            build_task_blocks(
                10, 8, machine, dist_per_row=np.zeros(5)
            )
        with pytest.raises(SchedulerError):
            build_task_blocks(
                10, 8, machine, dist_per_row=np.zeros(10),
                needs_data=np.ones(3, dtype=bool),
            )

    def test_rejects_non_integer_counts(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=2)
        with pytest.raises(SchedulerError, match="integer counts"):
            build_task_blocks(10, 8, machine, dist_per_row=np.ones(10))

    @seed(8192)
    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 2000),
        task_rows=st.integers(1, 700),
        dtype=st.sampled_from([np.int32, np.int64]),
        mask=st.sampled_from(["none", "random", "all", "empty"]),
        policy=st.sampled_from([BindPolicy.NUMA_BIND,
                                BindPolicy.OBLIVIOUS]),
        n_threads=st.integers(1, 48),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @example(n_rows=2000, task_rows=64, dtype=np.int32, mask="random",
             policy=BindPolicy.NUMA_BIND, n_threads=48, data_seed=0)
    def test_matches_frozen_oracle(
        self, n_rows, task_rows, dtype, mask, policy, n_threads, data_seed
    ):
        """Ragged last blocks, every mask form and both count dtypes the
        callers pass; int32 counts near their maximum check that block
        sums are widened before they could overflow."""
        rng = np.random.default_rng(data_seed)
        machine = SimMachine.build(
            FOUR_SOCKET_XEON, n_threads=n_threads, bind_policy=policy
        )
        high = np.iinfo(np.int32).max if dtype is np.int32 else 2**40
        dist = rng.integers(0, high, n_rows, endpoint=True).astype(dtype)
        needs = {
            "none": None,
            "random": rng.random(n_rows) < 0.5,
            "all": np.ones(n_rows, dtype=bool),
            "empty": np.zeros(n_rows, dtype=bool),
        }[mask]
        kwargs = dict(
            dist_per_row=dist, needs_data=needs, task_rows=task_rows,
            state_bytes_per_row=12 if mask == "none" else 4,
        )
        got = build_task_blocks(n_rows, 8, machine, **kwargs)
        want = legacy.build_task_blocks(n_rows, 8, machine, **kwargs)
        assert got == want
        assert all(
            type(v) is int for t in got for v in vars(t).values()
        )

    def test_auto_task_rows_bounds(self):
        assert auto_task_rows(1_000_000_000, 48) == 8192
        assert auto_task_rows(1000, 48) == 64
        assert 64 <= auto_task_rows(65536, 48) <= 8192
        with pytest.raises(SchedulerError):
            auto_task_rows(0, 4)
