"""Unit tests for the repro.runtime layer itself: backend protocol
conformance, observer event ordering, per-row state accounting, and
the IterationLoop's configuration contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro import knord, knori, knors
from repro.baselines import mpi_lloyd
from repro.core import ConvergenceCriteria
from repro.errors import ConfigError
from repro.extensions.gmm import GmmMM
from repro.runtime import (
    DistributedBackend,
    ExecutionBackend,
    InMemoryBackend,
    IterationLoop,
    KmeansSource,
    MMSource,
    NumericsSource,
    PureMpiBackend,
    RecordingObserver,
    SemBackend,
    chain_observers,
    run_mm_sem,
    state_bytes_per_row,
)


@pytest.fixture(scope="module")
def small(blobs):
    return blobs


# -- protocol conformance ------------------------------------------------


def test_backend_instances_satisfy_protocol(small, monkeypatch):
    """Instances (not classes) pass the runtime_checkable check."""
    seen = []
    orig = IterationLoop.run

    def spy(self):
        seen.append(self.backend)
        return orig(self)

    monkeypatch.setattr(IterationLoop, "run", spy)
    crit = ConvergenceCriteria(max_iters=2)
    knori(small, 4, seed=0, criteria=crit)
    knors(small, 4, seed=0, criteria=crit)
    knord(small, 4, seed=0, criteria=crit, n_machines=2)
    mpi_lloyd(small, 4, seed=0, criteria=crit, n_machines=1,
              ranks_per_machine=2)
    assert len(seen) == 4
    types = {type(b) for b in seen}
    assert types == {InMemoryBackend, SemBackend, DistributedBackend,
                     PureMpiBackend}
    for backend in seen:
        assert isinstance(backend, ExecutionBackend)


def test_sources_satisfy_protocol():
    loop_stub = type("L", (), {"pruning": None})()
    assert isinstance(KmeansSource(loop_stub, 4), NumericsSource)
    algo_stub = type("A", (), {})()
    assert isinstance(MMSource(algo_stub), NumericsSource)


# -- per-row state accounting (the Elkan fix) ----------------------------


def test_state_bytes_per_row_rates():
    assert state_bytes_per_row(None, 10) == 4
    assert state_bytes_per_row("mti", 10) == 12
    # Elkan touches its k-wide lower-bound row + ub + assignment slot.
    assert state_bytes_per_row("elkan", 10) == 11 * 8 + 4
    assert state_bytes_per_row("elkan", 1) == 2 * 8 + 4
    with pytest.raises(ValueError):
        state_bytes_per_row("bogus", 10)


def test_elkan_charged_more_state_traffic_than_mti(small):
    """Elkan's O(nk) bound matrix must show up in simulated time: with
    identical data and k, an Elkan iteration moves more state bytes per
    active row than MTI, so its memory charge cannot be below MTI's at
    equal distance counts."""
    assert state_bytes_per_row("elkan", 8) > state_bytes_per_row("mti", 8)


# -- observer event ordering ---------------------------------------------


def test_inmemory_event_order(small):
    rec = RecordingObserver()
    res = knori(small, 4, seed=0,
                criteria=ConvergenceCriteria(max_iters=3),
                observers=[rec])
    names = rec.names()
    assert names[0] == "run_start"
    assert names[-1] == "run_end"
    per_iter = names[1:-1]
    assert len(per_iter) == 3 * res.iterations
    for i in range(res.iterations):
        assert per_iter[3 * i: 3 * i + 3] == [
            "iteration_start", "task_trace", "iteration_end",
        ]


def test_sem_event_order_with_checkpoint(small, tmp_path):
    rec = RecordingObserver()
    res = knors(small, 4, seed=0,
                criteria=ConvergenceCriteria(max_iters=4),
                checkpoint_dir=tmp_path, checkpoint_interval=2,
                observers=[rec])
    names = rec.names()
    assert names[0] == "run_start"
    assert names[-1] == "run_end"
    # io precedes the compute trace inside every iteration.
    seq = [n for n in names if n in ("io", "task_trace")]
    assert seq == ["io", "task_trace"] * res.iterations
    # checkpoint events fire after the records they snapshot.
    ck = [e for e in rec.events if e.name == "checkpoint"]
    assert [e.iteration for e in ck] == [
        it for it in range(res.iterations) if (it + 1) % 2 == 0
    ]


@pytest.mark.parametrize("io_mode", ["sync", "async"])
def test_sem_io_event_order(small, io_mode):
    """Every SEM iteration brackets its I/O: issue -> io -> compute
    trace -> complete, in both I/O modes."""
    rec = RecordingObserver()
    res = knors(small, 4, seed=0, io_mode=io_mode,
                criteria=ConvergenceCriteria(max_iters=4),
                observers=[rec])
    names = rec.names()
    assert names[0] == "run_start"
    assert names[-1] == "run_end"
    per_iter = names[1:-1]
    stride = 6
    assert len(per_iter) == stride * res.iterations
    for i in range(res.iterations):
        assert per_iter[stride * i: stride * (i + 1)] == [
            "iteration_start", "io_issue", "io", "task_trace",
            "io_complete", "iteration_end",
        ]


def test_sem_io_complete_accounting(small):
    """Sync mode hides nothing; async mode conserves service time
    (hidden + blocked == service) and only prefetches once the row
    cache has been populated by its first refresh."""
    sync_rec, async_rec = RecordingObserver(), RecordingObserver()
    crit = ConvergenceCriteria(max_iters=8)
    knors(small, 4, seed=0, io_mode="sync", criteria=crit,
          observers=[sync_rec])
    # No page cache for the async run, so every iteration keeps
    # issuing real reads for the prefetcher to hide.
    knors(small, 4, seed=0, io_mode="async", criteria=crit,
          page_cache_bytes=0, observers=[async_rec])

    for e in (e for e in sync_rec.events if e.name == "io_complete"):
        assert e.payload["hidden_ns"] == 0.0
        assert e.payload["blocked_ns"] == e.payload["service_ns"]
    for e in (e for e in sync_rec.events if e.name == "io_issue"):
        assert e.payload["prefetched"] is False

    for e in (e for e in async_rec.events if e.name == "io_complete"):
        assert e.payload["hidden_ns"] + e.payload["blocked_ns"] == \
            pytest.approx(e.payload["service_ns"])
    issues = [e for e in async_rec.events if e.name == "io_issue"]
    # The row cache refreshes at iteration 5; before that the
    # prefetcher has no active set and cannot issue early.
    assert all(not e.payload["prefetched"]
               for e in issues if e.iteration <= 5)
    assert any(e.payload["prefetched"]
               for e in issues if e.iteration > 5)


def test_distributed_event_order(small):
    rec = RecordingObserver()
    res = knord(small, 4, seed=0, n_machines=3,
                criteria=ConvergenceCriteria(max_iters=3),
                observers=[rec])
    names = rec.names()
    per_iter = names[1:-1]
    stride = 3 + 3  # start + 3 machine traces + collective + end
    assert len(per_iter) == stride * res.iterations
    for i in range(res.iterations):
        chunk = per_iter[stride * i: stride * (i + 1)]
        assert chunk == [
            "iteration_start", "task_trace", "task_trace", "task_trace",
            "collective", "iteration_end",
        ]
    traces = [e for e in rec.events if e.name == "task_trace"
              and e.iteration == 0]
    assert [e.payload["machine_index"] for e in traces] == [0, 1, 2]


def test_framework_sem_emits_io_events(small):
    rec = RecordingObserver()
    run_mm_sem(GmmMM(small, 3, seed=0, max_iters=3), observers=[rec])
    assert "io" in rec.names()
    assert rec.names()[0] == "run_start"
    assert rec.names()[-1] == "run_end"


def test_chain_observers_fans_out(small):
    a, b = RecordingObserver(), RecordingObserver()
    knori(small, 4, seed=0, criteria=ConvergenceCriteria(max_iters=2),
          observers=[a, b])
    assert a.names() == b.names()
    assert a.names()[0] == "run_start"


def test_chain_observers_collapse():
    only = RecordingObserver()
    assert chain_observers([only]) is only
    none = chain_observers([])
    none.on_run_start(1, 1)  # no-op base observer


# -- IterationLoop configuration contract --------------------------------


class _NullBackend:
    n_rows = 1

    def run_iteration(self, iteration, observer):
        raise AssertionError("should not run")

    def after_record(self, iteration, outcome, observer):
        pass


def test_loop_requires_exactly_one_stopping_rule():
    with pytest.raises(ConfigError):
        IterationLoop(_NullBackend())
    with pytest.raises(ConfigError):
        IterationLoop(
            _NullBackend(),
            criteria=ConvergenceCriteria(),
            should_stop=lambda out: True,
        )


def test_loop_should_stop_requires_max_iters():
    with pytest.raises(ConfigError):
        IterationLoop(_NullBackend(), should_stop=lambda out: True)


def test_observers_cannot_change_results(small):
    """The trace plane is passive: observing a run leaves every exact
    output and simulated cost unchanged."""
    crit = ConvergenceCriteria(max_iters=5)
    plain = knori(small, 4, seed=1, criteria=crit)
    observed = knori(small, 4, seed=1, criteria=crit,
                     observers=[RecordingObserver()])
    np.testing.assert_array_equal(plain.assignment, observed.assignment)
    np.testing.assert_array_equal(plain.centroids, observed.centroids)
    assert [r.sim_ns for r in plain.records] == \
        [r.sim_ns for r in observed.records]
