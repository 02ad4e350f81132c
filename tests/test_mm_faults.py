"""Crash matrix for the MM algorithm plane (GMM as the probe).

The acceptance bar for the clusterNOR generalization: a ported
algorithm must inherit the whole resilience stack, not just the happy
path. Every cell injects a scheduled fault into a GMM run and asserts
the recovered run is bit-identical to the fault-free one -- same
means, same responsibilities argmax, same iteration count -- with a
well-ordered fault/recovery event stream.

Run with ``pytest -m faults``.
"""

import numpy as np
import pytest

from repro import FaultPlan, RetryPolicy
from repro.errors import NodeFailureError
from repro.extensions.gmm import GmmMM
from repro.faults import FaultEvent
from repro.runtime import (
    RecordingObserver,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)

pytestmark = pytest.mark.faults

K = 6
SEED = 3
MAX_ITERS = 12
CRASH_ITERATIONS = (0, 2, 5)
KW = dict(row_cache_bytes=0, page_cache_bytes=0)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=2.5, size=(K, 5))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.6, size=(150, 5)) for c in centers]
    )
    rng.shuffle(x)
    return x


def gmm(dataset):
    """A fresh algorithm instance -- MM algorithms carry state."""
    return GmmMM(dataset, K, seed=SEED, max_iters=MAX_ITERS)


def assert_matches(baseline, faulty, events):
    np.testing.assert_array_equal(baseline.centroids, faulty.centroids)
    np.testing.assert_array_equal(
        baseline.assignment, faulty.assignment
    )
    assert faulty.iterations == baseline.iterations
    assert faulty.converged == baseline.converged
    assert faulty.inertia == baseline.inertia
    assert any(ev.name == "fault" for ev in events)
    assert any(ev.name == "recovery" for ev in events)


class TestInMemory:
    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        return run_mm_inmemory(gmm(dataset))

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_worker_crash(self, dataset, baseline, crash_it):
        assert baseline.iterations > max(CRASH_ITERATIONS)
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        faulty = run_mm_inmemory(
            gmm(dataset), faults=plan, observers=(rec,)
        )
        assert_matches(baseline, faulty, rec.fault_events())


class TestSem:
    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        return run_mm_sem(gmm(dataset), **KW)

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_worker_crash(
        self, dataset, baseline, tmp_path, crash_it, checkpointed
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        kw = dict(KW)
        if checkpointed:
            kw.update(checkpoint_dir=tmp_path / "ck",
                      checkpoint_interval=2)
        faulty = run_mm_sem(
            gmm(dataset), faults=plan, observers=(rec,), **kw
        )
        assert_matches(baseline, faulty, rec.fault_events())
        if checkpointed and crash_it >= 2:
            # Recovery restored the v4 checkpoint instead of replaying
            # from scratch.
            recoveries = [
                e for e in rec.fault_events()
                if e.name == "recovery" and e.payload["site"] == "worker"
            ]
            assert recoveries[0].payload["detail"]["resume_at"] > 0

    @pytest.mark.parametrize("kind", ["read_error", "slow"])
    def test_ssd_fault(self, dataset, baseline, kind):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="ssd", iteration=2, kind=kind)]
        )
        rec = RecordingObserver()
        faulty = run_mm_sem(
            gmm(dataset), faults=plan, observers=(rec,), **KW
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base_ns = {r.iteration: r.sim_ns for r in baseline.records}
        faulty_ns = {r.iteration: r.sim_ns for r in faulty.records}
        assert faulty_ns[2] >= base_ns[2]

    @pytest.mark.parametrize(
        "crash_point",
        ["arrays-written", "manifest-tmp-written", "committed-no-gc"],
    )
    def test_mid_checkpoint_crash(
        self, dataset, baseline, tmp_path, crash_point
    ):
        """Kill save_checkpoint at each protocol stage; the run
        still recovers onto the bit-identical trajectory."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="checkpoint", iteration=3,
                        kind=crash_point)]
        )
        rec = RecordingObserver()
        faulty = run_mm_sem(
            gmm(dataset), faults=plan, observers=(rec,),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=2,
            **KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())

    def test_checkpoint_corruption(self, dataset, baseline, tmp_path):
        """Corrupt the saved v4 checkpoint, then crash: recovery must
        CRC-fail the load, quarantine it, and replay from scratch."""
        plan = FaultPlan.from_schedule([
            FaultEvent(site="corruption", iteration=3,
                       kind="checkpoint"),
            FaultEvent(site="worker", iteration=4, kind="crash"),
        ])
        rec = RecordingObserver()
        faulty = run_mm_sem(
            gmm(dataset), faults=plan, observers=(rec,),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=2,
            **KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        quarantined = [
            e for e in rec.fault_events() if e.name == "quarantine"
        ]
        assert any(
            e.payload["where"] == "checkpoint" for e in quarantined
        )


class TestDistributed:
    N_MACHINES = 4

    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        return run_mm_distributed(
            gmm(dataset), n_machines=self.N_MACHINES
        )

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_node_failure_degraded(self, dataset, baseline, crash_it):
        """Losing a machine reshards its work onto survivors; the
        surviving fleet is slower but the GMM model is unchanged."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="node", iteration=crash_it, kind="fail",
                        machine=1)]
        )
        rec = RecordingObserver()
        faulty = run_mm_distributed(
            gmm(dataset), n_machines=self.N_MACHINES, faults=plan,
            observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base_ns = {r.iteration: r.sim_ns for r in baseline.records}
        faulty_ns = {r.iteration: r.sim_ns for r in faulty.records}
        assert faulty_ns[crash_it] > base_ns[crash_it]

    def test_node_failure_abort(self, dataset):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="node", iteration=1, kind="fail")]
        )
        with pytest.raises(NodeFailureError):
            run_mm_distributed(
                gmm(dataset), n_machines=self.N_MACHINES, faults=plan,
                retry_policy=RetryPolicy(node_failure_mode="abort"),
            )

    def test_dropped_allreduce(self, dataset, baseline):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="net", iteration=2, kind="drop")]
        )
        rec = RecordingObserver()
        faulty = run_mm_distributed(
            gmm(dataset), n_machines=self.N_MACHINES, faults=plan,
            observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base = {r.iteration: r.allreduce_ns for r in baseline.records}
        fl = {r.iteration: r.allreduce_ns for r in faulty.records}
        assert fl[2] > base[2]
