"""knor Section 9's generalized framework, as the MM algorithm plane
implements it: contract checks and built-in-driver fidelity."""

import numpy as np
import pytest

from repro import knori, knors, lloyd
from repro.core import init_centroids
from repro.errors import ConfigError
from repro.extensions.gmm import GmmMM
from repro.runtime.mm import (
    KmeansMM,
    MMAlgorithm,
    MMStep,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)
from repro.simhw import BindPolicy


class StubMM:
    """A minimal MM algorithm with fixed per-row work: one mean."""

    name = "stub"
    reduction_slots = 1
    state_bytes_per_row = 8

    def __init__(self, x, *, dist_per_row=None, needs_data=None,
                 max_iters=100, stop_after=None):
        self.x = x
        self.n_rows, self.d = x.shape
        self.max_iters = max_iters
        self.stop_after = stop_after
        self.dist_per_row = (
            np.ones(self.n_rows, dtype=np.int64)
            if dist_per_row is None else dist_per_row
        )
        self.needs_data = (
            np.ones(self.n_rows, dtype=bool)
            if needs_data is None else needs_data
        )
        self.reset()

    def reset(self):
        self.iteration = 0
        self.model_array = np.zeros((1, self.d))

    def majorize(self):
        return MMStep(
            dist_per_row=self.dist_per_row,
            needs_data=self.needs_data,
            n_changed=0,
            payload={"sums": self.x.sum(axis=0, keepdims=True)},
        )

    def minimize(self, payload):
        self.model_array = payload["sums"] / self.n_rows
        self.iteration += 1

    def converged(self):
        return self.stop_after is not None and (
            self.iteration >= self.stop_after
        )

    def export_state(self):
        return {"iteration": self.iteration, "model": self.model_array}

    def restore_state(self, snap):
        self.iteration = int(snap["iteration"])
        self.model_array = np.array(snap["model"])

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        return loop_result.as_run_result(
            algorithm="mm-stub",
            centroids=self.model_array,
            assignment=np.zeros(self.n_rows, dtype=np.int32),
            inertia=0.0,
            memory_breakdown=memory_breakdown,
            params=dict(extra_params or {}),
        )


class TestKmeansAdapter:
    def test_matches_builtin_knori(self, overlapping):
        """Same work content -> identical simulated time, bit for bit,
        under every pruning mode."""
        c0 = init_centroids(overlapping, 6, "random", seed=2)
        for pruning in ("mti", None, "elkan"):
            builtin = knori(overlapping, 6, init=c0, pruning=pruning)
            res = run_mm_inmemory(
                KmeansMM(overlapping, 6, init=c0, pruning=pruning)
            )
            np.testing.assert_array_equal(
                res.assignment, builtin.assignment
            )
            np.testing.assert_allclose(
                res.centroids, builtin.centroids, atol=1e-10
            )
            assert res.converged
            assert res.iterations == builtin.iterations
            assert res.sim_seconds == builtin.sim_seconds

    def test_matches_builtin_knors(self, matrix_path, overlapping):
        c0 = init_centroids(overlapping, 5, "random", seed=1)
        builtin = knors(matrix_path, 5, init=c0)
        res = run_mm_sem(KmeansMM(overlapping, 5, init=c0))
        np.testing.assert_array_equal(res.assignment, builtin.assignment)
        assert res.sim_seconds == builtin.sim_seconds
        assert res.total_bytes_read == builtin.total_bytes_read

    def test_pruning_modes(self, overlapping):
        c0 = init_centroids(overlapping, 5, "random", seed=3)
        ref = lloyd(overlapping, 5, init=c0)
        for pruning in ("mti", "elkan", None):
            res = run_mm_inmemory(
                KmeansMM(overlapping, 5, pruning=pruning, init=c0)
            )
            np.testing.assert_array_equal(res.assignment, ref.assignment)

    def test_protocol_conformance(self, blobs):
        assert isinstance(KmeansMM(blobs, 3), MMAlgorithm)
        assert isinstance(GmmMM(blobs, 3), MMAlgorithm)
        assert isinstance(StubMM(blobs), MMAlgorithm)


class TestGmmAdapter:
    def test_gmm_on_substrate(self, blobs):
        algo = GmmMM(blobs, 4, seed=1, max_iters=60)
        res = run_mm_inmemory(algo)
        assert res.converged
        # Log-likelihood monotone.
        ll = np.array(algo.ll_history)
        assert (np.diff(ll) >= -1e-9).all()
        # Hard labels recover the blobs (up to permutation): check
        # cluster sizes.
        sizes = np.sort(np.bincount(res.assignment, minlength=4))
        np.testing.assert_array_equal(sizes, [250, 250, 250, 250])
        # Substrate charged k gaussian evals per row per iteration.
        n = blobs.shape[0]
        assert res.records[0].dist_computations == n * 4

    def test_gmm_sem(self, overlapping):
        res = run_mm_sem(GmmMM(overlapping, 3, seed=0, max_iters=15))
        assert res.iterations >= 2
        # EM has no pruning: every iteration requests all rows (modulo
        # row-cache hits).
        n = overlapping.shape[0]
        for rec in res.records:
            assert rec.rows_active == n


class TestContract:
    def test_bad_work_shapes_rejected(self, blobs):
        """Every backend rejects a step that does not cover exactly
        n rows, typed and naming the field -- including a too-long
        step the distributed shards would otherwise slice silently."""
        n = blobs.shape[0]
        runners = (
            run_mm_inmemory,
            run_mm_sem,
            lambda algo: run_mm_distributed(algo, n_machines=4),
        )
        bad = {
            "dist_per_row": np.ones(3, dtype=np.int64),
            "needs_data": np.ones(2 * n, dtype=bool),
        }
        for run in runners:
            for name, arr in bad.items():
                algo = StubMM(blobs, max_iters=2, **{name: arr})
                with pytest.raises(
                    ConfigError,
                    match=rf"MMStep\.{name} shape \({arr.size},\) "
                          rf"!= \({n},\)",
                ):
                    run(algo)

    def test_max_iters_respected(self, blobs):
        res = run_mm_inmemory(StubMM(blobs, max_iters=3))
        assert res.iterations == 3
        assert not res.converged

    def test_custom_sparse_algorithm_prices_skips(self, blobs):
        """A custom algorithm that skips most rows pays less."""

        def sparse(frac):
            n = blobs.shape[0]
            needs = np.zeros(n, dtype=bool)
            needs[: int(frac * n)] = True
            return StubMM(
                blobs, stop_after=4, needs_data=needs,
                dist_per_row=np.where(needs, 10, 0).astype(np.int64),
            )

        dense = run_mm_inmemory(sparse(1.0))
        thin = run_mm_inmemory(sparse(0.1))
        assert dense.iterations == thin.iterations == 4
        assert thin.sim_seconds < dense.sim_seconds

    def test_oblivious_policy_available(self, blobs):
        res = run_mm_inmemory(
            KmeansMM(blobs, 3, seed=0), bind_policy=BindPolicy.OBLIVIOUS
        )
        assert res.iterations >= 1
