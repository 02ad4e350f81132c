"""Bring your own algorithm to the NUMA substrate (Section 9's goal).

Run:  python examples/custom_algorithm.py

The paper's future-work endgame is a generalized framework where users
"implement custom algorithms and benefit from our NUMA and external
memory optimizations". The MM algorithm plane (:mod:`repro.runtime.mm`)
is that framework: an algorithm alternates a per-row *majorize* phase,
which returns exact per-row work plus additive accumulators, with a
global *minimize* phase that folds the reduced accumulators into the
model. This example uses it twice:

1. runs EM for a Gaussian mixture on the simulated NUMA machine via
   the built-in :class:`~repro.extensions.gmm.GmmMM`; and
2. defines a brand-new :class:`~repro.runtime.mm.MMAlgorithm` --
   trimmed k-means, which ignores the farthest 5% of points when
   updating centroids -- and runs it in memory, semi-externally and on
   a simulated cluster without writing any driver code. The model is
   bit-identical on all three.
"""

import numpy as np

from repro.core.distance import nearest_centroid
from repro.core.init import init_centroids
from repro.data import rand_multivariate
from repro.extensions.gmm import GmmMM
from repro.runtime.mm import (
    MMStep,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)


class TrimmedKmeans:
    """k-means that trims the farthest fraction of points per update.

    Rows in the trimmed tail still pay assignment compute but are
    excluded from the centroid means -- a simple robust-clustering
    variant, here only to show the MM contract. ``majorize`` assigns
    every row, cuts at the global distance quantile and returns the
    kept rows' per-cluster ``sums``/``counts``; ``minimize`` installs
    their means.
    """

    name = "trimmed-kmeans"

    def __init__(self, x, k, trim=0.05, seed=0, max_iters=50):
        self.x = np.asarray(x, dtype=np.float64)
        self.n_rows, self.d = self.x.shape
        self.k = k
        self.trim = trim
        self.max_iters = max_iters
        self.reduction_slots = k
        self.state_bytes_per_row = 4  # int32 assignment
        self._centroids0 = init_centroids(self.x, k, "kmeans++", seed=seed)
        self.reset()

    def reset(self):
        self.centroids = self._centroids0.copy()
        self.assignment = np.full(self.n_rows, -1, dtype=np.int32)
        self.iteration = 0
        self._changed = -1

    def majorize(self):
        assign, dist = nearest_centroid(self.x, self.centroids)
        keep = dist <= np.quantile(dist, 1.0 - self.trim)
        sums = np.zeros((self.k, self.d))
        np.add.at(sums, assign[keep], self.x[keep])
        counts = np.bincount(assign[keep], minlength=self.k)
        self._changed = int(np.count_nonzero(assign != self.assignment))
        self.assignment = assign.astype(np.int32)
        return MMStep(
            dist_per_row=np.full(self.n_rows, self.k, dtype=np.int64),
            needs_data=np.ones(self.n_rows, dtype=bool),
            n_changed=self._changed,
            payload={"sums": sums, "counts": counts.astype(np.float64)},
        )

    def minimize(self, payload):
        counts = payload["counts"]
        new = self.centroids.copy()
        filled = counts > 0
        new[filled] = payload["sums"][filled] / counts[filled, None]
        self.centroids = new
        self.iteration += 1

    def converged(self):
        return self._changed == 0

    def export_state(self):
        return {
            "iteration": self.iteration,
            "centroids": self.centroids,
            "assignment": self.assignment,
        }

    def restore_state(self, snap):
        self.iteration = int(snap["iteration"])
        self.centroids = np.array(snap["centroids"], dtype=np.float64)
        self.assignment = np.array(snap["assignment"], dtype=np.int32)
        self._changed = -1

    @property
    def model_array(self):
        return self.centroids

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        _, dist = nearest_centroid(self.x, self.centroids)
        return loop_result.as_run_result(
            algorithm="mm-" + self.name,
            centroids=self.centroids,
            assignment=self.assignment.copy(),
            inertia=float((dist**2).sum()),
            memory_breakdown=memory_breakdown,
            params={"k": self.k, "trim": self.trim,
                    **(extra_params or {})},
        )


def main() -> None:
    x = rand_multivariate(60_000, 8, n_components=5, seed=3)
    # Inject 2% gross outliers for the trimmed variant to shrug off.
    rng = np.random.default_rng(0)
    out_idx = rng.choice(x.shape[0], x.shape[0] // 50, replace=False)
    x[out_idx] += rng.normal(scale=50.0, size=(out_idx.size, 8))

    print("1) EM for a 5-component GMM on the simulated NUMA machine:")
    gmm = GmmMM(x, 5, seed=1, max_iters=50)
    res = run_mm_inmemory(gmm)
    print(
        f"   {res.iterations} EM iterations, converged={res.converged},"
        f" sim {res.sim_seconds:.4f}s, final mean log-likelihood "
        f"{gmm.ll_history[-1]:.3f}"
    )

    print("\n2) custom TrimmedKmeans on three substrates:")
    results = {
        "in-memory": run_mm_inmemory(TrimmedKmeans(x, 5, seed=1)),
        "semi-external": run_mm_sem(TrimmedKmeans(x, 5, seed=1)),
        "distributed": run_mm_distributed(
            TrimmedKmeans(x, 5, seed=1), n_machines=4
        ),
    }
    for label, r in results.items():
        read_mb = r.total_bytes_read / 1e6
        net_mb = sum(rec.network_bytes for rec in r.records) / 1e6
        print(
            f"   {label:>13}: {r.iterations} iters, sim "
            f"{r.sim_seconds:.4f}s, {read_mb:.0f} MB read from SSD, "
            f"{net_mb:.3f} MB over the network"
        )
    ref = results["in-memory"]
    same = all(
        np.array_equal(r.centroids, ref.centroids)
        and np.array_equal(r.assignment, ref.assignment)
        for r in results.values()
    )
    print(
        f"\nOne MMAlgorithm, three substrates, zero driver code; "
        f"bit-identical models: {same}."
    )


if __name__ == "__main__":
    main()
