"""Generalized-framework benchmarks (Section 9's endgame).

Not a paper figure: validates that (a) the MM algorithm plane
(:mod:`repro.runtime.mm`) reproduces the hand-written knori timing
exactly for the same work, and (b) a foreign algorithm (EM for a GMM)
inherits the substrate's NUMA scaling -- the claim Section 9 stakes on
the design.
"""

from repro import ConvergenceCriteria, knori
from repro.extensions.gmm import GmmMM
from repro.metrics import render_table
from repro.runtime.mm import KmeansMM, run_mm_inmemory

from conftest import report


def test_framework_fidelity_and_gmm_scaling(fr8_small, benchmark):
    # (a) fidelity: same algorithm, same work -> same simulated time.
    crit = ConvergenceCriteria(max_iters=15)
    builtin = knori(fr8_small, 10, seed=3, criteria=crit)
    generic = run_mm_inmemory(
        KmeansMM(fr8_small, 10, seed=3, criteria=crit)
    )
    assert generic.sim_seconds == builtin.sim_seconds
    fidelity = generic.sim_seconds / builtin.sim_seconds

    # (b) a GMM scales with threads on the same substrate.
    rows = [["knori (builtin)", f"{builtin.sim_seconds:.5f}", "-"],
            ["knori (via MM plane)", f"{generic.sim_seconds:.5f}",
             f"{fidelity:.3f}x"]]
    times = {}
    for t in (1, 8, 48):
        res = run_mm_inmemory(
            GmmMM(fr8_small, 8, seed=1, max_iters=10), n_threads=t
        )
        times[t] = res.sim_seconds
        rows.append(
            [f"GMM/EM via MM plane, T={t}", f"{res.sim_seconds:.5f}",
             f"{times[1] / res.sim_seconds:.1f}x speedup"]
        )
    report(
        "Framework: MM-plane fidelity + GMM on the NUMA substrate "
        "(sim s)",
        render_table(["configuration", "sim s", "note"], rows),
    )
    assert times[1] / times[8] > 6.0
    assert times[8] > times[48]

    benchmark.pedantic(
        lambda: run_mm_inmemory(
            GmmMM(fr8_small, 8, seed=1, max_iters=5), n_threads=48
        ),
        rounds=1, iterations=1,
    )
