"""SEM checkpointing: save/load, crash recovery, atomicity."""

import json

import numpy as np
import pytest

from repro import ConvergenceCriteria, knors
from repro.core import init_centroids
from repro.errors import ConfigError, CorruptionError, IoSubsystemError
from repro.resilience.integrity import array_crc32, crc32_bytes
from repro.sem.checkpoint import (
    CheckpointState,
    corrupt_checkpoint,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def make_arrays():
    rng = np.random.default_rng(0)
    return {
        "centroids": rng.normal(size=(4, 3)),
        "prev_centroids": rng.normal(size=(4, 3)),
        "assignment": rng.integers(0, 4, 100).astype(np.int32),
        "ub": rng.random(100),
        "sums": rng.normal(size=(4, 3)),
        "counts": rng.integers(1, 50, 4).astype(np.int64),
    }


def make_state(it=3, drop=()):
    arrays = make_arrays()
    for name in drop:
        del arrays[name]
    return CheckpointState(
        iteration=it,
        algorithm="kmeans",
        arrays=arrays,
        scalars={},
        n_changed=17,
        params={"n": 100, "d": 3, "k": 4, "pruning": "mti"},
    )


def write_legacy(directory, version, arrays, *, iteration=3, params=None):
    """Hand-build a version 1, 2 or 3 directory as the old k-means
    writers laid it out (version 3 adds the CRC32s)."""
    directory.mkdir(parents=True, exist_ok=True)
    name = "checkpoint.npz" if version == 1 else "checkpoint-00000001.npz"
    np.savez(directory / name, **arrays)
    manifest = {
        "format_version": version,
        "iteration": iteration,
        "n_changed": 17,
        "params": params or {},
    }
    if version == 1:
        manifest["has_pruning_state"] = "ub" in arrays
    else:
        manifest.update(
            seq=1, arrays=name,
            has_ub="ub" in arrays, has_sums="sums" in arrays,
        )
    if version == 3:
        manifest["file_crc32"] = crc32_bytes(
            (directory / name).read_bytes()
        )
        manifest["array_crc32"] = {
            key: array_crc32(arr) for key, arr in arrays.items()
        }
    (directory / "checkpoint.json").write_text(json.dumps(manifest))


class TestCheckpointFiles:
    def test_roundtrip(self, tmp_path):
        state = make_state()
        save_checkpoint(tmp_path, state)
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == 3
        assert back.n_changed == 17
        assert back.algorithm == "kmeans"
        for name in ("centroids", "assignment", "ub"):
            np.testing.assert_array_equal(
                back.arrays[name], state.arrays[name]
            )
        assert back.params["pruning"] == "mti"

    def test_unpruned_state_has_no_bounds(self, tmp_path):
        save_checkpoint(
            tmp_path, make_state(drop=("ub", "sums", "counts"))
        )
        back = load_checkpoint(tmp_path)
        assert set(back.arrays) == {
            "centroids", "prev_centroids", "assignment",
        }

    def test_overwrite_keeps_latest(self, tmp_path):
        save_checkpoint(tmp_path, make_state(it=3))
        save_checkpoint(tmp_path, make_state(it=7))
        assert load_checkpoint(tmp_path).iteration == 7

    def test_missing_raises(self, tmp_path):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_corrupt_manifest_raises(self, tmp_path):
        save_checkpoint(tmp_path, make_state())
        (tmp_path / "checkpoint.json").write_text("{not json")
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_wrong_version_raises(self, tmp_path):
        save_checkpoint(tmp_path, make_state())
        m = json.loads((tmp_path / "checkpoint.json").read_text())
        m["format_version"] = 99
        (tmp_path / "checkpoint.json").write_text(json.dumps(m))
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_no_tmp_files_left(self, tmp_path):
        save_checkpoint(tmp_path, make_state())
        assert not list(tmp_path.glob("*.tmp"))

    def test_roundtrip_preserves_dtypes_and_shapes(self, tmp_path):
        state = make_state()
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        assert list(back.arrays) == list(state.arrays)
        for name, want in state.arrays.items():
            got = back.arrays[name]
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name

    def test_no_ub_but_sums_roundtrip(self, tmp_path):
        """Pruning state without bounds (the v1 format conflated
        has_ub with has_sums and silently dropped this case)."""
        state = make_state(drop=("ub",))
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        assert "ub" not in back.arrays
        np.testing.assert_array_equal(
            back.arrays["sums"], state.arrays["sums"]
        )
        np.testing.assert_array_equal(
            back.arrays["counts"], state.arrays["counts"]
        )
        assert back.arrays["counts"].dtype == np.int64

    def test_ub_without_sums_roundtrip(self, tmp_path):
        state = make_state(drop=("sums", "counts"))
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        np.testing.assert_array_equal(back.arrays["ub"], state.arrays["ub"])
        assert "sums" not in back.arrays and "counts" not in back.arrays

    def test_v1_checkpoint_still_loads(self, tmp_path):
        """Back-compat: the single-npz version-1 layout."""
        state = make_state()
        np.savez(tmp_path / "checkpoint.npz", **state.arrays)
        (tmp_path / "checkpoint.json").write_text(json.dumps({
            "format_version": 1,
            "iteration": state.iteration,
            "n_changed": state.n_changed,
            "has_pruning_state": True,
            "params": state.params,
        }))
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == state.iteration
        assert back.algorithm == "kmeans"
        np.testing.assert_array_equal(back.arrays["ub"], state.arrays["ub"])
        np.testing.assert_array_equal(
            back.arrays["sums"], state.arrays["sums"]
        )

    @pytest.mark.parametrize("version", [2, 3])
    def test_legacy_checkpoint_still_loads(self, tmp_path, version):
        """Versions 2 and 3 lift into the v4 record as k-means."""
        arrays = make_arrays()
        write_legacy(tmp_path, version, arrays, iteration=5)
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == 5
        assert back.algorithm == "kmeans"
        assert back.scalars == {}
        assert list(back.arrays) == list(arrays)
        for name, want in arrays.items():
            np.testing.assert_array_equal(back.arrays[name], want)
            assert back.arrays[name].dtype == want.dtype, name

    def test_v3_flipped_byte_raises_corruption(self, tmp_path):
        write_legacy(tmp_path, 3, make_arrays())
        corrupt_checkpoint(tmp_path)
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path)

    def test_listed_array_missing_raises_corruption(self, tmp_path):
        """A manifest listing an array its CRC-valid file lacks is
        corrupt, in every checksummed version."""
        arrays = make_arrays()
        write_legacy(tmp_path, 3, arrays)
        m = json.loads((tmp_path / "checkpoint.json").read_text())
        m["array_crc32"]["extra"] = 0
        (tmp_path / "checkpoint.json").write_text(json.dumps(m))
        with pytest.raises(CorruptionError, match="extra"):
            load_checkpoint(tmp_path)

    def test_save_over_v1_writes_v4_and_collects_v1(self, tmp_path):
        write_legacy(tmp_path, 1, make_arrays())
        save_checkpoint(tmp_path, make_state(it=7))
        assert not (tmp_path / "checkpoint.npz").exists()
        m = json.loads((tmp_path / "checkpoint.json").read_text())
        assert m["format_version"] == 4
        assert load_checkpoint(tmp_path).iteration == 7

    def test_old_arrays_collected_after_save(self, tmp_path):
        save_checkpoint(tmp_path, make_state(it=3))
        save_checkpoint(tmp_path, make_state(it=7))
        npz = list(tmp_path.glob("checkpoint-*.npz"))
        assert len(npz) == 1


class TestMidSaveCrashes:
    """A crash at any stage of the save protocol must leave a
    loadable checkpoint directory (satellite of the fault layer; the
    crash points are driven by FaultPlan in the integration tests and
    exercised directly here)."""

    @pytest.mark.parametrize(
        "crash_point", ["arrays-written", "manifest-tmp-written"]
    )
    def test_pre_commit_crash_keeps_previous(self, tmp_path, crash_point):
        from repro.errors import WorkerCrashError

        save_checkpoint(tmp_path, make_state(it=3))
        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=7), crash_point=crash_point
            )
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == 3
        np.testing.assert_array_equal(
            back.arrays["centroids"], make_state(it=3).arrays["centroids"]
        )

    def test_post_commit_crash_keeps_new(self, tmp_path):
        from repro.errors import WorkerCrashError

        save_checkpoint(tmp_path, make_state(it=3))
        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=7),
                crash_point="committed-no-gc",
            )
        assert load_checkpoint(tmp_path).iteration == 7

    def test_crash_on_first_save_leaves_no_checkpoint(self, tmp_path):
        from repro.errors import WorkerCrashError

        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=3),
                crash_point="arrays-written",
            )
        assert not has_checkpoint(tmp_path)
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_next_save_collects_crash_leftovers(self, tmp_path):
        from repro.errors import WorkerCrashError

        save_checkpoint(tmp_path, make_state(it=3))
        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=5),
                crash_point="arrays-written",
            )
        save_checkpoint(tmp_path, make_state(it=7))
        assert load_checkpoint(tmp_path).iteration == 7
        assert len(list(tmp_path.glob("checkpoint-*.npz"))) == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestKnorsRecovery:
    @pytest.mark.parametrize("pruning", ["mti", None])
    def test_crash_and_resume_matches_uninterrupted(
        self, matrix_path, overlapping, tmp_path, pruning
    ):
        """Kill the run at iteration 4, resume, and land on the exact
        same final clustering as an uninterrupted run."""
        c0 = init_centroids(overlapping, 6, "random", seed=3)
        ckpt = tmp_path / "ckpt"
        full = knors(matrix_path, 6, init=c0, pruning=pruning)

        # "Crash": cap at 4 iterations, checkpointing every 2.
        knors(
            matrix_path, 6, init=c0, pruning=pruning,
            checkpoint_dir=ckpt, checkpoint_interval=2,
            criteria=ConvergenceCriteria(max_iters=4),
        )
        assert has_checkpoint(ckpt)
        assert load_checkpoint(ckpt).iteration == 4

        resumed = knors(
            matrix_path, 6, init=c0, pruning=pruning,
            checkpoint_dir=ckpt, checkpoint_interval=2, resume=True,
        )
        np.testing.assert_array_equal(
            resumed.assignment, full.assignment
        )
        np.testing.assert_allclose(
            resumed.centroids, full.centroids, atol=1e-9
        )
        # The resumed run only performed the remaining iterations.
        assert resumed.iterations == full.iterations - 4

    def test_resume_without_checkpoint_starts_fresh(
        self, matrix_path, overlapping, tmp_path
    ):
        c0 = init_centroids(overlapping, 4, "random", seed=1)
        res = knors(
            matrix_path, 4, init=c0,
            checkpoint_dir=tmp_path / "empty", resume=True,
            criteria=ConvergenceCriteria(max_iters=5),
        )
        assert res.iterations == 5 or res.converged

    def test_checkpoint_written_at_interval(
        self, matrix_path, overlapping, tmp_path
    ):
        c0 = init_centroids(overlapping, 4, "random", seed=1)
        ckpt = tmp_path / "c"
        knors(
            matrix_path, 4, init=c0, checkpoint_dir=ckpt,
            checkpoint_interval=3,
            criteria=ConvergenceCriteria(max_iters=7),
        )
        state = load_checkpoint(ckpt)
        assert state.iteration in (3, 6)


def _knors_run(x, ckpt, interval, pruning, observer):
    return knors(
        x, 5, pruning=pruning, checkpoint_dir=ckpt,
        checkpoint_interval=interval, observers=[observer],
    )


def _mm_sem_run(x, ckpt, interval, pruning, observer):
    from repro.runtime import KmeansMM, run_mm_sem

    return run_mm_sem(
        KmeansMM(x, 5, pruning=pruning), checkpoint_dir=ckpt,
        checkpoint_interval=interval, observers=[observer],
    )


@pytest.mark.parametrize("run", [_knors_run, _mm_sem_run])
class TestCheckpointPairingRejectedUpFront:
    """``CheckpointHook`` rejects a pairing it cannot honour when it is
    built, so no iteration runs before the ``ConfigError``."""

    def test_elkan_rejected_before_first_iteration(
        self, run, overlapping, tmp_path
    ):
        from repro.runtime import RecordingObserver

        rec = RecordingObserver()
        with pytest.raises(ConfigError, match="Elkan"):
            run(overlapping, tmp_path / "c", 3, "elkan", rec)
        assert "iteration_start" not in rec.names()
        assert not has_checkpoint(tmp_path / "c")

    @pytest.mark.parametrize("interval", [0, -2])
    def test_non_positive_interval_rejected(
        self, run, overlapping, tmp_path, interval
    ):
        from repro.runtime import RecordingObserver

        rec = RecordingObserver()
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            run(overlapping, tmp_path / "c", interval, "mti", rec)
        assert "iteration_start" not in rec.names()


def test_yinyang_checkpoints_through_the_probe(overlapping, tmp_path):
    """The up-front probe exports a not-yet-stepped algorithm: Yinyang
    builds its bounds lazily, so it exports the bare model there."""
    from repro.extensions.yinyang import YinyangMM
    from repro.runtime import run_mm_sem

    algorithm = YinyangMM(
        overlapping, 5, criteria=ConvergenceCriteria(max_iters=2)
    )
    run_mm_sem(
        algorithm, checkpoint_dir=tmp_path / "y", checkpoint_interval=2
    )
    assert load_checkpoint(tmp_path / "y").algorithm == "yinyang"


class TestLegacyResume:
    def test_knors_resumes_from_v3(self, matrix_path, overlapping, tmp_path):
        """A hand-built v3 directory holding a real mid-run state
        resumes onto the uninterrupted trajectory."""
        c0 = init_centroids(overlapping, 6, "random", seed=3)
        full = knors(matrix_path, 6, init=c0)
        v4 = tmp_path / "v4"
        knors(
            matrix_path, 6, init=c0, checkpoint_dir=v4,
            checkpoint_interval=2,
            criteria=ConvergenceCriteria(max_iters=4),
        )
        ckpt = load_checkpoint(v4)
        v3 = tmp_path / "v3"
        write_legacy(
            v3, 3, ckpt.arrays, iteration=ckpt.iteration,
            params=ckpt.params,
        )
        resumed = knors(
            matrix_path, 6, init=c0, checkpoint_dir=v3, resume=True,
        )
        np.testing.assert_array_equal(resumed.assignment, full.assignment)
        assert resumed.iterations == full.iterations - 4

    def test_knors_checkpoint_resumes_on_mm_plane(
        self, matrix_path, overlapping, tmp_path
    ):
        """knors' NumericsLoop and the MM plane's KmeansMM share the
        ``kmeans`` checkpoint identity."""
        from repro.runtime import KmeansMM, run_mm_sem

        c0 = init_centroids(overlapping, 6, "random", seed=3)
        full = knors(matrix_path, 6, init=c0, pruning="mti")
        ckpt = tmp_path / "ck"
        knors(
            matrix_path, 6, init=c0, pruning="mti", checkpoint_dir=ckpt,
            checkpoint_interval=2,
            criteria=ConvergenceCriteria(max_iters=4),
        )
        resumed = run_mm_sem(
            KmeansMM(overlapping, 6, init=c0, pruning="mti"),
            checkpoint_dir=ckpt, resume=True,
        )
        np.testing.assert_array_equal(resumed.assignment, full.assignment)
        assert resumed.iterations == full.iterations - 4

    def test_gmm_checkpoint_rejected_by_knors(
        self, matrix_path, overlapping, tmp_path
    ):
        from repro.extensions import GmmMM
        from repro.runtime import run_mm_sem

        ckpt = tmp_path / "ck"
        run_mm_sem(
            GmmMM(overlapping, 4, seed=1, max_iters=2),
            checkpoint_dir=ckpt, checkpoint_interval=2,
        )
        with pytest.raises(IoSubsystemError) as err:
            knors(matrix_path, 4, checkpoint_dir=ckpt, resume=True)
        assert "'gmm'" in str(err.value)
        assert "'kmeans'" in str(err.value)


class TestIncompleteKmeansState:
    """A k-means checkpoint missing an array its pruning mode needs
    fails typed, naming the array."""

    def test_v3_without_counts(self, matrix_path, tmp_path):
        arrays = make_arrays()
        del arrays["counts"]
        write_legacy(tmp_path, 3, arrays)
        assert "counts" not in load_checkpoint(tmp_path).arrays
        with pytest.raises(ConfigError, match="counts"):
            knors(
                matrix_path, 4, pruning="mti", checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_v4_kmeans_without_counts(self, overlapping, tmp_path):
        from repro.runtime import KmeansMM, run_mm_sem

        save_checkpoint(tmp_path, make_state(drop=("counts",)))
        algorithm = KmeansMM(overlapping, 4, pruning="mti")
        ckpt = load_checkpoint(tmp_path)
        with pytest.raises(ConfigError, match="counts"):
            algorithm.restore_state(
                {"iteration": ckpt.iteration, **ckpt.arrays}
            )
        with pytest.raises(ConfigError, match="counts"):
            run_mm_sem(algorithm, checkpoint_dir=tmp_path, resume=True)
