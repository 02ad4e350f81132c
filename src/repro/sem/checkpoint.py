"""Lightweight checkpointing for semi-external runs.

FlashGraph "is also tolerant to in-memory failures, allowing recovery
in SEM routines through lightweight checkpointing" (Section 2). The
state a SEM run needs to resume is exactly its O(n) in-memory
footprint -- for k-means the assignments, MTI upper bounds, the
persistent per-cluster sums/counts, current/previous centroids and the
iteration counter; for any MM algorithm whatever its
``export_state()`` returns. Row data never needs checkpointing -- it
is already durable on SSD.

One format, written as version 4: a :class:`CheckpointState` names
its owning algorithm and carries a dict of named arrays plus
JSON-representable scalars (GMM saves means/variances/weights,
Yinyang its group bounds, k-means the fields above).

Durability protocol: each save writes its arrays to a fresh
sequence-numbered ``checkpoint-<seq>.npz`` (never overwriting the
arrays a live manifest references), then commits by atomically
renaming the manifest over ``checkpoint.json``. The manifest rename is
the *only* commit point, so a crash at any instant -- mid-array-write,
between tmp-write and rename, or before garbage collection -- leaves
the previous checkpoint fully loadable (the crash-matrix tests inject
crashes at each point via :mod:`repro.faults`).

Integrity: the manifest records a CRC32 of the whole arrays file plus
one CRC32 per stored array. :func:`load_checkpoint` verifies the file
checksum before parsing and every array checksum after, raising
:class:`~repro.errors.CorruptionError` on any mismatch or on a listed
array the file lacks -- a flipped bit on the simulated SSD is always
*detected*, never silently resumed from.

Versions 1-3, the older k-means-only layouts, are read-only:
:func:`load_checkpoint` lifts them into the same record with
``algorithm="kmeans"`` and whatever arrays the file holds, still
verifying version 3's checksums (versions 1 and 2 carry none). Whether
the arrays suffice is decided on restore
(:meth:`~repro.drivers.common.NumericsLoop.restore_state` names a
missing one). The next save writes version 4 and removes version 1's
single ``checkpoint.npz``.

The paper disables checkpointing during performance evaluation
(Section 8.5), and so do the benches; the integration and fault tests
exercise crash/recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CorruptionError, IoSubsystemError, WorkerCrashError
from repro.mem import MemoryManager, current_manager
from repro.resilience.integrity import array_crc32, crc32_bytes

_MANIFEST = "checkpoint.json"
_V1_ARRAYS = "checkpoint.npz"
_FORMAT_VERSION = 4
#: Read-only k-means layouts; version 3 added the CRC32s.
_LEGACY_VERSIONS = (1, 2, 3)


def _stage_arrays(
    arrays: dict[str, np.ndarray], mem: MemoryManager
) -> dict[str, np.ndarray]:
    """Copy checkpoint arrays into manager-owned assembly buffers.

    The save protocol serializes and checksums a *snapshot*: staging
    through the manager makes that transient O(n) spike visible to (and
    chargeable against) the memory plane, and the pooled buffers are
    reused across periodic saves. Values are bit-for-bit copies, so the
    serialized bytes and CRCs are unchanged.
    """
    staged = {}
    for name, arr in arrays.items():
        buf = mem.alloc(arr.shape, arr.dtype, tag=f"checkpoint/{name}")
        np.copyto(buf, arr, casting="no")
        staged[name] = buf
    return staged


def _release_arrays(
    staged: dict[str, np.ndarray], mem: MemoryManager
) -> None:
    for arr in staged.values():
        mem.free(arr)


@dataclass
class CheckpointState:
    """A SEM run's resumable state (format v4).

    ``arrays`` holds the O(n)/O(k) ndarray state under
    algorithm-chosen names; ``scalars`` holds JSON-representable
    scalar state (floats/ints/lists). ``iteration`` is the index to
    resume at; ``algorithm`` names the owner, so a resume under a
    different algorithm fails typed instead of misreading the arrays.
    """

    iteration: int
    algorithm: str
    arrays: dict[str, np.ndarray]
    scalars: dict
    n_changed: int
    params: dict


def _read_manifest(directory: Path) -> dict | None:
    """The committed manifest, or None when absent/unparseable."""
    path = directory / _MANIFEST
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def _arrays_path(directory: Path, manifest: dict) -> Path | None:
    """The arrays file a manifest references, version-aware."""
    version = manifest.get("format_version")
    if version == 1:
        return directory / _V1_ARRAYS
    if version in (2, 3, _FORMAT_VERSION):
        name = manifest.get("arrays")
        if not name or "/" in str(name):
            return None
        return directory / str(name)
    return None


def save_checkpoint(
    directory: str | Path,
    state: CheckpointState,
    *,
    crash_point: str | None = None,
) -> Path:
    """Atomically persist a checkpoint, replacing any previous one.

    ``crash_point`` (injected by a :class:`~repro.faults.FaultPlan`)
    raises :class:`~repro.errors.WorkerCrashError` at the named stage
    of the protocol; the previous checkpoint stays loadable at every
    stage, and ``committed-no-gc`` leaves the *new* one loadable with
    one stale arrays file the next save collects.
    """
    if not state.arrays:
        raise IoSubsystemError("a checkpoint must carry at least one array")
    for name in state.arrays:
        if "/" in name:
            raise IoSubsystemError(
                f"checkpoint array name {name!r} must not contain '/'"
            )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    previous = _read_manifest(directory)
    seq = (previous.get("seq", 0) if previous else 0) + 1
    arrays_name = f"checkpoint-{seq:08d}.npz"

    mem = current_manager()
    staged = _stage_arrays(state.arrays, mem)
    try:
        with open(directory / arrays_name, "wb") as fh:
            np.savez(fh, **staged)
        file_crc = crc32_bytes((directory / arrays_name).read_bytes())
        array_crcs = {
            name: array_crc32(arr) for name, arr in staged.items()
        }
    finally:
        _release_arrays(staged, mem)
    if crash_point == "arrays-written":
        raise WorkerCrashError(
            "injected crash: arrays written, manifest not committed"
        )

    tmp_manifest = directory / (_MANIFEST + ".tmp")
    tmp_manifest.write_text(
        json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "seq": seq,
                "arrays": arrays_name,
                "file_crc32": file_crc,
                "array_crc32": array_crcs,
                "algorithm": state.algorithm,
                "iteration": state.iteration,
                "n_changed": state.n_changed,
                "scalars": state.scalars,
                "params": state.params,
            }
        )
    )
    if crash_point == "manifest-tmp-written":
        raise WorkerCrashError(
            "injected crash: between manifest tmp-write and rename"
        )

    # The single atomic commit point.
    tmp_manifest.replace(directory / _MANIFEST)
    if crash_point == "committed-no-gc":
        raise WorkerCrashError(
            "injected crash: committed, stale arrays not collected"
        )

    # Garbage-collect arrays files no manifest references (previous
    # generations, plus leftovers from crashed saves).
    for path in directory.glob("checkpoint-*.npz"):
        if path.name != arrays_name:
            path.unlink(missing_ok=True)
    (directory / _V1_ARRAYS).unlink(missing_ok=True)
    return directory


def load_checkpoint(directory: str | Path) -> CheckpointState:
    """Load the checkpoint in ``directory``; raises if absent/corrupt.

    Reads version 4 and lifts versions 1-3 into the same record (see
    the module docstring).
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest is None:
        if (directory / _MANIFEST).exists():
            raise IoSubsystemError(
                f"corrupt checkpoint manifest in {directory}"
            )
        raise IoSubsystemError(f"no checkpoint in {directory}")
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION and version not in _LEGACY_VERSIONS:
        raise IoSubsystemError(
            f"unsupported checkpoint version {version}"
        )
    arrays_path = _arrays_path(directory, manifest)
    if arrays_path is None or not arrays_path.exists():
        raise IoSubsystemError(
            f"checkpoint manifest in {directory} references missing "
            f"arrays"
        )
    checksummed = version >= 3
    if checksummed:
        file_crc = crc32_bytes(arrays_path.read_bytes())
        want = int(manifest["file_crc32"])
        if file_crc != want:
            raise CorruptionError(
                f"checkpoint arrays file {arrays_path.name} failed CRC32 "
                f"(stored {want:#010x}, computed {file_crc:#010x})"
            )
    with np.load(arrays_path) as data:
        arrays = {name: data[name].copy() for name in data.files}
    if checksummed:
        for name, want_crc in manifest["array_crc32"].items():
            if name not in arrays:
                raise CorruptionError(
                    f"checkpoint array {name!r} listed in the manifest "
                    f"is missing from {arrays_path.name}"
                )
            got = array_crc32(arrays[name])
            if got != int(want_crc):
                raise CorruptionError(
                    f"checkpoint array {name!r} failed CRC32 "
                    f"(stored {int(want_crc):#010x}, computed {got:#010x})"
                )
    legacy = version in _LEGACY_VERSIONS
    return CheckpointState(
        iteration=int(manifest["iteration"]),
        algorithm="kmeans" if legacy else str(manifest["algorithm"]),
        arrays=arrays,
        scalars={} if legacy else dict(manifest["scalars"]),
        n_changed=int(manifest["n_changed"]),
        params=manifest.get("params", {}),
    )


def has_checkpoint(directory: str | Path) -> bool:
    """Is there a loadable checkpoint in ``directory``?"""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest is None:
        return False
    arrays_path = _arrays_path(directory, manifest)
    return arrays_path is not None and arrays_path.exists()


def corrupt_checkpoint(directory: str | Path) -> int:
    """Flip one byte mid-file in the committed arrays file.

    Fault-injection helper for the ``corruption``/``checkpoint`` site:
    simulates a bit flip on the durable medium after the save
    committed. Returns the byte offset that was flipped so the event
    can report it. Raises :class:`~repro.errors.IoSubsystemError` when
    there is no checkpoint to corrupt.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest is None:
        raise IoSubsystemError(f"no checkpoint to corrupt in {directory}")
    arrays_path = _arrays_path(directory, manifest)
    if arrays_path is None or not arrays_path.exists():
        raise IoSubsystemError(f"no checkpoint arrays in {directory}")
    size = arrays_path.stat().st_size
    offset = size // 2
    with open(arrays_path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return offset


def discard_checkpoint(directory: str | Path) -> int:
    """Quarantine a corrupt checkpoint: remove all its files.

    Returns the number of files removed. After a discard the directory
    reports no checkpoint, so recovery falls back to a from-scratch
    restart -- slower in simulated time, but never resumes from bad
    state.
    """
    directory = Path(directory)
    removed = 0
    candidates = [directory / _MANIFEST, directory / (_MANIFEST + ".tmp"),
                  directory / _V1_ARRAYS]
    candidates.extend(directory.glob("checkpoint-*.npz"))
    for path in candidates:
        if path.exists():
            path.unlink()
            removed += 1
    return removed
