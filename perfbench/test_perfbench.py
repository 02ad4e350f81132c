"""Tests for the benchmark's own code (not for the library).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, run
from perfbench.tracing import Target, Tracer, _resolve, self_times
from perfbench.workloads import TARGETS, WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((ROOT / "perfbench" / "plan.json").read_text())


def _run(name, tmp_path, trace, seed=3):
    return bench.measure(build(name, "tiny"), seed, 0.01, trace, tmp_path)


def test_self_time_subtracts_only_direct_children():
    spans = [
        ("runtime", 0, 100, -1),
        ("core", 10, 40, 0),
        ("core", 15, 25, 1),  # same layer nested in itself
        ("sched", 50, 70, 0),
        ("simhw", 80, 95, -1),
    ]
    assert self_times(spans) == {
        "runtime": 100 - 30 - 20,
        "core": (30 - 10) + 10,
        "sched": 20,
        "simhw": 15,
    }


def test_tracer_records_nesting_and_exceptions():
    import types

    mod = types.ModuleType("repro._perfbench_probe")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    def boom():
        raise ValueError("x")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer([
            Target("a", mod.__name__, "outer"),
            Target("b", mod.__name__, "inner"),
            Target("c", mod.__name__, "boom"),
        ])
        with tracer.installed():
            assert mod.outer() == 2
            with pytest.raises(ValueError):
                mod.boom()
        names = [(s[0], s[3]) for s in tracer.spans]
        assert names == [("a", -1), ("b", 0), ("c", -1)]
        assert (mod.outer, mod.inner, mod.boom) == (outer, inner, boom)
    finally:
        del sys.modules[mod.__name__]


def _snapshot():
    """Every attribute a traced run patches, with its current value."""
    seen = {}
    for t in TARGETS:
        owner = _resolve(t.owner)
        if isinstance(owner, type):
            seen[(t.owner, t.attr)] = owner.__dict__[t.attr]
            continue
        original = getattr(owner, t.attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(mod, t.attr, None) is original
            ):
                seen[(name, t.attr)] = original
    return seen


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrappers_fully_restored_after_traced_run(name, tmp_path):
    before = _snapshot()
    wl = build(name, "tiny")
    runner = bench.Runner(wl, wl.setup(3, tmp_path))
    _, _, _, spans = runner.traced()
    assert spans
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # An untraced operation now runs the originals: nothing records.
    n = len(spans)
    runner.untraced()
    assert len(spans) == n
    assert runner.tally.failed == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_emitted_metric_names_equal_declared(name, tmp_path):
    e2e = _run(name, tmp_path, trace=False)
    layers = _run(name, tmp_path, trace=True)
    assert e2e["correct"] and layers["correct"]
    assert e2e["failed"] == layers["failed"] == 0
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == declared_e2e
    assert {
        k: v["unit"] for k, v in layers["metrics"].items()
    } == declared_layer
    assert all(v["value"] > 0 for v in e2e["metrics"].values())


def test_workloads_and_layer_map_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert run.WORKLOADS == WORKLOADS
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    moves = PLAN["per_layer_moves"]
    assert set(moves) == {m["name"] for m in SPEC["per_layer"]}
    for entry in moves.values():
        assert set(entry["moves"]) <= e2e
        for key in ("on", "little_on", "zero_on"):
            assert set(entry.get(key, ())) <= set(WORKLOADS)
    assert set(PLAN["seeds"]["why"]) == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_simulated_metrics_repeat_exactly(name, tmp_path):
    host = bench.HOST_TIME_METRICS | {"trace.overhead_frac"}
    first, second = (_run(name, tmp_path, trace=True) for _ in range(2))
    for key, value in first["metrics"].items():
        if key not in host:
            assert second["metrics"][key] == value, key
    sim = ("sim_s", "sim_p50_us", "sim_p999_us")
    a, b = (_run(name, tmp_path, trace=False) for _ in range(2))
    assert all(a["metrics"][k] == b["metrics"][k] for k in sim)


def test_wrong_output_counts_as_failure(tmp_path, monkeypatch):
    wl = build("knord-mti", "tiny")
    real = wl.reference

    def off_by_one(inputs):
        ref = real(inputs)
        ref.assignment = (ref.assignment + 1) % wl.sizes.k
        return ref

    monkeypatch.setattr(wl, "reference", off_by_one)
    out = bench.measure(wl, 3, 0.01, False, tmp_path)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_command_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knord-mti",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
