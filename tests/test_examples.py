"""The shipped examples and benchmark scripts stay in step with the
library: every ``repro`` import they make resolves, and the
custom-algorithm example's :class:`TrimmedKmeans` runs bit-identically
on all three MM backends."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.mm import (
    MMAlgorithm,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    p.relative_to(ROOT).as_posix()
    for d in ("examples", "benchmarks")
    for p in (ROOT / d).glob("*.py")
)


def _repro_imports(path: Path):
    """Yield ``(module, name)`` for each repro import in ``path``;
    ``name`` is None for a plain ``import repro...``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                for alias in node.names:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


@pytest.mark.parametrize("script", SCRIPTS)
def test_repro_imports_resolve(script):
    path = ROOT / script
    for module, name in _repro_imports(path):
        mod = importlib.import_module(module)
        if name is None or name == "*" or hasattr(mod, name):
            continue
        assert importlib.util.find_spec(f"{module}.{name}") is not None, (
            f"{script}: 'from {module} import {name}' does not resolve"
        )


def test_scripts_found():
    assert "examples/custom_algorithm.py" in SCRIPTS
    assert "benchmarks/bench_framework.py" in SCRIPTS


@pytest.fixture(scope="module")
def example():
    path = ROOT / "examples" / "custom_algorithm.py"
    spec = importlib.util.spec_from_file_location(
        "custom_algorithm_example", path
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trimmed_kmeans_identical_across_backends(example):
    rng = np.random.default_rng(5)
    centers = rng.normal(scale=5.0, size=(4, 4))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.0, size=(500, 4)) for c in centers]
    )
    x[rng.choice(x.shape[0], 40, replace=False)] += 40.0  # outliers

    def build():
        return example.TrimmedKmeans(x, 4, seed=2)

    assert isinstance(build(), MMAlgorithm)
    ri = run_mm_inmemory(build())
    rs = run_mm_sem(build())
    rd = run_mm_distributed(build(), n_machines=3)
    assert ri.iterations >= 2
    for other in (rs, rd):
        assert other.centroids.tobytes() == ri.centroids.tobytes()
        assert other.assignment.tobytes() == ri.assignment.tobytes()
        assert other.iterations == ri.iterations
    assert rs.total_bytes_read > 0
    assert all(rec.network_bytes > 0 for rec in rd.records)
