"""The benchmark harness's on-disk report: one section per title."""

import importlib.util
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS", tmp_path)
    return module


def report_text(tmp_path):
    return (tmp_path / "benchmark_report.txt").read_text()


def test_rerun_leaves_report_byte_identical(bench, tmp_path):
    bench.report("Figure 1: a", "a | 1")
    bench.report("Figure 2: b", "b | 2")
    once = report_text(tmp_path)
    bench.report("Figure 1: a", "a | 1")
    bench.report("Figure 2: b", "b | 2")
    assert report_text(tmp_path) == once
    assert once.count("# Figure 1: a\n") == 1


def test_same_title_replaced_in_place(bench, tmp_path):
    bench.report("Figure 1: a", "old body")
    bench.report("Figure 2: b", "b | 2")
    bench.report("Figure 1: a", "new body")
    text = report_text(tmp_path)
    assert "old body" not in text
    assert text.index("new body") < text.index("# Figure 2: b")


def test_title_prefix_is_a_different_section(bench, tmp_path):
    bench.report("Figure 1", "short")
    bench.report("Figure 1: long", "long")
    text = report_text(tmp_path)
    assert "short" in text and "long" in text
