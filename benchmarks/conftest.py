"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures at
reproduction scale, prints it (visible with ``pytest -s`` and in the
captured output), and writes it into ``results/benchmark_report.txt``
(replacing an earlier section of the same title) so a full
``pytest benchmarks/ --benchmark-only`` run leaves a complete report on
disk. EXPERIMENTS.md records paper-vs-measured per figure.

Scale note: datasets run at ~1/1000 of the paper's n (Table 2 registry
defaults). Simulated times are labelled sim; Table 3 rows are real
wall-clock.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data import friendster_like, load_dataset

RESULTS = Path(__file__).resolve().parent.parent / "results"


_RULE = "#" * 70


def report(title: str, body: str) -> None:
    """Print a figure/table and write it into the on-disk report.

    A section with the same title is replaced in place, so rerunning a
    bench leaves the report byte-identical instead of appending a
    duplicate table.
    """
    text = f"\n{_RULE}\n# {title}\n{_RULE}\n{body}\n"
    print(text)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "benchmark_report.txt"
    old = path.read_text() if path.exists() else ""
    sep = f"\n{_RULE}\n# "
    head, *rest = old.split(sep)
    sections = [sep + part for part in rest]
    same = f"{sep}{title}\n{_RULE}\n"
    for i, section in enumerate(sections):
        if section.startswith(same):
            sections[i] = text
            break
    else:
        sections.append(text)
    path.write_text(head + "".join(sections))


@pytest.fixture(scope="session")
def fr8():
    """Friendster-8 at reproduction scale (66M -> 64K rows)."""
    return friendster_like(65536, 8)


@pytest.fixture(scope="session")
def fr32():
    """Friendster-32 at reproduction scale."""
    return friendster_like(65536, 32)


@pytest.fixture(scope="session")
def fr8_small():
    """Smaller Friendster-8 cut for sweep-heavy benches."""
    return friendster_like(16384, 8)


@pytest.fixture(scope="session")
def rm856():
    return load_dataset("rm-856m", n=131072)


@pytest.fixture(scope="session")
def rm1b():
    return load_dataset("rm-1b", n=131072)


@pytest.fixture(scope="session")
def ru2b():
    return load_dataset("ru-2b", n=131072)


@pytest.fixture(scope="session")
def fr32_file(tmp_path_factory, fr32):
    from repro.data import write_matrix

    path = tmp_path_factory.mktemp("data") / "fr32.knor"
    write_matrix(path, fr32)
    return path


@pytest.fixture(scope="session")
def fr8_file(tmp_path_factory, fr8):
    from repro.data import write_matrix

    path = tmp_path_factory.mktemp("data") / "fr8.knor"
    write_matrix(path, fr8)
    return path
