"""The observer bus, pinned event by event.

``RunObserver`` declares every event; these tests drive each one with
fixed arguments and pin what the three stock consumers make of it:
``RecordingObserver``'s ``TraceEvent`` (a golden table), the exact
stderr lines ``PrintObserver`` writes for ``--trace``, and a static
scan that every ``.on_<name>(`` call in ``src/`` names a declared
event.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.data import write_matrix
from repro.runtime import PrintObserver, RecordingObserver, RunObserver
from repro.runtime.observer import TraceEvent

EVENTS = sorted(n for n in vars(RunObserver) if n.startswith("on_"))

IO = SimpleNamespace(
    rows_needed=40, row_cache_hits=7, bytes_read=4096,
    service_ns=1_500_000.0,
)
TRACE = SimpleNamespace(
    span_ns=2_000_000.0, busy_fraction=0.875, total_steals=3,
    total_ns=5_000_000.0,
)
RECORD = SimpleNamespace(
    sim_ns=2_500_000.0, n_changed=11, dist_computations=1234,
)
DETAIL = {"page": 9}

# (event, args, kwargs, recorded TraceEvent, --trace lines). Every
# event appears at least once; events with a ``detail`` parameter are
# called with it unset, set positionally and set by keyword.
CALLS = [
    ("on_run_start", (100, 8), {},
     TraceEvent("run_start", None, {"n_rows": 100, "max_iters": 8}),
     ["[trace] run start: n=100 max_iters=8"]),
    ("on_iteration_start", (2,), {},
     TraceEvent("iteration_start", 2, {}), []),
    ("on_io_issue", (2, 40, 5, True), {},
     TraceEvent("io_issue", 2,
                {"rows": 40, "pages": 5, "prefetched": True}),
     ["[trace] it=2 io issue: rows=40 pages=5 (prefetch)"]),
    ("on_io_issue", (2, 40, 5, False), {},
     TraceEvent("io_issue", 2,
                {"rows": 40, "pages": 5, "prefetched": False}),
     ["[trace] it=2 io issue: rows=40 pages=5 (demand)"]),
    ("on_io", (2, IO), {},
     TraceEvent("io", 2, {"bytes_read": 4096, "service_ns": 1.5e6}),
     ["[trace] it=2 io: rows=40 rc_hits=7 read=4096B service=1.500ms"]),
    ("on_io_complete", (2, 1.5e6, 1e6, 5e5), {},
     TraceEvent("io_complete", 2, {"service_ns": 1.5e6,
                                   "hidden_ns": 1e6,
                                   "blocked_ns": 5e5}),
     ["[trace] it=2 io complete: service=1.500ms hidden=1.000ms "
      "blocked=0.500ms"]),
    ("on_task_trace", (2, TRACE), {},
     TraceEvent("task_trace", 2,
                {"machine_index": 0, "total_ns": 5e6, "steals": 3}),
     ["[trace] it=2 m=0 compute: span=2.000ms busy=0.88 steals=3"]),
    ("on_task_trace", (2, TRACE), {"machine_index": 1},
     TraceEvent("task_trace", 2,
                {"machine_index": 1, "total_ns": 5e6, "steals": 3}),
     ["[trace] it=2 m=1 compute: span=2.000ms busy=0.88 steals=3"]),
    ("on_collective", (2, 256, 512, 3e5), {},
     TraceEvent("collective", 2, {"payload_bytes": 256,
                                  "wire_bytes": 512, "sim_ns": 3e5}),
     ["[trace] it=2 allreduce: payload=256B wire=512B time=0.300ms"]),
    ("on_iteration_end", (2, RECORD), {},
     TraceEvent("iteration_end", 2, {"sim_ns": 2.5e6}),
     ["[trace] it=2 done: sim=2.500ms changed=11 dist=1234"]),
    ("on_checkpoint", (2, Path("ckpt")), {},
     TraceEvent("checkpoint", 2, {"path": "ckpt"}),
     ["[trace] it=2 checkpoint -> ckpt"]),
    ("on_fault", (2, "ssd", "read_error"), {},
     TraceEvent("fault", 2,
                {"site": "ssd", "kind": "read_error", "detail": {}}),
     ["[fault] it=2 ssd: read_error"]),
    ("on_fault", (2, "ssd", "read_error", DETAIL), {},
     TraceEvent("fault", 2, {"site": "ssd", "kind": "read_error",
                             "detail": DETAIL}),
     ["[fault] it=2 ssd: read_error {'page': 9}"]),
    ("on_fault", (2, "ssd", "read_error"), {"detail": None},
     TraceEvent("fault", 2,
                {"site": "ssd", "kind": "read_error", "detail": {}}),
     ["[fault] it=2 ssd: read_error"]),
    ("on_retry", (2, "ssd", 1, 2e5), {},
     TraceEvent("retry", 2,
                {"site": "ssd", "attempt": 1, "delay_ns": 2e5}),
     ["[fault] it=2 ssd: retry #1 (+0.200ms)"]),
    ("on_recovery", (2, "ssd", "retry"), {},
     TraceEvent("recovery", 2,
                {"site": "ssd", "action": "retry", "detail": {}}),
     ["[fault] it=2 ssd: recovered via retry"]),
    ("on_recovery", (2, "ssd", "retry"), {"detail": DETAIL},
     TraceEvent("recovery", 2,
                {"site": "ssd", "action": "retry", "detail": DETAIL}),
     ["[fault] it=2 ssd: recovered via retry {'page': 9}"]),
    ("on_corruption", (2, "ssd-page"), {},
     TraceEvent("corruption", 2, {"where": "ssd-page", "detail": {}}),
     ["[fault] it=2 corruption detected at ssd-page"]),
    ("on_corruption", (2, "ssd-page", DETAIL), {},
     TraceEvent("corruption", 2,
                {"where": "ssd-page", "detail": DETAIL}),
     ["[fault] it=2 corruption detected at ssd-page {'page': 9}"]),
    ("on_quarantine", (2, "ssd-page", 17), {},
     TraceEvent("quarantine", 2,
                {"where": "ssd-page", "what": 17, "detail": {}}),
     ["[fault] it=2 quarantined ssd-page 17"]),
    ("on_quarantine", (2, "ssd-page", 17, DETAIL), {},
     TraceEvent("quarantine", 2,
                {"where": "ssd-page", "what": 17, "detail": DETAIL}),
     ["[fault] it=2 quarantined ssd-page 17"]),
    ("on_straggler", (2, "thread", 3), {},
     TraceEvent("straggler", 2,
                {"scope": "thread", "worker": 3, "detail": {}}),
     ["[fault] it=2 straggling thread 3"]),
    ("on_straggler", (2, "thread", 3), {"detail": DETAIL},
     TraceEvent("straggler", 2,
                {"scope": "thread", "worker": 3, "detail": DETAIL}),
     ["[fault] it=2 straggling thread 3 {'page': 9}"]),
    ("on_rebalance", (2, "machine"), {},
     TraceEvent("rebalance", 2, {"scope": "machine", "detail": {}}),
     ["[fault] it=2 rebalanced machine work"]),
    ("on_rebalance", (2, "machine", DETAIL), {},
     TraceEvent("rebalance", 2,
                {"scope": "machine", "detail": DETAIL}),
     ["[fault] it=2 rebalanced machine work {'page': 9}"]),
    ("on_preempt_notice", (2, 1, 4), {},
     TraceEvent("preempt_notice", 2,
                {"machine": 1, "deadline": 4, "detail": {}}),
     ["[elastic] it=2 preempt notice: machine 1 lost after it=4"]),
    ("on_preempt_notice", (2, 1, 4), {"detail": DETAIL},
     TraceEvent("preempt_notice", 2,
                {"machine": 1, "deadline": 4, "detail": DETAIL}),
     ["[elastic] it=2 preempt notice: machine 1 lost after it=4 "
      "{'page': 9}"]),
    ("on_scale_up", (2, 3), {},
     TraceEvent("scale_up", 2, {"machine": 3, "detail": {}}),
     ["[elastic] it=2 scale up: machine 3 joined"]),
    ("on_scale_up", (2, 3, DETAIL), {},
     TraceEvent("scale_up", 2, {"machine": 3, "detail": DETAIL}),
     ["[elastic] it=2 scale up: machine 3 joined {'page': 9}"]),
    ("on_scale_down", (2, 1), {},
     TraceEvent("scale_down", 2, {"machine": 1, "detail": {}}),
     ["[elastic] it=2 scale down: machine 1 left"]),
    ("on_scale_down", (2, 1), {"detail": DETAIL},
     TraceEvent("scale_down", 2, {"machine": 1, "detail": DETAIL}),
     ["[elastic] it=2 scale down: machine 1 left {'page': 9}"]),
    ("on_query", (5, 64, 1.25e6), {},
     TraceEvent("query", 5,
                {"queries": 64, "latency_ns": 1.25e6, "detail": {}}),
     ["[serve] batch=5 answered 64 queries (worst latency 1.250ms)"]),
    ("on_query", (5, 64, 1.25e6, DETAIL), {},
     TraceEvent("query", 5, {"queries": 64, "latency_ns": 1.25e6,
                             "detail": DETAIL}),
     ["[serve] batch=5 answered 64 queries (worst latency 1.250ms)"]),
    ("on_ingest", (5, 32), {},
     TraceEvent("ingest", 5, {"rows": 32, "detail": {}}),
     ["[serve] batch=5 ingested 32 rows"]),
    ("on_ingest", (5, 32), {"detail": DETAIL},
     TraceEvent("ingest", 5, {"rows": 32, "detail": DETAIL}),
     ["[serve] batch=5 ingested 32 rows"]),
    ("on_alloc", ("ws", 1024, True), {},
     TraceEvent("alloc", None,
                {"tag": "ws", "nbytes": 1024, "reused": True}), []),
    ("on_free", ("ws", 1024), {},
     TraceEvent("free", None, {"tag": "ws", "nbytes": 1024}), []),
    ("on_spill", ("ws", 4096, 1e5, "out"), {},
     TraceEvent("spill", None, {"tag": "ws", "nbytes": 4096,
                                "ns": 1e5, "direction": "out"}),
     ["[mem] spill out: ws 4096B (+0.100ms)"]),
    ("on_spill", ("", 64, 0.0, "in"), {},
     TraceEvent("spill", None, {"tag": "", "nbytes": 64, "ns": 0.0,
                                "direction": "in"}),
     ["[mem] spill in: <untagged> 64B (+0.000ms)"]),
    ("on_run_end", (3, True), {},
     TraceEvent("run_end", None, {"iterations": 3, "converged": True}),
     ["[trace] run end: 3 iterations (converged)"]),
    ("on_run_end", (3, False), {},
     TraceEvent("run_end", None,
                {"iterations": 3, "converged": False}),
     ["[trace] run end: 3 iterations (cap hit)"]),
]


def calls_for(event: str) -> list[tuple]:
    return [c for c in CALLS if c[0] == event]


def test_golden_table_covers_every_event():
    assert sorted({c[0] for c in CALLS}) == EVENTS


@pytest.mark.parametrize("event", EVENTS)
def test_recording_observer_golden(event):
    for _, args, kwargs, expected, _ in calls_for(event):
        rec = RecordingObserver()
        getattr(rec, event)(*args, **kwargs)
        assert rec.events == [expected]


def test_print_observer_golden(capsys):
    """Every event once through ``PrintObserver`` (the CLI's
    ``--trace``), pinned line for line on stderr."""
    printer = PrintObserver()
    expected: list[str] = []
    for event, args, kwargs, _, lines in CALLS:
        getattr(printer, event)(*args, **kwargs)
        expected.extend(lines)
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == expected


@pytest.mark.parametrize(
    "event", ["on_iteration_start", "on_alloc", "on_free"]
)
def test_print_observer_silent_events(event, capsys):
    printer = PrintObserver()
    for _, args, kwargs, _, _ in calls_for(event):
        getattr(printer, event)(*args, **kwargs)
    assert capsys.readouterr().err == ""


def test_cli_trace_prints_run_and_resilience_lines(
    tmp_path, overlapping, capsys
):
    path = tmp_path / "data.knor"
    write_matrix(path, overlapping)
    assert main([
        "knors", str(path), "-k", "4", "--max-iters", "3", "--trace",
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--checkpoint-interval", "2",
    ]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "[trace] run start: n=3000 max_iters=3"
    assert any(line.startswith("[trace] it=0 io issue:") for line in err)
    assert any(line.startswith("[trace] it=1 checkpoint -> ")
               for line in err)
    assert any(line.startswith("[trace] run end: ") for line in err)
    assert err[-1].startswith("[resilience] faults=0 recoveries=0 ")


# -- static emit guard ---------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def emitted_events() -> dict[str, list[str]]:
    """Every ``<expr>.on_<name>(...)`` call in ``src/``, by name."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("on_")
            ):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                sites.setdefault(node.func.attr, []).append(where)
    return sites


def test_every_emitted_event_is_declared():
    sites = emitted_events()
    undeclared = {
        name: where for name, where in sites.items()
        if name not in EVENTS
    }
    assert not undeclared
    # The scan sees the fault plane's many emit sites.
    assert len(sites["on_fault"]) >= 10
    assert len(sites["on_recovery"]) >= 10
