"""End-to-end and per-layer benchmark of the knor reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root. ``BENCHMARK.json`` declares the
workloads and metrics; ``perfbench/plan.json`` records the seeds and which
end-to-end metric each per-layer metric should move.
"""
