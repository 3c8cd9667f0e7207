"""The repository benchmark: four seeded workloads, timed end to end.

Run ``python3 perfbench/run.py --workload <city|service|train|sweep|all>``
from the repository root; see ``perfbench/README.md`` for what each
workload loads and which end-to-end metric each per-layer metric moves.
"""
