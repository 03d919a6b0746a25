"""Experiment harness shared by the benchmarks and examples.

Builds the full stack the paper's testbed had — DBMS on a file system,
optionally under FUSE, optionally under Ginja, against a latency-modeled
cloud — runs TPC-C on it, crashes it, recovers it, and collects every
metric the paper's tables and figures report.
"""

from repro.harness.stack import Stack, StackConfig, build_stack, running_pools
from repro.harness.runner import (
    RecoveryTimeReport,
    TpccRunReport,
    measure_recovery,
    run_tpcc,
)

__all__ = [
    "Stack",
    "StackConfig",
    "build_stack",
    "running_pools",
    "run_tpcc",
    "TpccRunReport",
    "measure_recovery",
    "RecoveryTimeReport",
]
