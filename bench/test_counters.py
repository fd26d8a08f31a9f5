"""The benchmark's own test: exact per-layer counters repeat across two traced
runs of the same code and seed.

    python3 -m pytest bench/test_counters.py

Each traced run starts a fresh interpreter, so together the four workloads
take a few minutes.
"""

import pytest

from run import WORKLOADS, run_rep

EXACT = (
    "kernel.recompute_ratio",
    "dedekind.s_chi_evals_per_char",
    "intrel.lll_per_rank",
    "cache.entries",
    "lseries.table_reuse_share",
    "relations.rank_disagreements",
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat(workload):
    runs = [run_rep(workload, seed=7, trace=True, one_worker=True) for _ in range(2)]
    for run in runs:
        assert run["failures"] == []
    first, second = (run["layers"] for run in runs)
    exact = [name for name in first if name.endswith(".calls") or name in EXACT]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
