"""The benchmark's correctness gate on its library workloads.

Every solve-large and wide-boundary input goes through the benchmark's own
``prepare`` (a seeded relabelling, plus a random positive initial form on
solve-large), its pipeline and its gate, as the first cycle of a benchmark
run at seeds 0-4 draws them.
"""

import random

import pytest


@pytest.mark.parametrize("workload", ["solve-large", "wide-boundary"])
@pytest.mark.parametrize("seed", range(5))
def test_benchmark_inputs_pass_the_gate(harness, workload, seed):
    rng = random.Random(seed)
    for case in harness.CASES[workload]():
        outcome = harness.run_pipeline(*harness.prepare(case, rng))
        reason, _ = harness.check(outcome, case.expected)
        assert reason is None, f"{case.label}: {reason}"
