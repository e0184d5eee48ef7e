"""Self-test of the benchmark at tiny size.

1. Every generated input passes ``validate`` before and after relabelling,
   ``vicsek(4)`` is the built-in ``vicsek``, and
   ``renormalize(iterate(T, 2), f, r⊗r)`` matches ``tests/oracles.two_level_form``
   on the three built-ins.
2. Each workload runs one cycle (one pipeline per input) at two seeds, with
   and without tracing.  Every run must pass the gate (fail_rate 0) and print
   every metric named in ``BENCHMARK.json`` with its unit.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from eigenform_lab import builtin, renormalize, validate  # noqa: E402
from oracles import two_level_form  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402

SEEDS = (0, 1)


def check_generators() -> None:
    rng = random.Random(0)
    for workload, make in harness.CASES.items():
        for case in make():
            if case.triple is None:
                continue
            for triple in (case.triple, harness.prepare(case, rng)[0]):
                problems = validate(triple)
                assert not problems, f"{workload}/{case.label}: {problems[:3]}"
    assert gen.vicsek(4).cells == builtin("vicsek").cells
    for name, weights in (("gasket", (1.0, 1.5, 2.0)), ("tree_gasket", (5.0, 2.0, 2.0)), ("vicsek", (1.0, 2.0, 1.0, 3.0, 0.5))):
        triple = builtin(name)
        form = gen.random_form(triple.N, rng)
        level2, product = gen.iterate(triple, 2, weights)
        got = renormalize(level2, form, product).vector()
        want = two_level_form(triple, form, np.array(weights)).vector()
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * want.max()), (name, got, want)
    print("generators: ok")


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        cycle = len(harness.CASES[workload]())
        for seed in SEEDS:
            for trace in (0, 1):
                done = run_bench(ROOT, workload, seed, trace)
                where = f"{workload} seed={seed} trace={trace}"
                assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
                assert result["correct"] and result["failed"] == 0, f"{where}: {done.stderr}"
                assert result["attempted"] == cycle * (1 + trace), f"{where}: {result['attempted']}"
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                assert printed == units[trace], f"{where}: {sorted(set(printed) ^ set(units[trace]))}"
                assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
                if trace == 0:
                    assert any(line.split()[:1] == ["fail_rate"] and "ratio" in line for line in lines), where
                else:
                    assert (harness.WORK / f"trace-{workload}-seed{seed}.json").is_file(), where
                print(f"{where}: ok, {result['attempted']} pipelines")


def check_bare_directory() -> None:
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench(bare, "wide-boundary", 0, 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, "benchmark succeeded without the library"
    assert '"metrics"' not in done.stdout, "benchmark printed a result without the library"
    print("bare directory: exits", done.returncode)


if __name__ == "__main__":
    check_generators()
    check_runs()
    check_bare_directory()
    print("selftest: ok")
