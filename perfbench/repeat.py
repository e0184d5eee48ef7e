"""Run the benchmark once per seed and report how far its metrics spread.

For every workload and metric this prints the median of the runs and the
distance between their first and third quartiles (``statistics.quantiles``
with ``n=4``) as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  Runs use the command and ``run_seconds`` given there.

Usage, from the repository root:

    python3 perfbench/repeat.py --seeds 100-109 [--workload cli-corpus] [--trace 1] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 100-109")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the per-run values and summary as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed pipelines\n{done.stderr}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {result['attempted']} pipelines, "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
        summary = {}
        for name, runs in values.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": runs}
            bound = bounds.get(name)
            limit = f" bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:<36} median {median:12.6g}  spread {spread:7.2%}{limit}")
        report[workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
