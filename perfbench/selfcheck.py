"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. For every workload, two traced runs with seed SEED give identical
   per-layer counts (every metric whose unit is not a time).
2. A ``laws`` run with FRESH_SEED, a seed not used while the benchmark
   was tuned, gives the known verdicts.

Exits 1 and names the mismatch when a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
TIME_UNITS = {"s", "ms"}
SEED = 1
FRESH_SEED = 90210


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in W.WORKLOADS:
        runs = [bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                      "--trace", "1") for _ in range(2)]
        for i, res in enumerate(runs):
            if not res["correct"]:
                problems.append(f"{workload}: traced run {i + 1} is not correct")
        counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] not in TIME_UNITS}
                  for res in runs]
        for name in counts[0]:
            if counts[0][name] != counts[1].get(name):
                problems.append(f"{workload}: {name} differs: {counts[0][name]} vs {counts[1].get(name)}")
        print(f"{workload}: {len(counts[0])} per-layer counts compared over two traced runs")

    fresh = bench("--workload", "laws", "--seed", str(FRESH_SEED), "--seconds", "1", "--trace", "0")
    if not fresh["correct"] or fresh["failed"]:
        problems.append(f"laws: verdicts differ on seed {FRESH_SEED}")
    print(f"laws: verdicts checked on seed {FRESH_SEED}")

    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: OK" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
