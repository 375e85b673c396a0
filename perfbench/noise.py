"""Compare single passes with best of cold passes over saved results.

    python3 perfbench/noise.py

Reads every untraced result in ``perfbench/out/`` and prints, per workload,
the spread of four sweep times: single passes as measured, the best of each
run's passes as measured, single passes at reference speed (each call
scaled by the kernel samples around it), and the median of each run's
passes at reference speed, which is the ``sweep_s`` the benchmark reports.
Each line gives min, quartiles, max and the interquartile range over the
median.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values):3d}  min {min(values):7.3f}  q1 {q1:7.3f}"
            f"  median {med:7.3f}  q3 {q3:7.3f}  max {max(values):7.3f}"
            f"  iqr/median {(q3 - q1) / med:.3f}")


def main() -> None:
    single, best, scaled, reported = (defaultdict(list) for _ in range(4))
    for path in sorted(OUT.glob("result-*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        workload, passes = result["workload"], result["passes"]
        single[workload] += [p["sweep_ms"] / 1000 for p in passes]
        best_ms = [min(t) for t in zip(*(p["instance_ms"] for p in passes))]
        render_ms = min(p["render"][0] for p in passes)
        best[workload].append((sum(best_ms) + render_ms) / 1000)
        scaled[workload] += [p["scaled_sweep_ms"] / 1000 for p in passes]
        reported[workload].append(result["metrics"]["sweep_s"])
    for workload in sorted(reported):
        if len(reported[workload]) < 2:
            continue
        print(f"{workload}: {len(reported[workload])} runs,"
              f" {len(single[workload])} passes")
        print("  single pass              ", summary(single[workload]))
        print("  best of run              ", summary(best[workload]))
        print("  single pass, scaled      ", summary(scaled[workload]))
        print("  median of run, scaled    ", summary(reported[workload]))


if __name__ == "__main__":
    main()
