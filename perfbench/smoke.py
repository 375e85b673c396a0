"""One-pass smoke run of every workload.

    python3 perfbench/smoke.py

Runs one cold pass of each workload and checks it against the known
answers.  On phi2-scaling and laurent-products it adds one traced pass and
checks the separation those two workloads rely on: the ring layer is busy
on the first and never called on the second.  It asserts that the metrics
have the names and signs ``run.py`` promises.  It takes 30-45 s on a
2-core machine.
"""

import json
import sys

import run
from tracer import SIZE_COUNTERS, TARGETS

E2E = {"sweep_s", "instance_ms.p50", "slowest_instance_ms", "setup_s",
       "peak_rss_mb"}
PER_LAYER = ({f"{n}.{m}" for n in TARGETS for m in ("calls", "ms", "self_ms")}
             | set(SIZE_COUNTERS) | {"trace.overhead"})


def smoke(workload: str, trace: bool):
    instances, suite, _ = run.build_instances(workload, 1)
    passes, traced, setups = run.measure(instances, suite, 1, 0, trace,
                                         min_passes=1, probes=1)
    failed, correct = run.check(instances, passes + ([traced] if traced else []))
    assert correct and failed == 0, (workload, failed)
    e2e = run.end_to_end(run.median_times(passes), passes, setups)
    assert set(e2e) == E2E and all(v > 0 for v, _ in e2e.values()), e2e
    print(workload, json.dumps({k: round(v, 4) for k, (v, _) in e2e.items()}))
    if not trace:
        return None
    layers = run.per_layer(traced, passes)
    assert set(layers) == PER_LAYER, sorted(set(layers) ^ PER_LAYER)
    return {k: v for k, (v, _) in layers.items()}


def main() -> int:
    smoke("paper-default", trace=False)
    phi2 = smoke("phi2-scaling", trace=True)
    assert phi2["residue.invert.calls"] > 0 and phi2["poly.xgcd.calls"] > 0
    laurent = smoke("laurent-products", trace=True)
    residue = [k for k in laurent if k.startswith("residue.") and laurent[k]]
    assert not residue, residue
    assert laurent["poly.mul_kronecker.calls"] > 0
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
