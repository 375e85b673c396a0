"""Best-of-cold-passes benchmark for qsupercheck.

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 42 --trace 0

Runs the workload as cold passes, one after another: each pass is a fresh
interpreter (``perfbench/worker.py``) that imports qsupercheck from ``src/``
and runs every instance in a fixed order.  Passes continue while another
one fits in ``--seconds`` (at least three).  Every instance time is scaled
to a reference machine speed by a fixed kernel timed just before and just
after it, which removes the host's shifts in speed; each instance then
keeps the median of its scaled times across the passes.  The end-to-end
metrics are built from these medians.  With ``--trace 1`` one extra pass
runs with every layer wrapped (``perfbench/tracer.py``) and the per-layer
metrics are printed instead.  Every pass is checked against known answers,
and all passes of a run must agree.  The last line of standard output is
the result as JSON; the full result and the trace go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import SIZE_COUNTERS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
TRACE_MIN_PASSES = 2  # untraced passes beside the traced one
SETUP_PROBES = 10  # extra start-up-only processes for a steadier setup_s
RUN_LIMIT_S = 170  # a run must end within 180 s
# Reported times are at the speed where the worker's reference kernel takes
# this long.  On the 2-core reference machine (Python 3.11.7) its median is
# about 1.0 ms in quiet periods and 1.7 ms in busy ones.
KERNEL_REF_MS = 1.2
KERNEL_WINDOW = 2  # kernel samples used on each side of a timed call


def build_instances(workload: str, seed: int):
    """(instances, report suite name, km seed) for one workload and seed."""
    if workload == "paper-default":
        sys.path.insert(0, str(SRC))
        from qsupercheck.catalog import paper_default_suite
        instances, km_seed = workloads.paper_default(seed, paper_default_suite)
        return instances, "paper-default", km_seed
    if workload == "phi2-scaling":
        return workloads.phi2_scaling(seed), None, None
    return workloads.laurent_products(seed), None, None


def run_pass(task: dict, deadline: float) -> dict:
    """One worker process, timed from just before it is started."""
    payload = json.dumps(task)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=payload,
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: a pass did not end within the run's time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: a pass exited with code {proc.returncode}")
    out = json.loads(proc.stdout)
    if Path(out["module"]).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported qsupercheck from {out['module']},"
                         f" not from {SRC}")
    out["setup_s"] = out["ready"] - started
    # Start-up is scaled by the first kernel samples, taken just after it.
    first = statistics.median(k for _, k in out["kernel"][:KERNEL_WINDOW])
    out["scaled_setup_s"] = out["setup_s"] * KERNEL_REF_MS / first
    out["wall_s"] = time.monotonic() - started
    render_ms = out["render"][0]
    out["sweep_ms"] = sum(o[2] for o in out["outcomes"]) + render_ms
    out["scaled_ms"] = [scaled(out["kernel"], o[2], o[3])
                        for o in out["outcomes"]]
    out["scaled_render_ms"] = scaled(out["kernel"], *out["render"])
    out["scaled_sweep_ms"] = sum(out["scaled_ms"]) + out["scaled_render_ms"]
    return out


def scaled(kernel, ms: float, start: float) -> float:
    """A call's time at reference speed.

    ``kernel`` holds the pass's ``[start, ms]`` kernel samples in time
    order.  The call is scaled by the median of the ``KERNEL_WINDOW``
    samples taken just before it started and just after it ended, which
    follows the host's speed from one call to the next.
    """
    starts = [t for t, _ in kernel]
    before = bisect.bisect_right(starts, start)
    after = bisect.bisect_left(starts, start + ms / 1000)
    near = ([k for _, k in kernel[max(0, before - KERNEL_WINDOW):before]]
            + [k for _, k in kernel[after:after + KERNEL_WINDOW]])
    return ms * KERNEL_REF_MS / statistics.median(near)


def measure(instances, suite, seed, seconds, trace, min_passes=None,
            probes=SETUP_PROBES):
    """Run the passes; returns (untraced passes, traced pass or None, setups)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    task = {"src": str(SRC), "seed": seed, "suite": suite, "trace": False,
            "instances": instances}
    traced = None
    if trace:
        traced = run_pass(dict(task, trace=True), deadline)
    passes = []
    minimum = min_passes or (TRACE_MIN_PASSES if trace else MIN_PASSES)
    while True:
        passes.append(run_pass(task, deadline))
        typical = statistics.mean(p["wall_s"] for p in passes)
        if len(passes) >= minimum and time.monotonic() + typical > start + seconds:
            break
    probe = dict(task, instances=[])
    setups = [p["scaled_setup_s"] for p in passes]
    setups += [run_pass(probe, deadline)["scaled_setup_s"]
               for _ in range(probes)]
    return passes, traced, setups


def check(instances, runs):
    """(failed, correct): known answers per pass, and agreement across passes."""
    failed = 0
    for run in runs:
        for outcome, instance in zip(run["outcomes"], instances):
            if outcome[0] != instance[4]:
                failed += 1
    verdicts = [[o[:2] for o in run["outcomes"]] for run in runs]
    agree = all(v == verdicts[0] for v in verdicts)
    complete = all(len(run["outcomes"]) == len(instances) for run in runs)
    return failed, agree and complete


def median_times(passes):
    """Each instance's median time across the passes, in ms at reference
    speed.  Scaling leaves an error that goes either way, so the median
    is steadier than the best time."""
    return [statistics.median(times)
            for times in zip(*(p["scaled_ms"] for p in passes))]


def end_to_end(instance_ms, passes, setups):
    render_ms = statistics.median(p["scaled_render_ms"] for p in passes)
    return {
        "sweep_s": ((sum(instance_ms) + render_ms) / 1000, "s"),
        "instance_ms.p50": (statistics.median(instance_ms), "ms"),
        "slowest_instance_ms": (max(instance_ms), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(traced, passes):
    trace = traced["trace"]
    metrics = {}
    for name in TARGETS:
        stat = trace["stats"][name]
        metrics[f"{name}.calls"] = (stat["calls"], "count")
        metrics[f"{name}.ms"] = (stat["ms"], "ms")
        metrics[f"{name}.self_ms"] = (stat["self_ms"], "ms")
    for name, unit in SIZE_COUNTERS.items():
        metrics[name] = (trace["counters"][name], unit)
    untraced = statistics.median(p["scaled_sweep_ms"] for p in passes)
    metrics["trace.overhead"] = (traced["scaled_sweep_ms"] / untraced, "x")
    return metrics


def instance_label(instance) -> str:
    entry, cid, params, mutation, _ = instance
    text = cid + "(" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"
    return text + (f"[{mutation}]" if mutation else "")


def write_files(workload, seed, trace, instances, km_seed, instance_ms, passes,
                traced, setups, metrics):
    OUT.mkdir(exist_ok=True)
    families = defaultdict(float)
    for instance, ms in zip(instances, instance_ms):
        families[instance[1] + ("[mutant]" if instance[3] else "")] += ms
    result = {
        "workload": workload, "seed": seed, "km_seed": km_seed,
        "passes": [dict({k: p[k] for k in ("setup_s", "scaled_setup_s",
                                           "wall_s", "sweep_ms",
                                           "scaled_sweep_ms", "render",
                                           "peak_rss_kb", "kernel",
                                           "scaled_ms")},
                        instance_ms=[o[2] for o in p["outcomes"]])
                   for p in passes],
        "setup_s": setups,
        "family_ms": dict(sorted(families.items(), key=lambda kv: -kv[1])),
        "instance_ms": [[instance_label(i), ms]
                        for i, ms in zip(instances, instance_ms)],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    stem = f"{workload}-seed{seed}"
    with open(OUT / f"result-{stem}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if traced is not None:
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "instances": [instance_label(i) for i in instances],
                       "traced_sweep_ms": traced["sweep_ms"],
                       **traced["trace"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsupercheck" / "__init__.py").is_file():
        print(f"error: no qsupercheck sources under {SRC}", file=sys.stderr)
        return 2

    instances, suite, km_seed = build_instances(args.workload, args.seed)
    passes, traced, setups = measure(instances, suite, args.seed,
                                     args.seconds, bool(args.trace))
    runs = passes + ([traced] if traced else [])
    failed, correct = check(instances, runs)
    instance_ms = median_times(passes)
    metrics = (per_layer(traced, passes) if traced
               else end_to_end(instance_ms, passes, setups))
    write_files(args.workload, args.seed, args.trace, instances, km_seed,
                instance_ms, passes, traced, setups, metrics)
    print(f"{args.workload}: {len(passes)} passes of "
          + ", ".join(f"{p['sweep_ms'] / 1000:.3f}" for p in passes)
          + " s as measured, "
          + ", ".join(f"{p['scaled_sweep_ms'] / 1000:.3f}" for p in passes)
          + " s at reference speed; median of passes at reference speed"
          + f" {sum(instance_ms) / 1000:.3f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": len(instances) * len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
