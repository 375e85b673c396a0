"""One cold pass: a fresh interpreter runs a workload's instances in order.

Reads a task as JSON on standard input, imports qsupercheck from the task's
source directory, runs every instance through its public entry point and
times each call, renders the report, and writes one JSON object on standard
output.  ``ready`` is the CLOCK_MONOTONIC time just before the first check,
which the parent compares with the time it started this process.  Between
instances, at most every ``KERNEL_EVERY_S``, and once more after the last
instance and after the render, the pass also times a fixed reference
kernel.  Each sample and each instance carries its ``perf_counter`` start
time, so the parent can scale every instance by how fast the kernel ran
just before and just after it.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction


# How often, between instances, the pass times the reference kernel.
KERNEL_EVERY_S = 0.05


def _params(raw: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def _call(qs, entry, cid, params, mutation):
    if entry == "run_check":
        return qs.catalog.run_check(cid, params)
    if entry == "verify_theorem":
        return qs.verifier.verify_theorem(
            cid, params["d"], params["n"], params.get("r", 1), mutation=mutation)
    if entry == "verify_parametric":
        return qs.parametric.verify_parametric(
            cid, params["d"], params["r"], params["n"], mutation=mutation)
    raise ValueError(f"unknown entry point {entry!r}")


def reference_kernel():
    """Fixed work shaped like the engine's hot paths, independent of it.

    A schoolbook convolution over Fractions (ring arithmetic), a packed
    big-integer square with its byte conversion (Kronecker products) and a
    small-integer convolution (dispatch-heavy code).  Its time tracks how
    fast the machine runs this kind of code at the moment it is measured.
    """
    fracs = [Fraction(3 ** (i % 40 + 20), 2 ** (i % 37 + 15) + 1) for i in range(12)]
    res = [0] * (2 * len(fracs) - 1)
    for i, c in enumerate(fracs):
        for j, d in enumerate(fracs):
            res[i + j] += c * d
    packed = sum(7 ** (900 + 13 * i) << (4000 * i) for i in range(8))
    square = packed * packed
    square.to_bytes((square.bit_length() + 7) // 8, "little")
    small = [(i * 7919) % 65537 - 32768 for i in range(48)]
    acc = [0] * (2 * len(small) - 1)
    for i, c in enumerate(small):
        for j, d in enumerate(small):
            acc[i + j] += c * d
    return res, acc


def time_kernel(clock) -> float:
    """One timed kernel run in ms, with the cyclic collector held off so the
    program's heap cannot lengthen it."""
    gc.disable()
    try:
        start = clock()
        reference_kernel()
        return (clock() - start) * 1000
    finally:
        gc.enable()


def main() -> None:
    task = json.load(sys.stdin)
    sys.path.insert(0, task["src"])
    import qsupercheck as qs
    import qsupercheck.catalog
    import qsupercheck.parametric
    import qsupercheck.report
    import qsupercheck.verifier

    tracer = None
    if task["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    instances = [(e, cid, _params(p), m) for e, cid, p, m, _ in task["instances"]]
    ready = time.monotonic()
    outcomes, results = [], []
    clock = time.perf_counter
    kernel = []  # [start, ms] of each reference-kernel sample
    last_kernel = float("-inf")

    def sample_kernel():
        nonlocal last_kernel
        start = clock()
        kernel.append([start, time_kernel(clock)])
        last_kernel = clock()

    for index, (entry, cid, params, mutation) in enumerate(instances):
        if clock() - last_kernel >= KERNEL_EVERY_S:
            sample_kernel()
        if tracer is not None:
            tracer.begin_instance(index)
        start = clock()
        try:
            result = _call(qs, entry, cid, params, mutation)
        except Exception as exc:  # a raising call is a failed operation
            elapsed = clock() - start
            outcomes.append(["ERROR", f"{type(exc).__name__}: {exc}",
                             elapsed * 1000, start])
            continue
        elapsed = clock() - start
        outcomes.append([result.status.value, result.witness, elapsed * 1000,
                         start])
        results.append(result)
    sample_kernel()

    if tracer is not None:
        tracer.begin_instance(-1)
    plan = qs.report.SweepPlan([(cid, p) for _, cid, p, _ in instances],
                               task["seed"], qs.catalog.DEFAULT_TRIALS, False,
                               suite=task["suite"])
    report = qs.report.Report(plan, results)
    render_start = clock()
    body = report.render("json")
    render_ms = (clock() - render_start) * 1000
    sample_kernel()

    json.dump({
        "ready": ready,
        "outcomes": outcomes,
        "render": [render_ms, render_start],
        "kernel": kernel,
        "report_bytes": len(body),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": qs.__file__,
        "trace": tracer.to_dict() if tracer is not None else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
