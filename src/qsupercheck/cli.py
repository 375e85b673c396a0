"""Command-line front end: single checks, grid sweeps, catalog listing.

Exit codes: 0 for a clean run (HOLDS or SKIPPED only), 1 when any check
FAILS, 2 for usage errors, 3 when the report cannot be written, 4 when any
check ends in ERROR (the engine raised), which takes precedence over 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from .catalog import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    REGISTRY,
    SUITES,
    km_instances,
    run_check,
)
from .report import Report, SweepPlan, result_json
from .results import Status

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_WRITE = 3
EXIT_ERROR = 4

_INT_FLAGS = ("d", "r", "n", "j", "k", "p", "m")
_CHECK_FLAGS = _INT_FLAGS + ("n_list", "expect")


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsupercheck",
        description="Exact verification of q-supercongruences, summation "
                    "formulas, and their proof-step identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a single check")
    _add_check_flags(verify)
    verify.add_argument("--check", required=True, help="check id (see list)")

    sweep = sub.add_parser("sweep", help="run a grid of checks")
    _add_check_flags(sweep)
    sweep.add_argument("--check", help="check id for an inline grid")
    sweep.add_argument("--suite", choices=sorted(SUITES),
                       help="built-in instance grid")
    sweep.add_argument("--plan", help="JSON plan file")
    sweep.add_argument("--out", help="report path (default: stdout)")
    sweep.add_argument("--format", choices=("json", "csv"), default="json")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per CPU (default 1)")
    sweep.add_argument("--m-max", type=int, help="Karlsson-Minton: max m")
    sweep.add_argument("--nj-max", type=int,
                       help="Karlsson-Minton: max offset n_j")

    sub.add_parser("list", help="print the check catalog")
    return parser


def _add_check_flags(cmd: argparse.ArgumentParser) -> None:
    for flag in _INT_FLAGS:
        cmd.add_argument(f"--{flag}", type=str)
    cmd.add_argument("--n-list", type=str,
                     help="comma-separated offsets for the km check")
    cmd.add_argument("--expect", choices=("zero", "nonzero"))
    cmd.add_argument("--seed", type=int,
                     help=f"km sampling seed (default {DEFAULT_SEED})")
    cmd.add_argument("--trials", type=int,
                     help=f"km sampling trials (default {DEFAULT_TRIALS})")


def _seed_trials(args) -> tuple[int, int]:
    """--seed and --trials, each its default when not given."""
    return (DEFAULT_SEED if args.seed is None else args.seed,
            DEFAULT_TRIALS if args.trials is None else args.trials)


def _parse_int_values(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"--{flag} expects integers, got {text!r}")


def _check_values(params: dict, label) -> dict:
    """Plan ``params`` if each value is what its flag's parser reads: zero or
    nonzero for expect, a list of ints for n_list, an int for d, r, n, j, k,
    p, m, seed and trials; else a usage error that names the parameter."""
    for name, value in params.items():
        if name == "expect":
            ok, wanted = value in ("zero", "nonzero"), "zero or nonzero"
        else:  # by type, as JSON's true and false are no ints
            items = value if name == "n_list" else (value,)
            ok = type(items) is tuple and all(type(v) is int for v in items)
            wanted = "a list of integers" if name == "n_list" else "an integer"
        if not ok:
            raise UsageError(f"{label(name)} expects {wanted}, got {value!r}")
    return params


def _check_names(check_id: str, names, label) -> None:
    """Usage error unless the check is known, each name is one of its
    parameters, and every parameter but its registry row's optional ones
    is named; ``label`` renders a name for the message."""
    spec = REGISTRY.get(check_id)
    if spec is None:
        raise UsageError(f"unknown check id {check_id!r}")
    for name in names:
        if name not in spec.param_names:
            raise UsageError(f"{label(name)} does not apply to {check_id}")
    missing = [label(name) for name in spec.param_names
               if name not in names and name not in spec.optional.split()]
    if missing:
        raise UsageError(f"{check_id} needs " + ", ".join(missing))


def _collect_params(args, check_id: str, grid: bool):
    """One params dict per point of the flags' grid; --seed and --trials
    are km parameters, so on any other check they are usage errors."""
    _check_names(check_id, [flag for flag in _CHECK_FLAGS + ("seed", "trials")
                            if getattr(args, flag) is not None],
                 lambda name: f"--{name.replace('_', '-')}")
    ranges = {flag: _parse_int_values(getattr(args, flag), flag)
              for flag in _INT_FLAGS if getattr(args, flag) is not None}
    for flag, values in ranges.items():
        if len(values) > 1 and not grid:
            raise UsageError(f"--{flag} takes one value under verify")
    fixed: dict[str, object] = {}
    if args.n_list is not None:
        fixed["n_list"] = tuple(_parse_int_values(args.n_list, "n-list"))
    if args.expect is not None:
        fixed["expect"] = args.expect
    if check_id == "km":
        seed, trials = _seed_trials(args)
        fixed.update(trials=trials, seed=seed, m=len(fixed["n_list"]))
    return [dict(fixed, **dict(zip(ranges, point)))
            for point in itertools.product(*ranges.values())]


def _refuse_flags(args, names, beside: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise UsageError(
                f"--{name.replace('_', '-')} does not combine with {beside}")


def _km_grid_flags(args) -> bool:
    """Whether the sweep asks for the km grid of --m-max and --nj-max; a
    usage error wherever those flags, or flags beside them, would be
    dropped."""
    given = [f"--{flag.replace('_', '-')}" for flag in ("m_max", "nj_max")
             if getattr(args, flag) is not None]
    if not given:
        return False
    if args.check != "km":
        raise UsageError(f"{given[0]} applies only to sweep --check km")
    if args.m_max is None:
        raise UsageError("--nj-max needs --m-max")
    if args.m_max < 1:
        raise UsageError(f"--m-max must be at least 1, got {args.m_max}")
    if args.nj_max is not None and args.nj_max < 0:
        raise UsageError(f"--nj-max must be at least 0, got {args.nj_max}")
    _refuse_flags(args, _CHECK_FLAGS, "--m-max")
    return True


def _plan_from_args(args) -> SweepPlan:
    """The instances of --plan, --suite or --check, whichever is given; a
    usage error wherever a flag beside them would be dropped."""
    beside_source = ("check", "m_max", "nj_max") + _CHECK_FLAGS
    seed, trials = _seed_trials(args)
    if args.plan is not None:
        _refuse_flags(args, ("suite",) + beside_source, "--plan")
        try:
            with open(args.plan, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"unreadable plan {args.plan}: {exc}")
        entries = raw.get("checks") if isinstance(raw, dict) else None
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("params"), dict)
                for e in entries):
            raise UsageError(f"plan {args.plan} must be an object whose "
                             "checks list has an object params in each entry")
        for key in ("seed", "trials"):
            if key in raw and getattr(args, key) is not None:
                raise UsageError(f"--{key} does not combine with a plan that"
                                 f" sets {key}")
        _check_values({key: raw[key] for key in ("seed", "trials")
                       if key in raw}, lambda name: f"plan {name!r}")
        label = lambda name: f"plan parameter {name!r}"
        checks = []
        for entry in entries:
            cid = entry.get("id")
            params = {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in entry["params"].items()
            }
            _check_names(cid, params, label)
            checks.append((cid, _check_values(params, label)))
        return SweepPlan(checks, raw.get("seed", seed),
                         raw.get("trials", trials))
    if args.suite is not None:
        _refuse_flags(args, beside_source, "--suite")
        checks = SUITES[args.suite](seed, trials)
        return SweepPlan(checks, seed, trials, suite=args.suite)
    if not args.check:
        raise UsageError("sweep needs --suite, --plan, or --check")
    if _km_grid_flags(args):
        checks = km_instances(seed, trials, args.m_max, args.nj_max or 0)
        return SweepPlan(checks, seed, trials)
    instances = _collect_params(args, args.check, grid=True)
    return SweepPlan([(args.check, inst) for inst in instances], seed, trials)


def _run_instance(task):
    return run_check(*task)


def _execute_plan(plan: SweepPlan, jobs: int) -> Report:
    """Run the plan's checks; a km entry without its own seed or trials
    takes the plan's."""
    start = time.perf_counter()
    km = {"seed": plan.seed, "trials": plan.trials}
    tasks = [(cid, dict(km, **params) if cid == "km" else params)
             for cid, params in plan.checks]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:  # the pool's modules load only when a sweep asks for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_instance, tasks, chunksize=4))
    else:
        results = [_run_instance(task) for task in tasks]
    report = Report(plan, results)
    report.total_elapsed_ms = (time.perf_counter() - start) * 1000
    return report


def _cmd_verify(args) -> int:
    instances = _collect_params(args, args.check, grid=False)
    result = run_check(args.check, instances[0])
    print(result_json(result))
    if result.status is Status.ERROR:
        return EXIT_ERROR
    return EXIT_FAILS if result.status is Status.FAILS else EXIT_OK


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    plan = _plan_from_args(args)
    print(f"running {len(plan.checks)} check instances", file=sys.stderr)
    report = _execute_plan(plan, args.jobs)
    body = report.render(args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_WRITE
    else:
        sys.stdout.write(body)
    summary = report.summary()
    print(" ".join(f"{k}={v}" for k, v in summary.items()), file=sys.stderr)
    if "errors" in summary:
        return EXIT_ERROR
    return EXIT_FAILS if summary["fails"] else EXIT_OK


def _cmd_list() -> int:
    width = max(len(cid) for cid in REGISTRY)
    for cid in sorted(REGISTRY):
        spec = REGISTRY[cid]
        params = ", ".join(spec.param_names)
        print(f"{cid:<{width}}  ({params})")
        print(f"{'':<{width}}  {spec.description}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_list()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
