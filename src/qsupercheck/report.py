"""Deterministic sweep reports in JSON and CSV.

Results are sorted by (check id, canonical parameter string) before
serialization, so re-running a sweep with the same seed and flags yields
a byte-identical body once the elapsed fields are set aside.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__
from .results import CheckResult, Status, canonical_params


_SUMMARY_KEYS = {Status.HOLDS: "holds", Status.FAILS: "fails",
                 Status.SKIPPED_PRECONDITION: "skipped", Status.ERROR: "errors"}


class SweepPlan:
    """The instances of a sweep and the settings its report header shows;
    ``fast_mode`` is always False, kept so report headers keep the key."""

    __slots__ = ("checks", "seed", "trials", "fast_mode", "suite")

    def __init__(self, checks: list[tuple[str, dict]], seed: int,
                 trials: int, fast_mode: bool = False,
                 suite: str | None = None):
        self.checks, self.seed, self.trials = checks, seed, trials
        self.fast_mode, self.suite = fast_mode, suite

    def instance_count(self) -> int:
        return len(self.checks)

    def to_dict(self) -> dict:
        plan = {
            "seed": self.seed,
            "trials": self.trials,
            "fast_mode": self.fast_mode,
            "instances": self.instance_count(),
        }
        if self.suite:
            plan["suite"] = self.suite
        else:
            plan["checks"] = [
                {"id": cid, "params": {k: list(v) if isinstance(v, tuple) else v
                                       for k, v in sorted(params.items())}}
                for cid, params in self.checks
            ]
        return plan


class Report:
    __slots__ = ("plan", "results", "total_elapsed_ms")

    def __init__(self, plan: SweepPlan, results: list[CheckResult]):
        self.plan, self.results = plan, results
        self.total_elapsed_ms = 0.0

    def sorted_results(self) -> list[CheckResult]:
        return sorted(self.results, key=CheckResult.sort_key)

    def summary(self) -> dict:
        """Counts per status; ``errors`` appears only when nonzero."""
        counts = {"holds": 0, "fails": 0, "skipped": 0}
        for r in self.results:
            key = _SUMMARY_KEYS[r.status]
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "plan": self.plan.to_dict(),
            "results": [r.to_dict() for r in self.sorted_results()],
            "summary": self.summary(),
            "total_elapsed_ms": round(self.total_elapsed_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "params", "status", "elapsed_ms"])
        for r in self.sorted_results():
            writer.writerow([r.check_id, canonical_params(r.params),
                             r.status.value, round(r.elapsed_ms, 3)])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")

    @property
    def has_failures(self) -> bool:
        return self.summary()["fails"] > 0

    @property
    def has_errors(self) -> bool:
        return "errors" in self.summary()
