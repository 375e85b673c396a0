"""Outcome records shared by every check in the catalog."""

from __future__ import annotations

import enum


class RefusalError(ArithmeticError):
    """The mathematics refuses an instance: a non-unit, a vanishing
    denominator, a non-integral exponent.  ``catalog.run_check`` reads this
    class, and no other exception, as FAILS."""


class Status(enum.Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    SKIPPED_PRECONDITION = "SKIPPED_PRECONDITION"
    ERROR = "ERROR"  # the engine raised; says nothing about the mathematics


class CheckResult:
    """One verification outcome.

    ``witness`` is mandatory for FAILS (the difference polynomial or the
    offending value) and for ERROR (the exception text); ``note`` flags
    boundary cases accepted outside the documented parameter range.
    """

    __slots__ = ("check_id", "params", "status", "witness", "note",
                 "elapsed_ms")

    def __init__(self, check_id: str, params: dict, status: Status,
                 witness: str | None = None, note: str | None = None,
                 elapsed_ms: float = 0.0):
        if status in (Status.FAILS, Status.ERROR) and witness is None:
            raise ValueError(f"{status.value} results must carry a witness")
        self.check_id, self.params, self.status = check_id, params, status
        self.witness, self.note, self.elapsed_ms = witness, note, elapsed_ms

    def __repr__(self) -> str:
        return (f"CheckResult({self.check_id!r}, {self.params!r},"
                f" {self.status}, witness={self.witness!r},"
                f" note={self.note!r})")


def canonical_params(params: dict) -> str:
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return ";".join(parts)


def skipped(check_id: str, params: dict, reason: str) -> CheckResult:
    return CheckResult(check_id, params, Status.SKIPPED_PRECONDITION, note=reason)


def holds(check_id: str, params: dict, note: str | None = None) -> CheckResult:
    return CheckResult(check_id, params, Status.HOLDS, note=note)


def fails(check_id: str, params: dict, witness: str) -> CheckResult:
    return CheckResult(check_id, params, Status.FAILS, witness=witness)


def errored(check_id: str, params: dict, witness: str) -> CheckResult:
    return CheckResult(check_id, params, Status.ERROR, witness=witness)
