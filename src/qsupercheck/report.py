"""Deterministic sweep reports in JSON and CSV.

Results are sorted by (check id, canonical parameter string) before
serialization, so re-running a sweep with the same seed and flags yields
a byte-identical body once the elapsed fields are set aside.  The JSON
body is ``json.dumps(report.to_dict(), indent=2, sort_keys=True)`` and a
newline, but CPython's C encoder runs only without ``indent``, so
``to_json`` lays out the report's fixed shape itself: keys in sorted
order, strings through ``encode_basestring_ascii`` and numbers through
``repr``, as the encoder writes them.  A value of any other kind goes
through ``json.dumps`` and is indented where it sits.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from operator import itemgetter

from . import __version__
from .results import CheckResult, Status, canonical_params


_SUMMARY_KEYS = {Status.HOLDS: "holds", Status.FAILS: "fails",
                 Status.SKIPPED_PRECONDITION: "skipped", Status.ERROR: "errors"}


def _value(value, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it on a
    line indented by ``pad``."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return _string(value)
    if kind is float and isfinite(value):
        return repr(value)
    if kind in (tuple, list) and value and all(type(v) is int for v in value):
        inner = ",\n" + pad + "  "
        return "[" + inner[1:] + inner.join(map(repr, value)) + "\n" + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _object(fields, pad: str) -> str:
    """A JSON object of (key, written value) fields, given in sorted key
    order, whose braces sit at the indentation ``pad``."""
    if not fields:
        return "{}"
    inner = "\n" + pad + "  "
    return "{" + ",".join([f"{inner}{_string(key)}: {value}"
                           for key, value in fields]) + "\n" + pad + "}"


def _array(items, pad: str) -> str:
    """A JSON array of written items whose brackets sit at ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _params(params: dict, pad: str) -> str:
    """A parameter dict whose braces sit at ``pad``."""
    inner = pad + "  "
    return _object([(key, _value(value, inner))
                    for key, value in sorted(params.items())], pad)


_STATUS = {status: _string(status.value) for status in Status}


def _result(r: CheckResult) -> str:
    """One entry of the report's results, as ``CheckResult.to_dict``."""
    pad = "      "
    note = "" if r.note is None else f',\n{pad}"note": {_value(r.note, pad)}'
    witness = ("" if r.witness is None
               else f',\n{pad}"witness": {_value(r.witness, pad)}')
    return (f'{{\n{pad}"elapsed_ms": {_value(round(r.elapsed_ms, 3), pad)},'
            f'\n{pad}"id": {_string(r.check_id)}{note},'
            f'\n{pad}"params": {_params(r.params, pad)},'
            f'\n{pad}"status": {_STATUS[r.status]}{witness}\n    }}')


class SweepPlan:
    """The instances of a sweep and the settings its report header shows;
    the header's ``fast_mode`` is always false, kept so reports keep the
    key.  ``fast_mode`` is taken only as False, the value
    ``perfbench/worker.py`` passes by position."""

    __slots__ = ("checks", "seed", "trials", "suite")

    def __init__(self, checks: list[tuple[str, dict]], seed: int,
                 trials: int, fast_mode: bool = False,
                 suite: str | None = None):
        if fast_mode:
            raise ValueError("sweeps have no fast mode")
        self.checks, self.seed, self.trials = checks, seed, trials
        self.suite = suite

    def instance_count(self) -> int:
        return len(self.checks)

    def to_dict(self) -> dict:
        plan = {
            "seed": self.seed,
            "trials": self.trials,
            "fast_mode": False,
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

    def _json(self) -> str:
        """``to_dict()`` as ``Report.to_json`` writes it, one level in."""
        pad, entry = "    ", "        "
        fields = []
        if not self.suite:
            fields.append(("checks", _array([
                _object([("id", _value(cid, entry)),
                         ("params", _params(params, entry))], "      ")
                for cid, params in self.checks], pad)))
        fields += [("fast_mode", "false"),
                   ("instances", _value(self.instance_count(), pad)),
                   ("seed", _value(self.seed, pad))]
        if self.suite:
            fields.append(("suite", _value(self.suite, pad)))
        fields.append(("trials", _value(self.trials, pad)))
        return _object(fields, "  ")


class Report:
    __slots__ = ("plan", "results", "total_elapsed_ms")

    def __init__(self, plan: SweepPlan, results: list[CheckResult]):
        self.plan, self.results = plan, results
        self.total_elapsed_ms = 0.0

    def _keyed(self) -> list[tuple[tuple[str, str], CheckResult]]:
        """((check id, canonical params), result) pairs in report order,
        each result's parameter string built once."""
        keyed = [((r.check_id, canonical_params(r.params)), r)
                 for r in self.results]
        keyed.sort(key=itemgetter(0))
        return keyed

    def sorted_results(self) -> list[CheckResult]:
        return [r for _, r in self._keyed()]

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
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)`` and a
        newline, byte for byte, written without building ``to_dict()``."""
        pad = "  "
        summary = sorted(self.summary().items())
        return _object([
            ("plan", self.plan._json()),
            ("results", _array([_result(r) for _, r in self._keyed()], pad)),
            ("summary", _object([(k, repr(v)) for k, v in summary], pad)),
            ("total_elapsed_ms", _value(round(self.total_elapsed_ms, 3), pad)),
            ("version", _value(__version__, pad)),
        ], "") + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "params", "status", "elapsed_ms"])
        for (check_id, params), r in self._keyed():
            writer.writerow([check_id, params, r.status.value,
                             round(r.elapsed_ms, 3)])
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
