"""Wrappers that give the traced pass its per-layer numbers.

Each traced function is replaced, in every qsupercheck module that binds
it, by a wrapper that counts calls and measures inclusive and self time.
Self time is the inclusive time minus the time spent in traced callees.
Hot arithmetic (polynomial, ring and Laurent operations) is only
aggregated; calls into the check layers also record a span (name, start,
end, parent span, instance) so a slow instance can be taken apart.
Spans stay in memory and go out with the pass's result.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# Metric name -> (module, attribute path, keeps spans).
TARGETS = {
    "poly.mul": ("poly", "Poly.__mul__", False),
    "poly.mul_kronecker": ("poly", "_mul_int_kronecker", False),
    "poly.mul_schoolbook": ("poly", "_mul_schoolbook", False),
    "poly.divrem": ("poly", "divrem", False),
    "poly.xgcd": ("poly", "xgcd", False),
    "residue.mul": ("residue", "RingElement.__mul__", False),
    "residue.invert": ("residue", "RingElement.invert", False),
    "residue.pow_q": ("residue", "ResidueRing.pow_q", False),
    "laurent.mul": ("laurent", "Laurent.__mul__", False),
    "ratfunc.new": ("laurent", "RatFunc.__init__", False),
    "qfuncs.one_minus_product": ("qfuncs", "one_minus_product", False),
    "qfuncs.poch_power_base": ("qfuncs", "poch_power_base", False),
    "qfuncs.q_binomial": ("qfuncs", "q_binomial", False),
    "cyclotomic": ("cyclotomic", "cyclotomic", True),
    "verifier.lhs_sum": ("verifier", "lhs_sum", True),
    "verifier.rhs_closed_form": ("verifier", "rhs_closed_form", True),
    "verifier.divisibility_expression": ("verifier", "divisibility_expression", True),
    "verify_theorem": ("verifier", "verify_theorem", True),
    "verify_divisibility": ("verifier", "verify_divisibility", True),
    "verify_parametric": ("parametric", "verify_parametric", True),
    "verify_proof_step": ("identities", "verify_proof_step", True),
    "verify_karlsson_minton": ("identities", "verify_karlsson_minton", True),
    "verify_qbinomial_vanishing": ("identities", "verify_qbinomial_vanishing", True),
    "verify_classical": ("padic", "verify_classical", True),
    "catalog.run_check": ("catalog", "run_check", True),
    "report.render": ("report", "Report.render", True),
}

# Counters beyond calls and time, each fed by one traced function, with units.
SIZE_COUNTERS = {
    "poly.max_degree": "degree",
    "poly.max_coeff_bits": "bit",
    "poly.fraction_mul.calls": "count",
    "qfuncs.one_minus_product.factors": "count",
}


class Tracer:
    """Aggregated call statistics and coarse spans of one traced pass."""

    def __init__(self):
        self.stats = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
                      for name in TARGETS}
        self.counters = dict.fromkeys(SIZE_COUNTERS, 0)
        self.spans = []  # [id, parent id, instance, name, start ms, end ms]
        self.instance = -1
        self._stack = [[0.0, -1]]  # [time in traced callees, span id]
        self._depth = dict.fromkeys(TARGETS, 0)
        self._next_span = 0
        self._origin = time.perf_counter()

    def install(self, package: str = "qsupercheck") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for name, (module, path, spans) in TARGETS.items():
            owner = sys.modules[f"{package}.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, attr)
                wrapper = self._wrap(name, original, spans)
                for alias, value in list(vars(cls).items()):
                    if value is original:  # __rmul__ = __mul__
                        setattr(cls, alias, wrapper)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, spans)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)

    def _wrap(self, name, fn, keep_spans):
        stat = self.stats[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if keep_spans:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                stack[-1][0] += elapsed
                stat["calls"] += 1
                stat["self_ms"] += (elapsed - frame[0]) * 1000
                if not depth[name]:  # recursion counts once inclusively
                    stat["ms"] += elapsed * 1000
                if keep_spans:
                    begin = (start - tracer._origin) * 1000
                    spans.append([span_id, stack[-1][1], tracer.instance,
                                  name, round(begin, 4),
                                  round(begin + elapsed * 1000, 4)])
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    def begin_instance(self, index: int) -> None:
        self.instance = index

    def to_dict(self) -> dict:
        spans = sorted(self.spans)  # by id, which is the order of entry
        return {"stats": self.stats, "counters": self.counters, "spans": spans}


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _observe_mul(counters, args, result):
    coeffs = getattr(result, "coeffs", ())
    if len(coeffs) - 1 > counters["poly.max_degree"]:
        counters["poly.max_degree"] = len(coeffs) - 1
    if coeffs:
        bits = max(map(_coeff_bits, coeffs))
        if bits > counters["poly.max_coeff_bits"]:
            counters["poly.max_coeff_bits"] = bits
        if any(type(c) is Fraction for c in coeffs):
            counters["poly.fraction_mul.calls"] += 1


def _observe_factors(counters, args, result):
    counters["qfuncs.one_minus_product.factors"] += len(args[0])


_OBSERVERS = {
    "poly.mul": _observe_mul,
    "qfuncs.one_minus_product": _observe_factors,
}
