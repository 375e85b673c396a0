"""The benchmark's workloads: instance lists and their known answers.

An instance is ``(entry, check id, params, mutation, expected)``.  ``entry``
names the public entry point a pass calls: ``run_check`` for catalog
instances, ``verify_theorem`` or ``verify_parametric`` for mutant twins,
which must FAIL without raising.  Every other instance comes from a proven
statement and must HOLD.  Out-of-catalog instances are checked here against
the paper's admissibility conditions, written out independently of the
program's own preconditions, so a program that wrongly SKIPs one is caught.

The seed picks the km sampling seed on paper-default and the mutation kind
(sign or exponent) of each mutant twin; it does not change which
computations run, so every seed costs the same.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

HOLDS = "HOLDS"
FAILS = "FAILS"
MUTATIONS = ("sign", "exponent")
PINNED_SUITE = Path(__file__).with_name("paper_default_suite.json")
PINNED_KM_SEED = 42


def _odd(x):
    return x % 2 == 1


def _complement(d, n, bound):
    return (n + 1) % d == 0 and n >= bound


def _two_parameter(d, r, n):
    return r >= 1 and gcd(d, r) == 1 and (n + r) % d == 0 and n >= 2 * d - r


# The paper's conditions for each statement used outside the catalog grid.
ADMISSIBLE = {
    "eq13": lambda d, n: d >= 2 and n >= 2 and (n - 1) % d == 0,
    "thm11": lambda d, n: d >= 4 and not _odd(d) and _complement(d, n, 2 * d - 1),
    "thm12": lambda d, n: d >= 3 and _odd(d) and _complement(d, n, 2),
    "lemma21": lambda d, n, r: _two_parameter(d, r, n) and d >= r + 3,
    "thm41": lambda d, n, r: _two_parameter(d, r, n) and (
        d >= r + 3 or (r == 1 and d in (2, 3))),
    "thm13": lambda d, n: d >= 2 and _complement(d, n, 2 * d - 1),
    "sum_decomposition": lambda d, n: d >= 2 and n >= 1,
}

_PARAMETRIC_SHAPE = {
    "p1_24": lambda d, r: _odd(d + r) and d >= r + 3,
    "p2_25": lambda d, r: _odd(d) and _odd(r) and d >= r + 3,
    "p3_32": lambda d, r: _odd(d) and d > 3 and r == 1,
    "p4_33": lambda d, r: d == 3 and r == 1,
    "p5_43": lambda d, r: _odd(d + r) and d - r >= 3,
    "p6_44": lambda d, r: _odd(d + r) and d - r == 1,
    "p7_45": lambda d, r: _odd(d) and _odd(r) and d - r >= 4,
    "p8_46": lambda d, r: _odd(d) and _odd(r) and d - r == 2,
}
_SHIFTED_INDEX = ("p1_24", "p2_25")  # these also need n >= 2d - r


def _parametric(cid, shape):
    def admissible(d, n, r):
        least_n = 2 * d - r if cid in _SHIFTED_INDEX else 2
        return (d >= 2 and r >= 1 and gcd(d, r) == 1 and (n + r) % d == 0
                and shape(d, r) and n >= least_n)
    return admissible


ADMISSIBLE.update({cid: _parametric(cid, shape)
                   for cid, shape in _PARAMETRIC_SHAPE.items()})


def _holds(cid, **params):
    if not ADMISSIBLE[cid](**params):
        raise ValueError(f"{cid} {params} is outside the paper's conditions")
    return ["run_check", cid, params, None, HOLDS]


def _twin(entry, cid, rng, **params):
    """A mutant twin of an admissible instance: it must FAIL."""
    _holds(cid, **params)
    return [entry, cid, params, rng.choice(MUTATIONS), FAILS]


def load_pinned_suite():
    with open(PINNED_SUITE, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def suite_as_json(suite):
    """(check id, params) pairs in the JSON form the pin file stores."""
    return json.loads(json.dumps([[cid, params] for cid, params in suite]))


def paper_default(seed, suite_fn):
    """The program's 607-instance suite, refused if it differs from the pin.

    ``suite_fn`` is the program's ``paper_default_suite``.  Only the km seed
    may differ from the pinned list, and it is set from the benchmark seed.
    """
    pinned = load_pinned_suite()
    if suite_as_json(suite_fn(PINNED_KM_SEED)) != pinned:
        raise SystemExit(
            "paper_default_suite() differs from perfbench/paper_default_suite.json;"
            " regenerate the pin with perfbench/pin_suite.py only if the grid"
            " change is intended")
    km_seed = random.Random(seed).randrange(1 << 30)
    instances = []
    for cid, params in suite_as_json(suite_fn(km_seed)):
        instances.append(["run_check", cid, params, None, HOLDS])
    return instances, km_seed


def phi2_scaling(seed):
    """Congruences in Q[q]/(Phi_n^2) beyond the catalog grid.

    The ring has degree 2 phi(n), so prime n (5, 11, 13, 17) cost the most;
    thm12 at d = 3 stops at n = 20 because n = 23 alone takes several
    seconds and n = 29 about forty.
    """
    rng = random.Random(seed)
    out = [_holds("thm12", d=3, n=n) for n in (5, 8, 11, 14, 17, 20)]
    out += [
        _holds("eq13", d=3, n=13),
        _holds("eq13", d=5, n=11),
        _holds("thm11", d=4, n=15),
        _holds("thm11", d=8, n=15),
        _holds("thm41", d=4, n=11, r=1),
        _holds("lemma21", d=4, n=11, r=1),
        _holds("thm41", d=7, n=13, r=1),
        _holds("lemma21", d=7, n=13, r=1),
    ]
    out += [
        _twin("verify_theorem", "thm12", rng, d=3, n=11),
        _twin("verify_theorem", "eq13", rng, d=5, n=11),
        _twin("verify_theorem", "thm11", rng, d=4, n=15),
        _twin("verify_theorem", "thm41", rng, d=4, n=11, r=1),
    ]
    return out


def laurent_products(seed):
    """Exact Laurent and rational-function checks; no ring is inverted.

    Each parametric family runs at its largest catalog instance and at the
    next admissible n of a catalog d; sum_decomposition and thm13 run just
    past their catalog grids.
    """
    rng = random.Random(seed)
    pairs = {
        "p1_24": ((7, 2, 12), (5, 2, 13)),
        "p2_25": ((7, 3, 11), (5, 1, 14)),
        "p3_32": ((5, 1, 9), (5, 1, 14)),
        "p4_33": ((3, 1, 8), (3, 1, 11)),
        "p5_43": ((5, 2, 8), (5, 2, 13)),
        "p6_44": ((4, 3, 5), (4, 3, 9)),
        "p7_45": ((7, 3, 11), (5, 1, 14)),
        "p8_46": ((5, 3, 7), (5, 3, 12)),
    }
    out = [_holds(cid, d=d, n=n, r=r)
           for cid, grid in pairs.items() for d, r, n in grid]
    out += [_holds("sum_decomposition", d=d, n=n)
            for d, n in ((5, 14), (6, 12), (7, 10))]
    out += [_holds("thm13", d=d, n=n) for d, n in ((4, 15), (6, 11))]
    out += [
        _twin("verify_parametric", "p5_43", rng, d=5, n=13, r=2),
        _twin("verify_parametric", "p7_45", rng, d=5, n=14, r=1),
        _twin("verify_parametric", "p8_46", rng, d=5, n=12, r=3),
    ]
    return out


WORKLOADS = ("paper-default", "phi2-scaling", "laurent-products")
