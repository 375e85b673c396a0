"""Engine mutants, each of which some named test must catch.

Each entry of ``MUTANTS`` is (file under ``src/qsupercheck``, the exact old
text, the new text, what the change breaks, the tests that must catch it).
The old text must occur exactly once in its file, so an entry whose code
has moved on is an error rather than a silent pass.

    python tests/mutants.py

copies ``src/`` to a temporary directory and first runs every named test
on the unmutated copy, which must pass.  Then, for each mutant in turn, it
writes the new text into the copy and runs pytest on that entry's tests
alone with the copy first on the path, stopping at the first failure.  It
exits nonzero if any mutant survives, if an old text does not match, or if
the tests fail on the unmutated copy.  It needs the standard library,
pytest and hypothesis, and is kept out of the tier-1 run for its time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "qsupercheck")

_DECOMPOSITION = "tests/test_identities.py::"
_PARAMETRIC = "tests/test_parametric.py::"
_QFUNCS = "tests/test_qfuncs.py::"
_SIGN_AND_SHIFT = (_PARAMETRIC
                   + "test_first_differing_term_tracks_sign_and_shift")
_BY_HAND = _QFUNCS + "test_termwise_degree_by_hand"
_ASYMMETRIC = _PARAMETRIC + "test_an_asymmetric_list_is_an_error"
_SHAPES = _PARAMETRIC + "test_a_cached_shape_builds_no_second_collapse_template"
_PACKED = _QFUNCS + "test_packed_bound_decides_exactness"
_INCREMENTS = _QFUNCS + "test_template_increments_by_hand"
_REPORT = "tests/test_report.py"

MUTANTS = [
    # The termwise decider and its two callers.
    ("qfuncs.py", "min(limit, degree + 1)", "min(limit, degree)",
     "D one less: a relation that first fails at term D + 1 is certified",
     [_SIGN_AND_SHIFT]),
    ("qfuncs.py", "set().union(*counts) - {0}", "set().union(*counts)",
     "1 - q^0 cancelled across runs: a term that both runs zero differs",
     [_SIGN_AND_SHIFT]),
    ("qfuncs.py", "low = min(count.get(e, 0) for count in counts)",
     "low = max(count.get(e, 0) for count in counts)",
     "the largest shared count divided out: factors go missing",
     [_SIGN_AND_SHIFT]),
    ("qfuncs.py", "            for y in b:\n"
     "                run[y + move] = run.get(y + move, 0) - 1\n"
     "            count = run.copy()\n",
     "            count = run.copy()\n            for y in b:\n"
     "                run[y + move] = run.get(y + move, 0) - 1\n",
     "b_k counted at term k + 1",
     [_QFUNCS + "test_first_failing_term_matches_the_counting_oracle"]),
    ("parametric.py", "    return _key(_sum_template(shifted, d, r, 0, 0,"
     " entries)) == _key(\n        _reference_template(shifted, d, r))",
     "    return True",
     "the collapse's equal-key answer taken without comparing keys",
     [_PARAMETRIC + "test_collapse_detects_a_wrong_exponent"]),
    # One substituted identity for both points, and the a = 1 shapes.
    ("parametric.py", "if sorted(items) != sorted(mirror):",
     "if sorted(items) != sorted(items):",
     "the symmetry check comparing a list with itself", [_ASYMMETRIC]),
    ("parametric.py", '            ("rhs_band", band, [-j for j in band]),\n',
     "", "rhs_band left unchecked", [_ASYMMETRIC]),
    ("parametric.py", "_same_shape(shifted, entries, d, r)",
     "_same_shape(shifted, entries, d, r + 1)",
     "the a = 1 shape asked at the wrong r", [_SHAPES]),
    ("parametric.py", "_same_shape(shifted, entries, d, r)",
     "_same_shape(False, entries, d, r)",
     "the a = 1 shape asked without the shifted index", [_SHAPES]),
    ("identities.py", "(1, 1, [d - 1])", "(-1, 1, [d - 1])",
     "a sign flipped in the decomposition's relation",
     [_DECOMPOSITION
      + "test_decomposition_certificate_matches_the_n_term_verdict"]),
    ("identities.py", '        return "three-sum decomposition differs"',
     "        return None",
     "a differing certificate term read as HOLDS",
     [_DECOMPOSITION + "test_decomposition_with_a_wrong_exponent_fails"]),
    # Templates and their keys.
    ("parametric.py",
     "tuple(tuple(sorted(exps)) for exps in (a0, b0, c0, a, b, c))",
     "tuple(tuple(sorted(exps)) for exps in (a, b, c))",
     "_key ignoring the head", [_PARAMETRIC
                                + "test_collapse_detects_a_wrong_exponent"]),
    ("parametric.py",
     "tuple(tuple(sorted(exps)) for exps in (a0, b0, c0, a, b, c))",
     "tuple(len(exps) for exps in (a0, b0, c0, a, b, c))",
     "_key on the lists' lengths only",
     [_PARAMETRIC + "test_template_mutants_match_the_counting_oracle"]),
    ("parametric.py", "[x + d * off for x, off in entries]",
     "[x for x, off in entries]", "intercepts without the index offset",
     [_PARAMETRIC + "test_templates_expand_to_the_written_out_lists"]),
    ("parametric.py", "[d] * d, [r] * r)", "[d] * d, [r + 1] * r)",
     "a wrong c intercept in the shifted-index reference",
     [_PARAMETRIC + "test_running_collapse_matches_the_quadratic_oracle"]),
    ("parametric.py", "_witness(d, r, n, mutation, check_id in _SHIFTED_INDEX,",
     "_witness(d, r, n, None, check_id in _SHIFTED_INDEX,",
     "shared verdicts decided without the mutation",
     [_PARAMETRIC + "test_shared_work_is_certified_once_per_process"]),
    ("qfuncs.py", "for shift in range(0, step * limit, step):",
     "for shift in range(step, step * limit + step, step):",
     "expand shifted one step", [_INCREMENTS]),
    ("qfuncs.py", "    _refuse_zero_denominator(template, step, limit)\n"
     "    (a0, b0, c0), a, b, c = template\n    increments = [",
     "    (a0, b0, c0), a, b, c = template\n    increments = [",
     "no refusal of a denominator 1 - q^0 in expand", [_INCREMENTS]),
    # Cancellation on the intercepts.
    ("qfuncs.py", "-y // step < limit", "-y // step <= limit",
     "the range refusal one term too wide", [_INCREMENTS]),
    ("qfuncs.py", "    limit = min([limit] + [-x // step for x in a"
     " if x <= 0 and x % step == 0])\n", "",
     "no natural end", [_INCREMENTS]),
    ("qfuncs.py", "[-x // step for x in a if x <= 0",
     "[-x // step + 1 for x in a if x <= 0",
     "the natural end one term late", [_INCREMENTS]),
    ("qfuncs.py", "c_k += paired[k - span:k]",
     "c_k += paired[k - span + 1:k + 1]", "the c window shifted",
     [_INCREMENTS]),
    ("qfuncs.py", "if k > limit - span:", "if k > limit - span + 1:",
     "a paired a intercept kept one term less", [_INCREMENTS]),
    ("qfuncs.py", "if k <= span:", "if k <= span + 1:",
     "a paired b intercept kept one term more", [_INCREMENTS]),
    # The degree D of a termwise relation.
    ("qfuncs.py", "for up, down in parts])",
     "for up, down in parts]) - 1", "D one less in termwise_degree",
     [_DECOMPOSITION + "test_decomposition_reads_degree_one_at_every_d"]),
    ("qfuncs.py", "degree = sum(lcm.values())", "degree = 0",
     "D without the least common multiple of the factors cleared below",
     [_DECOMPOSITION + "test_decomposition_reads_degree_one_at_every_d"]),
    ("qfuncs.py", "classes.setdefault(e % step, ([], []))",
     "classes.setdefault(0, ([], []))", "residue classes ignored",
     [_BY_HAND]),
    ("qfuncs.py", "    if 0 in head or any(e <= 0 and e % step == 0"
     " for e in a0 + c0):", "    if False:",
     "run 0's terms may vanish", [_BY_HAND]),
    ("qfuncs.py", "if 0 in fixed or any(e < 0 and e % step == 0"
     " for e in below):", "if any(e < 0 and e % step == 0 for e in below):",
     "a constant cleared below may be 1 - q^0", [_BY_HAND]),
    ("qfuncs.py", "if 0 in fixed or any(e < 0 and e % step == 0"
     " for e in below):", "if 0 in fixed:",
     "a factor cleared below may vanish at some k >= 1", [_BY_HAND]),
    ("qfuncs.py", "    for template in templates:\n"
     "        _refuse_zero_denominator(template, step, limit)\n", "",
     "no refusal of a denominator 1 - q^0 in termwise_degree", [_BY_HAND]),
    # The packed kernel and its bounds.
    ("qfuncs.py", "if self.bits + 2 > self.width:",
     "if self.bits + 1 > self.width:", "the exactness gate one bit loose",
     [_QFUNCS + "test_packed_decides_at_bits_plus_two_and_refuses_past_it"]),
    ("qfuncs.py", "    return (total - 1).bit_length() + grow",
     "    return (total - 1).bit_length() - 1 + grow",
     "sum_bounds one bit short",
     [_QFUNCS + "test_int_kernel_matches_the_packed_object_loop"]),
    ("qfuncs.py", "        return (value << (low - k) * width) + term, k",
     "        return (value << (low - k) * width) + term, low",
     "_plus_shifted keeping the wrong offset", [_PACKED]),
    ("qfuncs.py", "    bits = (bound - 1).bit_length()\n",
     "    bits = (bound - 1).bit_length() - 1\n",
     "relation_vanishes sized one bit short",
     [_QFUNCS + "test_packed_kernel_matches_dense_oracle"]),
    ("qfuncs.py", "            low += e\n", "            low -= e\n",
     "_times_one_minus moving the offset the wrong way", [_PACKED]),
    ("qfuncs.py", "return (2 * (span // n + 1)).bit_length()",
     "return (span // n + 1).bit_length()",
     "fold_bits without its factor 2", [_PACKED]),
    # The report layout.
    ("report.py", "keyed.sort(key=itemgetter(0))",
     "keyed.sort(key=lambda pair: pair[0][1])",
     "results sorted on their parameters alone", [_REPORT]),
    ("report.py", "if kind is float and isfinite(value):",
     "if kind is float:", "non-finite floats written by repr", [_REPORT]),
    ("report.py", 'inner = ",\\n" + pad + "  "', 'inner = ",\\n" + pad + " "',
     "an int list indented one space short", [_REPORT]),
    ("report.py", '        return "[]"', '        return "[ ]"',
     "an empty array written as [ ]", [_REPORT]),
]


def _pytest(src: Path, tests, cwd: str) -> int:
    """pytest's exit code on ``tests`` with ``src`` first on the path; the
    hypothesis database is written under ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(str(ROOT / test) for test in tests)],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = [(file, old) for file, old, *_ in MUTANTS
             if (ROOT / PACKAGE / file).read_text().count(old) != 1]
    for file, old in stale:
        print(f"STALE {file}: old text does not occur exactly once: {old!r}")
    if stale:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({test for *_, named in MUTANTS for test in named})
        if _pytest(src, tests, tmp):
            print("the named tests fail on the unmutated source")
            return 1
        survived = 0
        for file, old, new, what, named in MUTANTS:
            path = src / "qsupercheck" / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            code = _pytest(src, named, tmp)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            survived += code != 1
            print(f"{verdict:9} {file}: {what}")
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
