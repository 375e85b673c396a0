"""Engine mutants, each of which some named test must catch.

Each entry of ``MUTANTS`` is (file under ``src/qsupercheck``, the exact old
text, the new text, what the change breaks, the tests that must catch it).
A change made at more than one place gives a tuple of old texts and one
of new ones, replaced pairwise.  Each old text must occur exactly once in its
file, so an entry whose code has moved on is an error rather than a silent
pass.

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
_PREMISES = (_PARAMETRIC
             + "test_a_failed_premise_is_an_error_never_a_verdict")
_AGREEMENT = (_PARAMETRIC
              + "test_gasper_agrees_with_the_packed_oracle_on_the_wide_rows")
_REPORT = "tests/test_report.py"
_NET_COUNT = (_PARAMETRIC
              + "test_sides_are_compared_on_one_net_count_by_hand")
_FOLD = _QFUNCS + "test_fold_step_matches_the_old_step_and_division"
_VERIFIER = "tests/test_verifier.py::"
_DISPLAYS = _VERIFIER + "test_every_summand_is_the_papers_display"

MUTANTS = [
    # The termwise decider and its two callers.
    ("qfuncs.py", "min(limit, degree + 1)", "min(limit, degree)",
     "D one less: a relation that first fails at term D + 1 is certified",
     [_SIGN_AND_SHIFT]),
    ("qfuncs.py", "if e and m < low.get(e, 0):", "if m < low.get(e, 0):",
     "1 - q^0 divided out across runs: a run without it is zeroed",
     [_BY_HAND]),
    ("qfuncs.py", "if e and m < low.get(e, 0):", "if e and m > low.get(e, 0):",
     "the largest count over run 0's divided out: factors go missing",
     [_SIGN_AND_SHIFT]),
    ("qfuncs.py", "            for e in shrink:\n"
     "                run[e + move] = run.get(e + move, 0) - 1\n"
     "            count = run.copy()\n",
     "            count = run.copy()\n            for e in shrink:\n"
     "                run[e + move] = run.get(e + move, 0) - 1\n",
     "the factors run 0 has more of counted a term late",
     [_DECOMPOSITION
      + "test_decomposition_certificate_matches_the_n_term_verdict"]),
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
    ("identities.py", 'if expect not in (None, "zero", "nonzero"):',
     "if False:",
     "an unknown expectation checks nothing and reads as HOLDS",
     [_DECOMPOSITION + "test_qbinom_unknown_expect_is_an_error"]),
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
    ("parametric.py",
     ("    return total, _collapse_at_one(shifted, d, r, n, entries)",
      "    total, collapse = _left_side(d, r, n, shifted, entries, band)\n",
      "    closed = (mutated(None, mutation) if shifted\n"),
     ("    return total, _collapse_at_one(shifted, d, r, n, entries), {}",
      "    total, collapse, kept = _left_side(d, r, n, shifted, entries,"
      " band)\n",
      "    closed = kept.setdefault(\"closed\", mutated(None, mutation)"
      " if shifted\n"),
     "the closed form kept with the shared sum, without the mutation in the"
     " key: a twin reads its sibling's",
     [_PARAMETRIC
      + "test_a_twin_after_its_sibling_builds_only_its_closed_form"]),
    ("qfuncs.py", "for shift in range(0, step * limit, step):",
     "for shift in range(step, step * limit + step, step):",
     "expand shifted one step", [_INCREMENTS]),
    ("qfuncs.py", "    _refuse_zero_denominator(template, step, limit)\n"
     "    (a0, b0, c0), a, b, c = template\n    increments = [",
     "    (a0, b0, c0), a, b, c = template\n    increments = [",
     "no refusal of a denominator 1 - q^0 in expand", [_INCREMENTS]),
    # The range refusal that expand and the pairing share.
    ("qfuncs.py", "-y // step < limit", "-y // step <= limit",
     "the range refusal one term too wide", [_INCREMENTS]),
    # Gasper's argument on the a = q^n template.
    ("parametric.py", "if kept_b != [d] or len(kept_a) != 1",
     "if len(kept_a) != 1", "the kept-b premise dropped", [_PREMISES]),
    ("parametric.py", "if limit < top:", "if limit < 0:",
     "limit < N unchecked", [_PREMISES]),
    ("parametric.py", "if len(lead) < top:", "if len(lead) < top - 1:",
     "M < N decided as M = N", [_AGREEMENT]),
    ("parametric.py", "(-1) ** top, sum(lead)", "1, sum(lead)",
     "the sign (-1)^M dropped", [_AGREEMENT]),
    ("parametric.py", "d * t for t in range(1, top + 1)",
     "d * t for t in range(1, top)", "(q^d; q^d)_N one factor short",
     [_AGREEMENT]),
    ("parametric.py", "lead = fixed + [e - d for e in c]",
     "lead = fixed + list(c)", "P's c factors without their -d shift",
     [_PARAMETRIC + "test_gasper_sum_matches_the_dense_sum"]),
    ("parametric.py", "if sorted(c0) != sorted(e - d for e in c):",
     "if sorted(c0) != sorted(c):", "c_0 compared with c unshifted",
     [_AGREEMENT]),
    # One comparison of sorted lists decides whether two quotients differ.
    ("qfuncs.py", "return zero[0] != zero[1]", "return False",
     "a zero side read as equal to any other", [_NET_COUNT]),
    ("qfuncs.py", "s1 * s2 * (-1) ** len(negative) != 1",
     "s1 * (-1) ** len(negative) != 1", "the rhs's sign dropped",
     [_NET_COUNT]),
    ("qfuncs.py", "up, down = n1 + d2, d1 + n2", "up, down = n1 + n2, d1 + d2",
     "the rhs's factors counted on the lhs's side", [_NET_COUNT]),
    ("qfuncs.py", "h1 - h2 + (sum(up) - sum(down)) // 2 != 0", "h1 - h2 != 0",
     "the shift of the negative exponents dropped", [_NET_COUNT]),
    ("qfuncs.py", "s1 * s2 * (-1) ** len(negative) != 1", "s1 * s2 != 1",
     "|e| compared without the parity of the negative exponents",
     [_NET_COUNT]),
    ("qfuncs.py", "    for side in (lhs, rhs):\n", "    for side in (rhs,):\n",
     "no refusal of a denominator 1 - q^0 in the lhs", [_NET_COUNT]),
    ("qfuncs.py", "            y = ys.pop()\n", "            y = ys.pop(0)\n",
     "an a intercept paired with the smallest open b",
     [_PARAMETRIC + "test_gasper_sum_matches_the_dense_sum"]),
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
    # One fold of the running value per factor, and per sum.
    ("qfuncs.py", "                value = (value & mask) + (high << digits + 1)"
     " - high\n", "                value = (value & mask) + (high << digits"
     " + 1) + high\n", "the fold by X^2 = 2X + 1", [_FOLD]),
    ("qfuncs.py", "            if j:  # X^j = 1 + j (X - 1)\n"
     "                term += j * ((term << digits) - term)\n", "",
     "a factor's j term dropped", [_FOLD]),
    ("qfuncs.py", "while high := value >> 2 * digits:  # X^2 = 2X - 1",
     "if high := value >> 2 * digits:  # X^2 = 2X - 1",
     "one fold pass per factor", [_FOLD]),
    ("qfuncs.py", "(1 << 2 * fold * width) - 1",
     "(1 << 2 * fold * width - 1) - 1", "the fold's mask one bit short",
     [_FOLD]),
    ("qfuncs.py", "value += term + j * ((term << digits) - term)",
     "value += term", "a sum's j term dropped", [_FOLD]),
    ("qfuncs.py", "value += (high << digits + 1) - high - (high << 2 * digits)",
     "value += (high << digits + 1) + high - (high << 2 * digits)",
     "a sum's fold by X^2 = 2X + 1", [_FOLD]),
    # The (statement, r) table and the summands it reads.
    ("families.py", '"eq14": ("thm41", 1)', '"eq14": ("thm42", 1)',
     "eq14 read as thm42", [_DISPLAYS]),
    ("families.py", '"thm12": ("thm42", 1)', '"thm12": ("thm42", 2)',
     "a one-parameter id read at r = 2",
     [_VERIFIER + "test_verify_theorem_examples", _DISPLAYS]),
    ("verifier.py", 'DIVISIBILITY_SUMMAND = ("lemma21", 1)',
     'DIVISIBILITY_SUMMAND = ("thm41", 1)', "thm13's summand read as thm41's",
     [_DISPLAYS, _VERIFIER
      + "test_divisibility_expression_matches_q_integer_oracle"]),
    ("families.py", "[r] * (r - 1)", "[r] * r",
     "one power too many of thm41's (q^r; q^d)_k", [_DISPLAYS]),
    # The theorem congruences' left sides, kept per (statement, d, r, n).
    ("verifier.py", ("_left_side(name, d, at, n)",
                     "    return ring, lhs_sum(statement, d, r, n, ring)"),
     ("_left_side(check_id, d, r, n)",
      "    name, at = at_r(THEOREMS[statement], r)\n"
      "    return ring, lhs_sum(name, d, at, n, ring)"),
     "the left side kept per check id, not per (statement, r): an alias"
     " sums again", [_VERIFIER + "test_each_left_side_is_summed_once_per"
                     "_statement_d_r_n"]),
    ("verifier.py", ("    return ring, lhs_sum(statement, d, r, n, ring)",
                     "        ring, (lhs_num, lhs_den) = _left_side(name, d,"
                     " at, n)\n        rhs_num, rhs_den = rhs_closed_form("
                     "name, d, at, n, ring, mutation)\n"),
     ("    return ring, lhs_sum(statement, d, r, n, ring), {}",
      "        ring, (lhs_num, lhs_den), kept = _left_side(name, d, at, n)\n"
      "        rhs_num, rhs_den = kept.setdefault(\"rhs\", rhs_closed_form("
      "name, d, at, n, ring, mutation))\n"),
     "the right side kept with the left, without the mutation in the key:"
     " a twin reads its sibling's verdict",
     [_VERIFIER + "test_a_kept_left_side_decides_as_a_fresh_one"]),
    # Only the mathematics' refusals read FAILS.
    ("catalog.py", "except RefusalError as exc:",
     "except ArithmeticError as exc:",
     "every arithmetic error read as FAILS: a stray 1 // 0 is a"
     " counterexample", ["tests/test_sweep_totality.py::"
                         "test_a_stray_arithmetic_error_is_an_engine_fault"]),
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
    ("report.py", "{witness}\\n{pad}}}')", "{witness}\\n{inner}}}')",
     "a result's closing brace at its fields' indentation",
     ["tests/test_cli.py::test_verify_prints_the_result_oracle_byte_for_byte"]),
]


def edits(old, new):
    """A mutant's (old, new) text pairs: one, or a tuple of each."""
    if isinstance(old, tuple):
        return zip(old, new, strict=True)
    return [(old, new)]


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
    stale = [(file, text) for file, old, new, *_ in MUTANTS
             for text, _ in edits(old, new)
             if (ROOT / PACKAGE / file).read_text().count(text) != 1]
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
            original = mutant = path.read_text()
            for text, replacement in edits(old, new):
                mutant = mutant.replace(text, replacement)
            path.write_text(mutant)
            code = _pytest(src, named, tmp)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            survived += code != 1
            print(f"{verdict:9} {file}: {what}")
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
