"""Regenerate the pinned paper-default instance list.

    PYTHONPATH=src python3 perfbench/pin_suite.py > perfbench/paper_default_suite.json

The benchmark refuses to run paper-default when the program's
``paper_default_suite()`` no longer matches this pin, so that a trimmed
grid cannot read as a speed-up.  Regenerate it only for an intended change
of the grid, and say so where the change is recorded.
"""

import json
import sys

from qsupercheck.catalog import paper_default_suite

from workloads import PINNED_KM_SEED, suite_as_json

if __name__ == "__main__":
    instances = suite_as_json(paper_default_suite(PINNED_KM_SEED))
    head = {"regenerate": "PYTHONPATH=src python3 perfbench/pin_suite.py"
                          " > perfbench/paper_default_suite.json",
            "km_seed": PINNED_KM_SEED, "count": len(instances)}
    lines = [json.dumps(head)[:-1] + ', "instances": [']
    lines += [json.dumps(i) + "," for i in instances]
    lines[-1] = lines[-1][:-1]
    lines.append("]}")
    sys.stdout.write("\n".join(lines) + "\n")
