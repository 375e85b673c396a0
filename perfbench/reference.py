"""Reference figures quoted in perfbench/README.md, each measured once.

    python3 perfbench/reference.py

Prints, in order:
- thm12 at d = 3 for every admissible n up to 29, one cold process each;
- wall time of ``qsupercheck sweep --suite paper-default`` in exact mode,
  with ``--fast-mode``, and with ``--jobs 2``;
- the best time of each check family, as the median over the untraced
  paper-default results saved in ``perfbench/out/``.
These are single measurements for orientation, not benchmark metrics; the
n = 29 point alone takes about forty seconds.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

THM12 = ("import sys, time; from qsupercheck import run_check;"
         " t = time.perf_counter();"
         " r = run_check('thm12', {'d': 3, 'n': int(sys.argv[1])});"
         " print(r.status.value, (time.perf_counter() - t) * 1000)")


def wall(args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qsupercheck", *args], env=ENV,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def main() -> None:
    print("thm12, d = 3:")
    for n in range(5, 30, 3):
        out = subprocess.run([sys.executable, "-c", THM12, str(n)], env=ENV,
                             capture_output=True, text=True, check=True)
        status, ms = out.stdout.split()
        print(f"  n = {n:2d}  {status}  {float(ms):9.1f} ms")
    sweep = ["sweep", "--suite", "paper-default", "--out", os.devnull]
    print(f"paper-default exact, --jobs 1: {wall(sweep):6.2f} s")
    print(f"paper-default --fast-mode:     {wall(sweep + ['--fast-mode']):6.2f} s")
    print(f"paper-default --jobs 2:        {wall(sweep + ['--jobs', '2']):6.2f} s")
    families = defaultdict(list)
    for path in sorted((HERE / "out").glob("result-paper-default-*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            for family, ms in json.load(fh)["family_best_ms"].items():
                families[family].append(ms)
    if families:
        runs = max(map(len, families.values()))
        print(f"paper-default family best times, median of {runs} runs (ms):")
        medians = {f: statistics.median(v) for f, v in families.items()}
        for family, ms in sorted(medians.items(), key=lambda kv: -kv[1]):
            print(f"  {family:26s} {ms:9.1f}")


if __name__ == "__main__":
    main()
