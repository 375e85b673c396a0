#!/bin/sh
# Runs one `qsupercheck sweep` from the repository root and fails unless
# its summary line, the last line it writes to standard error, is exactly
# the first argument.  A sweep exits 0 even when it skips every instance,
# so a precondition that starts skipping more shows only in that line.
#
# Usage: .github/expect-sweep.sh "holds=H fails=F skipped=S" ARGS...
want="$1"
shift
got="$(PYTHONPATH=src python -m qsupercheck sweep "$@" --format csv 2>&1 >/dev/null | tail -n 1)"
if [ "$got" != "$want" ]; then
  echo "sweep $*: got '$got', want '$want'"
  exit 1
fi
