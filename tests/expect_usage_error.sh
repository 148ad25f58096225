#!/usr/bin/env bash
# Usage-error check: runs a bench binary with the given arguments and passes
# only when it exits with code 2 and its stderr names the last argument.
#
#   expect_usage_error.sh <binary> <arg>... <bad-flag>
set -uo pipefail

bad=${!#}
err=$("$@" 2>&1 >/dev/null)
status=$?

if [[ ${status} -ne 2 ]]; then
  echo "FAIL: $* exited ${status}, expected 2 (usage error)" >&2
  exit 1
fi
if [[ "${err}" != *"${bad}"* ]]; then
  echo "FAIL: stderr does not name '${bad}': ${err}" >&2
  exit 1
fi
echo "OK: $* -> exit 2: ${err}"
