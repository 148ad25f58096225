#!/usr/bin/env bash
# Output check: runs a binary in an empty scratch directory and passes only
# when it exits 0, its stdout contains <needle>, and it leaves no file behind.
#
#   expect_stdout.sh <needle> <binary> <arg>...
set -uo pipefail

needle=$1
shift
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

out=$(cd "$workdir" && "$@")
status=$?
if [[ ${status} -ne 0 ]]; then
  echo "FAIL: $* exited ${status}, expected 0" >&2
  exit 1
fi
if [[ "${out}" != *"${needle}"* ]]; then
  echo "FAIL: stdout of $* does not contain '${needle}'" >&2
  exit 1
fi
if [[ -n "$(ls -A "$workdir")" ]]; then
  echo "FAIL: $* left files behind: $(ls -A "$workdir")" >&2
  exit 1
fi
echo "OK: $* printed '${needle}'"
