#!/usr/bin/env bash
# Golden-file check: a figure-mode spec's --csv table must equal the
# committed CSV byte for byte.
#
#   check_golden.sh <bench_scenario> <spec.json> <golden.csv>
set -euo pipefail

if ! diff -u "$3" <("$1" --spec="$2" --csv); then
  echo "GOLDEN FAIL: $2 diverges from $3" >&2
  exit 1
fi
echo "GOLDEN OK: $2 == $3"
