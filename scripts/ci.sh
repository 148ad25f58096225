#!/usr/bin/env bash
# CI entry point: builds the Release and ASan+UBSan configurations and runs
# the full test suite under both. Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== test ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  # The chaos suite (fault injection over the paper workloads) runs again
  # explicitly by label so a regression in it is loud and attributable.
  # Every chaos test carries a 60 s wall-clock budget (TIMEOUT property).
  echo "=== chaos ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L chaos
  # The observability suite likewise re-runs by label: its byte-identical
  # replay contract must hold in the sanitizer configuration too (ASan
  # changes allocation patterns, which the obs layer must be immune to).
  echo "=== obs ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L obs
  # The partition-map / load-balancer suite re-runs by label for the same
  # reason, and the balancer benchmark's smoke run proves the binary drives
  # an actual rebalance end-to-end in this configuration.
  echo "=== partition ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L partition
  "${dir}/bench/bench_ext_partition_lb" --smoke
  # The open-loop load suite re-runs by label (arrival statistics, admission
  # window, session-pool lifecycle), and the saturation bench's smoke run
  # proves the binary produces a byte-identical sweep (--selfcheck runs the
  # populations twice and compares) in this configuration.
  echo "=== load ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L load
  "${dir}/bench/bench_ext_load" --smoke --selfcheck
  # The geo-replication suite re-runs by label (bounded-staleness shipping,
  # the region-failover drill, cross-stamp reconciliation), and the drill
  # benchmark's smoke run proves an end-to-end region-loss drill in this
  # configuration: byte-identical replay (--selfcheck) plus the built-in
  # RPO bound (staleness-at-failover <= the provisioned target).
  echo "=== geo ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L geo
  "${dir}/bench/bench_ext_geo" --smoke --selfcheck
  # The scenario suite re-runs by label (DSL diagnostics, generator KATs,
  # flag-parsing regressions, byte-identical driver replays), and the
  # generic driver's smoke run proves end-to-end replay determinism in this
  # configuration. The full-paper-scale fig-parity checks (label `parity`)
  # are excluded in the sanitizer lap — they re-run every legacy figure
  # under ASan for minutes without adding coverage the Release lap lacks.
  echo "=== scenario ${dir} ==="
  if [[ "${dir}" == *sanitize* ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -L scenario -LE parity
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L scenario
  fi
  "${dir}/bench/bench_scenario" --smoke --selfcheck
  # The driver suite re-runs by label: backend conformance (the same op
  # contract asserted against azure, s3, and tiered), the S3 throttling /
  # visibility-lag semantics, and the cross-backend scenario packs'
  # byte-identical --selfcheck replays. Coroutine-heavy code over three
  # driver implementations — exactly what the sanitizer lap exists for.
  echo "=== driver ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L driver
}

# A missing clang-tidy fails the run: a gate that silently skips would pass
# without checking anything. AZUREBENCH_ALLOW_NO_TIDY=1 waives it explicitly
# (for hosts without clang-tidy) and prints a banner saying so.
run_tidy() {
  local dir="$1"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    if [[ "${AZUREBENCH_ALLOW_NO_TIDY:-0}" == "1" ]]; then
      echo "################################################################"
      echo "### SKIPPED: clang-tidy static analysis and its bugprone-*   ###"
      echo "### hard gate did NOT run (clang-tidy not on PATH;           ###"
      echo "### waived by AZUREBENCH_ALLOW_NO_TIDY=1).                   ###"
      echo "################################################################"
      return 0
    fi
    echo "error: clang-tidy not found on PATH; the static-analysis gate" \
         "cannot run. Install clang-tidy, or set AZUREBENCH_ALLOW_NO_TIDY=1" \
         "to waive the gate explicitly." >&2
    return 1
  fi
  echo "=== clang-tidy (${dir}) ==="
  # Checks come from the checked-in .clang-tidy (bugprone-*, performance-*).
  # Headers are covered transitively via HeaderFilterRegex.
  local srcs
  srcs=$(find src tests bench examples -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -p "${dir}" -quiet -j "${JOBS}" ${srcs}
  else
    # shellcheck disable=SC2086
    clang-tidy -p "${dir}" --quiet ${srcs}
  fi
  # The obs layer, the load engine, and the geo-replication layer are the
  # newest subsystems and their hot paths are all pointer and lifetime
  # discipline (coroutines holding references across suspension points) —
  # hold them to a hard bugprone-* gate (warnings fail the build) rather
  # than the advisory repo-wide pass above.
  echo "=== clang-tidy hard gate: src/obs + src/framework + src/cluster" \
       "+ src/storage + queue service ==="
  # scenario.cpp carries the DSL parser (hand-rolled recursive descent over
  # raw pointers) and scenario_test.cpp is the TU that instantiates the
  # whole keygen + runner header stack — both join the hard gate. The
  # storage driver layer joins too: every method is a coroutine dispatching
  # across backend state, the precise lifetime territory the gate polices.
  # So does the queue service: its ops hold deque references and iterators
  # across suspension points and re-validate them after each one.
  clang-tidy -p "${dir}" --quiet --warnings-as-errors='bugprone-*' \
    src/obs/observer.cpp src/framework/load_engine.cpp \
    src/framework/scenario.cpp src/cluster/geo_replication.cpp \
    src/storage/driver.cpp src/storage/azure_driver.cpp \
    src/storage/s3_object_service.cpp src/storage/s3_driver.cpp \
    src/storage/tiered_driver.cpp \
    src/azure/queue/queue_service.cpp \
    tests/scenario_test.cpp
}

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
run_tidy build-ci-release
run_config build-ci-sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAZUREBENCH_SANITIZE=ON

echo "=== all configurations green ==="
