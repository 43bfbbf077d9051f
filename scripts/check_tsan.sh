#!/usr/bin/env bash
# ThreadSanitizer gate for the simulator's host parallelism.
#
# Each simulated machine runs on one host thread; src/exec fans
# independent runs out across worker threads (--jobs). This script builds
# the suites that exercise that layer under -DGLOCKS_SANITIZE=thread and
# runs them once:
#
#   exec_pool_test          parallel_for/emitter semantics
#   determinism_test.*      parallel sweeps byte-identical to serial, and
#                           the sweep-resume manifest from worker threads
#                           (one CTest entry per gtest case)
#   soak_test               whole machines running concurrently on
#                           worker threads (checkpoint churn)
#   ckpt_test               archive container and run-spec units
#   ckpt_equivalence_test   restore by replay and byte comparison (plain,
#                           G-line-faulted, and mesh-faulted machines)
#   mesh_fault_test         mesh link faults: ARQ under loss, dead-link
#                           detours, e2e watchdog escalation
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DGLOCKS_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target exec_pool_test determinism_test soak_test \
               ckpt_test ckpt_equivalence_test mesh_fault_test
# --timeout: whole-machine suites under TSan on a slow host can exceed
# ctest's default 1500 s budget.
ctest --test-dir "$BUILD_DIR" --output-on-failure --timeout 7200 \
      -R '^(exec_pool_test|determinism_test\..+|soak_test|ckpt_test|ckpt_equivalence_test|mesh_fault_test)$'
echo "TSan check passed."
