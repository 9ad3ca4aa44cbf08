#!/usr/bin/env bash
# Differential query-correctness gate. Two phases:
#
#  1. Sweep: builds the suite under ASan+UBSan and runs the seeded
#     generator sweep — every query executed across the executor tier
#     matrix (the bytecode expression VM @1 thread and @default width, on
#     the decode path and on the compressed scan tier at a tiny block
#     size) and by the row-at-a-time reference oracle, diffed for bit
#     identity, plus the AQP error-bound audit. Any divergence is shrunk
#     and printed with its replay seed. The decode legs scan tables that
#     carry no block index; the compressed legs attach 8-row-block
#     indexes first.
#  2. Mutation smoke: rebuilds with -DLAWS_TESTING_INJECT_BUG=ON (a
#     guarded off-by-one in the hash-aggregate sweep, a dropped last
#     lane in the bytecode f64 adder, a one-ulp shrink of every
#     zone-map max, AND a corrupted merge of harvested sufficient
#     statistics) and asserts the harness flags all four — proof the
#     oracle comparison (the only leg that can see the VM mutant, since
#     every tier shares the VM), the tier matrix, and the learning
#     self-check can actually fail.
#
# Usage: tools/check_differential.sh
#   LAWS_FUZZ_QUERIES      queries in the sweep (default 2000)
#   LAWS_FUZZ_SEED         base seed (default harness-chosen)
#   LAWS_DIFF_BUILD_DIR    sanitizer build tree (default build-diff)
#   LAWS_DIFF_MUTANT_DIR   mutant build tree (default build-diff-mutant)
#   LAWS_JOBS              parallel build jobs (default nproc)
source "$(dirname "$0")/gate_common.sh"
BUILD_DIR="${LAWS_DIFF_BUILD_DIR:-build-diff}"
MUTANT_DIR="${LAWS_DIFF_MUTANT_DIR:-build-diff-mutant}"
QUERIES="${LAWS_FUZZ_QUERIES:-2000}"

build_tree "$BUILD_DIR" asan differential_test

echo "== differential sweep: $QUERIES queries under ASan/UBSan =="
LAWS_FUZZ_QUERIES="$QUERIES" "$BUILD_DIR/tests/differential_test"

echo "== mutation smoke: injected aggregate + bytecode + zone-map + harvest bugs must be caught =="
build_tree "$MUTANT_DIR" mutant differential_test
"$MUTANT_DIR/tests/differential_test" \
  --gtest_filter='DifferentialTest.MutationSmokeCatchesInjectedBug:DifferentialTest.MutationSmokeCatchesInjectedBytecodeBug:DifferentialTest.MutationSmokeCatchesInjectedZoneMapBug:DifferentialTest.MutationSmokeCatchesInjectedHarvestBug'

echo "Differential gate passed: $QUERIES queries agreed with the oracle" \
     "across the bytecode/compressed tier matrix (zero" \
     "mismatches, zero AQP bound violations) and the harness detected all" \
     "four injected bugs."
