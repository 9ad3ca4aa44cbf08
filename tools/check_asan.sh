#!/usr/bin/env bash
# Tier-1 memory gate: builds the test suite with AddressSanitizer +
# UndefinedBehaviorSanitizer (-DLAWS_SANITIZE=address,undefined) and runs
# it under ctest. Buffer overruns in the gather/scratch-arena paths, leaks,
# and UB (signed overflow, misaligned loads) in the fit kernels fail this
# script. The bench-only allocation counter is automatically stubbed out in
# sanitizer builds (sanitizers own malloc).
#
# The expression VM is covered here through bytecode_test (VM slot/scratch
# reuse, batch-boundary reads, stale string views) and differential_test
# (the bytecode/compressed tier matrix runs inside the sweep), so
# out-of-bounds lane access in the register VM fails this gate. The compressed scan
# tier rides the same suite: compressed_scan_test walks zone maps and RLE
# runs directly, and differential_test's matrix executes every sweep
# query through the compressed tier at an 8-row block size, so overreads
# in block slicing, run merging, or the encoded aggregate folds fail
# sanitized here too.
#
# Usage: tools/check_asan.sh [ctest-args...]
#   LAWS_ASAN_BUILD_DIR  override the build tree (default: build-asan)
#   LAWS_JOBS            parallel build jobs (default: nproc)
#   LAWS_FUZZ_QUERIES    differential sweep size (default 2000); the
#   LAWS_FUZZ_SEED       seeded differential_test runs as part of ctest,
#                        so the whole fuzz sweep executes sanitized here
source "$(dirname "$0")/gate_common.sh"
BUILD_DIR="${LAWS_ASAN_BUILD_DIR:-build-asan}"

build_tree "$BUILD_DIR" asan

ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
echo "ASan/UBSan-instrumented test suite passed."
