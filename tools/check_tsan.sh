#!/usr/bin/env bash
# Tier-1 data-race gate: builds the test suite with ThreadSanitizer
# (-DLAWS_SANITIZE=thread) and runs it under ctest. Any race in the
# ThreadPool subsystem or the parallel fitting/compression/generation
# paths fails this script.
#
# Expression and scan state under test here: per-thread VM scratch is
# thread_local, the expr.* and scan.* metrics counters are the registry's
# atomics, and each table's block-index slot is mutex-guarded —
# differential_test runs the decode and compressed legs while the pool
# runs at LAWS_THREADS>1, so a race in any of them surfaces in this gate.
#
# The serving layer rides in serve_test: concurrent sessions pin
# snapshots while writers copy-and-swap commits, the admission gate's
# condvar hands slots across threads, session interrupts land from
# foreign threads, and concurrent first scans of one published table
# race to attach its block index — all instrumented here.
#
# Usage: tools/check_tsan.sh [ctest-args...]
#   LAWS_TSAN_BUILD_DIR  override the build tree (default: build-tsan)
#   LAWS_JOBS            parallel build jobs (default: nproc)
# second_deadlock_stack aids diagnosis; history_size bumps TSan's per-thread
# memory-access history so long fitting loops don't lose report stacks.
# Set before the shared preamble, whose default would otherwise win.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1 history_size=4}"
source "$(dirname "$0")/gate_common.sh"
BUILD_DIR="${LAWS_TSAN_BUILD_DIR:-build-tsan}"

build_tree "$BUILD_DIR" tsan

ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
echo "TSan-instrumented test suite passed."
