# Shared preamble of the tools/check_*.sh gates. Source it, do not run
# it: it turns on strict mode, moves to the repository root, exports the
# sanitizer runtime options, and defines build_tree.
#
#   LAWS_JOBS      parallel build jobs for every gate (default: nproc)
#   LAWS_THREADS   worker lanes (default 4, so the parallel paths fan out
#                  even on 1-core CI)
#   ASAN_OPTIONS / UBSAN_OPTIONS / TSAN_OPTIONS  kept when already set
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
JOBS="${LAWS_JOBS:-$(nproc)}"

# detect_leaks catches FitScratch/arena lifetime bugs; the sanitizers abort
# on the first report so failures surface as test failures, not log noise.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export LAWS_THREADS="${LAWS_THREADS:-4}"

# build_tree DIR FLAVOR [TARGET...]
# Configures DIR as one of the gate build flavors and builds TARGETs
# (every target when none are named):
#   asan      ASan + UBSan, RelWithDebInfo
#   tsan      TSan, RelWithDebInfo
#   mutant    -DLAWS_TESTING_INJECT_BUG=ON, RelWithDebInfo
#   coverage  gcov instrumentation, Debug
build_tree() {
  local dir="$1" flavor="$2"
  shift 2
  local flags
  case "$flavor" in
    asan) flags=(-DLAWS_SANITIZE=address,undefined) ;;
    tsan) flags=(-DLAWS_SANITIZE=thread) ;;
    mutant) flags=(-DLAWS_TESTING_INJECT_BUG=ON) ;;
    coverage) flags=(-DLAWS_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug) ;;
    *)
      echo "build_tree: unknown flavor '$flavor'" >&2
      return 1
      ;;
  esac
  [ "$flavor" = coverage ] || flags+=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
  cmake -B "$dir" -S . "${flags[@]}"
  if [ "$#" -gt 0 ]; then
    cmake --build "$dir" -j "$JOBS" --target "$@"
  else
    cmake --build "$dir" -j "$JOBS"
  fi
}
