#!/usr/bin/env bash
# Full correctness gate: a sanitizer build (ASan+UBSan by default) of the
# whole tree plus the complete ctest suite.  Run from anywhere; builds out
# of source.
#
#   scripts/check.sh                 # address,undefined (default)
#   DMP_SANITIZE=undefined scripts/check.sh
#   DMP_SANITIZE=thread scripts/check.sh     # ThreadSanitizer
#   DMP_CHECK_BUILD_DIR=/tmp/b scripts/check.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitize="${DMP_SANITIZE:-address,undefined}"
build_dir="${DMP_CHECK_BUILD_DIR:-${repo_root}/build-sanitize}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== configure (sanitizers: ${sanitize}) =="
cmake -B "${build_dir}" -S "${repo_root}" -DDMP_SANITIZE="${sanitize}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build =="
cmake --build "${build_dir}" -j "${jobs}"

echo "== test =="
# halt_on_error so any ASan/UBSan/TSan report fails the corresponding test.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
TSAN_OPTIONS="halt_on_error=1" \
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

echo "== OK =="
