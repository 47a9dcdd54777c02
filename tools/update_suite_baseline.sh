#!/bin/sh
# Regenerates tests/data/suite_profile_baseline.json — the pinned
# polaris-suite-profile the insight_suite_baseline ctest diffs every run
# against.  Refreshes are deliberate: run this after an intentional
# parallelization change, review the printed diff, and commit the new
# baseline with the change that caused it.
#
# usage: tools/update_suite_baseline.sh [BUILD_DIR]   (default: build)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
polaris="$build/src/driver/polaris"
insight="$build/src/insight/polaris-insight"
baseline="$repo/tests/data/suite_profile_baseline.json"

for bin in "$polaris" "$insight"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build)" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Scrub every POLARIS_* knob from the environment: a baseline generated
# under a caller's stray POLARIS_JOBS / POLARIS_FAULT_INJECT / governor
# ceiling would silently pin that configuration's numbers as "expected".
# (env -u is POSIX and tolerates variables that are not set.)
scrubbed_env="env -u POLARIS_TRACE -u POLARIS_STATS -u POLARIS_FAULT_INJECT \
  -u POLARIS_JOBS -u POLARIS_REMARKS -u POLARIS_REPORT_JSON \
  -u POLARIS_COMPILE_BUDGET_MS -u POLARIS_MAX_POLY_TERMS \
  -u POLARIS_MAX_ATOMS_PER_UNIT -u POLARIS_BENCH_JSON"

$scrubbed_env "$polaris" -profile-dir="$tmp/artifacts"
$scrubbed_env "$insight" aggregate "$tmp/artifacts" -o "$tmp/profile.json"

if [ -f "$baseline" ]; then
  echo "--- diff against the current baseline ---"
  # Regressions here are *expected* when the refresh is intentional; the
  # table is printed for review, not gated on.
  "$insight" diff "$baseline" "$tmp/profile.json" || true
  echo "-----------------------------------------"
fi

mv "$tmp/profile.json" "$baseline"
echo "wrote $baseline"
