#!/usr/bin/env bash
# Build and run the test suite under ASan+UBSan and TSan.
#
# The simulator runs every simulated rank as a fiber on a pool of worker
# threads (fiber switches are annotated for both sanitizers), and chaos mode
# adds barrier retirement and cross-rank adoption hand-offs, so the
# sanitizers are the fastest way to catch a protocol mistake. Usage:
#
#   scripts/run_sanitizers.sh            # both sanitizers, full suite
#   scripts/run_sanitizers.sh asan       # just ASan+UBSan ("address" works too)
#   scripts/run_sanitizers.sh tsan -R fault   # TSan ("thread"), fault tests only
#
# Extra arguments after the preset name are passed to ctest.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=(asan tsan)
if [[ $# -ge 1 ]]; then
  case "$1" in
    asan|address) presets=(asan); shift ;;
    tsan|thread) presets=(tsan); shift ;;
  esac
fi

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$(nproc)" "$@"
done
