#!/bin/sh
# Runs a GoogleTest binary under --gtest_filter, after checking that every
# ':'-separated positive pattern of the filter selects at least one test.
# GoogleTest 1.12 and 1.14 have no fail_if_no_test_selected flag, so without
# this check a renamed test turns a filtered gate into a silent pass.
#
#   tools/run_gtest_filter.sh BINARY FILTER [GTEST ARGS...]
#
# e.g. tools/run_gtest_filter.sh ./build/tests/streaming_test \
#        'StreamCacheTest.*' --gtest_repeat=3
set -eu
if [ $# -lt 2 ]; then
  echo "usage: $0 BINARY FILTER [GTEST ARGS...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2

# The patterns before the first '-' select; the ones after it exclude.
positive=${filter%%-*}
old_ifs=$IFS
IFS=:
for pattern in $positive; do
  IFS=$old_ifs
  listed=$("$bin" --gtest_list_tests --gtest_filter="$pattern")
  # gtest lists each selected test on a line of its own, indented.
  count=$(printf '%s\n' "$listed" | grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "$0: filter pattern '$pattern' selects no test in $bin" >&2
    exit 1
  fi
  echo "$0: '$pattern' selects $count test(s) in $bin"
done
IFS=$old_ifs

exec "$bin" --gtest_filter="$filter" "$@"
