#!/bin/sh
# Fail-fast stress: runs the abort-path suites of the forking transports
# (proc and hybrid) as many concurrent processes and requires every run
# to pass. An abort that unwinds one rank while a sibling still reads its
# buffers shows up here as a wrong or garbled failure report in a few
# runs under load, where a single quiet run passes.
#
#   failfast_stress.sh <pml_test binary> [runs, default 40]
set -u
bin=$1
runs=${2:-40}
filter='Transports/FailFast.*/proc:Transports/FailFast.*/hybrid'
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

pids=""
i=0
while [ "$i" -lt "$runs" ]; do
  "$bin" --gtest_filter="$filter" >"$dir/run$i.log" 2>&1 &
  pids="$pids $!"
  i=$((i + 1))
done

failed=0
i=0
for pid in $pids; do
  if ! wait "$pid"; then
    failed=$((failed + 1))
    echo "---- run $i failed ----"
    grep -E 'FAILED|Failure|Expected|Which is|what|rank' "$dir/run$i.log" | head -20
  fi
  i=$((i + 1))
done
echo "failfast stress: $failed of $runs concurrent runs failed"
[ "$failed" -eq 0 ]
