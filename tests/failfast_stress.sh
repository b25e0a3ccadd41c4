#!/bin/sh
# Fail-fast stress: runs the abort-path and protocol suites of the socket
# transports (proc, tcp and hybrid) as many concurrent processes and
# requires every run to pass. An abort that unwinds one rank while a
# sibling still reads its buffers shows up here as a wrong or garbled
# failure report in a few runs under load, where a single quiet run
# passes.
#
# Two rounds, each of <runs> concurrent processes:
#   1. the FailFast suites and the validated-protocol suites
#      (ValidatedTransports: conforming traffic under the checker, and a
#      rank failure that must not turn into a protocol error);
#   2. a quarter of the runs are the dead-peer test (a SIGKILLed TCP peer
#      seen from a single-rank process), beside FailFast runs. Under load
#      the killed peer often still holds unread bytes, so the survivor
#      sees a reset instead of an orderly close; both must read as the
#      same dead peer.
#
#   failfast_stress.sh <pml_test binary> [runs, default 40]
set -u
bin=$1
runs=${2:-40}
failfast='Transports/FailFast.*/proc:Transports/FailFast.*/tcp:Transports/FailFast.*/hybrid'
protocol='Transports/ValidatedTransports.*/proc:Transports/ValidatedTransports.*/tcp:Transports/ValidatedTransports.*/hybrid'
dead_peer='TcpFaultInjection.SingleRankModeReportsDeadPeerEndpoint'
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

pids=""
n=0
# launch <gtest filter> <count>: starts <count> background runs.
launch() {
  i=0
  while [ "$i" -lt "$2" ]; do
    "$bin" --gtest_filter="$1" >"$dir/run$n.log" 2>&1 &
    pids="$pids $!"
    n=$((n + 1))
    i=$((i + 1))
  done
}

# collect: waits for every launched run and reports this round's failures.
failed_total=0
collect() {
  failed=0
  i=0
  for pid in $pids; do
    if ! wait "$pid"; then
      failed=$((failed + 1))
      echo "---- round $round run $i failed ----"
      grep -E 'filter =|FAILED|Failure|Expected|Which is|what|rank' "$dir/run$i.log" | head -20
      if grep -qi 'address already in use' "$dir/run$i.log"; then
        echo "(port collision: a loopback port the test reserved was taken before its listener bound it)"
      fi
    fi
    i=$((i + 1))
  done
  echo "failfast stress round $round: $failed of $n concurrent runs failed"
  failed_total=$((failed_total + failed))
  pids=""
  n=0
}

round=1
launch "$failfast:$protocol" "$runs"
collect

round=2
launch "$dead_peer" $((runs / 4))
launch "$failfast" $((runs - runs / 4))
collect

[ "$failed_total" -eq 0 ]
