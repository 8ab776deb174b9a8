#!/bin/sh
# A malformed PKGQ_* knob is a command-line error, never a silent
# default: the environment form of a flag's knob exits like the
# malformed flag (Cmdliner's 124), a knob with no flag exits 124 too
# (2, the usage exit, in paql_repl), and a well-formed value gets past
# the command line to the data error every run here ends in (exit 3,
# the table's header names no type).
#
# Usage: malformed_knobs.sh BIN_DIR
set -u
bin=$1
for v in $(env | sed -n 's/^\(PKGQ_[A-Z_]*\)=.*/\1/p'); do unset "$v"; done
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bad="$tmp/bad.csv"
printf 'a:nosuchtype\n1\n' >"$bad"
fail=0

# expect CODE COMMAND...
expect() {
  code=$1
  shift
  "$@" >/dev/null 2>"$tmp/err"
  got=$?
  if [ "$got" -ne "$code" ]; then
    echo "exit $got, expected $code: $*" >&2
    cat "$tmp/err" >&2
    fail=1
  fi
}

server="$bin/pkgq_server.exe --data $bad --port 0 --no-store"
shard="$bin/pkgq_shard.exe --data $bad --attrs a"
cli="$bin/paql_cli.exe --data $bad --query x"
repl="$bin/paql_repl.exe $bad"

expect 3 $server
for kv in workers=PKGQ_SERVE_WORKERS queue=PKGQ_SERVE_QUEUE \
  result-cache=PKGQ_RESULT_CACHE wal-checkpoint=PKGQ_WAL_CHECKPOINT; do
  flag=${kv%%=*} var=${kv#*=}
  expect 124 $server "--$flag" abc
  expect 124 env "$var=abc" $server
done
expect 3 $server --result-cache off
expect 3 env PKGQ_RESULT_CACHE=off $server
expect 3 env PKGQ_WAL_CHECKPOINT=off $server
expect 6 $server --faults bogus
expect 6 env PKGQ_FAULTS=bogus $server
for kv in PKGQ_WAL_SYNC=sometimes PKGQ_HIER_LEVELS=abc PKGQ_SCENARIOS=0 \
  PKGQ_VALIDATE=-1 PKGQ_SUMMARIES=x; do
  expect 124 env "$kv" $server
done
expect 3 env PKGQ_WAL_SYNC=off PKGQ_HIER_LEVELS=1 PKGQ_SCENARIOS=16 $server

expect 3 $shard
for kv in hedge-ms=PKGQ_HEDGE_MS breaker-trips=PKGQ_BREAKER_TRIPS \
  lease-ms=PKGQ_LEASE_MS spawn=PKGQ_SHARDS replicas=PKGQ_REPLICAS; do
  flag=${kv%%=*} var=${kv#*=}
  expect 124 $shard "--$flag" abc
  expect 124 env "$var=abc" $shard
done
expect 124 env PKGQ_HIER_LEVELS=abc $shard

expect 3 $cli
expect 124 env PKGQ_HIER_LEVELS=abc $cli
expect 124 env PKGQ_SCENARIOS=abc $cli

expect 3 $repl
expect 2 env PKGQ_HIER_LEVELS=abc $repl
expect 2 env PKGQ_FAULTS=bogus $repl

exit $fail
