#!/bin/sh
# Smoke test of gsbench (ctest gsbench_smoke):
#
#   smoke.sh <gsbench>
#
# Runs every workload at --quick scale and one traced run, checks each
# printed a correct result and the trace is a Chrome trace, and checks
# that --compare refuses --quick results so nobody measures with them.
set -eu

GSBENCH=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gsbench_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

for w in solve_write query_hot query_cold query_routed; do
  echo "== $w --quick"
  "$GSBENCH" --workload "$w" --seed 1 --quick --record "$WORK/quick.jsonl" \
    >"$WORK/$w.out"
  tail -n 1 "$WORK/$w.out" | grep -q '"correct":true'
done

echo "== query_routed --quick --trace"
"$GSBENCH" --workload query_routed --seed 2 --quick \
  --trace "$WORK/trace.json" >"$WORK/trace.out"
tail -n 1 "$WORK/trace.out" | grep -q '"shard.router_call_p50_ms"'
grep -q '"traceEvents"' "$WORK/trace.json"
grep -q '"parent_id"' "$WORK/trace.json"

echo "== --compare refuses --quick runs"
if "$GSBENCH" --compare "$WORK/quick.jsonl" "$WORK/quick.jsonl" \
    >"$WORK/compare.out" 2>&1; then
  echo "FAIL: --compare accepted --quick results" >&2
  exit 1
fi
grep -q 'quick' "$WORK/compare.out"

echo "PASS"
