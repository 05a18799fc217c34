#!/usr/bin/env bash
# End-to-end smoke test of the tireplay command's batch and sweep modes.
#
# Batch: a scenario batch with one invalid scenario, run with -workers 1
# and with -workers 4 -v. Both runs must exit 1, print the same rows once
# wall times are stripped, and the -v run must print one [k/N] progress
# line per scenario.
#
# Sweep: a small grid run twice with -resume. The second run must serve
# every point from the result store (tagged "(stored)"), and sweepdiff
# must find its JSONL bit-identical to the first run's.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/tireplay" ./cmd/tireplay
go build -o "$workdir/sweepdiff" ./cmd/sweepdiff

plat='{"name": "smoke", "topology": "flat", "hosts": 8, "speed": 1e9,
       "link_bandwidth": 1.25e8, "link_latency": 2e-5,
       "backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6}'

cat > "$workdir/batch.json" <<EOF
[
  {"name": "lu-2", "platform": $plat, "workload": {"benchmark": "lu", "class": "S", "procs": 2, "iterations": 2}},
  {"name": "cg-4", "platform": $plat, "workload": {"benchmark": "cg", "class": "S", "procs": 4, "iterations": 2}},
  {"name": "too-many-ranks", "platform": $plat, "workload": {"benchmark": "lu", "class": "S", "procs": 64, "iterations": 1}},
  {"name": "lu-8-msg", "platform": $plat, "backend": "msg", "workload": {"benchmark": "lu", "class": "S", "procs": 8, "iterations": 2}},
  {"name": "ep-8", "platform": $plat, "workload": {"benchmark": "ep", "class": "S", "procs": 8}}
]
EOF
n=5

# strip_wall drops the wall-clock part of each row: "(N actions in 1.2ms)".
strip_wall() { sed -E 's/ in [^)]*\)/)/' "$1"; }

# expect_exit1 runs a command that must exit with status 1.
expect_exit1() {
  local status=0
  "$@" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "$* exited $status, want 1" >&2
    exit 1
  fi
}

echo "== batch, 1 worker"
expect_exit1 "$workdir/tireplay" -scenarios "$workdir/batch.json" -workers 1 \
  > "$workdir/batch1.out" 2> "$workdir/batch1.err"
echo "== batch, 4 workers, verbose"
expect_exit1 "$workdir/tireplay" -scenarios "$workdir/batch.json" -workers 4 -v \
  > "$workdir/batch4.out" 2> "$workdir/batch4.err"

if ! diff <(strip_wall "$workdir/batch1.out") <(strip_wall "$workdir/batch4.out"); then
  echo "batch rows differ between 1 and 4 workers" >&2
  exit 1
fi
if [ "$(wc -l < "$workdir/batch1.out")" -ne "$n" ]; then
  echo "batch printed $(wc -l < "$workdir/batch1.out") rows, want $n" >&2
  exit 1
fi
if ! grep -q '^too-many-ranks .*ERROR' "$workdir/batch1.out"; then
  echo "the invalid scenario's row carries no error" >&2
  exit 1
fi
progress=$(grep -cE "^\[[0-9]+/$n\] " "$workdir/batch4.err" || true)
if [ "$progress" -ne "$n" ]; then
  echo "verbose batch printed $progress progress lines, want $n" >&2
  cat "$workdir/batch4.err" >&2
  exit 1
fi

cat > "$workdir/grid.json" <<EOF
{
  "name": "cli-smoke",
  "base": {"platform": $plat, "workload": {"benchmark": "lu", "class": "S", "procs": 2, "iterations": 1}},
  "name_format": "lu-{procs}p-{backend}",
  "axes": [
    {"name": "procs", "path": "workload.procs", "values": [2, 4, 8]},
    {"name": "backend", "values": ["smpi", "msg"]}
  ]
}
EOF
points=6

echo "== sweep, first run"
"$workdir/tireplay" -sweep "$workdir/grid.json" -resume -workers 2 \
  -out "$workdir/first.jsonl" -csv "$workdir/first.csv" > "$workdir/first.out"
echo "== sweep, resumed run"
"$workdir/tireplay" -sweep "$workdir/grid.json" -resume -workers 2 -v \
  -out "$workdir/second.jsonl" > "$workdir/second.out" 2> "$workdir/second.err"

if grep -q '(stored)' "$workdir/first.out"; then
  echo "the first run served points from an empty store" >&2
  exit 1
fi
stored=$(grep -c '   (stored)$' "$workdir/second.out" || true)
if [ "$(wc -l < "$workdir/second.out")" -ne "$points" ] || [ "$stored" -ne "$points" ]; then
  echo "resumed run tagged $stored of $(wc -l < "$workdir/second.out") rows (stored), want all $points" >&2
  cat "$workdir/second.out" >&2
  exit 1
fi
if [ "$(wc -l < "$workdir/first.csv")" -ne $((points + 1)) ]; then
  echo "CSV sink wrote $(wc -l < "$workdir/first.csv") lines, want header + $points" >&2
  exit 1
fi
"$workdir/sweepdiff" "$workdir/first.jsonl" "$workdir/second.jsonl"

echo "cli smoke: OK"
