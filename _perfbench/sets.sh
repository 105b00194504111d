#!/usr/bin/env bash
# Runs every workload once per seed, untraced, for the run length in
# BENCHMARK.json, and appends one JSON line per run to OUT:
#
#   {"workload":"recurring-steer","seed":1,"trace":0,"result":{...}}
#
# Usage, from the repository root:
#
#   bash _perfbench/sets.sh OUT SEED...
#
# Workloads alternate within each seed, so a drift in machine speed lands on
# all of them alike.
set -euo pipefail
out=$1
shift
for seed in "$@"; do
	for w in recurring-steer fleet-fresh feedback-loop; do
		line=$(bash _perfbench/run.sh --workload "$w" --seed "$seed" --seconds 15 --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%s,"trace":0,"result":%s}\n' "$w" "$seed" "$line" >>"$out"
	done
done
