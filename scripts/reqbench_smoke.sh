#!/usr/bin/env bash
# Request-level benchmark smoke: build reqbench offline and run every
# workload BENCHMARK.json declares, briefly and traced, at a fixed seed.
#
#   scripts/reqbench_smoke.sh
#
# Each run is one second of requests plus set-up and the traced replay
# (a few seconds per workload). A run passes when its last output line —
# the JSON result — reports "correct": true: every answer matched the
# exhaustive oracle, every certificate was admissible, and the traced
# replay agreed with the untraced pass. This is the benchmark that gates
# changes, so an API change that breaks it must fail here, not later.
#
# The seed is fixed and is not the held-out seed used to re-check
# performance claims.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=7
bench=(cargo run --release --quiet --offline --manifest-path reqbench/Cargo.toml --)

workloads="$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

cargo build --release --quiet --offline --manifest-path reqbench/Cargo.toml
for workload in $workloads; do
  result="$("${bench[@]}" --workload "$workload" --seed "$SEED" --seconds 1 --trace 1 2>/dev/null | tail -n 1)"
  if ! printf '%s\n' "$result" | grep -q '^{"correct": true,'; then
    echo "reqbench smoke: FAIL — $workload (seed $SEED) is not correct:" >&2
    printf '%s\n' "$result" | head -c 400 >&2
    echo >&2
    exit 1
  fi
  echo "reqbench smoke: $workload ok"
done
