#!/usr/bin/env bash
# Run the matching benches and write BENCH_matching.json at the repo root
# (or to $SMX_BENCH_OUT, so CI guards can compare without clobbering).
#
#   scripts/bench_matching.sh
#   SMX_BENCH_OUT=/tmp/fresh.json scripts/bench_matching.sh
#
# The mini-criterion harness (vendor/criterion) appends one JSON line per
# bench to $SMX_BENCH_JSON; this script collects them into a single JSON
# document with the engine speedup (direct / matrix-backed exhaustive)
# and the cost-matrix fill split (cold sweep / warm cached-row refill /
# full repeat-query run) called out, so the perf trajectory is tracked
# across PRs.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${SMX_BENCH_OUT:-BENCH_matching.json}"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
SMX_BENCH_JSON="$raw" cargo bench -p smx-bench --bench matching

python3 - "$raw" "$out" <<'EOF'
import json, sys

entries = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if line:
            e = json.loads(line)
            # Timing lines carry ns_per_iter; the candidate-tier bench
            # also appends dimensionless "value" lines (certified
            # recall, active-schema counts) — collected under the same
            # key space, documented in the candidate_tier section.
            entries[e["bench"]] = e.get("ns_per_iter", e.get("value"))

def ratio(a, b):
    return round(a / b, 2) if a and b else None

direct = entries.get("matchers/s1_exhaustive_direct")
matrix = entries.get("matchers/s1_exhaustive")
cold = entries.get("matchers/s1_exhaustive_cold")
fill_cold = entries.get("matrix_fill/cold")
fill_warm = entries.get("matrix_fill/warm")
repeat = entries.get("matrix_fill/repeat_query")
batch_fill = entries.get("matrix_fill/batch")
seq_fill = entries.get("matrix_fill/sequential32")
seq_fill_shared = entries.get("matrix_fill/sequential32_shared")
batch_match = entries.get("s1_batch_vs_sequential/batch")
seq_match = entries.get("s1_batch_vs_sequential/sequential")
restart_cold = entries.get("restart/cold_rebuild")
restart_load = entries.get("restart/snapshot_load")
restart_salvage = entries.get("restart/salvage_load")
kernel_ref = entries.get("row_kernel/reference")
kernel_scalar = entries.get("row_kernel/scalar")
kernel_active = entries.get("row_kernel/active")
tier_sizes = [64, 256, 1024]
tier = {
    str(n): {
        "exhaustive_ns": entries.get(f"candidate_tier/exhaustive_{n}"),
        "candidate_ns": entries.get(f"candidate_tier/candidate_{n}"),
        "speedup_x": ratio(
            entries.get(f"candidate_tier/exhaustive_{n}"),
            entries.get(f"candidate_tier/candidate_{n}"),
        ),
        "certified_recall": entries.get(f"candidate_tier/certified_recall_{n}"),
        "active_schemas": entries.get(f"candidate_tier/active_schemas_{n}"),
    }
    for n in tier_sizes
}
doc = {
    "bench": "benches/matching.rs",
    "unit": "ns_per_iter",
    "results": entries,
    "exhaustive_speedup": {
        "before_direct_ns": direct,
        # Steady state: the problem's CostMatrix is already built (every
        # run after the first against a MatchProblem).
        "after_cost_matrix_warm_ns": matrix,
        "warm_speedup_x": ratio(direct, matrix),
        # Fresh MatchProblem, so the fill is paid inside the loop.
        "after_cost_matrix_cold_ns": cold,
        "cold_speedup_x": ratio(direct, cold),
        # Semantics changed in PR 2: the cloned repository shares its
        # score store across iterations, so "cold" now measures the
        # repeat-query shape (fill from cached rows), not the row-kernel
        # sweep — matrix_fill/cold isolates that. Pre-PR-2 cold numbers
        # are not directly comparable.
        "cold_note": "fresh problem against a warm repository score "
                     "store; see matrix_fill.cold_sweep_ns for the "
                     "genuinely cold fill",
    },
    # The fill split: how much of a fresh problem is matrix fill, and
    # what the repository score store saves on repeated queries.
    "matrix_fill": {
        "cold_sweep_ns": fill_cold,
        "warm_cached_rows_ns": fill_warm,
        "row_cache_speedup_x": ratio(fill_cold, fill_warm),
        "repeat_query_ns": repeat,
    },
    # The bulk path: 32 personal schemas against one repository. "batch"
    # dedups distinct labels across the whole batch and sweeps them in
    # one tiled (optionally threaded) pass; "sequential" is the solo
    # serving loop with per-query-cold fills (no shared warm rows — the
    # regime an LRU-bounded row cache degrades to under pressure);
    # "sequential_shared_fill_ns" is the sequential best case where all
    # 32 solo fills share one warm cache (batch tracks it closely; its
    # win is the per-query-cold regime).
    # Acceptance: batch_fill_ns measurably below sequential_fill_ns.
    "batch32": {
        "batch_fill_ns": batch_fill,
        "sequential_fill_ns": seq_fill,
        "fill_speedup_x": ratio(seq_fill, batch_fill),
        "sequential_shared_fill_ns": seq_fill_shared,
        "shared_fill_speedup_x": ratio(seq_fill_shared, batch_fill),
        "batch_match_ns": batch_match,
        "sequential_match_ns": seq_match,
        "match_speedup_x": ratio(seq_match, batch_match),
    },
    # Warm restart: rebuilding the bench repository from scratch (schema
    # replay + re-sweeping the 32-schema batch vocabulary) vs loading
    # the smx-persist snapshot of the same warm state. Acceptance:
    # snapshot_load at least 3x faster than cold_rebuild.
    # salvage_load is the degraded restart: the snapshot's ROWS section
    # is deliberately rotten, so the Salvage policy drops the cached
    # rows and rebuilds the rest. It must stay well below cold_rebuild
    # (that is the whole point of graceful degradation) — the guarded
    # floor is relative.salvage_cold_over_load.
    "restart": {
        "cold_rebuild_ns": restart_cold,
        "snapshot_load_ns": restart_load,
        "snapshot_speedup_x": ratio(restart_cold, restart_load),
        "salvage_load_ns": restart_salvage,
        "salvage_speedup_x": ratio(restart_cold, restart_salvage),
    },
    # The vectorised row-kernel dispatch split: the scalar NameSimilarity
    # reference path vs the kernel pinned to the scalar tier vs the
    # dispatched (SWAR / std::arch) tier, over identical query rows.
    "row_kernel": {
        "reference_ns": kernel_ref,
        "scalar_kernel_ns": kernel_scalar,
        "active_kernel_ns": kernel_active,
        "dispatch_speedup_x": ratio(kernel_scalar, kernel_active),
        "vs_reference_x": ratio(kernel_ref, kernel_active),
    },
    # Repository-size scaling of the certified candidate tier: cold
    # exhaustive vs cold candidate-tier (auto budget) end-to-end runs on
    # the same mixed-domain repository, with the recall certificate the
    # speedup was bought at (1.0 in auto mode — answers bitwise
    # identical; asserted inside the bench). The tier's fixed overhead
    # (index sweep + the always-active signal schemas) dominates at 64
    # schemas and amortises as the repository grows — the headline is
    # the 1024-schema ratio, guarded as
    # relative.candidate_over_exhaustive_1024.
    # generate_*_1024 times candidate generation alone (budget 32) at
    # 1024 schemas: "cold" clears the store's rows and memoised bound
    # rows first, "warm" reads bounds from the memo. Their ratio is
    # guarded as relative.generate_cold_over_warm_1024, so a change that
    # stops memoising fails CI.
    "candidate_tier": {
        "delta_max": 0.1,
        "sizes": tier,
        "generate_cold_1024_ns": entries.get("candidate_tier/generate_cold_1024"),
        "generate_warm_1024_ns": entries.get("candidate_tier/generate_warm_1024"),
    },
    # Tracing overhead on the hot sweep path: "baseline" is the
    # byte-for-byte pre-instrumentation score_rows body, "disabled" the
    # instrumented wrapper with tracing off (one relaxed atomic load),
    # "enabled" the informational traced run with a live collector.
    # Acceptance: baseline/disabled stays >= 0.95 — instrumentation may
    # cost at most ~5% when off — guarded as
    # relative.trace_overhead_disabled.
    "trace_overhead": {
        "baseline_ns": entries.get("trace_overhead/baseline"),
        "disabled_ns": entries.get("trace_overhead/disabled"),
        "enabled_ns": entries.get("trace_overhead/enabled"),
        "disabled_over_baseline_x": ratio(
            entries.get("trace_overhead/disabled"),
            entries.get("trace_overhead/baseline"),
        ),
        "enabled_over_baseline_x": ratio(
            entries.get("trace_overhead/enabled"),
            entries.get("trace_overhead/baseline"),
        ),
        # The guarded ratio: baseline/disabled measured PAIRED inside
        # one alternating loop (emitted by the bench as a value line),
        # immune to the per-position scheduling noise the standalone
        # entries above carry.
        "paired_baseline_over_disabled": entries.get(
            "trace_overhead/paired_baseline_over_disabled"
        ),
    },
    # Within-run speedup ratios — each is measured inside ONE bench run,
    # so it is meaningful on any hardware. `scripts/bench_guard.sh` in
    # SMX_BENCH_GUARD=relative mode (the CI configuration) compares
    # these against the committed baseline instead of absolute ns.
    "relative": {
        "kernel_reference_over_active": ratio(kernel_ref, kernel_active),
        "kernel_scalar_over_active": ratio(kernel_scalar, kernel_active),
        "snapshot_cold_over_load": ratio(restart_cold, restart_load),
        "salvage_cold_over_load": ratio(restart_cold, restart_salvage),
        "batch_sequential_over_batch": ratio(seq_fill, batch_fill),
        "candidate_over_exhaustive_1024": ratio(
            entries.get("candidate_tier/exhaustive_1024"),
            entries.get("candidate_tier/candidate_1024"),
        ),
        "generate_cold_over_warm_1024": ratio(
            entries.get("candidate_tier/generate_cold_1024"),
            entries.get("candidate_tier/generate_warm_1024"),
        ),
        "trace_overhead_disabled": round(
            entries["trace_overhead/paired_baseline_over_disabled"], 3
        ) if entries.get("trace_overhead/paired_baseline_over_disabled") else None,
    },
}
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[2]}")
print(json.dumps({k: doc[k] for k in ("exhaustive_speedup", "matrix_fill", "batch32", "restart", "row_kernel", "candidate_tier", "trace_overhead", "relative")}, indent=2))
EOF
