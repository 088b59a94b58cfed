#!/usr/bin/env bash
# Tier-1 verification: format, build, test, lint, bench-compile, smoke,
# and guard the headline benches against regressions.
#
#   scripts/verify.sh
#
# Steps (all must pass):
#   1. every .github/workflows/*.yml parses as YAML — a workflow that
#      does not parse never runs, so CI cannot report its own parse error
#   2. cargo fmt --check (whole workspace; the tree is kept rustfmt-clean)
#   3. release build of every crate
#   4. full test suite (includes the kernel dispatch differential suites
#      and the SMX_KERNEL_FORCE forced-variant tests — see below; step 14
#      runs them again by name)
#   5. clippy with warnings denied (all targets: libs, tests, benches,
#      examples, figure binaries)
#   6. rustdoc gate: `cargo doc --no-deps` over every smx crate with
#      warnings denied (broken intra-doc links, missing docs under the
#      crates that deny them). Targets the smx packages explicitly —
#      the vendored shims are workspace members and are not held to the
#      documentation bar.
#   7. benches compile (`cargo bench --no-run`) so perf regressions can
#      always be measured
#   8. snapshot round-trip smoke check: examples/warm_restart saves a
#      snapshot, loads it, asserts the loaded repository matches
#      bitwise, and salvage-loads a deliberately rotten snapshot (it
#      exits non-zero on any divergence)
#   9. persistence suites, run explicitly and named in the output:
#      the crash matrix (a simulated crash at every I/O op and write
#      byte of a snapshot save / spill compaction leaves old-or-new,
#      never a hybrid), the chaos gate (randomized fault plans never
#      change any matcher's answers), the spill-compaction properties,
#      and the snapshot-format gates: failure paths (every damaged
#      snapshot fails with a typed error; random repositories round-trip
#      bitwise, candidate bounds included), persist identity (loaded
#      snapshots answer bitwise like the saved repository, across all
#      matchers), and the crate's unit tests (--lib: the committed
#      version-1 fixture and the retired section ids load clean under
#      both recovery policies). They also run inside step 4; this step
#      exists so a durability or format regression is named as such,
#      not buried in the suite.
#  10. certified candidate-tier suites, likewise named: the
#      differential suite (candidate-restricted answers bitwise equal
#      to the exhaustive oracle's, certificates admissible across
#      matchers and budgets, whole certified runs bitwise equal under
#      any bound-row memo state), the bound-admissibility property
#      suite (certified recall never exceeds measured recall,
#      including budget 0 and budget >= n edges), and the certified
#      matrix (what each matcher class — complete /
#      restriction-monotone / global-budget — can promise under fixed
#      budgets). A certification regression fails here by name, not
#      buried in step 4.
#  11. observability suites, likewise named: the trace-identity gate
#      (tracing on/off changes no matcher's answers bitwise — clean
#      runs, fault storms, and the JSON-lines sink), the metrics
#      property suite (snapshot/histogram merges associative, trace
#      lines checksum-valid and corruption-detecting), and the
#      concurrent-sweep counter-consistency gate (site-gated registry
#      metrics agree exactly with StoreCounters under racing sweeps);
#      plus an examples/observability smoke run under SMX_TRACE=1
#      (exits non-zero unless the span tree covers candidate
#      generation, the restricted fill, and the refine stage).
#  12. mutation suites, likewise named: the mutation edge-case +
#      property suite (remove-then-readd, replace under a bounded store
#      with spilled rows, removal racing concurrent batch sweeps,
#      arbitrary mutation histories vs fresh rebuilds) and the mutation
#      differential gate (a bounded, mutated repository gives every
#      matcher answers bitwise identical to a fresh unbounded rebuild).
#  13. store suites, likewise named: the LRU property suite (swept
#      and subset-filled rows under one bound, evicted rows recompute
#      bitwise), store reuse (repeat problems refill without a pair
#      evaluation), batch admission (a bound below the batch
#      vocabulary costs recompute per chunk only), and the batch
#      differential gate (batched answers bitwise equal to solo runs
#      for every matcher, the only gate on threaded dispatch). A
#      row-cache or batch regression fails here by name, not buried in
#      step 4.
#  14. text-kernel suites, likewise named: the dispatch differential
#      (every kernel variant bitwise equal to the scalar oracle), the
#      three SMX_KERNEL_FORCE forced-variant binaries, and the
#      similarity properties (range, symmetry, identity, and the
#      row-kernel-vs-scalar and flat-vs-reference n-gram bitwise
#      properties). A scoring regression fails here by name, not
#      buried in step 4.
#  15. request-level benchmark smoke (scripts/reqbench_smoke.sh):
#      reqbench built offline, every BENCHMARK.json workload run for one
#      traced second at a fixed seed; fails unless each reports
#      "correct": true — the benchmark that gates changes must keep
#      building and answering correctly against the current API.
#  16. bench-regression guard (scripts/bench_guard.sh): a fresh
#      scripts/bench_matching.sh run compared against the committed
#      BENCH_matching.json with a +25% budget.
#
# Steps 9–14 run through named_suites(), which fails loudly if any named
# test binary reports "running 0 tests" — a renamed file or filter typo
# must not silently disable a gate.
#
# Bench-guard modes (SMX_BENCH_GUARD):
#   absolute (default) — absolute ns of matchers/s1_exhaustive_cold,
#       matrix_fill/{cold,batch}, restart/snapshot_load, and
#       row_kernel/active vs the committed baseline. Only meaningful on
#       the baseline machine class.
#   relative — within-run speedup ratios (the committed `relative`
#       section: row-kernel dispatch vs scalar reference, snapshot load
#       vs cold rebuild, batch vs sequential fill) vs the fresh run's
#       ratios. Machine-independent; what .github/workflows/ci.yml runs.
#   0 — skip, loudly. A missing BENCH_matching.json baseline is a loud
#       skip locally and a FAILURE under CI (CI=1/true) — the guard
#       never silently reports green.
#
# Kernel dispatch: the row kernel's inner loops (Jaro bitset scan, gram
# merge, Myers advance) are selected at runtime by smx_text's
# KernelVariant (scalar oracle / SWAR / std::arch SSE2-NEON). The
# SMX_KERNEL_FORCE env var (scalar|swar|arch) pins a variant
# process-wide — useful for bisecting a suspected vectorisation bug:
# SMX_KERNEL_FORCE=scalar scripts/verify.sh runs everything on the
# oracle tier. All variants are bitwise-identical by contract.
#
# Tracing: SMX_TRACE switches structured tracing on process-wide
# (1 = in-process span collector, json = JSON-lines sink at
# SMX_TRACE_FILE or ./smx-trace.jsonl). Instrumentation is contractually
# inert — the trace-identity gate in step 11 proves answers are bitwise
# unchanged either way, and the trace_overhead bench holds the disabled
# path within ~5% of the pre-instrumentation baseline
# (relative.trace_overhead_disabled). SMX_TRACE=1 scripts/verify.sh is
# supported but the identity suites flip tracing themselves.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run named test binaries (`cargo test <args> -q`) and fail loudly if
# any of them reports "running 0 tests": an empty named suite means a
# rename or a filter typo disabled a gate without failing anything.
named_suites() {
  local out
  out="$(cargo test "$@" -q 2>&1)" || { printf '%s\n' "$out"; return 1; }
  printf '%s\n' "$out"
  if printf '%s\n' "$out" | grep -q '^running 0 tests'; then
    echo "verify: FAIL — a named suite ran 0 tests (cargo test $*)" >&2
    return 1
  fi
}

echo "== [1/16] workflow files parse (.github/workflows/*.yml)"
for workflow in .github/workflows/*.yml; do
  python3 -c 'import sys, yaml; yaml.safe_load(open(sys.argv[1]))' "$workflow" ||
    { echo "verify: FAIL — $workflow is not valid YAML" >&2; exit 1; }
done

echo "== [2/16] cargo fmt --all --check"
cargo fmt --all --check

echo "== [3/16] cargo build --release"
cargo build --release

echo "== [4/16] cargo test -q"
cargo test -q

echo "== [5/16] cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== [6/16] cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p smx -p smx-core -p smx-obs -p smx-text -p smx-xml -p smx-repo \
  -p smx-match -p smx-persist -p smx-eval -p smx-synth -p smx-bench

echo "== [7/16] cargo bench --no-run"
cargo bench -p smx-bench --no-run

echo "== [8/16] snapshot round-trip smoke (examples/warm_restart)"
cargo run --release --example warm_restart >/dev/null

echo "== [9/16] persistence suites (crash matrix, chaos, spill compaction, failure paths, persist identity, snapshot format)"
named_suites -p smx-persist --lib --test crash_matrix --test chaos --test spill_compaction \
  --test failure_paths --test persist_identity

echo "== [10/16] certified candidate-tier suites (differential, bound admissibility, certified matrix)"
named_suites -p smx-match --test candidate_differential --test bound_admissibility \
  --test certified_matrix

echo "== [11/16] observability suites (trace identity, metrics properties, counter consistency)"
named_suites -p smx-persist --test trace_identity
named_suites -p smx-obs --test metrics_properties
named_suites -p smx-repo --test trace_concurrency
SMX_TRACE=1 cargo run --release --example observability >/dev/null

echo "== [12/16] mutation suites (edge cases + properties, differential gate)"
named_suites -p smx-repo --test mutation
named_suites -p smx-match --test mutation_differential

echo "== [13/16] store suites (LRU properties, reuse, batch admission, batch identity)"
named_suites -p smx-repo --test store_lru
named_suites -p smx-match --test store_reuse --test batch_admission --test batch_identity

echo "== [14/16] text-kernel suites (dispatch differential, forced variants, properties)"
named_suites -p smx-text --test dispatch_differential --test forced_variant_scalar \
  --test forced_variant_swar --test forced_variant_arch --test properties

echo "== [15/16] request-level benchmark smoke (scripts/reqbench_smoke.sh)"
scripts/reqbench_smoke.sh

echo "== [16/16] bench-regression guard (scripts/bench_guard.sh, mode: ${SMX_BENCH_GUARD:-absolute})"
scripts/bench_guard.sh

echo "verify: OK"
