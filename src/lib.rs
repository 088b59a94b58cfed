#![warn(missing_docs)]

//! `smx` — umbrella crate for the ICDE 2006 "Effectiveness Bounds for
//! Non-Exhaustive Schema Matching Systems" reproduction.
//!
//! Re-exports the workspace crates under stable module names and provides
//! the [`pipeline`] glue that examples, integration tests, and the figure
//! harness share:
//!
//! * [`text`] — string similarity primitives,
//! * [`xml`] — the XML schema model,
//! * [`eval`] — retrieval evaluation (answer sets, P/R curves, pooling),
//! * [`bounds`] — the paper's contribution: effectiveness bounds,
//! * [`repo`] — schema repository and clustering,
//! * [`persist`] — snapshot + spill persistence for warm restarts,
//! * [`synth`] — synthetic scenarios with known ground truth,
//! * [`matching`] — exhaustive S1 and non-exhaustive S2 matchers,
//! * [`obs`] — structured tracing, metrics registry, and exporters,
//! * [`pipeline`] — scenario → matcher → curve → bounds wiring.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough and
//! `ARCHITECTURE.md` at the workspace root for the crate map, the
//! data-flow from ingestion to certificate, and the rationale behind
//! the score cache and generation-stamped invalidation.
//!
//! # Environment knobs
//!
//! Every `SMX_*` environment variable honoured anywhere in the
//! workspace, in one place. All are **off by default**; unset means
//! the default behaviour.
//!
//! | Variable | Read by | Effect |
//! |---|---|---|
//! | `SMX_TRACE` | `smx-obs` (`trace.rs`) | `1` installs the in-memory span collector; `json` streams checksummed JSON-lines spans to `SMX_TRACE_FILE`. Anything else (or unset) leaves tracing disabled at one relaxed atomic load per site. |
//! | `SMX_TRACE_FILE` | `smx-obs` (`trace.rs`) | Path for the JSON-lines sink when `SMX_TRACE=json`. Defaults to `smx-trace.jsonl` in the working directory. |
//! | `SMX_KERNEL_FORCE` | `smx-text` (`dispatch.rs`) | Pins the row-kernel tier: `scalar`, `swar`, or `arch`. Unset selects the best tier available at runtime. The forced-variant differential suites run under each value to prove bitwise identity. |
//! | `SMX_BENCH_GUARD` | `scripts/bench_guard.sh`, benches | `1` makes the bench harness compare fresh measurements against the committed `BENCH_matching.json` floors and fail on regression; unset runs benches without the gate. |
//! | `SMX_BENCH_JSON` | `smx-bench` (criterion shim) | Path to write machine-readable bench values; set by `scripts/bench_matching.sh`. |
//! | `SMX_BENCH_OUT` | `scripts/bench_matching.sh` | Overrides the output path for the regenerated `BENCH_matching.json`. |
//! | `SMX_BENCH_XL` | `smx-bench` (`matching.rs`) | `1` extends `s1_vs_repository_size` to XL repository sizes (10⁴–10⁵ schemas). Off by default — the XL sweep takes minutes. |
//!
//! # Observability
//!
//! The hot paths of the store, candidate generator, certified matcher,
//! batch matcher, and persistence layer are instrumented with [`obs`]
//! spans and metrics. Tracing is off by default and costs one relaxed
//! atomic load per site; set `SMX_TRACE=1` (in-memory collector — see
//! `examples/observability.rs` for rendering the span tree) or
//! `SMX_TRACE=json` (checksummed JSON-lines sink at `$SMX_TRACE_FILE`)
//! to switch it on. The `trace_identity` suite proves enabling tracing
//! changes no matcher's answers bitwise, and the `trace_overhead`
//! bench group guards the disabled-path cost.

pub mod pipeline;

pub use smx_core as bounds;
pub use smx_eval as eval;
pub use smx_match as matching;
pub use smx_obs as obs;
pub use smx_persist as persist;
pub use smx_repo as repo;
pub use smx_synth as synth;
pub use smx_text as text;
pub use smx_xml as xml;
