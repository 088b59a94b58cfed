#![deny(missing_docs)]

//! `smx-obs` — structured tracing, metrics registry, and exporters for
//! the schema-matching stack. Zero external dependencies (std only,
//! stable Rust): every workspace crate hangs instrumentation off this
//! one, so it sits below even the vendor shims in the dependency graph.
//!
//! # Observability
//!
//! Three pillars, one switch:
//!
//! * **Spans** ([`span`], [`Span`], [`Recorder`]) — RAII guards that
//!   capture name, parent (per-thread nesting), wall time via
//!   `Instant`, and typed attributes, delivered to a global or
//!   thread-scoped subscriber on drop.
//! * **Metrics** ([`registry`], [`Counter`], [`Gauge`], [`Histogram`])
//!   — named monotonic counters, gauges, and fixed-bucket latency
//!   histograms, exported as a mergeable [`MetricsSnapshot`].
//! * **Exporters** — the hierarchical span-tree text renderer
//!   ([`render_span_tree`]), a JSON-lines sink with per-line FNV-1a
//!   checksums ([`JsonLinesSink`]), and [`MetricsSnapshot`]'s
//!   `Display`.
//!
//! The switch is [`enabled`]: a relaxed atomic flag initialised from
//! the `SMX_TRACE` environment variable (`0`/unset = off, `1` = on with
//! an in-memory [`TraceCollector`], `json` = on with a [`JsonLinesSink`]
//! at `$SMX_TRACE_FILE` or `smx-trace.jsonl`). Disabled, every
//! instrumentation site costs one relaxed load — the workspace's
//! `trace_overhead` bench group holds that to within 5% of the
//! uninstrumented path, and the `trace_identity` differential suite
//! proves that enabling tracing changes no matcher's answers bitwise.
//!
//! ```
//! let collector = std::sync::Arc::new(smx_obs::TraceCollector::new());
//! let _scope = smx_obs::scoped_recorder(collector.clone());
//! smx_obs::set_enabled(true);
//! {
//!     let mut outer = smx_obs::span("demo.outer");
//!     outer.attr("schemas", 1024usize);
//!     drop(smx_obs::span("demo.inner"));
//! }
//! smx_obs::set_enabled(false);
//! let tree = collector.render_tree();
//! assert!(tree.contains("demo.outer"));
//! assert!(tree.contains("  demo.inner"));
//! ```

mod metrics;
mod sink;
mod trace;

pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramData, MetricsSnapshot, Registry,
    LATENCY_BUCKET_BOUNDS_NS,
};
pub use sink::{encode_span_json, trace_line_is_valid, JsonLinesSink};
pub use trace::{
    enabled, env_collector, format_ns, install_collector, render_span_tree, scoped_recorder,
    set_enabled, set_recorder, span, AttrValue, Recorder, ScopedRecorder, Span, SpanRecord,
    TraceCollector,
};

/// Time `body` and, when tracing is enabled, record its wall time into
/// the global histogram named `name`. Disabled cost: one relaxed load.
pub fn time_histogram<T>(name: &str, body: impl FnOnce() -> T) -> T {
    if !enabled() {
        return body();
    }
    let started = std::time::Instant::now();
    let out = body();
    registry()
        .histogram(name)
        .observe_ns(started.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // The enabled flag and global recorder are process-global; unit
    // tests that flip them serialize here.
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}
