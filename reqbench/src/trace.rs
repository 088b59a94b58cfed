//! In-memory spans recorded by the benchmark around its own public calls
//! into each layer, folded into per-layer numbers when the run ends.
//!
//! A request (one match problem, one batch, one mutation or restart)
//! opens a root span; every public call made on its behalf is a child
//! span named after the layer it enters. Children never nest, so a
//! layer's self time is its span's duration, and the root's self time —
//! request wall minus the covered part — is the bookkeeping between calls.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the root span this span belongs to; `None` for roots.
    parent: Option<u32>,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a request's root span.
    pub fn begin(&mut self, kind: &'static str) {
        assert!(self.open.is_none(), "requests do not nest");
        let start_ns = self.now_ns();
        self.open = Some(self.spans.len() as u32);
        self.spans.push(Span {
            layer: kind,
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
    }

    /// Close the open root span; returns its wall time in ms.
    pub fn end(&mut self) -> f64 {
        let root = self.open.take().expect("a request is open") as usize;
        self.spans[root].end_ns = self.now_ns();
        self.spans[root].ms()
    }

    /// Time `call` as a child span of the open request.
    pub fn span<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let parent = self.open;
        debug_assert!(parent.is_some(), "layer spans belong to a request");
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// Self times (ms) of every span of `layer`, in record order.
    pub fn durations_ms(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ms)
            .collect()
    }

    /// Summed self time (ms) of `layer`.
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.durations_ms(layer).iter().fold(0.0, |a, b| a + b)
    }

    /// Every layer's summed self time (ms), largest first.
    pub fn layer_totals(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            match totals.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += s.ms(),
                None => totals.push((s.layer, s.ms())),
            }
        }
        totals.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite times"));
        totals
    }

    /// Summed wall time (ms) of the root spans of `kind`.
    pub fn root_total_ms(&self, kind: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.layer == kind)
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Over every root span of `kind`: the summed self time of its layer
    /// spans divided by its wall time, aggregated across requests — the
    /// share of traced request wall the layer calls account for.
    pub fn coverage(&self, kind: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let (mut inside, mut wall) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.layer == kind {
                inside += covered[i];
                wall += s.end_ns - s.start_ns;
            }
        }
        if wall == 0 {
            1.0
        } else {
            inside as f64 / wall as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_attribute_to_their_request() {
        let mut t = Tracer::default();
        t.begin("req");
        let x = t.span("a", || 3);
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let wall = t.end();
        assert_eq!(x, 3);
        assert_eq!(t.durations_ms("a").len(), 1);
        assert!(t.total_ms("b") >= 2.0);
        assert!(wall >= t.total_ms("a") + t.total_ms("b"));
        let c = t.coverage("req");
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
        assert_eq!(t.root_total_ms("req"), wall);
    }
}
