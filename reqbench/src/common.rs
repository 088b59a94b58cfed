//! Pieces every workload shares: error accounting, canonical answers,
//! the traced decomposition of one certified request, and the restart
//! and mutation probes.

use crate::inputs::{resolve_slot, Op};
use crate::stats::{fastest_mean, median, ms, quantile, ratio, Metrics};
use crate::trace::Tracer;
use smx_eval::AnswerSet;
use smx_match::{
    CandidateGenerator, CertifiedAnswer, ExhaustiveMatcher, Mapping, MappingRegistry, MatchProblem,
    Matcher, RecallCertificate,
};
use smx_persist::Snapshot;
use smx_repo::{Repository, SchemaId, StoreConfig};
use smx_xml::Schema;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. The first
/// [`SETUP_BEFORE`] run before the timed loop, the last of them serving
/// it; the rest run after it, so that the set-ups sample the host over
/// the whole run, not only the contention at its start.
pub const SETUP_ROUNDS: usize = 5;
pub const SETUP_BEFORE: usize = 2;
/// Requests per `batch_*` block on the single-request workloads.
pub const BLOCK: usize = 32;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Ledger {
    /// Count one operation; a failure is recorded with its reason.
    pub fn record(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(reason());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// Run `op`, turning a panic into an `Err` so no failure aborts the run.
pub fn guarded<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(result) => result,
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned())),
    }
}

/// An answer set in registry-independent form: `(mapping, score bits)`,
/// sorted. Two runs agree bitwise exactly when their canonical forms are
/// equal, whichever registry interned their ids.
pub type Canon = Vec<(Mapping, u64)>;

pub fn canon(answers: &AnswerSet, registry: &MappingRegistry) -> Canon {
    let mut out: Canon = answers
        .answers()
        .iter()
        .map(|a| {
            let mapping = registry
                .resolve(a.id)
                .expect("answer ids come from this registry");
            (mapping, a.score.to_bits())
        })
        .collect();
    out.sort();
    out
}

/// Digest of a canonical answer set, and of the certificate when given.
pub fn digest(answers: &Canon, certificate: Option<&RecallCertificate>) -> u64 {
    let mut h = crate::inputs::Fnv::new();
    for (m, bits) in answers {
        h.u64(m.schema.0 as u64);
        for t in &m.targets {
            h.u64(t.0 as u64);
        }
        h.u64(*bits);
    }
    if let Some(c) = certificate {
        for v in [
            c.answer_count() as u64,
            c.missed_cap().to_bits(),
            c.active_schemas() as u64,
            c.cert_empty_schemas() as u64,
            c.total_schemas() as u64,
            c.pruned_pairs(),
            c.scored_pairs(),
            c.delta_max().to_bits(),
            c.certified_recall().to_bits(),
        ] {
            h.u64(v);
        }
    }
    h.finish()
}

/// Share of `oracle`'s answers present (with identical score bits) in
/// `answers`; 1 when the oracle is empty.
pub fn measured_recall(answers: &Canon, oracle: &Canon) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let kept = answers
        .iter()
        .filter(|a| oracle.binary_search(a).is_ok())
        .count();
    kept as f64 / oracle.len() as f64
}

/// Whether every answer appears in `oracle` with the same score bits.
pub fn is_subset(answers: &Canon, oracle: &Canon) -> bool {
    answers.iter().all(|a| oracle.binary_search(a).is_ok())
}

/// The exhaustive oracle's canonical answers for `personal` on `repo`.
pub fn oracle_answers(personal: &Schema, repo: &Repository, delta: f64) -> Result<Canon, String> {
    let registry = MappingRegistry::new();
    guarded(|| {
        let problem =
            MatchProblem::new(personal.clone(), repo.clone()).map_err(|e| e.to_string())?;
        let answers = ExhaustiveMatcher::default().run(&problem, delta, &registry);
        Ok(canon(&answers, &registry))
    })
}

/// `f` over `items` on two worker threads (the oracle's pace-setter);
/// results in item order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Ingest `schemas` into an empty repository with `config`.
pub fn build_repository(schemas: &[Schema], config: StoreConfig) -> Repository {
    let mut repo = Repository::with_store_config(config);
    for s in schemas {
        repo.add(s.clone());
    }
    repo
}

/// A fresh, unbounded repository holding the same slots as `repo` —
/// removed slots stay as the empty schemas every matcher skips, so
/// schema ids line up.
pub fn rebuild(repo: &Repository) -> Repository {
    let schemas: Vec<Schema> = repo.iter().map(|(_, s)| s.clone()).collect();
    build_repository(&schemas, StoreConfig::default())
}

/// One certified request as the sequence of public calls
/// `CertifiedMatcher::run_certified` makes, each timed as its layer.
pub fn traced_certified(
    tracer: &mut Tracer,
    generator: &CandidateGenerator,
    problem: &MatchProblem,
    delta: f64,
    registry: &MappingRegistry,
) -> CertifiedAnswer {
    let objective = generator.objective();
    let candidates = tracer.span("match.candidates", || generator.generate(problem, delta));
    let restricted = tracer.span("match.cost_matrix", || {
        let restricted = problem.with_candidates(&candidates);
        restricted.cost_matrix(objective);
        restricted
    });
    // Each layer also frees what it was the last to use — the entry
    // point pays for those drops too.
    let answers = tracer.span("match.search", || {
        let answers = ExhaustiveMatcher::new(objective.clone()).run(&restricted, delta, registry);
        drop(restricted);
        answers
    });
    let certificate = tracer.span("match.certified", || {
        let certificate = RecallCertificate::new(&candidates, answers.len());
        drop(candidates);
        certificate
    });
    CertifiedAnswer {
        answers,
        certificate,
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(workload: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".reqbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Fails, harmlessly, while another run still uses the parent.
        let _ = std::fs::remove_dir(".reqbench_tmp");
    }
}

/// Timings of one snapshot save + load round trip.
pub struct Restart {
    pub save: Duration,
    pub load: Duration,
    pub bytes: u64,
    pub repo: Repository,
}

/// Save `repo` to `path` and load it back.
pub fn restart(repo: &Repository, path: &Path) -> Result<Restart, String> {
    let t = Instant::now();
    repo.save_snapshot_file(path)
        .map_err(|e| format!("snapshot save: {e}"))?;
    let save = t.elapsed();
    let t = Instant::now();
    let loaded = Repository::load_snapshot_file(path).map_err(|e| format!("snapshot load: {e}"))?;
    let load = t.elapsed();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(Restart {
        save,
        load,
        bytes,
        repo: loaded,
    })
}

/// Mutation latencies (ms) per kind, in run order.
#[derive(Debug, Default)]
pub struct MutationTimes {
    pub replace: Vec<f64>,
    pub remove: Vec<f64>,
    pub add: Vec<f64>,
}

/// What the write and restart paths were timed at.
#[derive(Debug, Default)]
pub struct WriteSamples {
    pub mutations: MutationTimes,
    pub save_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    /// Size of the last snapshot written.
    pub snapshot_bytes: u64,
}

impl WriteSamples {
    /// Report the mutation and snapshot layer metrics.
    pub fn put_layers(&self, m: &mut Metrics, orphaned_labels: usize) {
        let t = &self.mutations;
        m.put("repo.mutate.replace_ms_p50", median(&t.replace), "ms");
        m.put("repo.mutate.remove_ms_p50", median(&t.remove), "ms");
        m.put("repo.mutate.add_ms_p50", median(&t.add), "ms");
        m.put(
            "repo.store.orphaned_labels_end",
            orphaned_labels as f64,
            "count",
        );
        m.put("persist.snapshot.save_ms_p50", median(&self.save_ms), "ms");
        m.put("persist.snapshot.load_ms_p50", median(&self.load_ms), "ms");
        m.put(
            "persist.snapshot.mb",
            self.snapshot_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
    }
}

/// Apply one mutation op to `repo`, timing only the public call.
/// Returns `None` for match ops.
pub fn apply_mutation(
    repo: &mut Repository,
    op: Op,
    times: &mut MutationTimes,
    ledger: &mut Ledger,
) -> Option<Duration> {
    let slot = |draw: u64, repo: &Repository| {
        resolve_slot(draw, repo.len(), |s| repo.is_removed(SchemaId(s as u32)))
            .map(|s| SchemaId(s as u32))
    };
    let (kind, result) = match op {
        Op::Match(_) => return None,
        Op::Replace { slot_draw, schema } => {
            let sid = slot(slot_draw, repo);
            let t = Instant::now();
            let ok = sid.is_some_and(|sid| repo.replace_schema(sid, schema));
            ("replace", (ok, t.elapsed()))
        }
        Op::Remove { slot_draw } => {
            let sid = slot(slot_draw, repo);
            let t = Instant::now();
            let ok = sid.is_some_and(|sid| repo.remove_schema(sid));
            ("remove", (ok, t.elapsed()))
        }
        Op::Add { schema } => {
            let before = repo.len();
            let t = Instant::now();
            let sid = repo.add(schema);
            ("add", (sid.index() == before, t.elapsed()))
        }
    };
    let (ok, dt) = result;
    ledger.record(ok, || format!("{kind} mutation was refused"));
    match kind {
        "replace" => times.replace.push(ms(dt)),
        "remove" => times.remove.push(ms(dt)),
        _ => times.add.push(ms(dt)),
    }
    Some(dt)
}

/// Per-block sums of `latencies` over consecutive blocks of [`BLOCK`]
/// requests (a trailing partial block is dropped).
pub fn block_sums(latencies: &[f64]) -> Vec<f64> {
    latencies
        .chunks_exact(BLOCK)
        .map(|c| c.iter().sum())
        .collect()
}

/// `num / den` for pooled recall: 1 when nothing was there to recall.
pub fn pooled(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// What a timed operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Match,
    Mutate,
    Restart,
}

/// One timed operation: its wall (ms), and whether that wall counts
/// toward throughput.
#[derive(Debug, Clone, Copy)]
pub struct TimedOp {
    pub kind: OpKind,
    pub ms: f64,
    pub counted: bool,
}

/// Timed wall (ms) per window the run is cut into.
const WINDOW_MS: f64 = 1000.0;
/// Share of the windows, the fastest, that the central figures come from.
const FASTEST_SHARE: f64 = 0.1;

/// A run's timed operations, in the order they ran.
#[derive(Debug, Clone)]
pub struct Timed {
    pub ops: Vec<TimedOp>,
    counted_ms: f64,
    /// Problems one match operation answers.
    pub per_match: usize,
    /// Whether a match operation is a whole batch; otherwise batches are
    /// [`BLOCK`] consecutive match operations.
    pub match_is_batch: bool,
}

/// One problem per match operation, batches of [`BLOCK`] of them.
impl Default for Timed {
    fn default() -> Self {
        Timed::new(1, false)
    }
}

impl Timed {
    pub fn new(per_match: usize, match_is_batch: bool) -> Self {
        Timed {
            ops: Vec::new(),
            counted_ms: 0.0,
            per_match,
            match_is_batch,
        }
    }

    pub fn push(&mut self, kind: OpKind, ms: f64, counted: bool) {
        self.ops.push(TimedOp { kind, ms, counted });
        if counted {
            self.counted_ms += ms;
        }
    }

    /// Counted wall so far (s).
    pub fn seconds(&self) -> f64 {
        self.counted_ms / 1e3
    }

    /// Consecutive windows of [`WINDOW_MS`] counted wall each, an
    /// uncounted operation staying with the window of the request it
    /// followed; a trailing shorter window is dropped unless it is the
    /// only one.
    fn windows(&self) -> Vec<&[TimedOp]> {
        let mut out = Vec::new();
        let (mut start, mut wall) = (0, 0.0);
        for (i, op) in self.ops.iter().enumerate() {
            if op.counted && wall >= WINDOW_MS {
                out.push(&self.ops[start..i]);
                (start, wall) = (i, 0.0);
            }
            if op.counted {
                wall += op.ms;
            }
        }
        if wall >= WINDOW_MS || out.is_empty() {
            out.push(&self.ops[start..]);
        }
        out
    }

    /// Problems answered per second of counted wall.
    fn throughput(&self, ops: &[TimedOp]) -> f64 {
        let answered = ops.iter().filter(|o| o.kind == OpKind::Match).count() * self.per_match;
        let wall: f64 = ops.iter().filter(|o| o.counted).map(|o| o.ms).sum();
        ratio(answered as f64 * 1e3, wall)
    }

    /// The fastest [`FASTEST_SHARE`] of the windows (at least one), their
    /// operations concatenated.
    fn fastest(&self) -> Vec<TimedOp> {
        let mut windows = self.windows();
        windows.sort_by(|a, b| self.throughput(b).total_cmp(&self.throughput(a)));
        let keep = ((windows.len() as f64 * FASTEST_SHARE).round() as usize).max(1);
        windows[..keep].concat()
    }

    fn samples(ops: &[TimedOp], kind: OpKind) -> Vec<f64> {
        ops.iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.ms)
            .collect()
    }

    fn batches(&self, ops: &[TimedOp]) -> Vec<f64> {
        let matches = Self::samples(ops, OpKind::Match);
        if self.match_is_batch {
            matches
        } else {
            block_sums(&matches)
        }
    }
}

/// Everything the end-to-end metrics are computed from.
///
/// On a shared host, other tenants only ever slow the program, and they
/// come and go in spells of seconds to minutes: window throughput steps
/// between a fast and a slow level, up to 1.45× apart, and the share of a
/// run spent in each varies from a tenth to four fifths. A whole-run
/// figure follows that share, so runs of the same code differed by a
/// fifth. So the central figures — throughput and every p50 — come from
/// the run's least-disturbed second of timed wall in ten (its fastest
/// tenth of windows), the estimate of what the program itself costs
/// (interference only adds time). Tail figures (p90, p99) describe the
/// rare slow operation, so they pool every operation of the run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setups: Vec<f64>,
    pub timed: Timed,
    pub load_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub certified_recall: f64,
    pub measured_recall: f64,
}

impl EndToEnd {
    pub fn put(&self, m: &mut Metrics) {
        let t = &self.timed;
        let fast = t.fastest();
        let all = &t.ops[..];
        let p50 = |ops: &[TimedOp], kind| quantile(&Timed::samples(ops, kind), 0.5);
        let tail = |kind, q| quantile(&Timed::samples(all, kind), q);
        m.put("setup_s", median(&self.setups), "s");
        m.put("throughput_qps", t.throughput(&fast), "1/s");
        m.put("match_p50_ms", p50(&fast, OpKind::Match), "ms");
        m.put("match_p99_ms", tail(OpKind::Match, 0.99), "ms");
        m.put("batch_p50_ms", quantile(&t.batches(&fast), 0.5), "ms");
        m.put("batch_p90_ms", quantile(&t.batches(all), 0.9), "ms");
        m.put("mutate_p50_ms", p50(&fast, OpKind::Mutate), "ms");
        m.put("mutate_p90_ms", tail(OpKind::Mutate, 0.9), "ms");
        // Loads do the same work each time: the fastest tenth of them.
        m.put(
            "restart_ms",
            fastest_mean(&self.load_ms, FASTEST_SHARE),
            "ms",
        );
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("certified_recall", self.certified_recall, "ratio");
        m.put("measured_recall", self.measured_recall, "ratio");
    }
}

/// A read-only workload's timed run. `latencies[i]` is request `i`'s
/// wall (ms), answering `per_request` problems; `probes` holds the writes
/// interleaved with them, which do not count toward throughput.
pub fn read_only_timed(
    latencies: &[f64],
    per_request: usize,
    match_is_batch: bool,
    probes: &Probes,
) -> Timed {
    let mut timed = Timed::new(per_request, match_is_batch);
    let mut writes = probes
        .write_at
        .iter()
        .zip(&probes.samples.mutations.replace)
        .peekable();
    for (i, &ms) in latencies.iter().enumerate() {
        timed.push(OpKind::Match, ms, true);
        while let Some((_, &w)) = writes.next_if(|(&at, _)| at == i) {
            timed.push(OpKind::Mutate, w, false);
        }
    }
    timed
}

/// Probes interleaved with a read-only workload's timed loop, so they
/// sample the same host conditions as its requests: an answer-neutral
/// write (a schema replaced in place by an identical copy) every
/// [`REPLACE_EVERY`] requests, and a snapshot save + load of the serving
/// repository every `restart_every` requests. Neither is part of any
/// request's timed wall, and neither changes an answer.
pub struct Probes {
    restart_every: usize,
    next_slot: u64,
    /// The request each write followed, parallel to the replace times.
    pub write_at: Vec<usize>,
    pub samples: WriteSamples,
}

/// Requests between two interleaved answer-neutral writes.
const REPLACE_EVERY: usize = 4;

impl Probes {
    pub fn new(restart_every: usize) -> Self {
        Probes {
            restart_every,
            next_slot: 0,
            write_at: Vec::new(),
            samples: WriteSamples::default(),
        }
    }

    /// Run whichever probes are due after request `i`.
    pub fn after_request(
        &mut self,
        i: usize,
        repo: &mut Repository,
        scratch: &Scratch,
        ledger: &mut Ledger,
    ) {
        if i % REPLACE_EVERY == REPLACE_EVERY - 1 {
            // A golden-ratio stride spreads the writes over the slots.
            self.next_slot = self.next_slot.wrapping_add(0x9E37_79B9_7F4A_7C15);
            if let Some(slot) = resolve_slot(self.next_slot, repo.len(), |s| {
                repo.is_removed(SchemaId(s as u32))
            }) {
                let sid = SchemaId(slot as u32);
                let same = repo.schema(sid).clone();
                let t = Instant::now();
                let ok = repo.replace_schema(sid, same);
                let dt = ms(t.elapsed());
                self.write_at.push(i);
                self.samples.mutations.replace.push(dt);
                ledger.record(ok, || "identical replace was refused".to_owned());
            }
        }
        if i % self.restart_every == self.restart_every - 1 {
            let path = scratch.path("probe.snap");
            match guarded(|| restart(repo, &path)) {
                Ok(r) => {
                    ledger.record(r.repo == *repo, || "restored repository differs".to_owned());
                    self.samples.save_ms.push(ms(r.save));
                    self.samples.load_ms.push(ms(r.load));
                    self.samples.snapshot_bytes = r.bytes;
                }
                Err(e) => ledger.record(false, || e),
            }
        }
    }
}

/// Layer self times must cover at least this share of the traced
/// request wall time, or the decomposition misses a call.
const MIN_COVERAGE: f64 = 0.95;

/// Fail the run when the traced public calls do not account for
/// [`MIN_COVERAGE`] of the traced request wall.
pub fn check_coverage(coverage: f64, ledger: &mut Ledger) {
    ledger.record(coverage >= MIN_COVERAGE, || {
        format!("layer spans cover {coverage:.4} of request wall, below {MIN_COVERAGE}")
    });
}

/// The traced replay must reproduce the untraced entry point's answers
/// and certificates bitwise, request by request.
pub fn compare_passes(untraced: &[u64], traced: &[u64], ledger: &mut Ledger) {
    ledger.record(untraced.len() == traced.len(), || {
        format!(
            "traced replay served {} requests, untraced {}",
            traced.len(),
            untraced.len()
        )
    });
    let diverged = untraced.iter().zip(traced).filter(|(a, b)| a != b).count();
    ledger.record(diverged == 0, || {
        format!("{diverged} traced answers differ from the untraced entry point")
    });
}

/// Per-request layers of one certified match.
#[derive(Debug, Default)]
pub struct RequestLayers {
    pub candidates_ms: Vec<f64>,
    pub cost_matrix_ms: Vec<f64>,
    pub search_ms: Vec<f64>,
    pub certified_ms: Vec<f64>,
    pub active_frac: f64,
    pub caps_sum_p50: f64,
    pub recall_gap: f64,
    pub pair_evals_per_req: f64,
    pub partial_row_fills_per_req: f64,
    pub candidate_hits_per_req: f64,
}

impl RequestLayers {
    pub fn from_tracer(tracer: &Tracer) -> Self {
        RequestLayers {
            candidates_ms: tracer.durations_ms("match.candidates"),
            cost_matrix_ms: tracer.durations_ms("match.cost_matrix"),
            search_ms: tracer.durations_ms("match.search"),
            certified_ms: tracer.durations_ms("match.certified"),
            ..Default::default()
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put(
            "match.candidates.ms_p50",
            quantile(&self.candidates_ms, 0.5),
            "ms",
        );
        m.put(
            "match.candidates.ms_p99",
            quantile(&self.candidates_ms, 0.99),
            "ms",
        );
        m.put("match.candidates.active_frac", self.active_frac, "ratio");
        m.put("match.candidates.caps_sum_p50", self.caps_sum_p50, "count");
        m.put(
            "match.cost_matrix.ms_p50",
            quantile(&self.cost_matrix_ms, 0.5),
            "ms",
        );
        m.put(
            "match.cost_matrix.ms_p99",
            quantile(&self.cost_matrix_ms, 0.99),
            "ms",
        );
        m.put("match.search.ms_p50", quantile(&self.search_ms, 0.5), "ms");
        m.put("match.search.ms_p99", quantile(&self.search_ms, 0.99), "ms");
        m.put(
            "match.certified.us_p50",
            quantile(&self.certified_ms, 0.5) * 1e3,
            "us",
        );
        m.put("match.certified.recall_gap", self.recall_gap, "ratio");
        m.put(
            "repo.store.pair_evals_per_req",
            self.pair_evals_per_req,
            "count",
        );
        m.put(
            "repo.store.partial_row_fills_per_req",
            self.partial_row_fills_per_req,
            "count",
        );
        m.put(
            "repo.store.candidate_hits_per_req",
            self.candidate_hits_per_req,
            "count",
        );
    }
}

/// Store sweep, spill and batch layers (measured on `bulk_bounded`; 0
/// on the workloads that never call them).
#[derive(Debug, Default)]
pub struct BatchLayers {
    pub sweep_ms: Vec<f64>,
    pub ns_per_pair: f64,
    pub row_hit_ratio: f64,
    pub evictions_per_batch: f64,
    pub recoveries_per_batch: f64,
    pub spill_failures: f64,
    pub spill_mb_end: f64,
    pub chunks_per_batch: f64,
    pub parallel_speedup: f64,
}

pub fn put_store_sweep_layers(m: &mut Metrics, b: &BatchLayers) {
    m.put("repo.store.sweep_ms_p50", quantile(&b.sweep_ms, 0.5), "ms");
    m.put("text.kernel.ns_per_pair", b.ns_per_pair, "ns");
    m.put("repo.store.row_hit_ratio", b.row_hit_ratio, "ratio");
    m.put(
        "repo.store.evictions_per_batch",
        b.evictions_per_batch,
        "count",
    );
    m.put(
        "persist.spill.recoveries_per_batch",
        b.recoveries_per_batch,
        "count",
    );
    m.put("persist.spill.failures", b.spill_failures, "count");
    m.put("persist.spill.mb_end", b.spill_mb_end, "MiB");
    m.put("match.batch.chunks_per_batch", b.chunks_per_batch, "count");
    m.put("match.batch.parallel_speedup", b.parallel_speedup, "ratio");
}

/// Decomposition metrics: tracing overhead, how much of the traced
/// request wall the layer spans cover, and the store sweep's share.
pub fn put_trace_layers(m: &mut Metrics, tracer: &Tracer, kind: &str, untraced_wall_ms: f64) {
    let traced_wall = tracer.root_total_ms(kind);
    for (layer, total) in tracer.layer_totals() {
        eprintln!("layer {layer:<20} {total:>12.3} ms total");
    }
    m.put(
        "trace.overhead_frac",
        ratio(traced_wall, untraced_wall_ms) - 1.0,
        "ratio",
    );
    m.put("trace.layer_coverage", tracer.coverage(kind), "ratio");
    m.put(
        "repo.store.time_share",
        ratio(tracer.total_ms("repo.store"), traced_wall),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_figures_come_from_the_fastest_windows() {
        // Ten one-second windows: nine of 10 ms requests, one of 5 ms.
        let mut t = Timed::new(1, false);
        for w in 0..10 {
            let ms = if w == 3 { 5.0 } else { 10.0 };
            for _ in 0..(1000.0 / ms) as usize {
                t.push(OpKind::Match, ms, true);
            }
            t.push(OpKind::Mutate, ms / 10.0, false);
        }
        assert_eq!(t.windows().len(), 10);
        let fast = t.fastest();
        assert_eq!(t.throughput(&fast), 200.0);
        assert_eq!(Timed::samples(&fast, OpKind::Mutate), vec![0.5]);
        assert_eq!(t.batches(&fast).len(), 200 / BLOCK);
        assert_eq!(quantile(&Timed::samples(&t.ops, OpKind::Match), 0.99), 10.0);
    }
}
