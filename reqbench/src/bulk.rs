//! `bulk_bounded`: batches of perturbed personal schemas through the
//! batch engine against a small repository whose row cache holds a small
//! share of the batches' label vocabulary, spilling evictions to disk.

use crate::common::*;
use crate::inputs::{perturbed_ring, BatchStream, Corpus, Fnv, RingProblem};
use crate::stats::{mean, median, ms, peak_rss_mb, ratio, Metrics};
use crate::trace::Tracer;
use smx_match::{
    BatchMatcher, BatchProblem, CandidateGenerator, CertifiedMatcher, ExhaustiveMatcher,
    MappingRegistry, MatchProblem, ObjectiveFunction,
};
use smx_persist::SpillFile;
use smx_repo::{EvictionSink, Repository, StoreConfig};
use smx_xml::Schema;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// `POOL * (DERIVED + NOISE)` = 1024 repository schemas.
const POOL: usize = 256;
const DERIVED: usize = 1;
const NOISE: usize = 3;
const HOST_NODES: usize = 9;
const STRENGTH: f64 = 0.4;
/// Personal schemas per `run_batch` call.
const BATCH: usize = 32;
/// Perturbed personal schemas the batches draw from, and how hard each
/// is perturbed.
const RING: usize = 1024;
const QUERY_STRENGTH: f64 = 1.0;
/// Every 4th problem of a batch carries a never-seen label.
const NOVEL_EVERY: usize = 4;
const DELTA: f64 = 0.15;
/// `BatchMatcher` workers; the store sweeps with as many threads. One,
/// so that a neighbour busy on the host's other core does not stall
/// every batch on its slowest worker.
const THREADS: usize = 1;
/// The row cache holds 1/`CAP_DIVISOR` of the ring's distinct labels —
/// below one batch's vocabulary, so admission splits batches into chunks
/// and the store's sweeps, evictions and spill recoveries dominate.
const CAP_DIVISOR: usize = 128;
/// Batches between two interleaved snapshot round trips.
const RESTART_PROBE_EVERY: usize = 40;
const TIMED_STREAM: u64 = 4;
/// Batches fingerprinted per run.
const FINGERPRINT_BATCHES: usize = 64;

pub struct Inputs {
    seed: u64,
    corpus: Corpus,
    ring: Vec<Schema>,
    /// The bounded store's `max_cached_rows`.
    cap: usize,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let corpus = Corpus::generate(seed, POOL, DERIVED, NOISE, HOST_NODES, STRENGTH);
        let ring = perturbed_ring(seed, &corpus, RING, QUERY_STRENGTH);
        let labels: HashSet<&str> = ring
            .iter()
            .flat_map(|s| s.node_ids().map(|id| s.node(id).name.as_str()))
            .collect();
        let cap = (labels.len() / CAP_DIVISOR).max(1);
        Inputs {
            seed,
            corpus,
            ring,
            cap,
        }
    }

    fn stream(&self) -> BatchStream {
        BatchStream::new(self.seed, TIMED_STREAM, BATCH, NOVEL_EVERY)
    }

    pub fn fingerprint(&self) -> (u64, u64) {
        let mut inputs = Fnv::new();
        self.corpus.fingerprint(&mut inputs);
        for s in &self.ring {
            inputs.schema(s);
        }
        inputs.u64(self.cap as u64);
        let mut requests = Fnv::new();
        let mut stream = self.stream();
        for _ in 0..FINGERPRINT_BATCHES {
            for p in stream.next_batch(&self.ring) {
                requests.schema(&p.schema);
            }
        }
        (inputs.finish(), requests.finish())
    }
}

fn schemas(problems: Vec<RingProblem>) -> Vec<Schema> {
    problems.into_iter().map(|p| p.schema).collect()
}

type Inner = CertifiedMatcher<ExhaustiveMatcher>;

fn generator() -> CandidateGenerator {
    CandidateGenerator::auto(ObjectiveFunction::default())
}

fn matcher() -> BatchMatcher<Inner> {
    BatchMatcher::with_threads(
        CertifiedMatcher::new(ExhaustiveMatcher::default(), generator()),
        THREADS,
    )
}

/// A bounded repository with its spill file installed.
struct Deployment {
    repo: Repository,
    spill: Arc<SpillFile>,
}

/// Ingest, install the spill file, and warm up with one pass over the
/// ring, so every ring label has a row — cached or spilled — before the
/// first timed batch.
fn setup(
    inputs: &Inputs,
    scratch: &Scratch,
    name: &str,
    ledger: &mut Ledger,
) -> Result<(Deployment, f64), String> {
    let matcher = matcher();
    let t = Instant::now();
    let spill =
        Arc::new(SpillFile::create(scratch.path(name)).map_err(|e| format!("spill file: {e}"))?);
    let repo = build_repository(
        &inputs.corpus.schemas,
        StoreConfig {
            max_cached_rows: Some(inputs.cap),
            batch_threads: THREADS,
            shards: 0,
        },
    );
    repo.store()
        .set_eviction_sink(Some(Arc::clone(&spill) as Arc<dyn EvictionSink>));
    for personals in inputs.ring.chunks(BATCH) {
        let personals = personals.to_vec();
        let registry = MappingRegistry::new();
        let ok = guarded(|| {
            let batch = BatchProblem::new(personals, repo.clone()).map_err(|e| e.to_string())?;
            matcher.run_batch(&batch, DELTA, &registry);
            Ok(())
        });
        if let Err(e) = ok {
            ledger.record(false, || format!("warm-up batch: {e}"));
        }
    }
    Ok((Deployment { repo, spill }, t.elapsed().as_secs_f64()))
}

/// What one pass over the batch stream recorded.
#[derive(Default)]
struct Pass {
    batch_ms: Vec<f64>,
    /// Per problem, in stream order: the answers' digest and count.
    digests: Vec<u64>,
    counts: Vec<usize>,
}

impl Pass {
    fn record(
        &mut self,
        batch: usize,
        result: Result<Vec<smx_eval::AnswerSet>, String>,
        registry: &MappingRegistry,
        ledger: &mut Ledger,
    ) {
        let answers: Vec<Canon> = match result {
            Ok(sets) if sets.len() == BATCH => sets.iter().map(|a| canon(a, registry)).collect(),
            Ok(sets) => {
                ledger.fail(format!(
                    "batch {batch}: {} answer sets for {BATCH}",
                    sets.len()
                ));
                vec![Canon::new(); BATCH]
            }
            Err(e) => {
                ledger.fail(format!("batch {batch}: {e}"));
                vec![Canon::new(); BATCH]
            }
        };
        self.digests.extend(answers.iter().map(|c| digest(c, None)));
        self.counts.extend(answers.iter().map(Vec::len));
    }
}

/// Untraced: `run_batch` on each batch until `seconds` of timed batch
/// wall have elapsed, with the interleaved probes run between batches.
fn serve(
    inputs: &Inputs,
    dep: &mut Deployment,
    seconds: f64,
    ledger: &mut Ledger,
    (probes, scratch): (&mut Probes, &Scratch),
) -> Pass {
    let matcher = matcher();
    let mut stream = inputs.stream();
    let mut pass = Pass::default();
    let mut timed = 0.0;
    while timed < seconds {
        let personals = schemas(stream.next_batch(&inputs.ring));
        let registry = MappingRegistry::new();
        let t = Instant::now();
        let result = guarded(|| {
            let batch =
                BatchProblem::new(personals, dep.repo.clone()).map_err(|e| e.to_string())?;
            Ok(matcher.run_batch(&batch, DELTA, &registry))
        });
        let dt = t.elapsed();
        timed += dt.as_secs_f64();
        pass.batch_ms.push(ms(dt));
        ledger.attempted += BATCH as u64;
        pass.record(pass.batch_ms.len() - 1, result, &registry, ledger);
        probes.after_request(pass.batch_ms.len() - 1, &mut dep.repo, scratch, ledger);
    }
    pass
}

/// Counters and layer inputs summed over a traced pass.
#[derive(Default)]
struct TracedWork {
    sweep_ns: f64,
    sweep_pair_evals: u64,
    chunks: usize,
    /// Pooled certificate terms: `Σ answers` and `Σ (answers + caps)`.
    answers: f64,
    bound: f64,
    active_frac: Vec<f64>,
    caps: Vec<f64>,
}

/// Replay `batches` batches as the public calls `run_batch` makes:
/// `BatchProblem::new` and `admission_chunks`, then per admission chunk
/// `prefill_chunk` followed by each problem's certified calls in order;
/// the interleaved probes run between batches.
fn serve_traced(
    inputs: &Inputs,
    dep: &mut Deployment,
    batches: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    (probes, scratch): (&mut Probes, &Scratch),
) -> (Pass, TracedWork) {
    let generator = generator();
    let mut stream = inputs.stream();
    let mut pass = Pass::default();
    let mut work = TracedWork::default();
    for b in 0..batches {
        let store = dep.repo.store();
        let personals = schemas(stream.next_batch(&inputs.ring));
        let registry = MappingRegistry::new();
        tracer.begin("batch");
        let result = guarded(|| {
            let batch = tracer
                .span("match.batch", || {
                    BatchProblem::new(personals, dep.repo.clone())
                })
                .map_err(|e| e.to_string())?;
            let chunks = tracer.span("match.batch", || batch.admission_chunks());
            work.chunks += chunks.len();
            let mut out = Vec::with_capacity(batch.len());
            for chunk in chunks {
                let before = store.counters();
                let t = Instant::now();
                tracer.span("repo.store", || batch.prefill_chunk(chunk.clone()));
                work.sweep_ns += t.elapsed().as_nanos() as f64;
                work.sweep_pair_evals += store.counters().pair_evals - before.pair_evals;
                for i in chunk {
                    let a =
                        traced_certified(tracer, &generator, batch.problem(i), DELTA, &registry);
                    let c = &a.certificate;
                    work.answers += c.answer_count() as f64;
                    work.bound += c.answer_count() as f64 + c.missed_cap();
                    work.active_frac
                        .push(ratio(c.active_schemas() as f64, c.total_schemas() as f64));
                    work.caps.push(c.missed_cap());
                    out.push(a.answers);
                }
            }
            Ok(out)
        });
        pass.batch_ms.push(tracer.end());
        ledger.attempted += BATCH as u64;
        pass.record(b, result, &registry, ledger);
        probes.after_request(b, &mut dep.repo, scratch, ledger);
    }
    (pass, work)
}

/// Check every answer of `pass` bitwise against the exhaustive oracle on
/// an unbounded copy of the repository, and re-derive there the
/// certificate each answer carried (same generator, same schemas).
/// Returns pooled certified and measured recall over all problems; a
/// mismatching answer set counts as recalling nothing.
fn check_against_oracle(inputs: &Inputs, pass: &Pass, ledger: &mut Ledger) -> (f64, f64) {
    let oracle_repo = build_repository(&inputs.corpus.schemas, StoreConfig::default());
    let generator = generator();
    let mut stream = inputs.stream();
    let problems: Vec<RingProblem> = (0..pass.batch_ms.len())
        .flat_map(|_| stream.next_batch(&inputs.ring))
        .collect();
    // One oracle per distinct problem: a plain ring member repeats, a
    // novel label never does.
    let mut index: HashMap<(usize, Option<u64>), usize> = HashMap::new();
    let mut distinct: Vec<&Schema> = Vec::new();
    let slots: Vec<usize> = problems
        .iter()
        .map(|p| {
            *index.entry((p.member, p.novel)).or_insert_with(|| {
                distinct.push(&p.schema);
                distinct.len() - 1
            })
        })
        .collect();
    let checks = parallel_map(&distinct, |personal| {
        let oracle = oracle_answers(personal, &oracle_repo, DELTA)?;
        let caps = guarded(|| {
            let problem = MatchProblem::new((*personal).clone(), oracle_repo.clone())
                .map_err(|e| e.to_string())?;
            Ok(generator.generate(&problem, DELTA).caps_sum())
        })?;
        Ok::<_, String>((digest(&oracle, None), oracle.len(), caps))
    });
    let (mut answers, mut bound, mut found, mut truth) = (0.0, 0.0, 0.0, 0.0);
    for (i, &slot) in slots.iter().enumerate() {
        let (b, p) = (i / BATCH, i % BATCH);
        match &checks[slot] {
            Ok((oracle_digest, oracle_len, caps)) => {
                let n = pass.counts[i] as f64;
                answers += n;
                bound += n + caps;
                truth += *oracle_len as f64;
                if pass.digests[i] == *oracle_digest {
                    found += *oracle_len as f64;
                } else {
                    ledger.fail(format!(
                        "batch {b} problem {p}: answers differ from the oracle"
                    ));
                }
            }
            Err(e) => ledger.fail(format!("oracle for batch {b} problem {p}: {e}")),
        }
    }
    (pooled(answers, bound), pooled(found, truth))
}

pub fn run(cfg: RunConfig, inputs: &Inputs, ledger: &mut Ledger) -> Metrics {
    let mut m = Metrics::default();
    let scratch = match Scratch::new("bulk_bounded") {
        Ok(s) => s,
        Err(e) => {
            ledger.record(false, || e);
            return m;
        }
    };
    if !cfg.trace {
        let mut e2e = EndToEnd::default();
        let mut dep = None;
        for round in 0..SETUP_BEFORE {
            dep = None;
            match setup(inputs, &scratch, &format!("spill-{round}"), ledger) {
                Ok((d, s)) => {
                    dep = Some(d);
                    e2e.setups.push(s);
                }
                Err(e) => ledger.record(false, || e),
            }
        }
        let Some(mut dep) = dep else { return m };
        let mut probes = Probes::new(RESTART_PROBE_EVERY);
        let pass = serve(
            inputs,
            &mut dep,
            cfg.seconds,
            ledger,
            (&mut probes, &scratch),
        );
        e2e.peak_rss_mb = peak_rss_mb();
        drop(dep);
        for round in SETUP_BEFORE..SETUP_ROUNDS {
            match setup(inputs, &scratch, &format!("spill-{round}"), ledger) {
                Ok((_, s)) => e2e.setups.push(s),
                Err(e) => ledger.record(false, || e),
            }
        }
        (e2e.certified_recall, e2e.measured_recall) = check_against_oracle(inputs, &pass, ledger);
        // Every problem of a batch is answered when its batch returns.
        e2e.timed = read_only_timed(&pass.batch_ms, BATCH, true, &probes);
        e2e.load_ms = probes.samples.load_ms;
        e2e.put(&mut m);
        eprintln!(
            "bulk_bounded: {} batches, cap {}",
            pass.batch_ms.len(),
            inputs.cap
        );
        return m;
    }

    // Traced run: the untraced entry point first, then the same batches
    // replayed as public calls on a fresh, identically warmed deployment.
    let plain = match setup(inputs, &scratch, "spill-plain", ledger) {
        // Both passes run the same probes, so their walls compare like
        // for like.
        Ok((mut dep, _)) => serve(
            inputs,
            &mut dep,
            cfg.seconds,
            ledger,
            (&mut Probes::new(RESTART_PROBE_EVERY), &scratch),
        ),
        Err(e) => {
            ledger.record(false, || e);
            return m;
        }
    };
    let (mut dep, _) = match setup(inputs, &scratch, "spill-traced", ledger) {
        Ok(d) => d,
        Err(e) => {
            ledger.record(false, || e);
            return m;
        }
    };
    let before = dep.repo.store().counters();
    let mut tracer = Tracer::default();
    let mut probes = Probes::new(RESTART_PROBE_EVERY);
    let (traced, work) = serve_traced(
        inputs,
        &mut dep,
        plain.batch_ms.len(),
        &mut tracer,
        ledger,
        (&mut probes, &scratch),
    );
    let after = dep.repo.store().counters();
    compare_passes(&plain.digests, &traced.digests, ledger);
    check_coverage(tracer.coverage("batch"), ledger);
    let spill_bytes = dep.spill.spilled_bytes();
    let orphaned = dep.repo.store().orphaned_labels();
    drop(dep);
    let (_, measured) = check_against_oracle(inputs, &traced, ledger);

    let batches = traced.batch_ms.len() as f64;
    let problems = batches * BATCH as f64;
    let mut layers = RequestLayers::from_tracer(&tracer);
    layers.active_frac = mean(&work.active_frac);
    layers.caps_sum_p50 = median(&work.caps);
    layers.recall_gap = measured - pooled(work.answers, work.bound);
    layers.pair_evals_per_req = (after.pair_evals - before.pair_evals) as f64 / problems;
    layers.partial_row_fills_per_req =
        (after.partial_row_fills - before.partial_row_fills) as f64 / problems;
    layers.candidate_hits_per_req =
        (after.candidate_hits - before.candidate_hits) as f64 / problems;
    layers.put(&mut m);
    let store_layers = BatchLayers {
        sweep_ms: tracer.durations_ms("repo.store"),
        ns_per_pair: ratio(work.sweep_ns, work.sweep_pair_evals as f64),
        row_hit_ratio: ratio(
            (after.row_hits - before.row_hits) as f64,
            (after.row_lookups - before.row_lookups) as f64,
        ),
        evictions_per_batch: (after.row_evictions - before.row_evictions) as f64 / batches,
        recoveries_per_batch: (after.row_spill_recoveries - before.row_spill_recoveries) as f64
            / batches,
        spill_failures: (after.row_spill_failures - before.row_spill_failures) as f64,
        spill_mb_end: spill_bytes as f64 / (1024.0 * 1024.0),
        chunks_per_batch: work.chunks as f64 / batches,
        parallel_speedup: ratio(
            tracer.root_total_ms("batch"),
            plain.batch_ms.iter().sum::<f64>(),
        ),
    };
    put_store_sweep_layers(&mut m, &store_layers);
    probes.samples.put_layers(&mut m, orphaned);
    put_trace_layers(&mut m, &tracer, "batch", plain.batch_ms.iter().sum());
    m
}
