//! `interactive`: the paper's regime. One closed-loop client sends
//! budgeted certified requests, Zipf(1) over a pool of personal schemas,
//! to a large warm repository.

use crate::common::*;
use crate::inputs::{Corpus, Fnv, QueryStream};
use crate::stats::{mean, median, ms, peak_rss_mb, ratio, Metrics};
use crate::trace::Tracer;
use smx_match::{
    CandidateConfig, CandidateGenerator, CertifiedAnswer, CertifiedMatcher, ExhaustiveMatcher,
    MappingRegistry, MatchProblem, ObjectiveFunction,
};
use smx_repo::{Repository, StoreConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Personal schemas queries are drawn from.
const POOL: usize = 256;
/// Per pool schema: hosts with a perturbed copy grafted in, and plain
/// hosts. `POOL * (DERIVED + NOISE)` = 16384 repository schemas.
const DERIVED: usize = 8;
const NOISE: usize = 56;
pub const HOST_NODES: usize = 9;
const STRENGTH: f64 = 0.4;
/// The match threshold δ.
pub const DELTA: f64 = 0.15;
/// The explicit candidate budget of `interactive`.
const BUDGET: usize = 256;
/// Requests between two interleaved snapshot round trips.
const RESTART_PROBE_EVERY: usize = 300;

/// The shared large corpus of `interactive` and `churn_restart`.
pub fn corpus(seed: u64) -> Corpus {
    Corpus::generate(seed, POOL, DERIVED, NOISE, HOST_NODES, STRENGTH)
}

pub fn store_config() -> StoreConfig {
    StoreConfig {
        max_cached_rows: None,
        batch_threads: 1,
        shards: 0,
    }
}

/// Ingest the corpus, then warm the store with one request per pool
/// schema. Returns the repository and the seconds it took.
pub fn serving_setup(
    corpus: &Corpus,
    matcher: &CertifiedMatcher<ExhaustiveMatcher>,
    ledger: &mut Ledger,
) -> (Repository, f64) {
    let t = Instant::now();
    let repo = build_repository(&corpus.schemas, store_config());
    let registry = MappingRegistry::new();
    for personal in &corpus.pool {
        let ok = guarded(|| {
            let problem =
                MatchProblem::new(personal.clone(), repo.clone()).map_err(|e| e.to_string())?;
            matcher.run_certified(&problem, DELTA, &registry);
            Ok(())
        });
        if let Err(e) = ok {
            ledger.record(false, || format!("warm-up request: {e}"));
        }
    }
    (repo, t.elapsed().as_secs_f64())
}

fn matcher() -> CertifiedMatcher<ExhaustiveMatcher> {
    CertifiedMatcher::new(ExhaustiveMatcher::default(), generator())
}

fn generator() -> CandidateGenerator {
    CandidateGenerator::new(
        ObjectiveFunction::default(),
        CandidateConfig {
            budget: Some(BUDGET),
        },
    )
}

/// What one pass over the request stream recorded.
#[derive(Default)]
struct Pass {
    queries: Vec<usize>,
    latencies: Vec<f64>,
    digests: Vec<u64>,
    /// Each distinct query's first answer: canonical answers and the
    /// certificate's cap on what it missed.
    first: HashMap<usize, (Canon, f64)>,
}

impl Pass {
    /// Record request `q`'s answer; a repeat must match the first answer
    /// for `q` bitwise (the store is read-only here).
    fn record(
        &mut self,
        q: usize,
        answer: Result<CertifiedAnswer, String>,
        registry: &MappingRegistry,
        ledger: &mut Ledger,
    ) {
        self.queries.push(q);
        match answer {
            Ok(a) => {
                let c = canon(&a.answers, registry);
                let d = digest(&c, Some(&a.certificate));
                self.digests.push(d);
                let caps = a.certificate.missed_cap();
                let (first, _) = self.first.entry(q).or_insert((c.clone(), caps));
                ledger.record(*first == c, || format!("query {q} answered differently"));
            }
            Err(e) => {
                self.digests.push(0);
                ledger.record(false, || format!("request for query {q}: {e}"));
            }
        }
    }
}

fn untraced_request(
    matcher: &CertifiedMatcher<ExhaustiveMatcher>,
    corpus: &Corpus,
    repo: &Repository,
    q: usize,
    registry: &MappingRegistry,
) -> Result<CertifiedAnswer, String> {
    guarded(|| {
        let problem =
            MatchProblem::new(corpus.pool[q].clone(), repo.clone()).map_err(|e| e.to_string())?;
        Ok(matcher.run_certified(&problem, DELTA, registry))
    })
}

/// Closed loop until `seconds` of timed request wall have elapsed, with
/// the interleaved probes run between requests.
fn serve(
    corpus: &Corpus,
    repo: &mut Repository,
    seed: u64,
    seconds: f64,
    registry: &MappingRegistry,
    ledger: &mut Ledger,
    (probes, scratch): (&mut Probes, &Scratch),
) -> Pass {
    let matcher = matcher();
    let mut stream = QueryStream::new(seed, corpus.pool.len());
    let mut pass = Pass::default();
    let mut timed = 0.0;
    while timed < seconds {
        let q = stream.next_query();
        let t = Instant::now();
        let answer = untraced_request(&matcher, corpus, repo, q, registry);
        let dt = t.elapsed();
        timed += dt.as_secs_f64();
        pass.latencies.push(ms(dt));
        pass.record(q, answer, registry, ledger);
        probes.after_request(pass.latencies.len() - 1, repo, scratch, ledger);
    }
    pass
}

/// Store counters summed over a traced pass.
#[derive(Default)]
struct StoreWork {
    pair_evals: u64,
    partial_row_fills: u64,
    candidate_hits: u64,
}

/// Replay `queries` as the public-call sequence, one span per layer,
/// with the interleaved probes between requests.
fn serve_traced(
    corpus: &Corpus,
    repo: &mut Repository,
    queries: &[usize],
    registry: &MappingRegistry,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    (probes, scratch): (&mut Probes, &Scratch),
) -> (Pass, StoreWork, Vec<f64>, Vec<f64>) {
    let generator = generator();
    let mut pass = Pass::default();
    let mut work = StoreWork::default();
    let (mut active_frac, mut caps) = (Vec::new(), Vec::new());
    for &q in queries {
        let before = repo.store().counters();
        tracer.begin("request");
        let answer = guarded(|| {
            let problem = MatchProblem::new(corpus.pool[q].clone(), repo.clone())
                .map_err(|e| e.to_string())?;
            Ok(traced_certified(
                tracer, &generator, &problem, DELTA, registry,
            ))
        });
        let wall = tracer.end();
        let after = repo.store().counters();
        work.pair_evals += after.pair_evals - before.pair_evals;
        work.partial_row_fills += after.partial_row_fills - before.partial_row_fills;
        work.candidate_hits += after.candidate_hits - before.candidate_hits;
        if let Ok(a) = &answer {
            let c = &a.certificate;
            active_frac.push(ratio(c.active_schemas() as f64, c.total_schemas() as f64));
            caps.push(c.missed_cap());
        }
        pass.latencies.push(wall);
        pass.record(q, answer, registry, ledger);
        probes.after_request(pass.latencies.len() - 1, repo, scratch, ledger);
    }
    (pass, work, active_frac, caps)
}

/// Check every distinct query's answer against the exhaustive oracle:
/// a subset of it, certified recall at most measured recall. Returns the
/// pooled certified and measured recall over the distinct queries served:
/// `Σ answers / Σ (answers + caps)` and `Σ found / Σ oracle`.
fn check_against_oracle(corpus: &Corpus, pass: &Pass, ledger: &mut Ledger) -> (f64, f64) {
    let oracle_repo = build_repository(&corpus.schemas, StoreConfig::default());
    let mut distinct: Vec<usize> = pass.first.keys().copied().collect();
    distinct.sort_unstable();
    let oracles = parallel_map(&distinct, |&q| {
        oracle_answers(&corpus.pool[q], &oracle_repo, DELTA)
    });
    let (mut answers, mut bound, mut found, mut truth) = (0.0, 0.0, 0.0, 0.0);
    for (q, oracle) in distinct.iter().zip(oracles) {
        let (got, caps) = &pass.first[q];
        let oracle = match oracle {
            Ok(o) => o,
            Err(e) => {
                ledger.fail(format!("oracle for query {q}: {e}"));
                continue;
            }
        };
        let n = got.len() as f64;
        let recall = measured_recall(got, &oracle);
        let certified = pooled(n, n + caps);
        if !is_subset(got, &oracle) || certified > recall + 1e-12 {
            ledger.fail(format!(
                "query {q}: answers not a subset of the oracle, or certified {certified} > measured {recall}"
            ));
        }
        answers += n;
        bound += n + caps;
        found += recall * oracle.len() as f64;
        truth += oracle.len() as f64;
    }
    (pooled(answers, bound), pooled(found, truth))
}

pub fn fingerprint(seed: u64, corpus: &Corpus) -> (u64, u64) {
    let mut inputs = Fnv::new();
    corpus.fingerprint(&mut inputs);
    let mut requests = Fnv::new();
    let mut stream = QueryStream::new(seed, corpus.pool.len());
    for _ in 0..4096 {
        requests.u64(stream.next_query() as u64);
    }
    (inputs.finish(), requests.finish())
}

pub fn run(cfg: RunConfig, corpus: &Corpus, ledger: &mut Ledger) -> Metrics {
    let matcher = matcher();
    let registry = MappingRegistry::new();
    let mut m = Metrics::default();
    let scratch = match Scratch::new("interactive") {
        Ok(s) => s,
        Err(e) => {
            ledger.record(false, || e);
            return m;
        }
    };
    if !cfg.trace {
        let mut e2e = EndToEnd::default();
        let mut repo = Repository::new();
        for _ in 0..SETUP_BEFORE {
            drop(repo);
            let (r, s) = serving_setup(corpus, &matcher, ledger);
            repo = r;
            e2e.setups.push(s);
        }
        let mut probes = Probes::new(RESTART_PROBE_EVERY);
        let pass = serve(
            corpus,
            &mut repo,
            cfg.seed,
            cfg.seconds,
            &registry,
            ledger,
            (&mut probes, &scratch),
        );
        e2e.peak_rss_mb = peak_rss_mb();
        drop(repo);
        for _ in SETUP_BEFORE..SETUP_ROUNDS {
            e2e.setups.push(serving_setup(corpus, &matcher, ledger).1);
        }
        (e2e.certified_recall, e2e.measured_recall) = check_against_oracle(corpus, &pass, ledger);
        e2e.timed = read_only_timed(&pass.latencies, 1, false, &probes);
        e2e.load_ms = probes.samples.load_ms;
        e2e.put(&mut m);
        eprintln!("interactive: {} requests", pass.latencies.len());
        return m;
    }

    // Traced run: the untraced entry point first, then the same requests
    // replayed as public calls on a fresh, identically warmed repository.
    let (mut repo, _) = serving_setup(corpus, &matcher, ledger);
    // Both passes run the same probes, so their walls compare like for like.
    let plain = serve(
        corpus,
        &mut repo,
        cfg.seed,
        cfg.seconds,
        &registry,
        ledger,
        (&mut Probes::new(RESTART_PROBE_EVERY), &scratch),
    );
    drop(repo);
    let (mut repo, _) = serving_setup(corpus, &matcher, ledger);
    let mut tracer = Tracer::default();
    let mut probes = Probes::new(RESTART_PROBE_EVERY);
    let (traced, work, active_frac, caps) = serve_traced(
        corpus,
        &mut repo,
        &plain.queries,
        &registry,
        &mut tracer,
        ledger,
        (&mut probes, &scratch),
    );
    compare_passes(&plain.digests, &traced.digests, ledger);
    check_coverage(tracer.coverage("request"), ledger);
    let orphaned = repo.store().orphaned_labels();
    drop(repo);
    let (certified, measured) = check_against_oracle(corpus, &traced, ledger);
    let n = traced.queries.len() as f64;
    let mut layers = RequestLayers::from_tracer(&tracer);
    layers.active_frac = mean(&active_frac);
    layers.caps_sum_p50 = median(&caps);
    layers.recall_gap = measured - certified;
    layers.pair_evals_per_req = work.pair_evals as f64 / n;
    layers.partial_row_fills_per_req = work.partial_row_fills as f64 / n;
    layers.candidate_hits_per_req = work.candidate_hits as f64 / n;
    layers.put(&mut m);
    put_store_sweep_layers(&mut m, &BatchLayers::default());
    probes.samples.put_layers(&mut m, orphaned);
    put_trace_layers(&mut m, &tracer, "request", plain.latencies.iter().sum());
    m
}
