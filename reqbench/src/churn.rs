//! `churn_restart`: exact (auto-budget) requests on the large repository
//! with writes beside reads, and a snapshot save + load every
//! [`RESTART_EVERY`] operations, serving on from the restored copy.
//!
//! Each mutation lands while the previous request's `MatchProblem` still
//! holds a clone of the repository — the shape of a service that keeps
//! serving readers — so it pays the repository's copy-on-write.

use crate::common::*;
use crate::inputs::{Corpus, Fnv, Op, OpStream};
use crate::interactive::{serving_setup, DELTA, HOST_NODES};
use crate::stats::{mean, median, ms, peak_rss_mb, ratio, Metrics};
use crate::trace::Tracer;
use smx_match::{
    CandidateGenerator, CertifiedAnswer, CertifiedMatcher, ExhaustiveMatcher, MappingRegistry,
    MatchProblem, ObjectiveFunction,
};
use smx_persist::Snapshot;
use smx_repo::Repository;
use std::collections::HashMap;
use std::time::Instant;

/// Operations between two restarts.
const RESTART_EVERY: usize = 500;
/// Distinct recent queries re-checked against a fresh rebuild at each
/// restart.
const PROBE_QUERIES: usize = 4;

fn generator() -> CandidateGenerator {
    CandidateGenerator::auto(ObjectiveFunction::default())
}

fn matcher() -> CertifiedMatcher<ExhaustiveMatcher> {
    CertifiedMatcher::new(ExhaustiveMatcher::default(), generator())
}

pub fn fingerprint(seed: u64, corpus: &Corpus) -> (u64, u64) {
    let mut inputs = Fnv::new();
    corpus.fingerprint(&mut inputs);
    let mut requests = Fnv::new();
    let mut ops = OpStream::new(seed, corpus, HOST_NODES);
    for _ in 0..4096 {
        ops.next_op().fingerprint(&mut requests);
    }
    (inputs.finish(), requests.finish())
}

/// What one pass over the operation stream recorded.
#[derive(Default)]
struct Pass {
    ops: usize,
    match_digests: Vec<u64>,
    /// Wall of every match request, the first epoch's included (ms).
    match_wall_ms: f64,
    /// Every timed operation from the first restart on, later restarts
    /// included. Before it, requests run on the set-up store's partial
    /// rows, which no restart keeps, and are about a third faster.
    timed: Timed,
    /// Pooled certificate terms: `Σ answers` and `Σ (answers + caps)`.
    answers: f64,
    bound: f64,
    writes: WriteSamples,
    restarts: usize,
    /// Oracle answers found, and oracle answers, over the restart checks.
    found: f64,
    truth: f64,
    /// Store counters summed over match requests (reported from the
    /// traced pass).
    pair_evals: u64,
    partial_row_fills: u64,
    candidate_hits: u64,
    active_frac: Vec<f64>,
    caps: Vec<f64>,
}

/// How a pass runs: untraced until `seconds` of timed wall, or traced
/// for exactly `ops` operations. Both check answers at every restart.
enum Mode<'a> {
    Untraced { seconds: f64 },
    Traced { ops: usize, tracer: &'a mut Tracer },
}

fn serve(
    corpus: &Corpus,
    mut repo: Repository,
    seed: u64,
    mut mode: Mode<'_>,
    scratch: &Scratch,
    registry: &MappingRegistry,
    ledger: &mut Ledger,
) -> (Pass, Repository) {
    let matcher = matcher();
    let generator = generator();
    let mut stream = OpStream::new(seed, corpus, HOST_NODES);
    let mut pass = Pass::default();
    // The previous request's problem: a live reader of `repo`.
    let mut live: Option<MatchProblem> = None;
    // Writes so far: answers for a query repeat bitwise between writes.
    let mut writes = 0u64;
    let mut seen: HashMap<usize, (u64, u64)> = HashMap::new();
    let mut recent: Vec<usize> = Vec::new();
    loop {
        let more = match &mode {
            Mode::Untraced { seconds } => pass.timed.seconds() < *seconds,
            Mode::Traced { ops, .. } => pass.ops < *ops,
        };
        if !more {
            break;
        }
        let op = stream.next_op();
        pass.ops += 1;
        match op {
            Op::Match(q) => {
                let personal = corpus.pool[q].clone();
                let new_problem =
                    || MatchProblem::new(personal, repo.clone()).map_err(|e| e.to_string());
                let before = repo.store().counters();
                let (answer, dt_ms): (Result<(MatchProblem, CertifiedAnswer), String>, f64) =
                    match &mut mode {
                        Mode::Untraced { .. } => {
                            let t = Instant::now();
                            let answer = guarded(|| {
                                let p = new_problem()?;
                                let a = matcher.run_certified(&p, DELTA, registry);
                                Ok((p, a))
                            });
                            (answer, ms(t.elapsed()))
                        }
                        Mode::Traced { tracer, .. } => {
                            tracer.begin("request");
                            let answer = guarded(|| {
                                let p = new_problem()?;
                                let a = traced_certified(tracer, &generator, &p, DELTA, registry);
                                Ok((p, a))
                            });
                            (answer, tracer.end())
                        }
                    };
                let after = repo.store().counters();
                pass.pair_evals += after.pair_evals - before.pair_evals;
                pass.partial_row_fills += after.partial_row_fills - before.partial_row_fills;
                pass.candidate_hits += after.candidate_hits - before.candidate_hits;
                pass.match_wall_ms += dt_ms;
                if pass.restarts > 0 {
                    pass.timed.push(OpKind::Match, dt_ms, true);
                }
                match answer {
                    Ok((problem, a)) => {
                        // The problem outlives its request: a live reader.
                        live = Some(problem);
                        let c = canon(&a.answers, registry);
                        let d = digest(&c, Some(&a.certificate));
                        let cert = &a.certificate;
                        pass.match_digests.push(d);
                        pass.answers += cert.answer_count() as f64;
                        pass.bound += cert.answer_count() as f64 + cert.missed_cap();
                        pass.active_frac.push(ratio(
                            cert.active_schemas() as f64,
                            cert.total_schemas() as f64,
                        ));
                        pass.caps.push(cert.missed_cap());
                        let (w, first) = *seen.entry(q).or_insert((writes, d));
                        let repeat_ok = w != writes || first == d;
                        seen.insert(q, (writes, d));
                        ledger.record(repeat_ok && cert.certified_recall() == 1.0, || {
                            format!("query {q}: answer changed without a write, or inexact")
                        });
                    }
                    Err(e) => {
                        pass.match_digests.push(0);
                        ledger.record(false, || format!("request for query {q}: {e}"));
                    }
                }
                recent.retain(|&r| r != q);
                recent.push(q);
            }
            mutation => {
                let dt = match &mut mode {
                    Mode::Untraced { .. } => {
                        apply_mutation(&mut repo, mutation, &mut pass.writes.mutations, ledger)
                    }
                    Mode::Traced { tracer, .. } => {
                        tracer.begin("mutation");
                        let dt = tracer.span("repo.mutate", || {
                            apply_mutation(&mut repo, mutation, &mut pass.writes.mutations, ledger)
                        });
                        tracer.end();
                        dt
                    }
                };
                let dt_ms = dt.map_or(0.0, ms);
                if pass.restarts > 0 {
                    pass.timed.push(OpKind::Mutate, dt_ms, true);
                }
                writes += 1;
            }
        }
        if pass.ops % RESTART_EVERY == 0 {
            let path = scratch.path(&format!("churn-{}.snap", pass.restarts % 2));
            // The serving generation ends: its readers go with it.
            live = None;
            let restarted = match &mut mode {
                Mode::Untraced { .. } => guarded(|| restart(&repo, &path)),
                Mode::Traced { tracer, .. } => {
                    tracer.begin("restart");
                    let r = tracer.span("persist.snapshot", || guarded(|| restart(&repo, &path)));
                    tracer.end();
                    r
                }
            };
            match restarted {
                Ok(r) => {
                    ledger.record(r.repo == repo, || "restored repository differs".to_owned());
                    if pass.restarts > 0 {
                        pass.timed
                            .push(OpKind::Restart, ms(r.save) + ms(r.load), true);
                    }
                    pass.writes.save_ms.push(ms(r.save));
                    pass.writes.load_ms.push(ms(r.load));
                    pass.writes.snapshot_bytes = r.bytes;
                    let probes = &recent[recent.len().saturating_sub(PROBE_QUERIES)..];
                    check_restart(corpus, &repo, &path, probes, &mut pass, ledger);
                    repo = r.repo;
                }
                Err(e) => ledger.record(false, || e),
            }
            pass.restarts += 1;
        }
    }
    drop(live);
    (pass, repo)
}

/// At a restart, outside timing: load a second copy of the snapshot and
/// check that the recent queries' certified answers on it are bitwise
/// the exhaustive oracle's on a fresh rebuild of the live schemas.
fn check_restart(
    corpus: &Corpus,
    repo: &Repository,
    path: &std::path::Path,
    probes: &[usize],
    pass: &mut Pass,
    ledger: &mut Ledger,
) {
    let copy = match Repository::load_snapshot_file(path) {
        Ok(c) => c,
        Err(e) => return ledger.fail(format!("second snapshot load: {e}")),
    };
    let fresh = rebuild(repo);
    let matcher = matcher();
    for &q in probes {
        let registry = MappingRegistry::new();
        let got = guarded(|| {
            let p = MatchProblem::new(corpus.pool[q].clone(), copy.clone())
                .map_err(|e| e.to_string())?;
            Ok(canon(
                &matcher.run_certified(&p, DELTA, &registry).answers,
                &registry,
            ))
        });
        let oracle = oracle_answers(&corpus.pool[q], &fresh, DELTA);
        match (got, oracle) {
            (Ok(got), Ok(oracle)) => {
                ledger.record(got == oracle, || {
                    format!(
                        "query {q} after restart {}: answers differ from a fresh rebuild",
                        pass.restarts
                    )
                });
                pass.found += measured_recall(&got, &oracle) * oracle.len() as f64;
                pass.truth += oracle.len() as f64;
            }
            (Err(e), _) | (_, Err(e)) => ledger.record(false, || format!("restart check: {e}")),
        }
    }
}

pub fn run(cfg: RunConfig, corpus: &Corpus, ledger: &mut Ledger) -> Metrics {
    let mut m = Metrics::default();
    let scratch = match Scratch::new("churn_restart") {
        Ok(s) => s,
        Err(e) => {
            ledger.record(false, || e);
            return m;
        }
    };
    let matcher = matcher();
    let registry = MappingRegistry::new();
    if !cfg.trace {
        let mut e2e = EndToEnd::default();
        let mut repo = Repository::new();
        for _ in 0..SETUP_BEFORE {
            drop(repo);
            let (r, s) = serving_setup(corpus, &matcher, ledger);
            repo = r;
            e2e.setups.push(s);
        }
        let mode = Mode::Untraced {
            seconds: cfg.seconds,
        };
        let (pass, repo) = serve(corpus, repo, cfg.seed, mode, &scratch, &registry, ledger);
        e2e.peak_rss_mb = peak_rss_mb();
        drop(repo);
        for _ in SETUP_BEFORE..SETUP_ROUNDS {
            e2e.setups.push(serving_setup(corpus, &matcher, ledger).1);
        }
        let kinds = &pass.writes.mutations;
        ledger.record(pass.restarts >= 2, || {
            format!("only {} restarts", pass.restarts)
        });
        ledger.record(
            [&kinds.replace, &kinds.remove, &kinds.add]
                .iter()
                .all(|t| !t.is_empty()),
            || "a mutation kind never ran".to_owned(),
        );
        eprintln!(
            "churn_restart: {} ops, {} matches, {} replaces, {} removes, {} adds, {} restarts",
            pass.ops,
            pass.match_digests.len(),
            kinds.replace.len(),
            kinds.remove.len(),
            kinds.add.len(),
            pass.restarts
        );
        e2e.timed = pass.timed;
        e2e.load_ms = pass.writes.load_ms;
        e2e.certified_recall = pooled(pass.answers, pass.bound);
        e2e.measured_recall = pooled(pass.found, pass.truth);
        e2e.put(&mut m);
        return m;
    }

    // Traced run: the untraced entry point first, then the same
    // operations replayed as public calls from a fresh set-up.
    let (repo, _) = serving_setup(corpus, &matcher, ledger);
    let mode = Mode::Untraced {
        seconds: cfg.seconds,
    };
    let (plain, repo) = serve(corpus, repo, cfg.seed, mode, &scratch, &registry, ledger);
    drop(repo);
    let (repo, _) = serving_setup(corpus, &matcher, ledger);
    let mut tracer = Tracer::default();
    let mode = Mode::Traced {
        ops: plain.ops,
        tracer: &mut tracer,
    };
    let (traced, repo) = serve(corpus, repo, cfg.seed, mode, &scratch, &registry, ledger);
    compare_passes(&plain.match_digests, &traced.match_digests, ledger);
    check_coverage(tracer.coverage("request"), ledger);
    let orphaned = repo.store().orphaned_labels();
    drop(repo);
    let n = traced.match_digests.len() as f64;
    let mut layers = RequestLayers::from_tracer(&tracer);
    layers.active_frac = mean(&traced.active_frac);
    layers.caps_sum_p50 = median(&traced.caps);
    layers.recall_gap = pooled(plain.found, plain.truth) - pooled(traced.answers, traced.bound);
    layers.pair_evals_per_req = traced.pair_evals as f64 / n;
    layers.partial_row_fills_per_req = traced.partial_row_fills as f64 / n;
    layers.candidate_hits_per_req = traced.candidate_hits as f64 / n;
    layers.put(&mut m);
    put_store_sweep_layers(&mut m, &BatchLayers::default());
    traced.writes.put_layers(&mut m, orphaned);
    put_trace_layers(&mut m, &tracer, "request", plain.match_wall_ms);
    m
}
