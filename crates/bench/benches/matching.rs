//! The efficiency side of the trade-off: wall-clock of S1 vs the
//! non-exhaustive improvements on the same problem. This is the paper's
//! *motivation* — S2 exists because S1 is exponential — so the bench
//! reports both runtimes and answer counts.
//!
//! `s1_exhaustive_direct` is the pre-engine baseline (string similarity
//! recomputed every run, as the seed implementation did);
//! `s1_exhaustive` reads the problem's precomputed `CostMatrix`. Their
//! ratio is the scoring engine's speedup — tracked in
//! `BENCH_matching.json` via `scripts/bench_matching.sh`.
//!
//! The `matrix_fill` group isolates the fill itself from matcher search:
//! `cold` clears the repository's score-row cache every iteration (full
//! row-kernel sweeps), `warm` hits the cache (lookups + type blends
//! only), and `repeat_query` is a complete fresh-`MatchProblem` matcher
//! run against a warm store — the repeated-query path a repository
//! serves in production. `batch` and `sequential32` compare filling 32
//! personal schemas' matrices through the batch subsystem (labels
//! deduped across the batch, one shared sweep) against 32 solo cold
//! fills; `s1_batch_vs_sequential` makes the same comparison for full
//! matcher runs. The `restart` group times coming back up warm: a full
//! schema-replay + row-resweep rebuild vs loading the `smx-persist`
//! snapshot. The `candidate_tier` group extends the repository-size
//! scaling to 64/256/1024 mixed-domain schemas and races the exhaustive
//! matcher against the certified candidate tier (inverted-index
//! pruning, auto budget) on identical cold problems — the headline
//! `relative.candidate_over_exhaustive_1024` ratio comes from it — and
//! times candidate generation alone at 1024 schemas with a cold and a
//! warm bound-row memo (`relative.generate_cold_over_warm_1024`). The
//! `pipeline` group races the composed candidate→beam→exhaustive
//! [`Pipeline`] against the monolithic exhaustive matcher on the same
//! cold 1024-schema repository; the within-run ratio is guarded as
//! `relative.pipeline_over_exhaustive_1024`. `SMX_BENCH_XL=1` extends
//! `s1_vs_repository_size` to 10³–10⁵ mixed-domain schemas.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smx::matching::{
    BatchMatcher, BatchProblem, BeamMatcher, CandidateConfig, CandidateGenerator, CertifiedMatcher,
    ClusterMatcher, ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher, ObjectiveFunction,
    ParallelExhaustiveMatcher, Pipeline, TopKMatcher,
};
use smx::persist::{RecoveryPolicy, Snapshot};
use smx::repo::Repository;
use smx::synth::{Domain, Scenario, ScenarioConfig};
use smx::xml::Schema;
use std::hint::black_box;

fn problem(derived: usize, host_nodes: usize) -> MatchProblem {
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: derived,
        noise_schemas: derived / 2,
        personal_nodes: 4,
        host_nodes,
        perturbation_strength: 0.7,
        ..Default::default()
    });
    MatchProblem::new(sc.personal, sc.repository).expect("non-empty personal schema")
}

/// The bulk-serving workload: one repository, `n` same-domain personal
/// schemas with overlapping (but not identical) label vocabularies.
fn batch_workload(n: u64) -> (Vec<Schema>, Repository) {
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 8,
        noise_schemas: 4,
        personal_nodes: 4,
        host_nodes: 9,
        perturbation_strength: 0.7,
        ..Default::default()
    });
    let personals = (0..n)
        .map(|i| {
            Scenario::generate(ScenarioConfig {
                derived_schemas: 1,
                noise_schemas: 0,
                personal_nodes: 4,
                host_nodes: 5,
                perturbation_strength: 0.7,
                seed: 1000 + i,
                ..Default::default()
            })
            .personal
        })
        .collect();
    (personals, sc.repository)
}

fn bench_matchers(c: &mut Criterion) {
    let problem = problem(8, 9);
    let delta_max = 0.3;
    let mut group = c.benchmark_group("matchers");
    group.sample_size(10);
    let matchers: Vec<(&str, Box<dyn Matcher>)> = vec![
        (
            "s1_exhaustive_direct",
            Box::new(ExhaustiveMatcher::direct(ObjectiveFunction::default())),
        ),
        ("s1_exhaustive", Box::new(ExhaustiveMatcher::default())),
        (
            "s1_parallel",
            Box::new(ParallelExhaustiveMatcher::new(
                ObjectiveFunction::default(),
                4,
            )),
        ),
        (
            "s2_beam32",
            Box::new(BeamMatcher::new(ObjectiveFunction::default(), 32)),
        ),
        (
            "s2_cluster4",
            Box::new(ClusterMatcher::new(ObjectiveFunction::default(), 0.55, 4)),
        ),
        (
            "s2_top100",
            Box::new(TopKMatcher::new(ObjectiveFunction::default(), 100)),
        ),
    ];
    for (name, matcher) in &matchers {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                let registry = MappingRegistry::new();
                black_box(matcher.run(black_box(&problem), delta_max, &registry)).len()
            })
        });
    }
    // Cold-problem variant: the engine cache is per-MatchProblem, so a
    // brand-new problem pays the CostMatrix fill inside the loop. The
    // cloned repository shares its score store, so after the first
    // iteration this measures the production repeat-query shape — fill
    // from cached rows — not the row-kernel sweep itself; matrix_fill/cold
    // below isolates that.
    let personal = problem.personal().clone();
    let repository = problem.repository().clone();
    group.bench_with_input(
        BenchmarkId::from_parameter("s1_exhaustive_cold"),
        &0,
        |b, _| {
            b.iter(|| {
                let cold = MatchProblem::new(personal.clone(), repository.clone())
                    .expect("non-empty personal schema");
                let registry = MappingRegistry::new();
                black_box(ExhaustiveMatcher::default().run(black_box(&cold), delta_max, &registry))
                    .len()
            })
        },
    );
    group.finish();
}

fn bench_matrix_fill(c: &mut Criterion) {
    let base = problem(8, 9);
    let personal = base.personal().clone();
    let repository = base.repository().clone();
    let objective = ObjectiveFunction::default();
    let mut group = c.benchmark_group("matrix_fill");
    group.sample_size(10);
    // Cold: no cached score rows — every iteration pays the full
    // k-row-kernel sweep over the store's label data.
    group.bench_with_input(BenchmarkId::from_parameter("cold"), &0, |b, _| {
        b.iter(|| {
            repository.clear_score_rows();
            let p = MatchProblem::new(personal.clone(), repository.clone())
                .expect("non-empty personal schema");
            black_box(p.cost_matrix(&objective));
        })
    });
    // Warm: rows cached on the shared store — the fill degenerates to
    // row lookups plus type blends.
    group.bench_with_input(BenchmarkId::from_parameter("warm"), &0, |b, _| {
        b.iter(|| {
            let p = MatchProblem::new(personal.clone(), repository.clone())
                .expect("non-empty personal schema");
            black_box(p.cost_matrix(&objective));
        })
    });
    // Repeat query: the production shape — a brand-new MatchProblem
    // (fresh engine cache) served end-to-end against a warm repository.
    group.bench_with_input(BenchmarkId::from_parameter("repeat_query"), &0, |b, _| {
        b.iter(|| {
            let p = MatchProblem::new(personal.clone(), repository.clone())
                .expect("non-empty personal schema");
            let registry = MappingRegistry::new();
            black_box(ExhaustiveMatcher::default().run(black_box(&p), 0.3, &registry)).len()
        })
    });
    // Batch: 32 personal schemas' matrices filled through the batch
    // subsystem from a cold store — distinct labels deduped across the
    // whole batch, missing rows computed by one shared tiled sweep.
    let (personals, batch_repo) = batch_workload(32);
    group.bench_with_input(BenchmarkId::from_parameter("batch"), &0, |b, _| {
        b.iter(|| {
            batch_repo.clear_score_rows();
            let batch = BatchProblem::new(personals.clone(), batch_repo.clone())
                .expect("non-empty personal schemas");
            batch.build_matrices(&objective);
            black_box(batch.len())
        })
    });
    // The same 32 matrices filled as 32 independent *cold* fills — each
    // query arrives with no warm rows (separate processes/replicas, or a
    // row cache bounded to nothing), so shared labels re-sweep per query.
    // This is what the batch's cross-query dedup amortises away.
    group.bench_with_input(BenchmarkId::from_parameter("sequential32"), &0, |b, _| {
        b.iter(|| {
            for personal in &personals {
                batch_repo.clear_score_rows();
                let p = MatchProblem::new(personal.clone(), batch_repo.clone())
                    .expect("non-empty personal schema");
                black_box(p.cost_matrix(&objective));
            }
        })
    });
    // Control: the same solo loop against one shared warm-up cache — the
    // best case for sequential serving, where the store's row cache
    // already amortises repeats across the run. The batch path should
    // stay close to this on one core (its win there is the cold/evicting
    // regime above) and pull ahead with the threaded sweep on multicore.
    group.bench_with_input(
        BenchmarkId::from_parameter("sequential32_shared"),
        &0,
        |b, _| {
            b.iter(|| {
                batch_repo.clear_score_rows();
                for personal in &personals {
                    let p = MatchProblem::new(personal.clone(), batch_repo.clone())
                        .expect("non-empty personal schema");
                    black_box(p.cost_matrix(&objective));
                }
            })
        },
    );
    group.finish();
}

fn bench_batch_matching(c: &mut Criterion) {
    // End-to-end bulk serving: 32 queries matched through the batch
    // dispatcher (one shared sweep, worker count auto-sized to the
    // hardware) vs the solo loop with per-query-cold fills.
    let (personals, repository) = batch_workload(32);
    let delta_max = 0.3;
    let mut group = c.benchmark_group("s1_batch_vs_sequential");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("batch"), &0, |b, _| {
        b.iter(|| {
            repository.clear_score_rows();
            let batch = BatchProblem::new(personals.clone(), repository.clone())
                .expect("non-empty personal schemas");
            let registry = MappingRegistry::new();
            let results = BatchMatcher::with_threads(ExhaustiveMatcher::default(), 0).run_batch(
                black_box(&batch),
                delta_max,
                &registry,
            );
            black_box(results.iter().map(|a| a.len()).sum::<usize>())
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("sequential"), &0, |b, _| {
        b.iter(|| {
            let registry = MappingRegistry::new();
            let matcher = ExhaustiveMatcher::default();
            let mut total = 0usize;
            for personal in &personals {
                repository.clear_score_rows();
                let p = MatchProblem::new(personal.clone(), repository.clone())
                    .expect("non-empty personal schema");
                total += matcher.run(black_box(&p), delta_max, &registry).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_restart(c: &mut Criterion) {
    // Warm restart: a production repository comes back up with the
    // batch workload's vocabulary already warm. `cold_rebuild` is life
    // without persistence — replay every schema ingest (profiles,
    // postings) and re-sweep every warm row; `snapshot_load` decodes
    // the smx-persist snapshot instead (rows come back as stored bits,
    // profiles are rebuilt from label text). The ratio is tracked as
    // `restart.snapshot_speedup_x` in BENCH_matching.json and guarded
    // by scripts/verify.sh.
    let (personals, repository) = batch_workload(32);
    let batch =
        BatchProblem::new(personals, repository.clone()).expect("non-empty personal schemas");
    batch.prefill_rows(); // the warm state a restart wants back
    let snapshot = repository.save_snapshot();
    let schemas: Vec<Schema> = repository.iter().map(|(_, s)| s.clone()).collect();
    let warm_labels: Vec<String> = batch
        .distinct_labels()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut group = c.benchmark_group("restart");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("cold_rebuild"), &0, |b, _| {
        b.iter(|| {
            let mut r = Repository::new();
            for schema in &schemas {
                r.add(schema.clone());
            }
            let refs: Vec<&str> = warm_labels.iter().map(String::as_str).collect();
            r.store().score_rows(&refs);
            black_box(r.store().cached_rows())
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("snapshot_load"), &0, |b, _| {
        b.iter(|| {
            let r = Repository::load_snapshot(black_box(&snapshot)).expect("snapshot decodes");
            black_box(r.store().cached_rows())
        })
    });
    // The degraded restart: the ROWS section rotted on disk, so the
    // Salvage policy drops the cached rows and rebuilds the rest. This
    // bounds the cost of coming back up from a damaged snapshot —
    // between `snapshot_load` (all warm) and `cold_rebuild` (nothing
    // persisted); the ratio is `restart.salvage_over_load_x`.
    let rotten = {
        let mut bytes = snapshot.clone();
        let table_at = smx::persist::MAGIC.len() + 8;
        let count = u32::from_le_bytes(bytes[table_at - 4..table_at].try_into().unwrap()) as usize;
        for i in 0..count {
            let entry = table_at + i * 28;
            let id = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap());
            if id == smx::persist::section::ROWS {
                let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap());
                bytes[offset as usize] ^= 0x10;
            }
        }
        bytes
    };
    group.bench_with_input(BenchmarkId::from_parameter("salvage_load"), &0, |b, _| {
        b.iter(|| {
            let (r, report) =
                Repository::load_snapshot_report(black_box(&rotten), RecoveryPolicy::Salvage)
                    .expect("salvage decodes");
            assert!(!report.is_clean());
            black_box(r.store().len())
        })
    });
    group.finish();
}

fn bench_row_kernel(c: &mut Criterion) {
    // The vectorised-dispatch split, measured within one run so the
    // ratios are machine-independent: `reference` re-scores every pair
    // through the scalar `NameSimilarity` string path (the bitwise
    // oracle), `scalar` runs the row kernel pinned to the scalar tier
    // (preprocessing amortised, inner loops unvectorised), `active`
    // runs whatever `KernelVariant::active()` dispatched (SWAR or
    // `std::arch`). scripts/bench_matching.sh records
    // reference/active and scalar/active as the `relative` ratios the
    // machine-relative bench guard (SMX_BENCH_GUARD=relative) checks.
    use smx::text::{KernelVariant, LabelProfile, NameSimilarity, RowKernel};
    let base = problem(8, 9);
    let store = base.repository().store();
    let labels: Vec<String> = (0..store.len())
        .map(|id| {
            store
                .interner()
                .resolve(smx::repo::LabelId(id as u32))
                .to_owned()
        })
        .collect();
    let profiles: Vec<LabelProfile> = labels.iter().map(|l| LabelProfile::new(l)).collect();
    // Queries: a slice of stored labels plus unseen perturbations, so
    // both cache-friendly and novel-label shapes are in the mix.
    let queries: Vec<String> = labels
        .iter()
        .take(8)
        .map(|l| format!("{l}Xq"))
        .chain(labels.iter().take(8).cloned())
        .collect();
    let mut group = c.benchmark_group("row_kernel");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("reference"), &0, |b, _| {
        let scalar = NameSimilarity::default();
        b.iter(|| {
            let mut acc = 0.0f64;
            for q in &queries {
                for l in &labels {
                    acc += scalar.distance(q, l);
                }
            }
            black_box(acc)
        })
    });
    for (name, variant) in [
        ("scalar", KernelVariant::Scalar),
        ("active", KernelVariant::active()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &0, |b, _| {
            b.iter(|| {
                let mut out = Vec::new();
                for q in &queries {
                    let kernel = RowKernel::with_variant(q, variant);
                    out.clear();
                    kernel.distances_into(&profiles, &mut out);
                    black_box(out.len());
                }
            })
        });
    }
    group.finish();
}

fn bench_repository_scaling(c: &mut Criterion) {
    // S1 runtime vs repository size — the scalability wall the paper's
    // clustering work attacks.
    let mut group = c.benchmark_group("s1_vs_repository_size");
    group.sample_size(10);
    for schemas in [4usize, 8, 16] {
        let problem = problem(schemas, 9);
        group.bench_with_input(BenchmarkId::from_parameter(schemas), &schemas, |b, _| {
            b.iter(|| {
                let registry = MappingRegistry::new();
                black_box(ExhaustiveMatcher::default().run(black_box(&problem), 0.3, &registry))
                    .len()
            })
        });
    }
    group.finish();
    // XL sweep: `SMX_BENCH_XL=1` extends the scaling curve to 10³–10⁵
    // mixed-domain schemas, the repository sizes the paper's
    // non-exhaustive argument is actually about. Off by default —
    // building and exhaustively matching 10⁵ schemas takes minutes —
    // so these entries never appear in the committed
    // `BENCH_matching.json` and the bench guard ignores them.
    if std::env::var("SMX_BENCH_XL").as_deref() == Ok("1") {
        let mut group = c.benchmark_group("s1_vs_repository_size");
        group.sample_size(2);
        for schemas in [1_000usize, 10_000, 100_000] {
            let (personal, repo) = mixed_repository(schemas);
            let problem = MatchProblem::new(personal, repo).expect("non-empty personal schema");
            group.bench_with_input(BenchmarkId::from_parameter(schemas), &schemas, |b, _| {
                b.iter(|| {
                    let registry = MappingRegistry::new();
                    black_box(ExhaustiveMatcher::default().run(black_box(&problem), 0.3, &registry))
                        .len()
                })
            });
        }
        group.finish();
    }
}

/// Mixed-domain repository of `total` schemas for the candidate-tier
/// scaling bench: 8 Publications-derived signal schemas (9 host nodes,
/// perturbation 0.7 — the vocabulary the personal schema actually
/// matches) plus cross-domain noise split across Commerce,
/// HumanResources and Travel. Noise schemas are bulkier than the signal
/// (12 host nodes): a shared repository accumulates large schemas from
/// domains unrelated to any one query, and their size is exactly what
/// an exhaustive run pays for and a certified-pruned run does not.
fn mixed_repository(total: usize) -> (Schema, Repository) {
    let signal = Scenario::generate(ScenarioConfig {
        domain: Domain::Publications,
        derived_schemas: 8,
        noise_schemas: 0,
        personal_nodes: 4,
        host_nodes: 9,
        perturbation_strength: 0.7,
        seed: 5,
    });
    let mut repo = signal.repository;
    let noise_total = total - 8;
    let domains = [Domain::Commerce, Domain::HumanResources, Domain::Travel];
    for (i, domain) in domains.iter().enumerate() {
        let n = noise_total / 3 + usize::from(i < noise_total % 3);
        let sc = Scenario::generate(ScenarioConfig {
            domain: *domain,
            derived_schemas: 0,
            noise_schemas: n,
            personal_nodes: 4,
            host_nodes: 12,
            perturbation_strength: 0.7,
            seed: 100 + i as u64,
        });
        for (_, schema) in sc.repository.iter() {
            repo.add(schema.clone());
        }
    }
    (signal.personal, repo)
}

fn bench_candidate_tier(c: &mut Criterion) {
    // Exhaustive vs candidate-tier cold runs as the repository grows —
    // the non-exhaustive trade-off the paper's bounds certify, measured
    // end to end. Every iteration clears the shared score-row cache and
    // builds a fresh MatchProblem, so both sides pay generation (tier
    // only), matrix fill, and search; the tier runs in auto-budget mode
    // (only certified-empty schemas pruned), so its answers are bitwise
    // identical to the exhaustive oracle's and its certificate is
    // recall 1.0 ≥ the 0.95 the headline requires — both are asserted
    // below, outside the timed loops, and recorded as `value` lines in
    // BENCH_matching.json. scripts/bench_guard.sh holds the within-run
    // exhaustive/candidate ratio at 1024 schemas to the documented
    // acceptance floor (≥ 5x).
    let delta_max = 0.1;
    let mut group = c.benchmark_group("candidate_tier");
    group.sample_size(10);
    let mut checks: Vec<(usize, f64, usize)> = Vec::new();
    for total in [64usize, 256, 1024] {
        let (personal, repo) = mixed_repository(total);
        let store_owner =
            MatchProblem::new(personal.clone(), repo.clone()).expect("non-empty personal schema");
        let store = store_owner.repository().store();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("exhaustive_{total}")),
            &total,
            |b, _| {
                b.iter(|| {
                    store.clear_rows();
                    let p = MatchProblem::new(personal.clone(), repo.clone()).unwrap();
                    let registry = MappingRegistry::new();
                    black_box(ExhaustiveMatcher::default().run(&p, delta_max, &registry)).len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("candidate_{total}")),
            &total,
            |b, _| {
                let matcher = CertifiedMatcher::new(
                    ExhaustiveMatcher::default(),
                    CandidateGenerator::auto(ObjectiveFunction::default()),
                );
                b.iter(|| {
                    store.clear_rows();
                    let p = MatchProblem::new(personal.clone(), repo.clone()).unwrap();
                    let registry = MappingRegistry::new();
                    black_box(matcher.run_certified(&p, delta_max, &registry))
                        .answers
                        .len()
                })
            },
        );
        if total == 1024 {
            // Candidate generation alone under a fixed budget: `cold`
            // clears the store's rows and memoised bound rows first, so
            // it pays the cheap filter pass and every refinement again;
            // `warm` reads both from the memo. scripts/bench_guard.sh
            // floors cold/warm (relative.generate_cold_over_warm_1024):
            // a change that stops memoising collapses it to ~1x.
            let generator = CandidateGenerator::new(
                ObjectiveFunction::default(),
                CandidateConfig { budget: Some(32) },
            );
            group.bench_with_input(
                BenchmarkId::from_parameter("generate_cold_1024"),
                &total,
                |b, _| {
                    b.iter(|| {
                        store.clear_rows();
                        black_box(generator.generate(&store_owner, delta_max)).active_count()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::from_parameter("generate_warm_1024"),
                &total,
                |b, _| {
                    b.iter(|| black_box(generator.generate(&store_owner, delta_max)).active_count())
                },
            );
        }
        // Certificate checks, outside the timed loops: admissibility
        // (certified never exceeds measured recall) and the headline
        // floor (certified ≥ 0.95 — exactly 1.0 in auto mode).
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&store_owner, delta_max, &registry);
        let matcher = CertifiedMatcher::new(
            ExhaustiveMatcher::default(),
            CandidateGenerator::auto(ObjectiveFunction::default()),
        );
        let certified = matcher.run_certified(&store_owner, delta_max, &registry);
        let cert = certified.certificate.certified_recall();
        let measured = if oracle.is_empty() {
            1.0
        } else {
            let kept = certified
                .answers
                .ids()
                .filter(|&id| oracle.score_of(id).is_some())
                .count();
            kept as f64 / oracle.len() as f64
        };
        assert!(
            cert <= measured + 1e-12,
            "size {total}: certificate {cert} exceeds measured recall {measured}"
        );
        assert!(
            cert >= 0.95,
            "size {total}: certified recall {cert} below the 0.95 headline floor"
        );
        checks.push((total, cert, certified.certificate.active_schemas()));
    }
    group.finish();
    // Record the (non-timing) certificate facts alongside the ns lines
    // so BENCH_matching.json documents the recall the speedup was
    // bought at.
    if let Ok(path) = std::env::var("SMX_BENCH_JSON") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("SMX_BENCH_JSON path is writable");
        for (total, cert, active) in checks {
            writeln!(
                f,
                "{{\"bench\":\"candidate_tier/certified_recall_{total}\",\"value\":{cert}}}"
            )
            .unwrap();
            writeln!(
                f,
                "{{\"bench\":\"candidate_tier/active_schemas_{total}\",\"value\":{active}}}"
            )
            .unwrap();
        }
    }
}

fn bench_pipeline(c: &mut Criterion) {
    // The composed filter→refine pipeline (candidate filter → beam
    // filter → exhaustive-on-survivors) racing the monolithic
    // exhaustive matcher on identical cold 1024-schema mixed-domain
    // problems. Both sides run at Δ = 0.2: at that threshold the beam
    // stage answers every surviving schema, so the composed
    // certificate charges nothing and stays at recall 1.0 — the race
    // measures what declarative composition *costs*, not what pruning
    // buys (the candidate tier group measures that). At a tighter Δ
    // the beam drops schemas it cannot answer and their caps — loose
    // per-schema answer-count bounds — collapse the certificate,
    // which is exactly the behaviour the certified-matrix suite pins
    // down. The within-run composed/exhaustive ratio is guarded as
    // `relative.pipeline_over_exhaustive_1024`; admissibility
    // (certified ≤ measured recall vs the oracle) and the ≥ 0.95
    // recall floor are asserted outside the timed loops, and the
    // recall is recorded as a `value` line so BENCH_matching.json
    // documents what the composed speedup was bought at.
    let delta_max = 0.2;
    let total = 1024usize;
    let pipeline = Pipeline::builder(ObjectiveFunction::default())
        .candidate_filter()
        .beam_filter(4)
        .refine(ExhaustiveMatcher::default());
    let (personal, repo) = mixed_repository(total);
    let store_owner =
        MatchProblem::new(personal.clone(), repo.clone()).expect("non-empty personal schema");
    let store = store_owner.repository().store();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("exhaustive_{total}")),
        &total,
        |b, _| {
            b.iter(|| {
                store.clear_rows();
                let p = MatchProblem::new(personal.clone(), repo.clone()).unwrap();
                let registry = MappingRegistry::new();
                black_box(ExhaustiveMatcher::default().run(&p, delta_max, &registry)).len()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("composed_{total}")),
        &total,
        |b, _| {
            b.iter(|| {
                store.clear_rows();
                let p = MatchProblem::new(personal.clone(), repo.clone()).unwrap();
                let registry = MappingRegistry::new();
                black_box(pipeline.run_certified(&p, delta_max, &registry))
                    .answers
                    .len()
            })
        },
    );
    group.finish();
    let registry = MappingRegistry::new();
    let oracle = ExhaustiveMatcher::default().run(&store_owner, delta_max, &registry);
    let run = pipeline.run_certified(&store_owner, delta_max, &registry);
    run.answers
        .is_subset_of(&oracle)
        .expect("pipeline answers are a subset of the oracle's");
    let cert = run.certificate.certified_recall();
    let measured = if oracle.is_empty() {
        1.0
    } else {
        let kept = run
            .answers
            .ids()
            .filter(|&id| oracle.score_of(id).is_some())
            .count();
        kept as f64 / oracle.len() as f64
    };
    assert!(
        cert <= measured + 1e-12,
        "pipeline certificate {cert} exceeds measured recall {measured}"
    );
    assert!(
        cert >= 0.95,
        "pipeline certified recall {cert} below the 0.95 headline floor"
    );
    if let Ok(path) = std::env::var("SMX_BENCH_JSON") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("SMX_BENCH_JSON path is writable");
        writeln!(
            f,
            "{{\"bench\":\"pipeline/certified_recall_{total}\",\"value\":{cert}}}"
        )
        .unwrap();
        writeln!(
            f,
            "{{\"bench\":\"pipeline/stages_{total}\",\"value\":{}}}",
            run.certificate.stages().len()
        )
        .unwrap();
    }
}

fn bench_trace_overhead(c: &mut Criterion) {
    // The near-zero-cost-when-disabled claim, measured: `baseline`
    // drives the byte-for-byte pre-instrumentation sweep path
    // (`score_rows_uninstrumented`), `disabled` drives the instrumented
    // wrapper with tracing off (one relaxed atomic load per call), and
    // `enabled` — informational, unguarded — drives it with a live
    // collector installed, drained every iteration.
    // scripts/bench_matching.sh records baseline/disabled as
    // `relative.trace_overhead_disabled`; scripts/bench_guard.sh floors
    // it at 0.95 (instrumentation may cost at most 5% when off).
    let base = problem(8, 9);
    let store = base.repository().store();
    let labels: Vec<String> = (0..store.len())
        .map(|id| {
            store
                .interner()
                .resolve(smx::repo::LabelId(id as u32))
                .to_owned()
        })
        .collect();
    let queries: Vec<&str> = labels.iter().take(16).map(String::as_str).collect();
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    smx::obs::set_enabled(false);
    smx::obs::set_recorder(None);
    group.bench_with_input(BenchmarkId::from_parameter("baseline"), &0, |b, _| {
        b.iter(|| {
            store.clear_rows();
            black_box(store.score_rows_uninstrumented(&queries)).len()
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("disabled"), &0, |b, _| {
        b.iter(|| {
            store.clear_rows();
            black_box(store.score_rows(&queries)).len()
        })
    });
    let collector = smx::obs::install_collector();
    group.bench_with_input(BenchmarkId::from_parameter("enabled"), &0, |b, _| {
        b.iter(|| {
            store.clear_rows();
            let n = black_box(store.score_rows(&queries)).len();
            collector.take();
            n
        })
    });
    smx::obs::set_enabled(false);
    smx::obs::set_recorder(None);
    group.finish();
    // The guarded ratio is measured *paired*: alternating
    // baseline/disabled sweeps inside one loop, so frequency drift,
    // cache state, and allocator history hit both sides equally. The
    // standalone entries above are informational — as separate bench
    // positions their ratio wobbles ±5% run to run, which is exactly
    // the margin the 0.95 floor polices.
    let mut baseline_ns = 0u128;
    let mut disabled_ns = 0u128;
    for round in 0..68 {
        store.clear_rows();
        let t = std::time::Instant::now();
        black_box(store.score_rows_uninstrumented(&queries));
        let b_ns = t.elapsed().as_nanos();
        store.clear_rows();
        let t = std::time::Instant::now();
        black_box(store.score_rows(&queries));
        let d_ns = t.elapsed().as_nanos();
        if round >= 4 {
            // First rounds are warm-up.
            baseline_ns += b_ns;
            disabled_ns += d_ns;
        }
    }
    if let Ok(path) = std::env::var("SMX_BENCH_JSON") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("SMX_BENCH_JSON path is writable");
        writeln!(
            f,
            "{{\"bench\":\"trace_overhead/paired_baseline_over_disabled\",\"value\":{}}}",
            baseline_ns as f64 / disabled_ns as f64
        )
        .unwrap();
    }
}

criterion_group!(
    benches,
    bench_matchers,
    bench_matrix_fill,
    bench_batch_matching,
    bench_restart,
    bench_row_kernel,
    bench_repository_scaling,
    bench_candidate_tier,
    bench_pipeline,
    bench_trace_overhead
);
criterion_main!(benches);
