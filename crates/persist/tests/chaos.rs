//! The chaos gate: under *any* deterministic fault plan injected into
//! the persistence seam — failed writes, torn writes, bit flips,
//! full crashes — the system must degrade, never diverge. Every roster
//! matcher (the five matching systems) must return answers
//! **bitwise identical** to a fault-free oracle run, no operation may
//! panic, and the damage must be visible through `LabelStore::health`,
//! not silently absorbed.
//!
//! The spill sink is best-effort by contract, which is exactly what
//! makes this provable: a fault can only ever cost recompute work, and
//! recompute is bitwise-deterministic (the row-kernel identity
//! contract). The proptest drives randomized fault plans against
//! randomized query interleavings; the deterministic battery pins the
//! interesting plans (crash-at-op, torn record, flipped bit) against
//! all five roster matchers; the salvage storm flips bits in every
//! snapshot section and checks the Salvage policy reports the damage
//! precisely while still answering identically.

use proptest::prelude::*;
use smx_eval::AnswerSet;
use smx_match::test_support::{all_matchers, canonical_answers, run_matcher};
use smx_match::{
    CandidateGenerator, CertifiedMatcher, ExhaustiveMatcher, MappingRegistry, MatchProblem,
    Matcher, ObjectiveFunction,
};
use smx_persist::{
    section, Damage, Fault, FaultIo, FaultPlan, RealIo, RecoveryPolicy, RetryPolicy, SalvageEvent,
    Snapshot, SpillFile, MAGIC,
};
use smx_repo::{LabelId, Repository, SchemaId, StoreConfig};
use smx_synth::{Scenario, ScenarioConfig};
use smx_text::NameSimilarity;
use smx_xml::{PrimitiveType, Schema, SchemaBuilder};
use std::path::PathBuf;
use std::sync::Arc;

const DELTA_MAX: f64 = 0.45;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smx-chaos-{}-{tag}.bin", std::process::id()))
}

fn scenario(seed: u64) -> Scenario {
    Scenario::generate(ScenarioConfig {
        derived_schemas: 3,
        noise_schemas: 1,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed,
        ..Default::default()
    })
}

fn run(
    matcher: &dyn Matcher,
    personal: &Schema,
    repository: &Repository,
    registry: &MappingRegistry,
) -> AnswerSet {
    run_matcher(matcher, personal, repository, DELTA_MAX, registry)
}

/// A bounded clone of `source`'s schemas with a fault-injected spill
/// sink attached. Returns the repository and the sink.
fn bounded_with_faulty_spill(
    source: &Repository,
    cap: usize,
    plan: FaultPlan,
    path: &PathBuf,
) -> (Repository, Arc<SpillFile>) {
    let mut repo = Repository::with_store_config(StoreConfig {
        max_cached_rows: Some(cap),
        batch_threads: 0,
        ..StoreConfig::default()
    });
    for (_, schema) in source.iter() {
        repo.add(schema.clone());
    }
    let io = Arc::new(FaultIo::new(Arc::new(RealIo), plan));
    let spill = Arc::new(
        SpillFile::create_with(io as _, path)
            .expect("creation happens before any planned fault in these tests")
            .with_retry_policy(RetryPolicy {
                max_reopens: 2,
                backoff_base: 1,
            }),
    );
    repo.store()
        .set_eviction_sink(Some(Arc::clone(&spill) as _));
    (repo, spill)
}

#[test]
fn six_matchers_are_bitwise_identical_under_fault_storms() {
    let sc = scenario(7001);
    // The storm battery: each plan injures the spill seam differently.
    // Ops 0 and 1 are the create + header write, so planned faults
    // start at op 2 (the first record write).
    let storms: Vec<(&str, FaultPlan)> = vec![
        ("failed-write", FaultPlan::clean().fault_at(2, Fault::Fail)),
        (
            "torn-write",
            FaultPlan::clean().fault_at(2, Fault::Torn { keep: 9 }),
        ),
        (
            "flipped-bit",
            FaultPlan::clean().fault_at(2, Fault::BitFlip { byte: 30 }),
        ),
        ("total-crash", FaultPlan::clean().crash_at_op(2)),
        ("byte-budget", FaultPlan::clean().crash_after_bytes(64)),
        (
            "rolling-failures",
            FaultPlan::clean()
                .fault_at(3, Fault::Fail)
                .fault_at(5, Fault::Torn { keep: 1 })
                .fault_at(8, Fault::BitFlip { byte: 0 })
                .fault_at(11, Fault::Fail),
        ),
    ];
    for (name, plan) in storms {
        let path = temp_path(&format!("storm-{name}"));
        let (repo, _spill) = bounded_with_faulty_spill(&sc.repository, 1, plan, &path);
        for (matcher_name, matcher) in all_matchers() {
            let registry = MappingRegistry::new();
            let oracle = run(&matcher, &sc.personal, &sc.repository, &registry);
            let stormy = run(&matcher, &sc.personal, &repo, &registry);
            assert_eq!(
                canonical_answers(&oracle, &registry),
                canonical_answers(&stormy, &registry),
                "storm {name:?}: matcher {matcher_name} diverged from the no-fault oracle"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn fault_storm_damage_is_visible_through_store_health() {
    let sc = scenario(7002);
    let path = temp_path("health");
    // Crash the sink's io permanently at the first record write: every
    // spill attempt fails, the retry budget exhausts, the sink poisons.
    let (repo, spill) =
        bounded_with_faulty_spill(&sc.repository, 1, FaultPlan::clean().crash_at_op(2), &path);
    for i in 0..32 {
        repo.store().score_row(&format!("query{i}"));
    }
    assert!(spill.is_poisoned(), "retry budget must exhaust");
    let health = repo.store().health();
    let sink = health.sink.expect("sink installed");
    assert!(sink.poisoned && sink.degraded);
    assert!(sink.write_errors > 0);
    assert!(
        health.counters.row_spill_failures > 0,
        "declined spills must be counted"
    );
    assert!(!health.is_healthy());
    // The oracle twin without a sink is pristine by the same measure.
    let clean = scenario(7002).repository;
    clean.store().score_row("query0");
    assert!(clean.store().health().is_healthy());
    std::fs::remove_file(&path).ok();
}

#[test]
fn salvage_storm_reports_each_damaged_section_and_answers_identically() {
    let sc = scenario(7003);
    let repository = sc.repository;
    // Warm the store so the snapshot has a ROWS section worth losing.
    let warm = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    warm.cost_matrix(&ObjectiveFunction::default());
    let bytes = repository.save_snapshot();

    // Locate each section's payload via the on-disk table:
    // magic(8) + version(4) + count(4), then 28-byte entries
    // { id: u32, offset: u64, len: u64, checksum: u64 }.
    let table_at = smx_persist::MAGIC.len() + 8;
    let count = u32::from_le_bytes(bytes[table_at - 4..table_at].try_into().unwrap()) as usize;
    let section_at = |id: u32| -> (usize, usize) {
        for i in 0..count {
            let entry = table_at + i * 28;
            if u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) == id {
                let offset =
                    u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
                let len =
                    u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
                return (offset, len);
            }
        }
        panic!("section {id} missing from fixture snapshot");
    };

    // Flip one payload bit per degradable section and salvage each.
    type EventMatcher = fn(&SalvageEvent) -> bool;
    let storms: [(u32, EventMatcher); 3] = [
        (smx_persist::section::LABELS, |e| {
            matches!(e, SalvageEvent::LabelsRebuilt(_))
        }),
        (smx_persist::section::ROWS, |e| {
            matches!(e, SalvageEvent::RowsDropped(_))
        }),
        (smx_persist::section::CONFIG, |e| {
            matches!(e, SalvageEvent::ConfigDefaulted(_))
        }),
    ];
    for (id, expected) in storms {
        let (offset, len) = section_at(id);
        assert!(len > 0, "section {id} must be non-empty in the fixture");
        let mut damaged = bytes.clone();
        damaged[offset + len / 2] ^= 0x40;

        // Strict refuses; Salvage loads and reports exactly one event,
        // for exactly the damaged section.
        Repository::load_snapshot(&damaged).expect_err("strict must refuse bit rot");
        let (salvaged, report) =
            Repository::load_snapshot_report(&damaged, RecoveryPolicy::Salvage)
                .unwrap_or_else(|e| panic!("section {id}: salvage failed: {e:?}"));
        assert_eq!(report.events.len(), 1, "section {id}: {report}");
        assert!(
            expected(&report.events[0]),
            "section {id}: wrong event in {report}"
        );
        assert_eq!(salvaged.store().salvage_events(), 1);
        assert!(!salvaged.store().health().is_healthy());

        // And the degraded repository still answers bitwise identically
        // across every roster matcher — salvage costs recompute, never
        // correctness.
        for (name, matcher) in all_matchers() {
            let registry = MappingRegistry::new();
            let oracle = run(&matcher, &sc.personal, &repository, &registry);
            let degraded = run(&matcher, &sc.personal, &salvaged, &registry);
            assert_eq!(
                canonical_answers(&oracle, &registry),
                canonical_answers(&degraded, &registry),
                "section {id}: matcher {name} diverged after salvage"
            );
        }
    }
}

#[test]
fn mutated_bounded_store_is_bitwise_identical_under_fault_storms() {
    // The mutation gate, composed with the chaos seam: a bounded store
    // whose repository has been mutated (one slot removed, one
    // replaced) rides the same fault storms — and every roster matcher
    // must still answer bitwise identically to a fault-free, unbounded
    // rebuild of the same final schemas (tombstoned slot as the empty
    // placeholder every matcher skips).
    let sc = scenario(7004);
    let replacement = scenario(7104)
        .repository
        .schema(smx_repo::SchemaId(0))
        .clone();
    let storms: Vec<(&str, FaultPlan)> = vec![
        ("failed-write", FaultPlan::clean().fault_at(2, Fault::Fail)),
        (
            "torn-write",
            FaultPlan::clean().fault_at(2, Fault::Torn { keep: 9 }),
        ),
        ("total-crash", FaultPlan::clean().crash_at_op(2)),
    ];
    for (name, plan) in storms {
        let path = temp_path(&format!("mutated-storm-{name}"));
        let io = Arc::new(FaultIo::new(Arc::new(RealIo), plan));
        let mut stormy = Repository::with_store_config(StoreConfig {
            max_cached_rows: Some(1),
            batch_threads: 0,
            ..StoreConfig::default()
        });
        for (_, schema) in sc.repository.iter() {
            stormy.add(schema.clone());
        }
        let spill = Arc::new(
            SpillFile::create_with(io as _, &path)
                .expect("creation happens before any planned fault")
                .with_retry_policy(RetryPolicy {
                    max_reopens: 2,
                    backoff_base: 1,
                }),
        );
        stormy
            .store()
            .set_eviction_sink(Some(Arc::clone(&spill) as _));
        // Churn the bounded cache so evictions hit the faulty sink,
        // then mutate, then churn again: spill faults land both before
        // and after the mutation.
        for i in 0..8 {
            stormy.store().score_row(&format!("stormQuery{i}"));
        }
        assert!(stormy.remove_schema(smx_repo::SchemaId(1)));
        assert!(stormy.replace_schema(smx_repo::SchemaId(2), replacement.clone()));
        for i in 8..16 {
            stormy.store().score_row(&format!("stormQuery{i}"));
        }

        let mut oracle = Repository::new();
        for sid in stormy.schema_ids() {
            if stormy.is_removed(sid) {
                oracle.add(Schema::new(""));
            } else {
                oracle.add(stormy.schema(sid).clone());
            }
        }
        for (matcher_name, matcher) in all_matchers() {
            let registry = MappingRegistry::new();
            let want = run(&matcher, &sc.personal, &oracle, &registry);
            let got = run(&matcher, &sc.personal, &stormy, &registry);
            assert_eq!(
                canonical_answers(&want, &registry),
                canonical_answers(&got, &registry),
                "storm {name:?}: matcher {matcher_name} diverged on the mutated bounded store"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Assert every row cached in `repo`'s store equals the scalar oracle's
/// distances from its query to the store's own label list, bitwise.
fn assert_cached_rows_are_oracle(repo: &Repository) {
    let store = repo.store();
    let oracle = NameSimilarity::default();
    for (query, row) in store.export_state().rows {
        assert!(row.len() <= store.len(), "row {query:?} is too long");
        for (id, d) in row.iter().enumerate() {
            let label = store.interner().resolve(LabelId(id as u32));
            assert_eq!(
                d.to_bits(),
                oracle.distance(&query, label).to_bits(),
                "row {query:?} vs label {label:?}"
            );
        }
    }
}

/// Slot 0 holds `alpha`, slot 1 `betaGamma`. Replacing slot 0 with a
/// `betaGamma` root over an `alpha` leaf interns nothing new, so the
/// live label list stays [alpha, betaGamma] while a slot-order replay
/// of the schemas yields [betaGamma, alpha]. The store caches the row
/// of `alphabet`.
fn replace_fixture() -> Repository {
    let mut repository = Repository::new();
    repository.add(SchemaBuilder::new("a").root("alpha").build());
    repository.add(SchemaBuilder::new("b").root("betaGamma").build());
    repository.replace_schema(
        SchemaId(0),
        SchemaBuilder::new("c")
            .root("betaGamma")
            .leaf("alpha", PrimitiveType::String)
            .build(),
    );
    repository.store().score_row("alphabet");
    repository
}

/// The personal schema the replace-fixture tests match.
fn alphabet_personal() -> Schema {
    SchemaBuilder::new("p")
        .root("alphabet")
        .leaf("gamma", PrimitiveType::String)
        .build()
}

/// Flip the first payload byte of section `id`, found through the
/// snapshot's section table: magic, version and count, then 28-byte
/// entries `{ id: u32, offset: u64, len: u64, checksum: u64 }`.
fn flip_section_byte(bytes: &mut [u8], id: u32) {
    let table = MAGIC.len() + 8;
    let count = u32::from_le_bytes(bytes[table - 4..table].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| table + i * 28)
        .find(|&e| bytes[e..e + 4] == id.to_le_bytes())
        .unwrap_or_else(|| panic!("section {id} missing from the snapshot"));
    let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
    bytes[offset] ^= 0xFF;
}

#[test]
fn salvaged_labels_after_a_replace_keep_no_row_under_a_wrong_label_id() {
    let repository = replace_fixture();
    let personal = alphabet_personal();
    let problem = MatchProblem::new(personal.clone(), repository.clone()).unwrap();
    CertifiedMatcher::new(
        ExhaustiveMatcher::default(),
        CandidateGenerator::auto(ObjectiveFunction::default()),
    )
    .run_certified(&problem, DELTA_MAX, &MappingRegistry::new());

    let mut bytes = repository.save_snapshot();
    flip_section_byte(&mut bytes, section::LABELS);

    let (salvaged, report) =
        Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
    assert_eq!(
        report.events,
        vec![
            SalvageEvent::LabelsRebuilt(Damage::BadChecksum),
            SalvageEvent::RowsDropped(Damage::Inconsistent),
        ]
    );
    let labels: Vec<&str> = (0..salvaged.store().len())
        .map(|i| salvaged.store().interner().resolve(LabelId(i as u32)))
        .collect();
    assert_eq!(labels, ["betaGamma", "alpha"], "the replay permutes labels");
    assert_cached_rows_are_oracle(&salvaged);

    for (name, matcher) in all_matchers() {
        let registry = MappingRegistry::new();
        let oracle = run(&matcher, &personal, &repository, &registry);
        let degraded = run(&matcher, &personal, &salvaged, &registry);
        assert_eq!(
            canonical_answers(&oracle, &registry),
            canonical_answers(&degraded, &registry),
            "matcher {name} diverged after salvage"
        );
    }
    // The rows those runs cached are right too.
    assert!(salvaged.store().cached_rows() > 0);
    assert_cached_rows_are_oracle(&salvaged);
}

#[test]
fn a_second_salvage_after_lost_tombstones_keeps_no_row_under_a_wrong_label_id() {
    // Losing TOMBSTONES loses the mutation history. The store must not
    // then pass for an add-only one, or a later LABELS salvage of its
    // next snapshot would trust a slot-order replay that permutes ids.
    let repository = replace_fixture();
    let mut bytes = repository.save_snapshot();
    flip_section_byte(&mut bytes, section::TOMBSTONES);
    let (first, report) =
        Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
    assert_eq!(
        report.events,
        vec![SalvageEvent::TombstonesDropped(Damage::BadChecksum)]
    );
    for sid in first.schema_ids() {
        assert!(!first.is_removed(sid));
        assert_eq!(first.store().schema_generation(sid), 1, "history unknown");
    }
    assert_cached_rows_are_oracle(&first);

    let mut bytes = first.save_snapshot();
    flip_section_byte(&mut bytes, section::LABELS);
    let (second, report) =
        Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
    assert_eq!(
        report.events,
        vec![
            SalvageEvent::LabelsRebuilt(Damage::BadChecksum),
            SalvageEvent::RowsDropped(Damage::Inconsistent),
        ]
    );
    assert_cached_rows_are_oracle(&second);

    let personal = alphabet_personal();
    for (name, matcher) in all_matchers() {
        let registry = MappingRegistry::new();
        let oracle = run(&matcher, &personal, &repository, &registry);
        let degraded = run(&matcher, &personal, &second, &registry);
        assert_eq!(
            canonical_answers(&oracle, &registry),
            canonical_answers(&degraded, &registry),
            "matcher {name} diverged after the second salvage"
        );
    }
    assert_cached_rows_are_oracle(&second);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fault plans against random query interleavings: every row
    /// served by the fault-injected, spill-backed store is bitwise
    /// equal to the no-fault oracle's, counters stay coherent, and
    /// nothing panics. Faults may land anywhere — creation, header
    /// write, record writes, reopen reads — so this also fuzzes the
    /// retry/backoff state machine.
    #[test]
    fn random_fault_plans_never_change_answers(
        seed in 0..u64::MAX,
        cap in 1..4usize,
        faults in proptest::collection::vec((0..48u64, 0..5u8, 0..64u8), 0..8),
        crash_op in proptest::option::of(2..40u64),
        queries in proptest::collection::vec(0..10usize, 1..24),
    ) {
        let mut plan = FaultPlan::clean();
        for &(op, kind, detail) in &faults {
            let fault = match kind {
                0 | 1 => Fault::Fail,
                2 | 3 => Fault::Torn { keep: detail as usize },
                _ => Fault::BitFlip { byte: detail as usize },
            };
            plan = plan.fault_at(op, fault);
        }
        if let Some(op) = crash_op {
            plan = plan.crash_at_op(op);
        }
        let sc = scenario(seed % 1024);
        let path = temp_path(&format!("prop-{seed}-{cap}"));
        // The plan may fault the very creation of the spill file; a
        // store without a sink is the degenerate (still correct) case.
        let io = Arc::new(FaultIo::new(Arc::new(RealIo), plan));
        let mut repo = Repository::with_store_config(StoreConfig {
            max_cached_rows: Some(cap),
            batch_threads: 0,
            ..StoreConfig::default()
        });
        for (_, schema) in sc.repository.iter() {
            repo.add(schema.clone());
        }
        let spill = SpillFile::create_with(io as _, &path).ok().map(|s| {
            Arc::new(s.with_retry_policy(RetryPolicy { max_reopens: 1, backoff_base: 1 }))
        });
        if let Some(spill) = &spill {
            repo.store().set_eviction_sink(Some(Arc::clone(spill) as _));
        }
        let vocabulary = [
            "title", "bookTitle", "isbn", "author", "price", "orderDate",
            "customerName", "qty", "shipAddress", "year",
        ];
        for (i, &q) in queries.iter().enumerate() {
            let q = vocabulary[q];
            let stormy = repo.store().score_row(q);
            let clean = sc.repository.store().score_row(q);
            prop_assert_eq!(stormy.len(), clean.len());
            for (a, b) in stormy.iter().zip(clean.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "query {} ({:?})", i, q);
            }
            // Occasionally exercise the maintenance paths mid-storm;
            // both are allowed to fail (the io may be dead), neither
            // may panic or change answers.
            if let Some(spill) = &spill {
                if i % 7 == 3 {
                    let _ = spill.compact();
                }
                if i % 11 == 5 {
                    let _ = spill.reopen();
                }
            }
        }
        let c = repo.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        // Health must be internally coherent: a poisoned sink implies
        // recorded write errors (poison is never spontaneous).
        let health = repo.store().health();
        if let Some(sink) = health.sink {
            if sink.poisoned {
                prop_assert!(sink.write_errors > 0 || sink.reopens == 0);
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("bin.tmp")).ok();
    }
}
