//! Warm restart: snapshot a serving repository — schemas plus the label
//! store's hot state (labels, column maps, cached score rows) — shut
//! "the process" down, load the snapshot, and keep serving with zero
//! recompute and bitwise-identical answers. Also shows the eviction
//! spill file: a bounded row cache that trades memory for disk instead
//! of recompute.
//!
//! Exits non-zero on any divergence, so `scripts/verify.sh` runs it as
//! the snapshot round-trip smoke check.
//!
//! Run with: `cargo run --release --example warm_restart`

use smx::matching::{ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher};
use smx::persist::{RealIo, RecoveryPolicy, Snapshot, SpillFile};
use smx::repo::Repository;
use smx::synth::{Scenario, ScenarioConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. A repository with live traffic: one query warms the store.
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 10,
        noise_schemas: 5,
        personal_nodes: 5,
        host_nodes: 9,
        perturbation_strength: 0.8,
        seed: 42,
        ..Default::default()
    });
    let repository = sc.repository;
    let registry = MappingRegistry::new();
    let matcher = ExhaustiveMatcher::default();
    let problem = MatchProblem::new(sc.personal.clone(), repository.clone())
        .expect("non-empty personal schema");
    let before = matcher.run(&problem, 0.4, &registry);
    println!(
        "serving: {} schemas, {} distinct labels, {} warm score rows, {} answers",
        repository.len(),
        repository.store().len(),
        repository.store().cached_rows(),
        before.len()
    );

    // 2. Snapshot to disk — the versioned, checksummed smx-persist
    //    image of schemas + hot store state.
    let path = std::env::temp_dir().join(format!("smx-warm-restart-{}.snap", std::process::id()));
    let t = Instant::now();
    repository
        .save_snapshot_file(&path)
        .expect("snapshot writes");
    let saved = t.elapsed();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "snapshot: {bytes} bytes written in {saved:.2?} -> {}",
        path.display()
    );

    // 3. "Restart": load the snapshot and serve the same query again.
    let t = Instant::now();
    let restarted = Repository::load_snapshot_file(&path).expect("snapshot loads");
    let loaded = t.elapsed();
    let replay = MatchProblem::new(sc.personal.clone(), restarted.clone())
        .expect("non-empty personal schema");
    let after = matcher.run(&replay, 0.4, &registry);
    println!(
        "restart: loaded in {loaded:.2?}, {} warm rows back, {} answers",
        restarted.store().cached_rows(),
        after.len()
    );

    // The smoke-check teeth: identical repositories, identical answers
    // (bitwise scores), and zero pair evaluations on the replay — the
    // warm rows really did survive.
    assert_eq!(restarted, repository, "loaded repository diverged");
    assert_eq!(after.len(), before.len(), "answer counts diverged");
    for (a, b) in before.answers().iter().zip(after.answers()) {
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "answer scores diverged"
        );
    }
    assert_eq!(
        restarted.store().pair_evals(),
        0,
        "replay against the loaded snapshot recomputed rows"
    );
    println!("identity: answers bitwise-identical, 0 pairs re-evaluated after restart");

    // 4. Bonus: bound the restarted cache and spill evictions to disk.
    //    Re-querying a spilled row faults it back instead of sweeping.
    let spill_path = path.with_extension("spill");
    let spill = Arc::new(SpillFile::create(&spill_path).expect("spill file"));
    restarted
        .store()
        .set_eviction_sink(Some(Arc::clone(&spill) as _));
    restarted.store().set_max_cached_rows(Some(2));
    for q in ["invoiceNo", "shipmentDate", "customerRef"] {
        restarted.store().score_row(q);
    }
    let evals = restarted.store().pair_evals();
    restarted.store().score_row("invoiceNo"); // evicted + spilled above
    let c = restarted.store().counters();
    assert_eq!(
        restarted.store().pair_evals(),
        evals,
        "spilled row must fault, not sweep"
    );
    println!(
        "spill: {} rows on disk ({} bytes), {} spilled, {} recovered, 0 pairs re-evaluated",
        spill.len(),
        spill.spilled_bytes(),
        c.row_spills,
        c.row_spill_recoveries
    );

    // 5. Salvage restart: a snapshot whose ROWS section rotted on disk.
    //    Strict loading refuses it; the Salvage policy degrades — the
    //    damaged section's state is rebuilt or dropped, the report says
    //    exactly what happened, and serving continues (the dropped rows
    //    cost one recompute each, never a wrong answer).
    let mut rotten = std::fs::read(&path).expect("snapshot bytes");
    let rows_at = find_section_payload(&rotten, smx::persist::section::ROWS);
    rotten[rows_at] ^= 0x08; // one flipped bit, as disks do
    std::fs::write(&path, &rotten).expect("write the rotten snapshot");
    assert!(
        Repository::load_snapshot_file(&path).is_err(),
        "strict load must refuse a rotten section"
    );
    let (salvaged, report) =
        Repository::load_snapshot_file_with(&RealIo, &path, RecoveryPolicy::Salvage)
            .expect("salvage load succeeds");
    println!("salvage: {report}");
    let health = salvaged.store().health();
    assert!(!report.is_clean(), "the damage must be reported");
    assert_eq!(health.salvage_events, 1, "health must expose the salvage");
    // The salvaged repository answers bitwise-identically — it just has
    // to recompute the rows the rotten section lost.
    let degraded_problem = MatchProblem::new(sc.personal.clone(), salvaged.clone())
        .expect("non-empty personal schema");
    let degraded = matcher.run(&degraded_problem, 0.4, &registry);
    assert_eq!(
        degraded.len(),
        before.len(),
        "salvaged answer count diverged"
    );
    for (a, b) in before.answers().iter().zip(degraded.answers()) {
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "salvaged answer scores diverged"
        );
    }
    println!(
        "salvage: answers bitwise-identical after degraded restart ({} rows recomputed)",
        salvaged.store().cached_rows()
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&spill_path).ok();
    println!("warm restart: OK");
}

/// Locate a section's payload offset via the snapshot's on-disk table
/// (magic + version + count, then 28-byte `{id, offset, len, checksum}`
/// entries) so the demo can rot a real byte of it.
fn find_section_payload(bytes: &[u8], id: u32) -> usize {
    let table_at = smx::persist::MAGIC.len() + 8;
    let count = u32::from_le_bytes(bytes[table_at - 4..table_at].try_into().unwrap()) as usize;
    for i in 0..count {
        let entry = table_at + i * 28;
        if u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) == id {
            let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap());
            return offset as usize + len as usize / 2;
        }
    }
    panic!("section {id} missing from the snapshot");
}
