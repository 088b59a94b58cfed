//! Persistence failure paths: every way a snapshot can be damaged maps
//! to a typed [`PersistError`] — never a panic, never a half-built
//! repository — and undamaged snapshots of arbitrary synthetic
//! repositories round-trip bitwise (proptest), column arena included:
//! node shapes are never persisted, so every load — a salvage load that
//! rebuilds the LABELS section too — must rebuild them equal.

use proptest::prelude::*;
use smx_persist::{
    section, PersistError, RecoveryPolicy, SalvageEvent, Snapshot, FORMAT_VERSION, MAGIC,
};
use smx_repo::{LabelId, Repository, StoreConfig};
use smx_synth::{Scenario, ScenarioConfig};

fn snapshot_bytes() -> (Repository, Vec<u8>) {
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 3,
        noise_schemas: 1,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed: 9,
        ..Default::default()
    });
    let repository = sc.repository;
    repository.store().score_row("warmQuery");
    repository.store().score_row("anotherQuery");
    let bytes = repository.save_snapshot();
    (repository, bytes)
}

#[test]
fn bad_magic_is_rejected() {
    let (_, mut bytes) = snapshot_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Repository::load_snapshot(&bytes),
        Err(PersistError::BadMagic)
    ));
    assert!(matches!(
        Repository::load_snapshot(b"not a snapshot at all"),
        Err(PersistError::BadMagic)
    ));
}

#[test]
fn unknown_version_is_rejected_with_the_declared_version() {
    let (_, mut bytes) = snapshot_bytes();
    let at = MAGIC.len();
    bytes[at..at + 4].copy_from_slice(&(FORMAT_VERSION + 41).to_le_bytes());
    assert!(matches!(
        Repository::load_snapshot(&bytes),
        Err(PersistError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 41
    ));
}

#[test]
fn truncation_anywhere_is_truncated_not_a_panic() {
    let (_, bytes) = snapshot_bytes();
    // Every prefix of the snapshot must fail cleanly. Short prefixes
    // die in the header; longer ones leave a section table pointing
    // past the end.
    for len in [
        0,
        1,
        7,
        8,
        11,
        12,
        15,
        16,
        40,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        match Repository::load_snapshot(&bytes[..len]) {
            Err(PersistError::Truncated) => {}
            other => panic!("prefix {len}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn lying_section_count_is_truncated_not_an_allocation_panic() {
    // The header's section count is outside the checksummed payloads; a
    // flipped high bit must fail cleanly instead of sizing a huge
    // allocation by it.
    let (_, mut bytes) = snapshot_bytes();
    let at = MAGIC.len() + 4;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Repository::load_snapshot(&bytes),
        Err(PersistError::Truncated)
    ));
    bytes[at..at + 4].copy_from_slice(&0x8000_0005u32.to_le_bytes());
    assert!(matches!(
        Repository::load_snapshot(&bytes),
        Err(PersistError::Truncated)
    ));
}

#[test]
fn out_of_range_token_postings_are_corrupt() {
    // A TOKENS section that checksums fine but references a schema the
    // snapshot doesn't hold: decode succeeds, validation must object
    // (the pre-filter path would otherwise index out of bounds later).
    let (_, bytes) = snapshot_bytes();
    let table_at = MAGIC.len() + 8;
    let entry = table_at + 2 * 28; // third entry: TOKENS
    let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
    let mut damaged = bytes.clone();
    let payload = &mut damaged[offset..offset + len];
    // Walk to the first token's first posting: count, then token
    // string, then posting count, then (schema, node) pairs.
    let tokens = u32::from_le_bytes(payload[..4].try_into().unwrap());
    assert!(tokens > 0, "fixture repository must have postings");
    let token_len = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
    let postings_at = 8 + token_len;
    let posting_count =
        u32::from_le_bytes(payload[postings_at..postings_at + 4].try_into().unwrap());
    assert!(posting_count > 0);
    let schema_at = postings_at + 4;
    payload[schema_at..schema_at + 4].copy_from_slice(&999u32.to_le_bytes());
    let checksum = fnv1a_local(&damaged[offset..offset + len]);
    damaged[entry + 20..entry + 28].copy_from_slice(&checksum.to_le_bytes());
    match Repository::load_snapshot(&damaged) {
        Err(PersistError::Corrupt(why)) => {
            assert!(
                why.contains("posting"),
                "unexpected corruption report: {why}"
            )
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupted_payload_fails_its_section_checksum() {
    let (_, bytes) = snapshot_bytes();
    // The section table starts after magic+version+count; payloads
    // after the table. Flip one byte in every section's payload and
    // expect that section's id in the error.
    let table_at = MAGIC.len() + 8;
    for (i, &id) in section::MANDATORY.iter().enumerate() {
        let entry = table_at + i * 28;
        let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap());
        if len == 0 {
            continue;
        }
        let mut damaged = bytes.clone();
        damaged[offset as usize + len as usize / 2] ^= 0x5A;
        match Repository::load_snapshot(&damaged) {
            Err(PersistError::ChecksumMismatch(got)) => assert_eq!(got, id),
            other => panic!("section {id}: expected ChecksumMismatch, got {other:?}"),
        }
    }
}

#[test]
fn missing_mandatory_section_is_reported() {
    let (_, bytes) = snapshot_bytes();
    // Retag the LABELS section as an unknown id: checksum still passes,
    // but the mandatory section is gone.
    let table_at = MAGIC.len() + 8;
    let labels_entry = table_at + 28; // second entry (schemas first)
    let mut damaged = bytes.clone();
    damaged[labels_entry..labels_entry + 4].copy_from_slice(&7777u32.to_le_bytes());
    assert!(matches!(
        Repository::load_snapshot(&damaged),
        Err(PersistError::MissingSection(id)) if id == section::LABELS
    ));
}

#[test]
fn semantically_corrupt_sections_are_corrupt_errors() {
    // A snapshot whose sections all checksum but disagree with each
    // other: swap two labels so the column maps no longer resolve to
    // the schemas' node names. Easiest construction: save, decode the
    // label section offsets, swap the text of two equal-length labels.
    let (repo, bytes) = snapshot_bytes();
    let store = repo.store();
    // Find two distinct labels of equal byte length.
    let labels: Vec<String> = (0..store.len())
        .map(|i| store.interner().resolve(LabelId(i as u32)).to_owned())
        .collect();
    let mut pair = None;
    'outer: for i in 0..labels.len() {
        for j in i + 1..labels.len() {
            if labels[i].len() == labels[j].len() && labels[i] != labels[j] {
                pair = Some((labels[i].clone(), labels[j].clone()));
                break 'outer;
            }
        }
    }
    let Some((a, b)) = pair else {
        // Synthetic vocabularies always collide in length in practice;
        // if not, the construction is impossible and the test is moot.
        return;
    };
    // Swap the two labels' bytes inside the LABELS payload and re-stamp
    // that section's checksum so only semantic validation can object.
    let table_at = MAGIC.len() + 8;
    let entry = table_at + 28;
    let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
    let mut damaged = bytes.clone();
    let payload = &mut damaged[offset..offset + len];
    // Walk the section structure (count, then length-prefixed strings)
    // to find each label's exact byte position — no substring guessing.
    let count = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let mut at = 4usize;
    let mut pos_of = std::collections::HashMap::new();
    for _ in 0..count {
        let slen = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let text = String::from_utf8(payload[at + 4..at + 4 + slen].to_vec()).unwrap();
        pos_of.insert(text, at + 4);
        at += 4 + slen;
    }
    let (a_at, b_at) = (pos_of[&a], pos_of[&b]);
    for k in 0..a.len() {
        payload.swap(a_at + k, b_at + k);
    }
    let checksum = fnv1a_local(&damaged[offset..offset + len]);
    damaged[entry + 20..entry + 28].copy_from_slice(&checksum.to_le_bytes());
    match Repository::load_snapshot(&damaged) {
        Err(PersistError::Corrupt(why)) => {
            assert!(
                why.contains("labelled"),
                "unexpected corruption report: {why}"
            )
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// FNV-1a 64, mirrored from the crate's wire module (not public API —
/// the test recomputes it independently on purpose).
fn fnv1a_local(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

proptest! {
    /// Round-trip on arbitrary synthetic repositories with arbitrary
    /// warm vocabularies and cache bounds: load(save(repo)) preserves
    /// schemas, labels, column maps and node shapes, token index,
    /// config, and every cached row bitwise — and a salvage load whose
    /// LABELS section is damaged rebuilds the same columns and shapes
    /// from the schema list.
    #[test]
    fn random_repositories_round_trip_bitwise(
        derived in 1..4usize,
        noise in 0..3usize,
        host_nodes in 4..9usize,
        seed in 0..u64::MAX,
        queries in proptest::collection::vec(0..12usize, 0..6),
        cap in proptest::option::of(1..8usize),
    ) {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: derived,
            noise_schemas: noise,
            personal_nodes: 4,
            host_nodes,
            perturbation_strength: 0.7,
            seed,
            ..Default::default()
        });
        let mut repo = Repository::with_store_config(StoreConfig {
            max_cached_rows: cap,
            batch_threads: 0,
            ..StoreConfig::default()
        });
        for (_, schema) in sc.repository.iter() {
            repo.add(schema.clone());
        }
        let vocabulary = [
            "title", "bookTitle", "isbn", "author", "price", "orderDate",
            "customerName", "qty", "shipAddress", "year", "publisher", "edition",
        ];
        for &q in &queries {
            repo.store().score_row(vocabulary[q]);
        }
        let loaded = Repository::load_snapshot(&repo.save_snapshot()).expect("round trip");
        prop_assert_eq!(&loaded, &repo);
        let (a, b) = (repo.store(), loaded.store());
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.cached_rows(), b.cached_rows());
        prop_assert_eq!(a.config(), b.config());
        for id in 0..a.len() {
            let id = LabelId(id as u32);
            prop_assert_eq!(a.interner().resolve(id), b.interner().resolve(id));
        }
        for sid in repo.schema_ids() {
            prop_assert_eq!(a.schema_labels(sid), b.schema_labels(sid));
            prop_assert_eq!(a.schema_shapes(sid), b.schema_shapes(sid));
        }
        prop_assert_eq!(b.columns().len(), loaded.total_elements());
        prop_assert_eq!(
            a.token_index().postings().collect::<Vec<_>>(),
            b.token_index().postings().collect::<Vec<_>>()
        );
        // Every cached row is restored bitwise and serves without pair
        // evaluations.
        for &q in &queries {
            let q = vocabulary[q];
            if a.has_cached_row(q) {
                prop_assert!(b.has_cached_row(q));
                let (x, y) = (a.score_row(q), b.score_row(q));
                prop_assert_eq!(x.len(), y.len());
                for (p, r) in x.iter().zip(y.iter()) {
                    prop_assert_eq!(p.to_bits(), r.to_bits());
                }
            }
        }
        prop_assert_eq!(b.pair_evals(), 0);

        // Flip one byte of the LABELS payload: the salvage load must
        // rebuild the labels from the schema list, and the shapes with
        // them.
        let mut damaged = repo.save_snapshot();
        let entry = MAGIC.len() + 8 + 28; // second entry: LABELS
        let offset = u64::from_le_bytes(damaged[entry + 4..entry + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(damaged[entry + 12..entry + 20].try_into().unwrap()) as usize;
        damaged[offset + len / 2] ^= 0x5A;
        let (salvaged, report) =
            Repository::load_snapshot_report(&damaged, RecoveryPolicy::Salvage).expect("salvage");
        prop_assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SalvageEvent::LabelsRebuilt(_))));
        let c = salvaged.store();
        for sid in repo.schema_ids() {
            prop_assert_eq!(a.schema_labels(sid), c.schema_labels(sid));
            prop_assert_eq!(a.schema_shapes(sid), c.schema_shapes(sid));
        }
        prop_assert_eq!(c.columns().len(), salvaged.total_elements());
    }
}
