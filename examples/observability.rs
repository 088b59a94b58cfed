//! Observability end to end: a cold 1024-schema certified match run
//! with structured tracing on, rendered as a span tree — candidate
//! generation, the restricted cost-matrix fill, and the refine stage
//! each carry their wall time and cap attribution — followed by the
//! merged metrics snapshot the store publishes.
//!
//! The example honors `SMX_TRACE`: with `SMX_TRACE=1` it reuses the
//! environment-installed collector; otherwise it installs its own (if
//! `SMX_TRACE=json` was set, the JSON-lines trace file is created
//! first, then the global recorder is re-pointed at the in-process
//! collector so the tree below can be rendered).
//!
//! The process exits non-zero if the trace fails to cover the
//! candidate-generation, restricted-fill, or refine stages.
//!
//! Run with: `SMX_TRACE=1 cargo run --release --example observability`

use smx::matching::{
    CandidateConfig, CandidateGenerator, CertifiedMatcher, ExhaustiveMatcher, MappingRegistry,
    MatchProblem, ObjectiveFunction,
};
use smx::obs::AttrValue;
use smx::synth::{Scenario, ScenarioConfig};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    // `enabled()` forces the one-time SMX_TRACE parse so env_collector
    // is populated when the variable selected the collector mode.
    let from_env = smx::obs::enabled();
    let collector = match smx::obs::env_collector() {
        Some(collector) => {
            println!("tracing: on via SMX_TRACE=1 (environment collector)");
            collector
        }
        None => {
            if from_env {
                println!("tracing: SMX_TRACE=json created a trace file; re-pointing the recorder at an in-process collector for the tree below");
            } else {
                println!("tracing: SMX_TRACE unset — installing an in-process collector");
            }
            smx::obs::install_collector()
        }
    };

    // A cold 1024-schema repository: 64 schemas derived from the
    // personal schema's domain buried in 960 unrelated ones. Nothing
    // is cached — every score row the run needs is computed inside the
    // traced region.
    let delta_max = 0.2;
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 64,
        noise_schemas: 960,
        personal_nodes: 4,
        host_nodes: 9,
        perturbation_strength: 0.9,
        seed: 42,
        ..Default::default()
    });
    let repository = sc.repository;
    println!(
        "repository: {} schemas / {} elements / {} distinct labels, threshold δ = {delta_max}\n",
        repository.len(),
        repository.total_elements(),
        repository.store().len()
    );

    // 1. The certified tier, cold: candidate generation prunes, the
    //    refine stage scores only the surviving active set (a
    //    *restricted* cost-matrix fill).
    let problem = MatchProblem::new(sc.personal, repository).expect("valid scenario");
    let registry = MappingRegistry::new();
    let matcher = CertifiedMatcher::new(
        ExhaustiveMatcher::default(),
        CandidateGenerator::new(
            ObjectiveFunction::default(),
            CandidateConfig { budget: Some(48) },
        ),
    );
    let t0 = Instant::now();
    let certified = matcher.run_certified(&problem, delta_max, &registry);
    let cert = &certified.certificate;
    println!(
        "certified run: {} answers in {:.1?} — recall ≥ {:.4}, {} of {} schemas scored, missed ≤ {:.1}",
        certified.answers.len(),
        t0.elapsed(),
        cert.certified_recall(),
        cert.active_schemas(),
        cert.total_schemas(),
        cert.missed_cap(),
    );

    // 2. The span tree: what the run actually did, where the time went.
    smx::obs::set_enabled(false);
    let spans = collector.snapshot();
    println!("\nspan tree ({} spans):", spans.len());
    print!("{}", smx::obs::render_span_tree(&spans));

    // 3. The merged metrics snapshot: registry histograms + the store's
    //    own counters grafted in, plus the raw counter display.
    println!(
        "\nstore counters:\n{}",
        problem.repository().store().counters()
    );
    println!(
        "\nmetrics snapshot:\n{}",
        problem.repository().store().publish_metrics()
    );

    // 4. Coverage gate: the trace must show candidate generation, a
    //    *restricted* cost-matrix fill, and the refine stage.
    let mut failures = Vec::new();
    for required in ["candidates.generate", "certified.refine"] {
        if !spans.iter().any(|s| s.name == required) {
            failures.push(format!("missing required span {required:?}"));
        }
    }
    let restricted_fill = spans.iter().any(|s| {
        s.name == "cost_matrix.build"
            && s.attrs
                .iter()
                .any(|(k, v)| *k == "restricted" && *v == AttrValue::Bool(true))
    });
    if !restricted_fill {
        failures.push(
            "no cost_matrix.build span with restricted=true (restricted fill untraced)".into(),
        );
    }
    if spans
        .iter()
        .any(|s| s.elapsed_ns == 0 && s.name == "certified.run")
    {
        failures.push("certified.run span recorded zero wall time".into());
    }
    if failures.is_empty() {
        println!(
            "\ntrace coverage: candidate generation, restricted fill, and refine all present."
        );
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("trace coverage failure: {failure}");
        }
        ExitCode::FAILURE
    }
}
