//! Clustering ablation: greedy leader clustering (what a scalable matcher
//! uses) vs average-linkage agglomerative (the quality reference), over
//! repository size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smx::repo::{agglomerative_clustering, greedy_clustering, Repository};
use smx::synth::{Scenario, ScenarioConfig};
use std::hint::black_box;

fn repository(schemas: usize) -> Repository {
    Scenario::generate(ScenarioConfig {
        derived_schemas: schemas / 2,
        noise_schemas: schemas - schemas / 2,
        host_nodes: 10,
        ..Default::default()
    })
    .repository
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_clustering");
    group.sample_size(10);
    for schemas in [8usize, 16, 32] {
        let repo = repository(schemas);
        group.bench_with_input(BenchmarkId::from_parameter(schemas), &schemas, |b, _| {
            b.iter(|| black_box(greedy_clustering(black_box(&repo), 0.55)).len())
        });
    }
    group.finish();
}

fn bench_agglomerative(c: &mut Criterion) {
    let mut group = c.benchmark_group("agglomerative_clustering");
    group.sample_size(10);
    for schemas in [4usize, 8] {
        let repo = repository(schemas);
        group.bench_with_input(BenchmarkId::from_parameter(schemas), &schemas, |b, _| {
            b.iter(|| black_box(agglomerative_clustering(black_box(&repo), 12)).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_agglomerative);
criterion_main!(benches);
