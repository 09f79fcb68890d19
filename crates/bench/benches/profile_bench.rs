//! Timing: statistical profiling (the per-issue statistical detection that
//! feeds every LLM prompt) over the benchmark tables.

use cocoon_profile::{
    fd_candidates, pattern_census, profile_table, profile_table_chunked, ColumnCensus, FdScan,
    ProfileOptions,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use threadpool::ThreadPool;

fn bench_profile_hospital(c: &mut Criterion) {
    let dataset = cocoon_datasets::hospital::generate();
    c.bench_function("profile/full table profile (Hospital 1000x19)", |b| {
        b.iter(|| profile_table(black_box(&dataset.dirty), &ProfileOptions::default()))
    });
}

fn bench_fd_discovery(c: &mut Criterion) {
    let hospital = cocoon_datasets::hospital::generate();
    c.bench_function("profile/fd candidates (Hospital)", |b| {
        b.iter(|| fd_candidates(black_box(&hospital.dirty), 0.6, 0.95))
    });
    let flights = cocoon_datasets::flights::generate();
    c.bench_function("profile/fd candidates (Flights)", |b| {
        b.iter(|| fd_candidates(black_box(&flights.dirty), 0.6, 0.95))
    });
    // Scoring alone, as the FD stage runs it: the censuses are built once,
    // outside the timed loop, and each iteration scores a fresh scan over
    // them on one thread.
    let movies = cocoon_datasets::movies::generate();
    let censuses: Vec<Arc<ColumnCensus>> = (0..movies.dirty.width())
        .map(|c| Arc::new(ColumnCensus::of(movies.dirty.column(c).expect("column in range"))))
        .collect();
    let pool = ThreadPool::new(1);
    c.bench_function("profile/fd candidates (Movies)", |b| {
        b.iter(|| FdScan::from_censuses(black_box(censuses.clone())).candidates(&pool, 0.6, 0.95))
    });
}

fn bench_pattern_census(c: &mut Criterion) {
    let dataset = cocoon_datasets::flights::generate();
    let col = dataset.dirty.column_by_name("actual_arrival_time").unwrap();
    c.bench_function("profile/pattern census (2376 times)", |b| {
        b.iter(|| pattern_census(black_box(col), true))
    });
}

/// Chunk-parallel profiling vs the whole-table pass, on Movies (the
/// paper's largest benchmark table): thread scaling at a fixed chunk size,
/// then a chunk-count sweep at a fixed pool — the merge fold's overhead as
/// the partial count grows. Every variant produces the identical profile.
fn bench_chunked_profile(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let table = &dataset.dirty;
    let options = ProfileOptions::default();
    c.bench_function("profile/whole-table pass (Movies)", |b| {
        b.iter(|| profile_table(black_box(table), &options))
    });
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let name = format!("profile/chunked 512-row chunks, {threads} threads (Movies)");
        c.bench_function(&name, |b| {
            b.iter(|| profile_table_chunked(black_box(table), &options, &pool, 512))
        });
    }
    let pool = ThreadPool::new(4);
    for chunk_rows in [128usize, 512, 2048, 8192] {
        let name = format!("profile/chunk sweep {chunk_rows} rows per chunk, 4 threads (Movies)");
        c.bench_function(&name, |b| {
            b.iter(|| profile_table_chunked(black_box(table), &options, &pool, chunk_rows))
        });
    }
}

criterion_group!(
    benches,
    bench_profile_hospital,
    bench_fd_discovery,
    bench_pattern_census,
    bench_chunked_profile
);
criterion_main!(benches);
