//! Timing: SQL execution at Movies scale (7390 × 17) — the hot path every
//! cleaning op goes through — plus the full cleaner end to end.
//!
//! `column_rewrite` measures `apply_and_count` on the single-column SELECT
//! shapes the pipeline emits (value map, TRY_CAST, and the FD stage's
//! group-scoped pair map on Hospital); throughput is table rows per
//! second. `cleaner_movies` times `Cleaner::clean` on the full
//! Movies benchmark. `cleaner_movies_parallel` compares the detection
//! fan-out at 1 vs 8 worker threads and a warm-`CachedLlm` repeat clean
//! against the cold baseline.

use cocoon_core::{apply_and_count, column_rewrite_select, Cleaner, CleanerConfig};
use cocoon_llm::{CachedLlm, SimLlm};
use cocoon_sql::Expr;
use cocoon_table::{DataType, Value};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashSet;

fn bench_column_rewrite(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let table = &dataset.dirty;
    let mut group = c.benchmark_group("column_rewrite");
    group.sample_size(20);
    group.throughput(Throughput::Elements(table.height() as u64));

    // The string-outlier/DMV shape: CASE language WHEN … THEN … ELSE language.
    let map = Expr::value_map(
        "language",
        &[
            (Value::from("eng"), Value::from("English")),
            (Value::from("Eng"), Value::from("English")),
            (Value::from("N/A"), Value::Null),
        ],
    );
    let select = column_rewrite_select(table, "language", map);
    group.bench_function("movies value_map", |b| {
        b.iter(|| apply_and_count(black_box(&select), black_box(table)).expect("executes"))
    });

    // The column-type shape: TRY_CAST(rating_value AS DOUBLE).
    let cast = Expr::try_cast(Expr::col("rating_value"), DataType::Float);
    let select = column_rewrite_select(table, "rating_value", cast);
    group.bench_function("movies try_cast", |b| {
        b.iter(|| apply_and_count(black_box(&select), black_box(table)).expect("executes"))
    });

    // The FD-repair shape (`Expr::pair_map`): `CASE WHEN zip_code = v AND
    // city = old THEN new … ELSE city END` with 300 arms, about the largest
    // the FD stage emits on Hospital. Each of the first 150 distinct
    // (zip_code, city) pairs gets a rewrite that hits its rows and a typo
    // fix that hits none. The pair-key probe makes this one hash lookup
    // per row; arm by arm it would cost O(arms × rows).
    let hospital = cocoon_datasets::hospital::generate().dirty;
    let index = |name: &str| hospital.schema().index_of(name).expect("Hospital column");
    let (zip, city) = (index("zip_code"), index("city"));
    let mut seen = HashSet::new();
    let mut arms: Vec<(Value, Value, Value)> = Vec::new();
    for row in 0..hospital.height() {
        let cell = |col: usize| hospital.cell(row, col).expect("in range").clone();
        let (group, old) = (cell(zip), cell(city));
        if arms.len() < 300 && seen.insert((group.clone(), old.clone())) {
            let name = old.render();
            arms.push((group.clone(), Value::from(format!("{name}x")), old.clone()));
            arms.push((group, old, Value::from(name.to_uppercase())));
        }
    }
    assert_eq!(arms.len(), 300, "Hospital has at least 150 distinct (zip_code, city) pairs");
    let select =
        column_rewrite_select(&hospital, "city", Expr::pair_map("zip_code", "city", &arms));
    group.throughput(Throughput::Elements(hospital.height() as u64));
    group.bench_function("hospital fd pair map", |b| {
        b.iter(|| apply_and_count(black_box(&select), black_box(&hospital)).expect("executes"))
    });
    group.finish();
}

fn bench_cleaner_movies(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let mut group = c.benchmark_group("cleaner_movies");
    group.sample_size(10);
    group.throughput(Throughput::Elements(dataset.dirty.height() as u64));
    group.bench_function("clean Movies", |b| {
        b.iter(|| Cleaner::new(SimLlm::new()).clean(black_box(&dataset.dirty)).expect("pipeline"))
    });
    group.finish();
}

fn bench_cleaner_movies_parallel(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let mut group = c.benchmark_group("cleaner_movies_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(dataset.dirty.height() as u64));

    for threads in [1usize, 8] {
        let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
        let cleaner = Cleaner::with_config(SimLlm::new(), config).expect("config");
        group.bench_function(format!("clean Movies threads={threads}"), |b| {
            b.iter(|| cleaner.clean(black_box(&dataset.dirty)).expect("pipeline"))
        });
    }

    // Warm repeat clean: identical prompts replay from the CachedLlm, so
    // the second clean pays only profiling + SQL execution.
    let cleaner = Cleaner::new(CachedLlm::new(SimLlm::new()));
    cleaner.clean(&dataset.dirty).expect("cache warm-up");
    group.bench_function("clean Movies warm cache", |b| {
        b.iter(|| cleaner.clean(black_box(&dataset.dirty)).expect("pipeline"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_column_rewrite,
    bench_cleaner_movies,
    bench_cleaner_movies_parallel
);
criterion_main!(benches);
