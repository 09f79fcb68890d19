//! Timing: the full Cocoon pipeline per benchmark dataset (prompt
//! rendering, simulated completion, response parsing, SQL execution).

use cocoon_core::Cleaner;
use cocoon_llm::SimLlm;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for name in ["Hospital", "Beers", "Rayyan"] {
        let dataset = cocoon_datasets::by_name(name).expect("dataset");
        group.bench_function(format!("clean {name}"), |b| {
            b.iter(|| {
                Cleaner::new(SimLlm::new()).clean(black_box(&dataset.dirty)).expect("pipeline")
            })
        });
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    use cocoon_core::{CleanerConfig, IssueKind};
    let dataset = cocoon_datasets::hospital::generate();
    let mut group = c.benchmark_group("pipeline-stages");
    group.sample_size(10);
    for issue in [IssueKind::StringOutliers, IssueKind::ColumnType, IssueKind::FunctionalDependency]
    {
        let config = CleanerConfig::only_issue(issue);
        group.bench_function(format!("Hospital/{} only", issue.key()), |b| {
            b.iter(|| {
                Cleaner::with_config(SimLlm::new(), config.clone())
                    .expect("valid config")
                    .clean(black_box(&dataset.dirty))
                    .expect("pipeline")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_stages);
criterion_main!(benches);
