//! `catalog-warm` and `catalog-remote`: a library closed loop with one
//! caller that cleans the five catalog datasets in rotation.
//!
//! * `catalog-warm` shares one `CachedLlm<SimLlm>` filled during set-up,
//!   so every prompt hits the cache and a clean is pipeline compute.
//! * `catalog-remote` gives every clean an empty cache over a [`Replay`]
//!   model: answers recorded during set-up, one fixed [`ROUND_TRIP`] per
//!   `complete` / `complete_batch` call.
//!
//! Each clean's table must be byte-identical to a plain
//! `Cleaner::new(SimLlm::new()).clean` computed during set-up, and its
//! model-call counts, F1 and op count must repeat exactly across the
//! iterations of one seed.

use crate::probe::{Calls, Probe, Recorder, Replay, StageLog};
use crate::report::{self, Metrics, Outcome, STAGES};
use crate::{dataset_seed, stats, Args};
use cocoon_core::{apply_and_count, Cleaner, CleaningRun, IssueKind, RunProgress, STAGE_ORDER};
use cocoon_datasets::{beers, flights, hospital, movies, rayyan};
use cocoon_eval::{evaluate, Equivalence, EvalCounts};
use cocoon_llm::{CachedLlm, ChatModel, SimLlm};
use cocoon_obs::SpanRecorder;
use cocoon_profile::{profile_table_chunked, DEFAULT_PROFILE_CHUNK_ROWS};
use cocoon_table::{csv, Table};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

/// Round trip of the simulated hosted model in `catalog-remote`.
pub const ROUND_TRIP: Duration = Duration::from_millis(5);

/// Percentile reported as `clean_ms_tail`, per workload: the highest one
/// with at least ten samples beyond it at the baseline's sample count.
pub const WARM_TAIL_PCT: f64 = 90.0;
pub const REMOTE_TAIL_PCT: f64 = 80.0;

struct Case {
    name: &'static str,
    /// The set-up that generated it.
    round: usize,
    dirty: Table,
    truth: Table,
    expected: String,
    cells: usize,
}

enum Model {
    Warm(CachedLlm<Probe<SimLlm>>),
    Remote(Probe<Replay>),
}

/// What must repeat exactly across the cleans of one dataset and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Repeat {
    calls: u64,
    tokens: u64,
    prompts: u64,
    ops: usize,
    eval: EvalCounts,
}

/// Sums over the traced cleans, divided by their count at the end.
#[derive(Default)]
struct Layers {
    cleans: usize,
    sums: BTreeMap<String, f64>,
    sql_max_ms: f64,
    /// Model calls the pipeline made, and prompts that got past the cache.
    above_calls: f64,
    below_prompts: f64,
    /// Per dataset: cleans, clean ms, FD stage ms, SQL replay ms, FD SQL
    /// replay ms, entry-profile ms, LLM wait ms.
    shape: BTreeMap<&'static str, [f64; 7]>,
}

impl Layers {
    fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.sums.entry(name.into()).or_insert(0.0) += value;
    }
}

pub fn run(args: &Args, remote: bool) -> Outcome {
    // Every set-up adds its own seed's five tables to the rotation and to
    // the shared cache or replay store, so a run pools three seeds' data.
    let cache = CachedLlm::new(Probe::new(SimLlm::new()));
    let recorder = Recorder::new(SimLlm::new());
    let fill: &dyn ChatModel = if remote { &recorder } else { &cache };
    let mut cases = Vec::new();
    let mut setup_s = Vec::new();
    for round in 0..crate::SETUPS {
        let start = Instant::now();
        cases.extend(set_up(dataset_seed(args.seed, round), round, fill));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let model = if remote {
        Model::Remote(Probe::new(Replay::new(recorder.into_answers(), ROUND_TRIP)))
    } else {
        Model::Warm(cache)
    };

    let timeline = SpanRecorder::new();
    let pool = ThreadPool::from_env();
    let mut layers = Layers::default();
    let mut baseline: BTreeMap<(&'static str, usize), Repeat> = BTreeMap::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut cells, mut busy_s) = (0usize, 0usize, 0usize, 0.0f64);
    let (mut calls, mut tokens) = (0u64, 0u64);

    // Whole rotations only, so every table weighs the same, as many as
    // fit `--seconds` to the nearest rotation; a traced run alternates
    // traced and untraced rotations to measure the tracing overhead.
    let min_rotations = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut rotation = 0;
    let more = |rotation: usize| {
        let elapsed = started.elapsed().as_secs_f64();
        rotation < min_rotations || elapsed + elapsed / rotation as f64 / 2.0 < args.seconds
    };
    while more(rotation) {
        let traced = args.trace && rotation % 2 == 0;
        for case in &cases {
            let tracer = traced.then_some((&timeline, &pool, &mut layers));
            let (ms, run, above) = match &model {
                Model::Warm(cache) => clean(case, &Probe::new(cache), cache.inner(), tracer),
                Model::Remote(backend) => {
                    clean(case, &Probe::new(&CachedLlm::new(backend)), backend, tracer)
                }
            };
            attempted += 1;
            (if traced { &mut traced_ms } else { &mut plain_ms }).push(ms);
            let Some(run) = run.filter(|run| csv::write_str(&run.table) == case.expected) else {
                failed += 1;
                continue;
            };
            cells += case.cells;
            busy_s += ms / 1e3;
            calls += above.calls;
            tokens += above.tokens();
            let seen = Repeat {
                calls: above.calls,
                tokens: above.tokens(),
                prompts: above.prompts,
                ops: run.ops.len(),
                eval: evaluate(&case.dirty, &run.table, &case.truth, Equivalence::Lenient).counts,
            };
            let first = *baseline.entry((case.name, case.round)).or_insert(seen);
            assert_eq!(
                first, seen,
                "exact-repeat guard: {} of set-up {} changed between iterations of seed {}",
                case.name, case.round, args.seed
            );
        }
        rotation += 1;
    }
    let measured = (attempted - failed).max(1) as f64;

    let mut metrics = Metrics::default();
    if args.trace {
        finish_layers(&mut metrics, &layers);
        let overhead = stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0;
        metrics.set("trace.overhead_pct", overhead * 100.0);
        print_shape(&layers);
        let path = crate::timeline_path(args);
        report::write_timeline(&path, &timeline).expect("write timeline");
        println!("timeline: {} spans written to {}", timeline.len(), path.display());
    } else {
        let tail_pct = if remote { REMOTE_TAIL_PCT } else { WARM_TAIL_PCT };
        println!(
            "cleans: {} in {} rotations; tail = p{tail_pct} with {} samples beyond it",
            plain_ms.len(),
            rotation,
            stats::beyond(&plain_ms, tail_pct)
        );
        metrics.set("clean_ms_p50", stats::median(&plain_ms));
        metrics.set("clean_ms_tail", stats::percentile(&plain_ms, tail_pct));
        metrics.set("cells_per_s", cells as f64 / busy_s.max(f64::MIN_POSITIVE));
        metrics.set("llm_round_trips_per_clean", calls as f64 / measured);
        metrics.set("llm_tokens_per_clean", tokens as f64 / measured);
        metrics.set("f1", report::pooled_f1(baseline.values().map(|seen| seen.eval)));
        metrics.set("setup_s", stats::median(&setup_s));
        metrics.set("peak_rss_mb", report::peak_rss_mb());
    }
    Outcome { attempted, failed, valid: true, metrics }
}

/// Generates the five datasets of one seed, cleans each with a plain
/// `SimLlm` for the reference bytes, and cleans it again through `fill`:
/// the shared cache for `catalog-warm`, the replay recorder for
/// `catalog-remote`.
fn set_up(seed: u64, round: usize, fill: &dyn ChatModel) -> Vec<Case> {
    let datasets = [
        hospital::generate_seeded(seed),
        flights::generate_seeded(seed),
        beers::generate_seeded(seed),
        rayyan::generate_seeded(seed),
        movies::generate_seeded(seed),
    ];
    datasets
        .into_iter()
        .map(|dataset| {
            let reference = Cleaner::new(SimLlm::new()).clean(&dataset.dirty).expect("reference");
            let expected = csv::write_str(&reference.table);
            let filled = Cleaner::new(fill).clean(&dataset.dirty).expect("set-up clean");
            assert_eq!(csv::write_str(&filled.table), expected, "{}: set-up clean", dataset.name);
            Case {
                name: dataset.name,
                round,
                cells: dataset.dirty.height() * dataset.dirty.width(),
                dirty: dataset.dirty,
                truth: dataset.truth,
                expected,
            }
        })
        .collect()
}

/// One timed clean. `above` counts what the pipeline asks of its model
/// stack; `below` sits under the cache and sees what reaches the model.
/// With a tracer, the clean also runs with a stage observer and recorded
/// model-call intervals, and the layer probes run around it.
fn clean<M: ChatModel, B>(
    case: &Case,
    above: &Probe<M>,
    below: &Probe<B>,
    tracer: Option<(&SpanRecorder, &ThreadPool, &mut Layers)>,
) -> (f64, Option<CleaningRun>, Calls) {
    let cleaner = Cleaner::new(above);
    let Some((timeline, pool, layers)) = tracer else {
        let start = Instant::now();
        let run = cleaner.clean(&case.dirty);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        return (ms, run.ok(), above.counts());
    };

    let options = cleaner.config().profile_options();
    let start = Instant::now();
    let profile = profile_table_chunked(&case.dirty, &options, pool, DEFAULT_PROFILE_CHUNK_ROWS);
    let end = Instant::now();
    std::hint::black_box(profile);
    let profile_ms = (end - start).as_secs_f64() * 1e3;
    timeline.record_with_attrs("profile", start, end, None, vec![("dataset", case.name.into())]);

    let stages = Arc::new(StageLog::default());
    let progress = RunProgress::new();
    progress.set_observer(stages.clone());
    let before = below.counts();
    above.set_recording(true);
    below.set_recording(true);
    let start = Instant::now();
    let run = cleaner.clean_with_progress(&case.dirty, &progress);
    let end = Instant::now();
    above.set_recording(false);
    below.set_recording(false);
    let ms = (end - start).as_secs_f64() * 1e3;
    let (up, down) = (above.counts(), below.counts().since(&before));
    let asked = above.take_intervals();
    let waits = stats::union(asked.iter().map(|c| (c.start, c.end)).collect());
    let model = stats::union(below.take_intervals().iter().map(|c| (c.start, c.end)).collect());
    let Ok(run) = run else {
        return (ms, None, up);
    };

    let root = timeline.record_with_attrs(
        "clean",
        start,
        end,
        None,
        vec![("dataset", case.name.into()), ("ops", run.ops.len().to_string())],
    );
    let mut stage_spans = Vec::new();
    let mut stage_sum = 0.0;
    let mut fd_ms = 0.0;
    for (finished, timing) in stages.take() {
        let k = STAGE_ORDER.iter().position(|kind| kind.name() == timing.stage).expect("stage");
        let total = timing.total.as_secs_f64() * 1e3;
        let detect = timing.detect.as_secs_f64() * 1e3;
        let from = finished - timing.total;
        layers.add(format!("core.{}.total_ms", STAGES[k]), total);
        layers.add(format!("core.{}.detect_ms", STAGES[k]), detect);
        layers.add(format!("core.{}.decide_ms", STAGES[k]), total - detect);
        layers.add(format!("llm.wait_ms.{}", STAGES[k]), stats::overlap_ms(&waits, from, finished));
        stage_sum += total;
        if STAGE_ORDER[k] == IssueKind::FunctionalDependency {
            fd_ms = total;
        }
        let attrs = vec![("stage", STAGES[k].to_string())];
        let span = timeline.record_with_attrs("stage", from, finished, Some(root), attrs);
        stage_spans.push((from, finished, span));
    }
    for call in &asked {
        let parent = stage_spans
            .iter()
            .find(|(from, to, _)| (*from..=*to).contains(&call.start))
            .map_or(root, |&(_, _, span)| span);
        let attrs = vec![("prompts", call.prompts.to_string())];
        timeline.record_with_attrs("llm_call", call.start, call.end, Some(parent), attrs);
    }
    let wait_ms = stats::overlap_ms(&waits, start, end);
    layers.add("profile.entry_ms", profile_ms);
    layers.add("core.unstaged_ms", ms - stage_sum);
    layers.add("core.ops_applied", run.ops.len() as f64);
    layers.add("llm.prompts", up.prompts as f64);
    layers.add("llm.round_trips", down.calls as f64);
    layers.add("llm.prompt_tokens", down.prompt_tokens as f64);
    layers.add("llm.completion_tokens", down.completion_tokens as f64);
    layers.add("llm.wait_ms", wait_ms);
    layers.add("llm.model_ms", stats::overlap_ms(&model, start, end));
    layers.above_calls += up.calls as f64;
    layers.below_prompts += down.prompts as f64;

    // Replay the applied ops' SQL on the input; the replayed table must
    // be the run's output.
    let replay_start = Instant::now();
    let replay = timeline.open("sql_replay", replay_start);
    let mut table = case.dirty.clone();
    let (mut sql_ms, mut sql_fd_ms) = (0.0, 0.0);
    for op in &run.ops {
        let start = Instant::now();
        let (next, _) = apply_and_count(&op.sql, &table).expect("replaying an applied op");
        let end = Instant::now();
        let op_ms = (end - start).as_secs_f64() * 1e3;
        timeline.record_with_attrs(
            "sql_apply",
            start,
            end,
            Some(replay),
            vec![("issue", op.issue.name().into())],
        );
        table = next;
        sql_ms += op_ms;
        layers.sql_max_ms = layers.sql_max_ms.max(op_ms);
        if op.issue == IssueKind::FunctionalDependency {
            sql_fd_ms += op_ms;
        }
    }
    timeline.close(replay, Instant::now());
    assert_eq!(csv::write_str(&table), case.expected, "{}: SQL replay differs", case.name);
    layers.add("sql.apply_ms", sql_ms);
    layers.add("sql.apply_calls", run.ops.len() as f64);
    layers.add("sql.apply_ms.fd", sql_fd_ms);
    layers.cleans += 1;
    let shape = layers.shape.entry(case.name).or_insert([0.0; 7]);
    for (slot, value) in
        shape.iter_mut().zip([1.0, ms, fd_ms, sql_ms, sql_fd_ms, profile_ms, wait_ms])
    {
        *slot += value;
    }
    (ms, Some(run), up)
}

fn finish_layers(metrics: &mut Metrics, layers: &Layers) {
    let cleans = layers.cleans.max(1) as f64;
    for (name, sum) in &layers.sums {
        metrics.set(name.clone(), sum / cleans);
    }
    let asked = layers.sums.get("llm.prompts").copied().unwrap_or(0.0);
    metrics.set("sql.apply_ms_max", layers.sql_max_ms);
    metrics.set("llm.batch_size_mean", asked / layers.above_calls.max(1.0));
    let hit_ratio = if asked > 0.0 { 1.0 - layers.below_prompts / asked } else { 0.0 };
    metrics.set("llm.cache_hit_ratio", hit_ratio);
}

/// Prints where each dataset's traced clean time went.
fn print_shape(layers: &Layers) {
    println!(
        "dataset   cleans  clean_ms  fd_stage%  sql_replay%  sql_fd%  entry_profile%  llm_wait%"
    );
    for (name, [n, ms, fd, sql, sql_fd, profile, wait]) in &layers.shape {
        let share = |part: &f64| 100.0 * part / ms;
        println!(
            "{name:<9} {n:>6} {:>9.1} {:>9.1}% {:>11.1}% {:>7.1}% {:>14.1}% {:>9.1}%",
            ms / n,
            share(fd),
            share(sql),
            share(sql_fd),
            share(profile),
            share(wait)
        );
    }
}
