//! The metric catalogue, the result line, and the traced run's timeline.

use cocoon_eval::EvalCounts;
use cocoon_obs::{SpanRecord, SpanRecorder};
use std::collections::BTreeMap;
use std::path::Path;

/// Metric keys of the eight pipeline stages, in `cocoon_core::STAGE_ORDER`.
pub const STAGES: [&str; 8] = [
    "string_outliers",
    "pattern_outliers",
    "dmv",
    "column_type",
    "numeric_outliers",
    "fd",
    "duplication",
    "uniqueness",
];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("clean_ms_p50", "ms"),
    ("clean_ms_tail", "ms"),
    ("cells_per_s", "cells/s"),
    ("llm_round_trips_per_clean", "calls"),
    ("llm_tokens_per_clean", "tokens"),
    ("f1", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![("profile.entry_ms".into(), "ms")];
    for stage in STAGES {
        for part in ["total_ms", "detect_ms", "decide_ms"] {
            out.push((format!("core.{stage}.{part}"), "ms"));
        }
    }
    out.extend([
        ("core.unstaged_ms".into(), "ms"),
        ("core.ops_applied".into(), "count"),
        ("sql.apply_ms".into(), "ms"),
        ("sql.apply_calls".into(), "count"),
        ("sql.apply_ms_max".into(), "ms"),
        ("sql.apply_ms.fd".into(), "ms"),
        ("llm.prompts".into(), "count"),
        ("llm.round_trips".into(), "calls"),
        ("llm.batch_size_mean".into(), "prompts/call"),
        ("llm.prompt_tokens".into(), "tokens"),
        ("llm.completion_tokens".into(), "tokens"),
        ("llm.wait_ms".into(), "ms"),
        ("llm.model_ms".into(), "ms"),
    ]);
    for stage in STAGES {
        out.push((format!("llm.wait_ms.{stage}"), "ms"));
    }
    out.extend([
        ("llm.cache_hit_ratio".into(), "ratio"),
        ("server.handler_ms_p50".into(), "ms"),
        ("server.overhead_ms_p50".into(), "ms"),
        ("server.rejected_503".into(), "count"),
        ("llm.dispatcher.batches".into(), "count"),
        ("llm.dispatcher.coalesced".into(), "count"),
        ("jobs.polls_per_job".into(), "count"),
        ("table.ingest_json_ms".into(), "ms"),
        ("table.ingest_csv_stream_ms".into(), "ms"),
        ("client.late_ms_max".into(), "ms"),
        ("trace.overhead_pct".into(), "%"),
    ]);
    out
}

/// Whether a per-layer metric lies on `workload`'s path. The library
/// layers are probed on the catalog workloads; the serving layers on
/// `served-mix`. A metric off the path is reported as 0.
pub fn layer_applies(workload: &str, name: &str) -> bool {
    let serving = ["server.", "llm.dispatcher.", "jobs.", "table.", "client."]
        .iter()
        .any(|prefix| name.starts_with(prefix));
    match name {
        "trace.overhead_pct" | "llm.cache_hit_ratio" => true,
        _ if workload == "served-mix" => serving,
        _ => !serving,
    }
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of a workload measured.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// False when a check other than a per-operation output comparison
    /// failed (for example an open-loop generator that fell behind).
    pub valid: bool,
    pub metrics: Metrics,
}

/// Renders the result line: exactly the end-to-end metrics when
/// untraced, exactly the per-layer metrics when traced.
pub fn result_line(workload: &str, trace: bool, outcome: &Outcome) -> String {
    let expected: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut fields = Vec::with_capacity(expected.len());
    for (name, unit) in &expected {
        let value = match outcome.metrics.get(name) {
            Some(value) => value,
            None if trace && !layer_applies(workload, name) => 0.0,
            None => panic!("{workload} did not measure {name}"),
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for name in outcome.metrics.0.keys() {
        assert!(expected.iter().any(|(n, _)| n == name), "{workload} measured unlisted {name}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.valid && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    )
}

/// Lenient cell-level F1 pooled over several cleaned tables' counts.
pub fn pooled_f1(counts: impl Iterator<Item = EvalCounts>) -> f64 {
    let pooled = counts.fold(EvalCounts::default(), |sum, c| EvalCounts {
        errors: sum.errors + c.errors,
        changes: sum.changes + c.changes,
        correct_repairs: sum.correct_repairs + c.correct_repairs,
        repaired_errors: sum.repaired_errors + c.repaired_errors,
    });
    pooled.prf().f1
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Writes a span tree as JSON, one object per span, offsets in
/// microseconds from the run's origin.
pub fn write_timeline(path: &Path, recorder: &SpanRecorder) -> std::io::Result<()> {
    let spans: Vec<SpanRecord> = recorder.finish();
    let mut out = String::from("[\n");
    for (index, span) in spans.iter().enumerate() {
        let attrs: Vec<String> = span
            .attrs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", cocoon_llm::json::escape(v)))
            .collect();
        out.push_str(&format!(
            "{{\"id\": {index}, \"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \
             \"parent\": {}, \"attrs\": {{{}}}}}{}\n",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns as f64 / 1e3,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            attrs.join(", "),
            if index + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
