//! Prompt templates for every LLM call the pipeline makes.
//!
//! The string-outlier detection and cleaning prompts reproduce Figures 2
//! and 3 of the paper verbatim in their natural-language body. Every prompt
//! additionally carries a machine-readable `### context (JSON)` block with
//! the same information, which is what allows [`crate::sim::SimLlm`] to act
//! on the prompt deterministically (a hosted model would simply read the
//! whole text).
//!
//! Each builder writes its prompt in one pass into one `String`: text
//! through [`escape_into`], numbers through [`write_number`] (the formatter
//! [`Json`]'s `Display` calls too), and the context's members in sorted key
//! order, the order a displayed `Json` object lists them in. No `Json`
//! value is built.
//!
//! A prompt's bytes are a contract: they are the cache and dispatcher key
//! ([`crate::ChatRequest::fingerprint`]), the key a recorded model's replay
//! looks its answer up by, the prompt's token count, and what a hosted model
//! reads. A rewrite that moves one byte (a context count written as `1.0`
//! for `1`, say) changes all four, even where `SimLlm`, which reads only the
//! parsed context, answers the same. `tests/clean_fingerprints.rs` pins
//! every prompt a catalog clean sends, and `crates/llm/tests/prompt_bytes.rs`
//! holds each builder to a `Json`-tree rendering on arbitrary input.

use crate::json::{escape_into, write_number, Json};
use std::fmt::Write;

/// Marker separating the NL body from the machine-readable context.
pub const CONTEXT_MARKER: &str = "### context (JSON)";

/// Task tags carried in the context block.
pub mod task {
    /// Figure 2 string-outlier detection.
    pub const STRING_OUTLIERS_DETECT: &str = "string_outliers_detect";
    /// Figure 3 string-outlier cleaning map.
    pub const STRING_OUTLIERS_CLEAN: &str = "string_outliers_clean";
    /// Pattern review and standardisation (§2.1.2).
    pub const PATTERN_REVIEW: &str = "pattern_review";
    /// Disguised-missing-value detection (§2.1.3).
    pub const DMV_DETECT: &str = "dmv_detect";
    /// Column-type suggestion (§2.1.4).
    pub const COLUMN_TYPE: &str = "column_type";
    /// Numeric acceptable-range review (§2.1.5).
    pub const NUMERIC_RANGE: &str = "numeric_range";
    /// FD meaningfulness review (§2.1.6).
    pub const FD_REVIEW: &str = "fd_review";
    /// FD violating-group repair mapping (§2.1.6).
    pub const FD_MAPPING: &str = "fd_mapping";
    /// Duplication acceptability review (§2.1.7).
    pub const DUPLICATION_REVIEW: &str = "duplication_review";
    /// Column-uniqueness review (§2.1.8).
    pub const UNIQUENESS_REVIEW: &str = "uniqueness_review";
    /// Unit/format conversion for numeric repairs.
    pub const NUMERIC_CONVERSION: &str = "numeric_conversion";
    /// Cross-variant repair verification (confidence agreement re-ask).
    pub const REPAIR_VERIFY: &str = "repair_verify";
}

// `write!` into a `String` cannot fail, so its `Result` is dropped below.

/// Writes each of `items` with `item`, separated by `, `.
fn push_joined<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
}

/// `[a, b, …]`: [`push_joined`] in brackets.
fn push_list<T>(out: &mut String, items: &[T], item: impl FnMut(&mut String, &T)) {
    out.push('[');
    push_joined(out, items, item);
    out.push(']');
}

/// A count as a context number. It goes through `f64`, so a count above
/// 2^53 is written as the nearest `f64`, the value a `Json::Number` holds.
fn push_count(out: &mut String, count: usize) {
    let _ = write_number(out, count as f64);
}

/// `[["value", count], …]`: a value census as context JSON.
fn push_census(out: &mut String, values: &[(String, usize)]) {
    push_list(out, values, |out, (value, count)| {
        out.push('[');
        escape_into(out, value);
        out.push_str(", ");
        push_count(out, *count);
        out.push(']');
    });
}

/// `[["lhs", census], …]`: FD groups as context JSON.
fn push_groups(out: &mut String, groups: &[(String, Vec<(String, usize)>)]) {
    push_list(out, groups, |out, (lhs, census)| {
        out.push('[');
        escape_into(out, lhs);
        out.push_str(", ");
        push_census(out, census);
        out.push(']');
    });
}

/// The first `limit` values as the prompt text lists them, `["a", "b"]`,
/// then ` (+n more)` for the rest.
fn push_value_list(out: &mut String, values: &[(String, usize)], limit: usize) {
    push_list(out, &values[..values.len().min(limit)], |out, (value, _)| escape_into(out, value));
    if values.len() > limit {
        let _ = write!(out, " (+{} more)", values.len() - limit);
    }
}

/// One violating group as the prompt text shows it:
/// `  "lhs" → {"a" ×3, "b" ×1}`.
fn push_group_line(out: &mut String, lhs: &str, census: &[(String, usize)]) {
    out.push_str("  ");
    escape_into(out, lhs);
    out.push_str(" → {");
    push_joined(out, census, |out, (value, count)| {
        escape_into(out, value);
        let _ = write!(out, " ×{count}");
    });
    out.push_str("}\n");
}

/// The `### context (JSON)` block, written member by member straight into
/// the prompt. Members must come in sorted key order, the order a displayed
/// `Json` object lists them in; debug builds check it.
struct Context<'p> {
    prompt: &'p mut String,
    last_key: Option<&'static str>,
}

impl<'p> Context<'p> {
    fn open(prompt: &'p mut String) -> Self {
        prompt.push('\n');
        prompt.push_str(CONTEXT_MARKER);
        prompt.push_str("\n{");
        Context { prompt, last_key: None }
    }

    /// Writes the member's key and returns the prompt, for its value.
    fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(self.last_key < Some(key), "context key {key:?} after {:?}", self.last_key);
        if self.last_key.is_some() {
            self.prompt.push_str(", ");
        }
        self.last_key = Some(key);
        escape_into(self.prompt, key);
        self.prompt.push_str(": ");
        self.prompt
    }

    fn text(&mut self, key: &'static str, value: &str) {
        escape_into(self.key(key), value);
    }

    fn number(&mut self, key: &'static str, value: f64) {
        let _ = write_number(self.key(key), value);
    }

    fn count(&mut self, key: &'static str, value: usize) {
        push_count(self.key(key), value);
    }

    fn census(&mut self, key: &'static str, values: &[(String, usize)]) {
        push_census(self.key(key), values);
    }

    fn strings(&mut self, key: &'static str, values: &[String]) {
        push_list(self.key(key), values, |out, value| escape_into(out, value));
    }

    fn close(self) {
        self.prompt.push_str("}\n");
    }
}

/// Figure 2: semantic detection of string outliers for one column.
pub fn string_outliers_detect(column: &str, values: &[(String, usize)]) -> String {
    let mut p = String::new();
    p.push_str(column);
    p.push_str(" has the following distinct values: ");
    push_value_list(&mut p, values, 1000);
    p.push_str("\n\n");
    p.push_str("Please review if there are:\n");
    p.push_str("Strange characters or typos (e.g., \"cofffee\").\n");
    p.push_str(
        "Inconsistent representations of the same concept (e.g., \"New York\" and \"NY\").\n",
    );
    p.push_str("If so, report them as unusual values.\n\n");
    p.push_str("Now, respond in JSON:\n```\n{\n");
    p.push_str("\"Reasoning\": \"The values are ... They are unusual/acceptable ...\",\n");
    p.push_str("\"Unusualness\": true/false,\n");
    p.push_str("\"Summary\": \"xxx values are unusual because ...\",\n");
    p.push_str("\"Confidence\": 0.0-1.0\n}\n```\n");
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.text("task", task::STRING_OUTLIERS_DETECT);
    context.census("values", values);
    context.close();
    p
}

/// Figure 3: semantic cleaning of string outliers for one batch.
pub fn string_outliers_clean(
    column: &str,
    summary: &str,
    batch_values: &[(String, usize)],
) -> String {
    let mut p = String::new();
    let _ = write!(p, "{column} is unusual: {summary}\nIt has the following values: ");
    push_value_list(&mut p, batch_values, 1000);
    p.push_str("\n\n");
    p.push_str("Maps those unusual values to the correct ones to address the problems.\n");
    p.push_str("If old values are meaningless, map to empty string.\n\n");
    p.push_str("Return in the following format:\n```yml\nexplanation: >\n");
    p.push_str(
        "The problem is ... The correct values are ...\nconfidence: 0.0-1.0\nmapping:\nold_value: new_value\n```\n",
    );
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.text("summary", summary);
    context.text("task", task::STRING_OUTLIERS_CLEAN);
    context.census("values", batch_values);
    context.close();
    p
}

/// §2.1.2: review the value-shape census and propose meaningful regexes and
/// standardising transformations.
pub fn pattern_review(column: &str, buckets: &[(String, usize, Vec<String>)]) -> String {
    let mut p = String::new();
    let _ = writeln!(p, "The values of {column} group into the following regex shapes:");
    for (pattern, count, examples) in buckets {
        let _ = write!(p, "  {pattern} — {count} values (e.g. ");
        push_joined(&mut p, &examples[..examples.len().min(3)], |out, e| escape_into(out, e));
        p.push_str(")\n");
    }
    p.push_str(
        "\nWrite a list of semantically meaningful regular expression patterns that cover all \
         column values (e.g., \\d{2}/\\d{2}/\\d{4} for dates is meaningful based on the \
         day/month/year, but .* is not). Assess if the shapes are inconsistent representations \
         of the same concept, and if so provide regex transformations to standardise them.\n\n",
    );
    p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"Patterns\": [...], \"Inconsistent\": true/false, \"Transforms\": [{\"pattern\": \"...\", \"replacement\": \"...\"}], \"Confidence\": 0.0-1.0}\n");
    let mut context = Context::open(&mut p);
    push_list(context.key("buckets"), buckets, |out, (pattern, count, examples)| {
        out.push('[');
        escape_into(out, pattern);
        out.push_str(", ");
        push_count(out, *count);
        out.push_str(", ");
        push_list(out, examples, |out, e| escape_into(out, e));
        out.push(']');
    });
    context.text("column", column);
    context.text("task", task::PATTERN_REVIEW);
    context.close();
    p
}

/// §2.1.3: identify disguised missing values.
pub fn dmv_detect(column: &str, values: &[(String, usize)], numeric_share: f64) -> String {
    let mut p = String::new();
    p.push_str(column);
    p.push_str(" has the following values: ");
    push_value_list(&mut p, values, 1000);
    p.push_str("\n\n");
    p.push_str(
        "Identify values that are currently not NULL, but semantically mean that the value is \
         missing (e.g., string values like \"N/A\", \"null\").\n\n",
    );
    p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"DisguisedMissing\": [\"...\"], \"Confidence\": 0.0-1.0}\n");
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.number("numeric_share", numeric_share);
    context.text("task", task::DMV_DETECT);
    context.census("values", values);
    context.close();
    p
}

/// §2.1.4: suggest the semantically best column type.
pub fn column_type(
    column: &str,
    declared: &str,
    inferred: &str,
    confidence: f64,
    values: &[(String, usize)],
) -> String {
    let mut p = String::new();
    let _ = write!(
        p,
        "The database catalog types {column} as {declared}. Statistically, {:.0}% of its \
         values parse as {inferred}. Sample values: ",
        confidence * 100.0,
    );
    push_value_list(&mut p, values, 50);
    p.push_str("\n\n");
    p.push_str(
        "Suggest the most suitable data type semantically (e.g. values \"yes\"/\"no\" are \
         better represented as BOOLEAN). Available types: BOOLEAN, BIGINT, DOUBLE, DATE, TIME, \
         VARCHAR.\n\n",
    );
    p.push_str(
        "Respond in JSON: {\"Reasoning\": \"...\", \"Type\": \"...\", \"Confidence\": 0.0-1.0}\n",
    );
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.number("confidence", confidence);
    context.text("declared", declared);
    context.text("inferred", inferred);
    context.text("task", task::COLUMN_TYPE);
    context.census("values", values);
    context.close();
    p
}

/// §2.1.5: review the acceptable numeric range.
pub fn numeric_range(column: &str, min: f64, max: f64, q1: f64, q3: f64) -> String {
    let mut p = String::new();
    let _ = write!(
        p,
        "{column} is numeric with minimum {min}, maximum {max}, and interquartile range \
         [{q1}, {q3}].\n\n",
    );
    p.push_str(
        "Review the acceptable range semantically given what the column represents. Values \
         outside the range will be treated as outliers and set to NULL.\n\n",
    );
    p.push_str(
        "Respond in JSON: {\"Reasoning\": \"...\", \"Low\": number|null, \"High\": number|null, \
         \"Confidence\": 0.0-1.0}\n",
    );
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.number("max", max);
    context.number("min", min);
    context.number("q1", q1);
    context.number("q3", q3);
    context.text("task", task::NUMERIC_RANGE);
    context.close();
    p
}

/// §2.1.6: review whether a statistically strong FD is semantically
/// meaningful.
pub fn fd_review(
    lhs: &str,
    rhs: &str,
    strength: f64,
    violating_groups: usize,
    examples: &[(String, Vec<(String, usize)>)],
) -> String {
    let mut p = String::new();
    let _ = writeln!(
        p,
        "The functional dependency {lhs} \u{2192} {rhs} holds with entropy strength {strength:.3} \
         ({violating_groups} violating groups).",
    );
    if !examples.is_empty() {
        p.push_str("Example violating groups:\n");
        for (lhs_value, census) in examples.iter().take(5) {
            push_group_line(&mut p, lhs_value, census);
        }
    }
    p.push_str(
        "\nReview if this statistically strong functional dependency is meaningful \
         semantically (a real-world rule rather than a coincidence or an inherently \
         variable measurement).\n\n",
    );
    p.push_str(
        "Respond in JSON: {\"Reasoning\": \"...\", \"Meaningful\": true/false, \
         \"Confidence\": 0.0-1.0}\n",
    );
    let mut context = Context::open(&mut p);
    push_groups(context.key("examples"), examples);
    context.text("lhs", lhs);
    context.text("rhs", rhs);
    context.number("strength", strength);
    context.text("task", task::FD_REVIEW);
    context.count("violating_groups", violating_groups);
    context.close();
    p
}

/// §2.1.6: provide the correct value for each violating group.
pub fn fd_mapping(lhs: &str, rhs: &str, groups: &[(String, Vec<(String, usize)>)]) -> String {
    let mut p = String::new();
    let _ = writeln!(
        p,
        "The functional dependency {lhs} \u{2192} {rhs} is meaningful, but these {lhs} groups \
         contain conflicting {rhs} values:",
    );
    for (lhs_value, census) in groups.iter().take(50) {
        push_group_line(&mut p, lhs_value, census);
    }
    p.push_str(
        "\nFor each group, provide the correct value. Map each incorrect value to the correct \
         one.\n\nReturn in the following format:\n```yml\nexplanation: >\n  ...\nconfidence: 0.0-1.0\nmapping:\n  old_value: new_value\n```\n",
    );
    let mut context = Context::open(&mut p);
    push_groups(context.key("groups"), groups);
    context.text("lhs", lhs);
    context.text("rhs", rhs);
    context.text("task", task::FD_MAPPING);
    context.close();
    p
}

/// §2.1.7: decide whether exact duplicate rows are acceptable.
pub fn duplication_review(duplicate_rows: usize, total_rows: usize, columns: &[String]) -> String {
    let mut p = String::new();
    let _ = write!(
        p,
        "The table has {total_rows} rows, of which {duplicate_rows} are exact duplicates of \
         earlier rows. Columns: ",
    );
    push_joined(&mut p, columns, |out, name| out.push_str(name));
    p.push_str(".\n\n");
    p.push_str(
        "Determine if these duplications are semantically acceptable (e.g., duplication in \
         logging with coarse time granularity) or erroneous (cleaned with SELECT DISTINCT).\n\n",
    );
    p.push_str(
        "Respond in JSON: {\"Reasoning\": \"...\", \"Acceptable\": true/false, \
         \"Confidence\": 0.0-1.0}\n",
    );
    let mut context = Context::open(&mut p);
    context.strings("columns", columns);
    context.count("duplicate_rows", duplicate_rows);
    context.text("task", task::DUPLICATION_REVIEW);
    context.count("total_rows", total_rows);
    context.close();
    p
}

/// §2.1.8: decide whether a column should be unique and how to prioritise
/// surviving rows.
pub fn uniqueness_review(column: &str, unique_ratio: f64, all_columns: &[String]) -> String {
    let mut p = String::new();
    let _ = write!(p, "Column {column} has unique ratio {unique_ratio:.4}. Table columns: ");
    push_joined(&mut p, all_columns, |out, name| out.push_str(name));
    p.push_str(".\n\n");
    p.push_str(
        "Decide if the column should be unique semantically (e.g., a primary key). If so, name \
         a column that prioritises which record to keep (e.g., the latest time), or null to \
         keep the first.\n\n",
    );
    p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"ShouldBeUnique\": true/false, \"OrderBy\": \"column\"|null, \"Confidence\": 0.0-1.0}\n");
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.strings("columns", all_columns);
    context.text("task", task::UNIQUENESS_REVIEW);
    context.number("unique_ratio", unique_ratio);
    context.close();
    p
}

/// Column-type support (§2.1.4 / Appendix B): values that must become
/// numbers before a `CAST` can succeed (e.g. `"1 hr. 30 min."` → `90`).
pub fn numeric_conversion(column: &str, failing_values: &[(String, usize)]) -> String {
    let mut p = String::new();
    p.push_str(column);
    p.push_str(" is being cast to a numeric type, but these values do not parse as numbers: ");
    push_value_list(&mut p, failing_values, 1000);
    p.push_str("\n\n");
    p.push_str(
        "Map each value to the number it semantically denotes (e.g., \"1 hr. 30 min.\" \u{2192} \
         90 minutes, \"$1,234\" \u{2192} 1234). If a value carries no number, map to empty \
         string.\n\nReturn in the following format:\n```yml\nexplanation: >\n  ...\nconfidence: 0.0-1.0\nmapping:\n  old_value: new_value\n```\n",
    );
    let mut context = Context::open(&mut p);
    context.text("column", column);
    context.text("task", task::NUMERIC_CONVERSION);
    context.census("values", failing_values);
    context.close();
    p
}

/// Cross-variant repair verification: ask an independent "reviewer" variant
/// whether a proposed repair is correct. `variant` phrases each re-ask from
/// a different angle, so the prompts are distinct cache keys and a
/// coalescing dispatcher sees a genuine batch rather than `n` copies of one
/// flight.
pub fn repair_verify(
    issue: &str,
    column: Option<&str>,
    evidence: &str,
    reasoning: &str,
    sql: &str,
    variant: usize,
) -> String {
    let mut p = String::new();
    let angle = match variant % 3 {
        0 => "Independently judge whether the repair below is correct.",
        1 => "Act as a skeptical reviewer: try to find a reason the repair below is wrong.",
        _ => "A colleague proposed the repair below; double-check it before it ships.",
    };
    p.push_str(angle);
    p.push_str("\n\n");
    let _ = writeln!(p, "Issue type: {issue}");
    if let Some(column) = column {
        let _ = writeln!(p, "Column: {column}");
    }
    if !evidence.is_empty() {
        let _ = writeln!(p, "Statistical evidence: {evidence}");
    }
    if !reasoning.is_empty() {
        let _ = writeln!(p, "Proposed reasoning: {reasoning}");
    }
    let _ = write!(p, "Compiled SQL:\n{sql}\n\n");
    p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"Agree\": true/false, \"Confidence\": 0.0-1.0}\n");
    let mut context = Context::open(&mut p);
    match column {
        Some(column) => context.text("column", column),
        None => context.key("column").push_str("null"),
    }
    context.text("evidence", evidence);
    context.text("issue", issue);
    context.text("reasoning", reasoning);
    context.text("task", task::REPAIR_VERIFY);
    context.count("variant", variant);
    context.close();
    p
}

/// Parses the `### context (JSON)` block out of a prompt (used by the
/// simulated model; hosted models read the NL text instead).
pub fn parse_context(prompt: &str) -> Option<Json> {
    let idx = prompt.rfind(CONTEXT_MARKER)?;
    let body = &prompt[idx + CONTEXT_MARKER.len()..];
    crate::json::parse(body.trim()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census() -> Vec<(String, usize)> {
        vec![("eng".to_string(), 46), ("English".to_string(), 9)]
    }

    #[test]
    fn figure2_wording_present() {
        let p = string_outliers_detect("article_language", &census());
        assert!(p.contains("has the following distinct values"));
        assert!(p.contains("Strange characters or typos (e.g., \"cofffee\")."));
        assert!(p.contains("Inconsistent representations of the same concept"));
        assert!(p.contains("\"Unusualness\": true/false"));
    }

    #[test]
    fn figure3_wording_present() {
        let p = string_outliers_clean("article_language", "mixed codes", &census());
        assert!(p.contains("article_language is unusual: mixed codes"));
        assert!(p.contains("If old values are meaningless, map to empty string."));
        assert!(p.contains("```yml"));
    }

    #[test]
    fn context_blocks_parse_back() {
        let p = string_outliers_detect("lang", &census());
        let ctx = parse_context(&p).unwrap();
        assert_eq!(ctx.get("task").unwrap().as_str().unwrap(), task::STRING_OUTLIERS_DETECT);
        assert_eq!(ctx.get("column").unwrap().as_str().unwrap(), "lang");
        assert_eq!(ctx.get("values").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn every_prompt_kind_has_parseable_context() {
        let prompts = vec![
            string_outliers_detect("c", &census()),
            string_outliers_clean("c", "s", &census()),
            pattern_review("c", &[("\\d+".into(), 3, vec!["1".into()])]),
            dmv_detect("c", &census(), 0.5),
            column_type("c", "VARCHAR", "BOOLEAN", 0.99, &census()),
            numeric_range("c", 0.0, 10.0, 2.0, 8.0),
            fd_review("zip", "city", 0.99, 1, &[("1".into(), vec![("a".into(), 2)])]),
            fd_mapping("zip", "city", &[("1".into(), vec![("a".into(), 2)])]),
            duplication_review(3, 100, &["a".into()]),
            uniqueness_review("id", 0.99, &["id".into(), "t".into()]),
            repair_verify("String Outliers", Some("lang"), "2 rare", "variants", "SELECT *", 0),
        ];
        for p in prompts {
            let ctx = parse_context(&p).expect("context parses");
            assert!(ctx.get("task").is_some(), "missing task in {p}");
        }
    }

    #[test]
    fn value_lists_stop_at_their_limit() {
        let many: Vec<(String, usize)> = (0..5).map(|i| (format!("v{i}"), 1)).collect();
        let mut text = String::new();
        push_value_list(&mut text, &many, 3);
        assert_eq!(text, "[\"v0\", \"v1\", \"v2\"] (+2 more)");
    }

    #[test]
    fn no_context_returns_none() {
        assert!(parse_context("just words").is_none());
    }

    #[test]
    fn repair_verify_variants_are_distinct_prompts() {
        let build = |v| repair_verify("Column Type", None, "", "cast to DATE", "SELECT *", v);
        // Distinct variants must be distinct cache keys (that is the whole
        // point of the re-ask: independent flights, not one cached answer).
        assert_ne!(build(0), build(1));
        assert_ne!(build(1), build(2));
        let ctx = parse_context(&build(1)).unwrap();
        assert_eq!(ctx.get("task").unwrap().as_str().unwrap(), task::REPAIR_VERIFY);
        assert_eq!(ctx.get("variant").unwrap().as_f64(), Some(1.0));
        assert!(matches!(ctx.get("column"), Some(Json::Null)));
    }

    #[test]
    fn prompts_request_a_confidence_self_report() {
        assert!(string_outliers_detect("c", &census()).contains("\"Confidence\": 0.0-1.0"));
        assert!(string_outliers_clean("c", "s", &census()).contains("confidence: 0.0-1.0"));
        assert!(column_type("c", "VARCHAR", "BOOLEAN", 0.99, &census())
            .contains("\"Confidence\": 0.0-1.0"));
        assert!(fd_mapping("zip", "city", &[]).contains("confidence: 0.0-1.0"));
    }
}
