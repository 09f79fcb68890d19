//! Prompt bytes: each builder in `cocoon_llm::prompts` writes exactly what
//! the `Json`-tree rendering it replaced wrote, on arbitrary input.
//!
//! The oracle below is that rendering, kept verbatim: each value escaped
//! into temporary strings, the context assembled as a `Json` object (whose
//! `BTreeMap` sorts the keys) and displayed. A prompt's bytes are its cache
//! key, its replay key and its token count, so the one-pass builders must
//! match it byte for byte, on the inputs the JSON writer treats specially:
//! quotes, backslashes, control characters, U+007F, characters above
//! U+FFFF, counts past 2^53, NaN, ±∞, −0.0, 1e15 and 1e-7, empty lists, and
//! lists past the 50- and 1000-value display limits.
//!
//! `Json`'s `Display` now shares the builders' escaper and number writer,
//! so the first two properties hold those to the char-at-a-time escaper and
//! the number display they replaced.

use cocoon_llm::prompts;
use proptest::collection;
use proptest::prelude::*;

/// The `Json`-tree builders the one-pass builders replaced.
mod oracle {
    use cocoon_llm::json::Json;
    use cocoon_llm::prompts::{task, CONTEXT_MARKER};

    /// The escaper the prompt text used: one `char` at a time, into a new
    /// string.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// How `Json::Number` displayed a number.
    pub fn number(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    fn values_json(values: &[(String, usize)]) -> Json {
        Json::Array(
            values
                .iter()
                .map(|(v, c)| Json::Array(vec![Json::String(v.clone()), Json::Number(*c as f64)]))
                .collect(),
        )
    }

    fn values_list_str(values: &[(String, usize)], limit: usize) -> String {
        let shown: Vec<String> = values.iter().take(limit).map(|(v, _)| escape(v)).collect();
        let mut text = format!("[{}]", shown.join(", "));
        if values.len() > limit {
            text.push_str(&format!(" (+{} more)", values.len() - limit));
        }
        text
    }

    fn context_block(pairs: Vec<(String, Json)>) -> String {
        format!("\n{CONTEXT_MARKER}\n{}\n", Json::object(pairs))
    }

    /// Figure 2: semantic detection of string outliers for one column.
    pub fn string_outliers_detect(column: &str, values: &[(String, usize)]) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "{column} has the following distinct values: {}\n\n",
            values_list_str(values, 1000)
        ));
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
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::STRING_OUTLIERS_DETECT.into())),
            ("column".into(), Json::String(column.into())),
            ("values".into(), values_json(values)),
        ]));
        p
    }

    /// Figure 3: semantic cleaning of string outliers for one batch.
    pub fn string_outliers_clean(
        column: &str,
        summary: &str,
        batch_values: &[(String, usize)],
    ) -> String {
        let mut p = String::new();
        p.push_str(&format!("{column} is unusual: {summary}\n"));
        p.push_str(&format!(
            "It has the following values: {}\n\n",
            values_list_str(batch_values, 1000)
        ));
        p.push_str("Maps those unusual values to the correct ones to address the problems.\n");
        p.push_str("If old values are meaningless, map to empty string.\n\n");
        p.push_str("Return in the following format:\n```yml\nexplanation: >\n");
        p.push_str(
            "The problem is ... The correct values are ...\nconfidence: 0.0-1.0\nmapping:\nold_value: new_value\n```\n",
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::STRING_OUTLIERS_CLEAN.into())),
            ("column".into(), Json::String(column.into())),
            ("summary".into(), Json::String(summary.into())),
            ("values".into(), values_json(batch_values)),
        ]));
        p
    }

    /// §2.1.2: review the value-shape census and propose meaningful regexes and
    /// standardising transformations.
    pub fn pattern_review(column: &str, buckets: &[(String, usize, Vec<String>)]) -> String {
        let mut p = String::new();
        p.push_str(&format!("The values of {column} group into the following regex shapes:\n"));
        for (pattern, count, examples) in buckets {
            p.push_str(&format!(
                "  {pattern} — {count} values (e.g. {})\n",
                examples.iter().take(3).map(|e| escape(e)).collect::<Vec<_>>().join(", ")
            ));
        }
        p.push_str(
            "\nWrite a list of semantically meaningful regular expression patterns that cover all \
             column values (e.g., \\d{2}/\\d{2}/\\d{4} for dates is meaningful based on the \
             day/month/year, but .* is not). Assess if the shapes are inconsistent representations \
             of the same concept, and if so provide regex transformations to standardise them.\n\n",
        );
        p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"Patterns\": [...], \"Inconsistent\": true/false, \"Transforms\": [{\"pattern\": \"...\", \"replacement\": \"...\"}], \"Confidence\": 0.0-1.0}\n");
        let buckets_json = Json::Array(
            buckets
                .iter()
                .map(|(pattern, count, examples)| {
                    Json::Array(vec![
                        Json::String(pattern.clone()),
                        Json::Number(*count as f64),
                        Json::Array(examples.iter().map(|e| Json::String(e.clone())).collect()),
                    ])
                })
                .collect(),
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::PATTERN_REVIEW.into())),
            ("column".into(), Json::String(column.into())),
            ("buckets".into(), buckets_json),
        ]));
        p
    }

    /// §2.1.3: identify disguised missing values.
    pub fn dmv_detect(column: &str, values: &[(String, usize)], numeric_share: f64) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "{column} has the following values: {}\n\n",
            values_list_str(values, 1000)
        ));
        p.push_str(
            "Identify values that are currently not NULL, but semantically mean that the value is \
             missing (e.g., string values like \"N/A\", \"null\").\n\n",
        );
        p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"DisguisedMissing\": [\"...\"], \"Confidence\": 0.0-1.0}\n");
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::DMV_DETECT.into())),
            ("column".into(), Json::String(column.into())),
            ("values".into(), values_json(values)),
            ("numeric_share".into(), Json::Number(numeric_share)),
        ]));
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
        p.push_str(&format!(
            "The database catalog types {column} as {declared}. Statistically, {:.0}% of its \
             values parse as {inferred}. Sample values: {}\n\n",
            confidence * 100.0,
            values_list_str(values, 50)
        ));
        p.push_str(
            "Suggest the most suitable data type semantically (e.g. values \"yes\"/\"no\" are \
             better represented as BOOLEAN). Available types: BOOLEAN, BIGINT, DOUBLE, DATE, TIME, \
             VARCHAR.\n\n",
        );
        p.push_str(
            "Respond in JSON: {\"Reasoning\": \"...\", \"Type\": \"...\", \"Confidence\": 0.0-1.0}\n",
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::COLUMN_TYPE.into())),
            ("column".into(), Json::String(column.into())),
            ("declared".into(), Json::String(declared.into())),
            ("inferred".into(), Json::String(inferred.into())),
            ("confidence".into(), Json::Number(confidence)),
            ("values".into(), values_json(values)),
        ]));
        p
    }

    /// §2.1.5: review the acceptable numeric range.
    pub fn numeric_range(column: &str, min: f64, max: f64, q1: f64, q3: f64) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "{column} is numeric with minimum {min}, maximum {max}, and interquartile range \
             [{q1}, {q3}].\n\n",
        ));
        p.push_str(
            "Review the acceptable range semantically given what the column represents. Values \
             outside the range will be treated as outliers and set to NULL.\n\n",
        );
        p.push_str(
            "Respond in JSON: {\"Reasoning\": \"...\", \"Low\": number|null, \"High\": number|null, \
             \"Confidence\": 0.0-1.0}\n",
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::NUMERIC_RANGE.into())),
            ("column".into(), Json::String(column.into())),
            ("min".into(), Json::Number(min)),
            ("max".into(), Json::Number(max)),
            ("q1".into(), Json::Number(q1)),
            ("q3".into(), Json::Number(q3)),
        ]));
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
        p.push_str(&format!(
            "The functional dependency {lhs} \u{2192} {rhs} holds with entropy strength {strength:.3} \
             ({violating_groups} violating groups).\n",
        ));
        if !examples.is_empty() {
            p.push_str("Example violating groups:\n");
            for (lhs_value, census) in examples.iter().take(5) {
                let rhs_text: Vec<String> =
                    census.iter().map(|(v, c)| format!("{} ×{c}", escape(v))).collect();
                p.push_str(&format!("  {} → {{{}}}\n", escape(lhs_value), rhs_text.join(", ")));
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
        let examples_json = Json::Array(
            examples
                .iter()
                .map(|(l, census)| {
                    Json::Array(vec![
                        Json::String(l.clone()),
                        Json::Array(
                            census
                                .iter()
                                .map(|(v, c)| {
                                    Json::Array(vec![
                                        Json::String(v.clone()),
                                        Json::Number(*c as f64),
                                    ])
                                })
                                .collect(),
                        ),
                    ])
                })
                .collect(),
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::FD_REVIEW.into())),
            ("lhs".into(), Json::String(lhs.into())),
            ("rhs".into(), Json::String(rhs.into())),
            ("strength".into(), Json::Number(strength)),
            ("violating_groups".into(), Json::Number(violating_groups as f64)),
            ("examples".into(), examples_json),
        ]));
        p
    }

    /// §2.1.6: provide the correct value for each violating group.
    pub fn fd_mapping(lhs: &str, rhs: &str, groups: &[(String, Vec<(String, usize)>)]) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "The functional dependency {lhs} \u{2192} {rhs} is meaningful, but these {lhs} groups \
             contain conflicting {rhs} values:\n",
        ));
        for (lhs_value, census) in groups.iter().take(50) {
            let rhs_text: Vec<String> =
                census.iter().map(|(v, c)| format!("{} ×{c}", escape(v))).collect();
            p.push_str(&format!("  {} → {{{}}}\n", escape(lhs_value), rhs_text.join(", ")));
        }
        p.push_str(
            "\nFor each group, provide the correct value. Map each incorrect value to the correct \
             one.\n\nReturn in the following format:\n```yml\nexplanation: >\n  ...\nconfidence: 0.0-1.0\nmapping:\n  old_value: new_value\n```\n",
        );
        let groups_json = Json::Array(
            groups
                .iter()
                .map(|(l, census)| {
                    Json::Array(vec![
                        Json::String(l.clone()),
                        Json::Array(
                            census
                                .iter()
                                .map(|(v, c)| {
                                    Json::Array(vec![
                                        Json::String(v.clone()),
                                        Json::Number(*c as f64),
                                    ])
                                })
                                .collect(),
                        ),
                    ])
                })
                .collect(),
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::FD_MAPPING.into())),
            ("lhs".into(), Json::String(lhs.into())),
            ("rhs".into(), Json::String(rhs.into())),
            ("groups".into(), groups_json),
        ]));
        p
    }

    /// §2.1.7: decide whether exact duplicate rows are acceptable.
    pub fn duplication_review(
        duplicate_rows: usize,
        total_rows: usize,
        columns: &[String],
    ) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "The table has {total_rows} rows, of which {duplicate_rows} are exact duplicates of \
             earlier rows. Columns: {}.\n\n",
            columns.join(", ")
        ));
        p.push_str(
            "Determine if these duplications are semantically acceptable (e.g., duplication in \
             logging with coarse time granularity) or erroneous (cleaned with SELECT DISTINCT).\n\n",
        );
        p.push_str(
            "Respond in JSON: {\"Reasoning\": \"...\", \"Acceptable\": true/false, \
             \"Confidence\": 0.0-1.0}\n",
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::DUPLICATION_REVIEW.into())),
            ("duplicate_rows".into(), Json::Number(duplicate_rows as f64)),
            ("total_rows".into(), Json::Number(total_rows as f64)),
            (
                "columns".into(),
                Json::Array(columns.iter().map(|c| Json::String(c.clone())).collect()),
            ),
        ]));
        p
    }

    /// §2.1.8: decide whether a column should be unique and how to prioritise
    /// surviving rows.
    pub fn uniqueness_review(column: &str, unique_ratio: f64, all_columns: &[String]) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "Column {column} has unique ratio {unique_ratio:.4}. Table columns: {}.\n\n",
            all_columns.join(", ")
        ));
        p.push_str(
            "Decide if the column should be unique semantically (e.g., a primary key). If so, name \
             a column that prioritises which record to keep (e.g., the latest time), or null to \
             keep the first.\n\n",
        );
        p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"ShouldBeUnique\": true/false, \"OrderBy\": \"column\"|null, \"Confidence\": 0.0-1.0}\n");
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::UNIQUENESS_REVIEW.into())),
            ("column".into(), Json::String(column.into())),
            ("unique_ratio".into(), Json::Number(unique_ratio)),
            (
                "columns".into(),
                Json::Array(all_columns.iter().map(|c| Json::String(c.clone())).collect()),
            ),
        ]));
        p
    }

    /// Column-type support (§2.1.4 / Appendix B): values that must become
    /// numbers before a `CAST` can succeed (e.g. `"1 hr. 30 min."` → `90`).
    pub fn numeric_conversion(column: &str, failing_values: &[(String, usize)]) -> String {
        let mut p = String::new();
        p.push_str(&format!(
            "{column} is being cast to a numeric type, but these values do not parse as numbers: \
             {}\n\n",
            values_list_str(failing_values, 1000)
        ));
        p.push_str(
            "Map each value to the number it semantically denotes (e.g., \"1 hr. 30 min.\" \u{2192} \
             90 minutes, \"$1,234\" \u{2192} 1234). If a value carries no number, map to empty \
             string.\n\nReturn in the following format:\n```yml\nexplanation: >\n  ...\nconfidence: 0.0-1.0\nmapping:\n  old_value: new_value\n```\n",
        );
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::NUMERIC_CONVERSION.into())),
            ("column".into(), Json::String(column.into())),
            ("values".into(), values_json(failing_values)),
        ]));
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
        p.push_str(&format!("Issue type: {issue}\n"));
        if let Some(column) = column {
            p.push_str(&format!("Column: {column}\n"));
        }
        if !evidence.is_empty() {
            p.push_str(&format!("Statistical evidence: {evidence}\n"));
        }
        if !reasoning.is_empty() {
            p.push_str(&format!("Proposed reasoning: {reasoning}\n"));
        }
        p.push_str(&format!("Compiled SQL:\n{sql}\n\n"));
        p.push_str("Respond in JSON: {\"Reasoning\": \"...\", \"Agree\": true/false, \"Confidence\": 0.0-1.0}\n");
        p.push_str(&context_block(vec![
            ("task".into(), Json::String(task::REPAIR_VERIFY.into())),
            ("issue".into(), Json::String(issue.into())),
            (
                "column".into(),
                match column {
                    Some(c) => Json::String(c.into()),
                    None => Json::Null,
                },
            ),
            ("evidence".into(), Json::String(evidence.into())),
            ("reasoning".into(), Json::String(reasoning.into())),
            ("variant".into(), Json::Number(variant as f64)),
        ]));
        p
    }
}

/// Characters the JSON writer escapes, or that a prompt must carry intact.
const AWKWARD: &[char] = &[
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\0',
    '\u{1f}',
    '\u{7f}',
    'é',
    '×',
    '→',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn text_char() -> BoxedStrategy<char> {
    prop_oneof![
        4 => proptest::char::range(' ', '~'),
        2 => (0..AWKWARD.len()).prop_map(|i| AWKWARD[i]),
        1 => proptest::char::range('\0', '\u{1f}'),
        1 => proptest::char::range('\u{80}', char::MAX),
    ]
    .boxed()
}

/// Up to 9 characters, the empty string included.
fn text() -> BoxedStrategy<String> {
    collection::vec(text_char(), 0..10).prop_map(|chars| chars.into_iter().collect()).boxed()
}

/// Counts at and past 2^53, where the `f64` a count was displayed through
/// rounds it, and at the 1e15 switch of the number format.
const EDGE_COUNTS: &[usize] =
    &[(1 << 53) + 1, 999_999_999_999_999, 1_000_000_000_000_000, 1_000_000_000_000_001, usize::MAX];

fn count() -> BoxedStrategy<usize> {
    prop_oneof![
        4 => 0..100usize,
        1 => any::<usize>(),
        1 => (0..EDGE_COUNTS.len()).prop_map(|i| EDGE_COUNTS[i]),
    ]
    .boxed()
}

/// Floats on each side of every branch of the number format.
const EDGE_FLOATS: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e15,
    -1e15,
    999_999_999_999_999.0,
    1e-7,
    0.5,
    1e300,
    f64::MIN_POSITIVE,
];

fn float() -> BoxedStrategy<f64> {
    prop_oneof![
        2 => -1e6..1e6f64,
        1 => (-1000..1000i64).prop_map(|i| i as f64),
        1 => any::<u64>().prop_map(f64::from_bits),
        2 => (0..EDGE_FLOATS.len()).prop_map(|i| EDGE_FLOATS[i]),
    ]
    .boxed()
}

/// A list of `element`s: mostly short or empty, sometimes at or just past
/// the 50- and 1000-value display limits.
fn list<T: 'static>(element: BoxedStrategy<T>) -> BoxedStrategy<Vec<T>> {
    prop_oneof![6 => 0..5usize, 1 => 49..53usize, 1 => 999..1003usize]
        .prop_flat_map(move |n| collection::vec(element.clone(), n))
        .boxed()
}

/// A value census, `(value, count)` pairs.
type Census = Vec<(String, usize)>;

fn census() -> BoxedStrategy<Census> {
    list((text(), count()).boxed())
}

/// FD groups: many or few, each with a short census.
fn groups() -> BoxedStrategy<Vec<(String, Census)>> {
    list((text(), collection::vec((text(), count()), 0..4)).boxed())
}

fn names() -> BoxedStrategy<Vec<String>> {
    collection::vec(text(), 0..5).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn escape_into_matches_the_char_escaper(s in text(), prefix in text()) {
        let mut out = prefix.clone();
        cocoon_llm::json::escape_into(&mut out, &s);
        prop_assert_eq!(out, format!("{prefix}{}", oracle::escape(&s)));
        prop_assert_eq!(cocoon_llm::json::escape(&s), oracle::escape(&s));
    }

    #[test]
    fn write_number_matches_the_number_display(n in float()) {
        let mut out = String::new();
        cocoon_llm::json::write_number(&mut out, n).unwrap();
        prop_assert_eq!(out, oracle::number(n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn string_outliers_detect_bytes(column in text(), values in census()) {
        prop_assert_eq!(
            prompts::string_outliers_detect(&column, &values),
            oracle::string_outliers_detect(&column, &values)
        );
    }

    #[test]
    fn string_outliers_clean_bytes(column in text(), summary in text(), values in census()) {
        prop_assert_eq!(
            prompts::string_outliers_clean(&column, &summary, &values),
            oracle::string_outliers_clean(&column, &summary, &values)
        );
    }

    #[test]
    fn pattern_review_bytes(
        column in text(),
        buckets in list((text(), count(), names()).boxed()),
    ) {
        prop_assert_eq!(
            prompts::pattern_review(&column, &buckets),
            oracle::pattern_review(&column, &buckets)
        );
    }

    #[test]
    fn dmv_detect_bytes(column in text(), values in census(), share in float()) {
        prop_assert_eq!(
            prompts::dmv_detect(&column, &values, share),
            oracle::dmv_detect(&column, &values, share)
        );
    }

    #[test]
    fn column_type_bytes(
        column in text(),
        declared in text(),
        inferred in text(),
        confidence in float(),
        values in census(),
    ) {
        prop_assert_eq!(
            prompts::column_type(&column, &declared, &inferred, confidence, &values),
            oracle::column_type(&column, &declared, &inferred, confidence, &values)
        );
    }

    #[test]
    fn numeric_range_bytes(
        column in text(),
        min in float(),
        max in float(),
        q1 in float(),
        q3 in float(),
    ) {
        prop_assert_eq!(
            prompts::numeric_range(&column, min, max, q1, q3),
            oracle::numeric_range(&column, min, max, q1, q3)
        );
    }

    #[test]
    fn fd_review_bytes(
        lhs in text(),
        rhs in text(),
        strength in float(),
        violating in count(),
        examples in groups(),
    ) {
        prop_assert_eq!(
            prompts::fd_review(&lhs, &rhs, strength, violating, &examples),
            oracle::fd_review(&lhs, &rhs, strength, violating, &examples)
        );
    }

    #[test]
    fn fd_mapping_bytes(lhs in text(), rhs in text(), groups in groups()) {
        prop_assert_eq!(
            prompts::fd_mapping(&lhs, &rhs, &groups),
            oracle::fd_mapping(&lhs, &rhs, &groups)
        );
    }

    #[test]
    fn duplication_review_bytes(duplicates in count(), total in count(), columns in names()) {
        prop_assert_eq!(
            prompts::duplication_review(duplicates, total, &columns),
            oracle::duplication_review(duplicates, total, &columns)
        );
    }

    #[test]
    fn uniqueness_review_bytes(column in text(), ratio in float(), columns in names()) {
        prop_assert_eq!(
            prompts::uniqueness_review(&column, ratio, &columns),
            oracle::uniqueness_review(&column, ratio, &columns)
        );
    }

    #[test]
    fn numeric_conversion_bytes(column in text(), values in census()) {
        prop_assert_eq!(
            prompts::numeric_conversion(&column, &values),
            oracle::numeric_conversion(&column, &values)
        );
    }

    #[test]
    fn repair_verify_bytes(
        issue in text(),
        column in prop_oneof![Just(None), text().prop_map(Some)],
        evidence in text(),
        reasoning in text(),
        sql in text(),
        variant in count(),
    ) {
        let column = column.as_deref();
        prop_assert_eq!(
            prompts::repair_verify(&issue, column, &evidence, &reasoning, &sql, variant),
            oracle::repair_verify(&issue, column, &evidence, &reasoning, &sql, variant)
        );
    }
}

/// Every edge value and list length once, whatever the draws above hit.
#[test]
fn edge_numbers_and_list_lengths_match_the_tree() {
    for &x in EDGE_FLOATS {
        assert_eq!(
            prompts::numeric_range("c", x, -x, x, x),
            oracle::numeric_range("c", x, -x, x, x)
        );
        assert_eq!(prompts::dmv_detect("c", &[], x), oracle::dmv_detect("c", &[], x));
        assert_eq!(prompts::uniqueness_review("c", x, &[]), oracle::uniqueness_review("c", x, &[]));
    }
    for &n in EDGE_COUNTS {
        let values = [("v".to_string(), n)];
        assert_eq!(
            prompts::numeric_conversion("c", &values),
            oracle::numeric_conversion("c", &values)
        );
        assert_eq!(prompts::duplication_review(n, n, &[]), oracle::duplication_review(n, n, &[]));
        assert_eq!(
            prompts::repair_verify("i", None, "", "", "", n),
            oracle::repair_verify("i", None, "", "", "", n)
        );
    }
    for len in [0, 1, 49, 50, 51, 999, 1000, 1001] {
        let values: Census = (0..len).map(|i| (format!("v{i}\u{1}"), i)).collect();
        let groups: Vec<(String, Census)> =
            (0..len).map(|i| (format!("g{i}"), values[i..(i + 2).min(len)].to_vec())).collect();
        assert_eq!(
            prompts::column_type("c", "VARCHAR", "BIGINT", 0.5, &values),
            oracle::column_type("c", "VARCHAR", "BIGINT", 0.5, &values)
        );
        assert_eq!(
            prompts::string_outliers_detect("c", &values),
            oracle::string_outliers_detect("c", &values)
        );
        assert_eq!(prompts::fd_mapping("a", "b", &groups), oracle::fd_mapping("a", "b", &groups));
        assert_eq!(
            prompts::fd_review("a", "b", 0.9, len, &groups),
            oracle::fd_review("a", "b", 0.9, len, &groups)
        );
    }
}
