//! `SimLlm` — a deterministic semantic oracle behind the [`ChatModel`] trait.
//!
//! The paper runs Cocoon against Claude 3.5. Offline, this reproduction
//! substitutes a simulated model that (1) receives the *same rendered
//! prompts*, (2) re-parses the context embedded in them, (3) applies generic
//! world knowledge from [`cocoon_semantic`] — language codes, geography,
//! units, typo models, DMV tokens — and (4) answers in the same JSON/YAML
//! wire formats the prompts demand. The pipeline therefore exercises the
//! full prompt → completion → parse → SQL path of the real system.
//!
//! The oracle never sees dataset ground truth: every judgement derives from
//! the value census in the prompt plus open-world knowledge, the same class
//! of information the paper credits LLMs with.

use crate::chat::{ChatModel, ChatRequest, ChatResponse, Usage};
use crate::error::{LlmError, Result};
use crate::json::Json;
use crate::prompts::{parse_context, task};
use crate::yaml::emit_cleaning_response_scored;
use cocoon_semantic as sem;
use cocoon_table::{Date, TimeOfDay};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The simulated LLM. Stateless and cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct SimLlm;

impl SimLlm {
    /// The oracle; stateless, so every instance is equivalent.
    pub fn new() -> Self {
        SimLlm
    }
}

impl ChatModel for SimLlm {
    fn model_name(&self) -> &str {
        "sim-claude-3.5"
    }

    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
        let prompt = request.user_text();
        let ctx = parse_context(&prompt).ok_or(LlmError::Malformed {
            expected: "context block",
            detail: "prompt carries no machine-readable context".into(),
        })?;
        let task_name = ctx
            .get("task")
            .and_then(Json::as_str)
            .ok_or(LlmError::Malformed { expected: "task tag", detail: ctx.to_string() })?
            .to_string();
        let content = match task_name.as_str() {
            task::STRING_OUTLIERS_DETECT => answer_string_detect(&ctx),
            task::STRING_OUTLIERS_CLEAN => answer_string_clean(&ctx),
            task::PATTERN_REVIEW => answer_pattern_review(&ctx),
            task::DMV_DETECT => answer_dmv(&ctx),
            task::COLUMN_TYPE => answer_column_type(&ctx),
            task::NUMERIC_RANGE => answer_numeric_range(&ctx),
            task::FD_REVIEW => answer_fd_review(&ctx),
            task::FD_MAPPING => answer_fd_mapping(&ctx),
            task::DUPLICATION_REVIEW => answer_duplication(&ctx),
            task::UNIQUENESS_REVIEW => answer_uniqueness(&ctx),
            task::NUMERIC_CONVERSION => answer_numeric_conversion(&ctx),
            task::REPAIR_VERIFY => answer_repair_verify(&ctx),
            other => {
                return Err(LlmError::Malformed {
                    expected: "known task",
                    detail: other.to_string(),
                })
            }
        };
        Ok(ChatResponse {
            usage: Usage {
                prompt_tokens: Usage::estimate(&prompt),
                completion_tokens: Usage::estimate(&content),
            },
            content,
        })
    }

    /// Answers a batch on scoped workers, one per available core: each
    /// claims the next prompt from a shared counter, longest prompt first
    /// (the oracle's work grows with the values a prompt carries, so a
    /// long prompt claimed last would leave the other workers idle), and
    /// the answers come back in request order. The oracle is stateless, so
    /// this equals [`complete`](ChatModel::complete) on every prompt, slot
    /// for slot.
    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = cores.min(requests.len());
        if workers <= 1 {
            return requests.iter().map(|r| self.complete(r)).collect();
        }
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| {
            std::cmp::Reverse(requests[i].messages.iter().map(|m| m.content.len()).sum::<usize>())
        });
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut answered = Vec::new();
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                answered.push((i, self.complete(&requests[i])));
            }
            answered
        };
        let mut answered: Vec<(usize, Result<ChatResponse>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        answered.sort_unstable_by_key(|(i, _)| *i);
        answered.into_iter().map(|(_, answer)| answer).collect()
    }
}

// ---------------------------------------------------------------------------
// context helpers

fn census_from(ctx: &Json, key: &str) -> Vec<(String, usize)> {
    ctx.get(key)
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let arr = pair.as_array()?;
                    Some((arr.first()?.as_str()?.to_string(), arr.get(1)?.as_f64()? as usize))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn groups_from(ctx: &Json, key: &str) -> Vec<(String, Vec<(String, usize)>)> {
    ctx.get(key)
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|g| {
                    let arr = g.as_array()?;
                    let lhs = arr.first()?.as_str()?.to_string();
                    let census = arr
                        .get(1)?
                        .as_array()?
                        .iter()
                        .filter_map(|pair| {
                            let p = pair.as_array()?;
                            Some((p.first()?.as_str()?.to_string(), p.get(1)?.as_f64()? as usize))
                        })
                        .collect();
                    Some((lhs, census))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn json_fence(pairs: Vec<(String, Json)>) -> String {
    format!("```json\n{}\n```\n", Json::object(pairs))
}

/// The oracle's self-reported confidence for a string-value analysis: the
/// weakest heuristic class that contributed. World-knowledge lookups (codes,
/// units, typo edit distance) are near-certain; concept-misplacement
/// inference ("India" in a language column means Hindi) is a guess the
/// pipeline should route through review.
fn string_confidence(issues: &[String]) -> f64 {
    const CLASSES: [(&str, f64); 9] = [
        ("typos", 0.95),
        ("language values", 0.9),
        ("state values", 0.9),
        ("volume values", 0.9),
        ("duration values", 0.9),
        ("clock times", 0.85),
        ("trailing junk", 0.9),
        ("misplaced", 0.65),
        ("case or spacing", 0.85),
    ];
    issues
        .iter()
        .flat_map(|issue| {
            CLASSES.iter().filter(|(key, _)| issue.contains(key)).map(|&(_, conf)| conf)
        })
        .fold(0.95f64, f64::min)
}

// ---------------------------------------------------------------------------
// string outliers (§2.1.1) — shared analysis used by detect and clean

/// The issues found in one column's value census.
#[derive(Debug, Default, Clone)]
struct StringAnalysis {
    /// old → new; "" means "meaningless, map to NULL".
    mapping: BTreeMap<String, String>,
    /// human-readable issue descriptions.
    issues: Vec<String>,
}

/// Analyses a distinct-value census for typos and inconsistent
/// representations using only generic world knowledge.
fn analyze_string_values(census: &[(String, usize)]) -> StringAnalysis {
    let mut analysis = StringAnalysis::default();
    let claim = |mapping: &mut BTreeMap<String, String>, from: &str, to: &str| {
        if from != to && !mapping.contains_key(from) {
            mapping.insert(from.to_string(), to.to_string());
            true
        } else {
            false
        }
    };

    // 1. Typos: rare values one edit away from dominant ones. Two values
    //    that both parse as valid clock times or calendar dates are
    //    distinct readings, never typos of each other ("10:04 a.m." vs
    //    "1:04 p.m." is two edits but a different moment).
    let both_temporal = |a: &str, b: &str| {
        (TimeOfDay::parse_flexible(a).is_some() && TimeOfDay::parse_flexible(b).is_some())
            || (Date::parse_any(a).is_some() && Date::parse_any(b).is_some())
    };
    let typo_fixes = sem::suggest_typo_fixes(census, 3.0);
    let mut typo_count = 0usize;
    for fix in &typo_fixes {
        if both_temporal(&fix.from, &fix.to) {
            continue;
        }
        // Disguised-missing tokens ("-", "N/A") are the DMV step's
        // business, not misspellings of nearby values.
        if sem::is_disguised_missing(&fix.from, false) {
            continue;
        }
        if claim(&mut analysis.mapping, &fix.from, &fix.to) {
            typo_count += 1;
        }
    }
    if typo_count > 0 {
        analysis
            .issues
            .push(format!("{typo_count} values look like typos of more frequent values"));
    }

    // 2. Language representations (Example 1: "English" vs "eng").
    let mut code_weight = 0usize;
    let mut name_weight = 0usize;
    for (v, c) in census {
        if sem::name_for_code(v).is_some() {
            code_weight += c;
        } else if sem::code_for_name(v).is_some() {
            name_weight += c;
        }
    }
    if code_weight > 0 && name_weight > 0 {
        let to_codes = code_weight >= name_weight;
        let mut fixed = 0usize;
        for (v, _) in census {
            if to_codes {
                if let Some(code) = sem::code_for_name(v) {
                    if claim(&mut analysis.mapping, v, code) {
                        fixed += 1;
                    }
                }
            } else if let Some(name) = sem::name_for_code(v) {
                if claim(&mut analysis.mapping, v, &sem::title_case(name)) {
                    fixed += 1;
                }
            }
        }
        if fixed > 0 {
            analysis.issues.push(format!(
                "{fixed} language values use a minority representation (full names vs ISO codes)"
            ));
        }
    }

    // 3. State representations ("New York" vs "NY").
    let mut abbr_weight = 0usize;
    let mut full_weight = 0usize;
    for (v, c) in census {
        if sem::state_for_abbreviation(v).is_some() && v.trim().len() == 2 {
            abbr_weight += c;
        } else if sem::abbreviation_for_state(v).is_some() {
            full_weight += c;
        }
    }
    if abbr_weight > 0 && full_weight > 0 {
        let to_abbr = abbr_weight >= full_weight;
        let mut fixed = 0usize;
        for (v, _) in census {
            if to_abbr {
                if sem::state_for_abbreviation(v).is_none() || v.trim().len() != 2 {
                    if let Some(abbr) = sem::abbreviation_for_state(v) {
                        if claim(&mut analysis.mapping, v, abbr) {
                            fixed += 1;
                        }
                    }
                }
            } else if v.trim().len() == 2 {
                if let Some(full) = sem::state_for_abbreviation(v) {
                    if claim(&mut analysis.mapping, v, &sem::title_case(full)) {
                        fixed += 1;
                    }
                }
            }
        }
        if fixed > 0 {
            analysis.issues.push(format!(
                "{fixed} state values use a minority representation (abbreviations vs full names)"
            ));
        }
    }

    // 4. Volume units ("12 ounce" vs "12 oz" in Beers).
    let volumeish = census.iter().filter(|(v, _)| sem::canonical_volume(v).is_some()).count();
    if volumeish >= 2 {
        let mut fixed = 0usize;
        for (v, _) in census {
            if let Some(canonical) = sem::canonical_volume(v) {
                if canonical != *v && claim(&mut analysis.mapping, v, &canonical) {
                    fixed += 1;
                }
            }
        }
        if fixed > 0 {
            analysis.issues.push(format!("{fixed} volume values spell the unit inconsistently"));
        }
    }

    // 5. Durations ("100 min" vs "1 hour 40 min" in Movies): canonical form
    //    is "N min" when that's the dominant spelling, else bare minutes.
    let durations: Vec<&(String, usize)> =
        census.iter().filter(|(v, _)| sem::is_duration(v)).collect();
    if !durations.is_empty() {
        let min_style = |v: &str| {
            let t = v.trim();
            t.ends_with(" min") && t[..t.len() - 4].trim().parse::<f64>().is_ok()
        };
        let min_weight: usize =
            durations.iter().filter(|(v, _)| min_style(v)).map(|(_, c)| c).sum();
        let other_weight: usize =
            durations.iter().filter(|(v, _)| !min_style(v)).map(|(_, c)| c).sum();
        if other_weight > 0 && (min_weight > 0 || durations.len() >= 2) {
            let mut fixed = 0usize;
            for (v, _) in census {
                if sem::is_duration(v) && !min_style(v) {
                    if let Some(minutes) = sem::parse_duration_minutes(v) {
                        let rendered = if minutes.fract() == 0.0 {
                            format!("{} min", minutes as i64)
                        } else {
                            format!("{minutes} min")
                        };
                        if claim(&mut analysis.mapping, v, &rendered) {
                            fixed += 1;
                        }
                    }
                }
            }
            if fixed > 0 {
                analysis.issues.push(format!("{fixed} duration values mix hour/minute spellings"));
            }
        }
    }

    // 6. Time-of-day formats ("10:30 p.m." vs "22:30").
    let ampm = |v: &str| v.to_lowercase().contains('m') && TimeOfDay::parse_flexible(v).is_some();
    let h24 = |v: &str| {
        !v.to_lowercase().contains('m') && TimeOfDay::parse_flexible(v).is_some() && v.contains(':')
    };
    let ampm_weight: usize = census.iter().filter(|(v, _)| ampm(v)).map(|(_, c)| c).sum();
    let h24_weight: usize = census.iter().filter(|(v, _)| h24(v)).map(|(_, c)| c).sum();
    if ampm_weight > 0 && h24_weight > 0 {
        let to_ampm = ampm_weight >= h24_weight;
        let mut fixed = 0usize;
        for (v, _) in census {
            let converted = if to_ampm && h24(v) {
                TimeOfDay::parse_flexible(v).map(|t| t.to_ampm())
            } else if !to_ampm && ampm(v) {
                TimeOfDay::parse_flexible(v).map(|t| t.to_hhmm())
            } else {
                None
            };
            if let Some(target) = converted {
                if claim(&mut analysis.mapping, v, &target) {
                    fixed += 1;
                }
            }
        }
        if fixed > 0 {
            analysis.issues.push(format!("{fixed} clock times mix 12h and 24h formats"));
        }
    }

    // 7. Dates and clock times with trailing junk ("1/1/2000x", "10:30
    //    p.m.x"). Strip the junk when the remainder parses and the original
    //    does not.
    // A candidate must carry a real temporal separator — otherwise bare
    // numbers ("10") false-parse as clock hours.
    let parses_temporal = |s: &str| {
        (s.contains('/') || s.contains('-')) && Date::parse_any(s).is_some()
            || s.contains(':') && TimeOfDay::parse_flexible(s).is_some()
    };
    let mut junk_fixed = 0usize;
    for (v, _) in census {
        if parses_temporal(v) {
            continue;
        }
        let stripped: &str =
            v.trim_end_matches(|c: char| c.is_ascii_alphabetic() || c == '!' || c == '#');
        // Times end in "a.m."/"p.m." — stripping letters eats the meridiem,
        // so also try removing exactly one trailing character (never a
        // digit: that would truncate numbers, not junk).
        let mut candidates: Vec<&str> = vec![stripped];
        if v.chars().last().is_some_and(|c| !c.is_ascii_digit()) {
            let cut = v.len() - v.chars().last().map(char::len_utf8).unwrap_or(1);
            candidates.push(&v[..cut]);
        }
        for candidate in candidates {
            if candidate.len() < v.len() && !candidate.is_empty() && parses_temporal(candidate) {
                if claim(&mut analysis.mapping, v, candidate) {
                    junk_fixed += 1;
                }
                break;
            }
        }
    }
    if junk_fixed > 0 {
        analysis
            .issues
            .push(format!("{junk_fixed} date/time values carry trailing junk characters"));
    }

    // 8. Misplaced concept tokens (the Movies "country in the language
    //    column" class): when a column is dominated by one concept (country
    //    vs language), minority tokens of the *other* concept are mapped
    //    through world knowledge — "India" in a language column means the
    //    language "Hindi"; "Hindi" in a country column means "India".
    let is_lang = |v: &str| sem::is_language_token(v) && !sem::is_country_token(v);
    let is_ctry = |v: &str| sem::is_country_token(v) && !sem::is_language_token(v);
    let lang_weight: usize = census.iter().filter(|(v, _)| is_lang(v)).map(|(_, c)| c).sum();
    let ctry_weight: usize = census.iter().filter(|(v, _)| is_ctry(v)).map(|(_, c)| c).sum();
    let total_weight: usize = census.iter().map(|(_, c)| c).sum();
    let mut misplaced = 0usize;
    if total_weight > 0 && lang_weight * 2 > total_weight && ctry_weight > 0 {
        // Language column containing country names.
        for (v, _) in census {
            if is_ctry(v) {
                if let Some(lang) = sem::language_for_country(v) {
                    if claim(&mut analysis.mapping, v, &sem::title_case(lang)) {
                        misplaced += 1;
                    }
                }
            }
        }
    } else if total_weight > 0 && ctry_weight * 2 > total_weight && lang_weight > 0 {
        // Country column containing language names.
        for (v, _) in census {
            if is_lang(v) {
                if let Some(country) = sem::country_for_language(v) {
                    let rendered = if country.len() <= 3 {
                        country.to_uppercase() // USA, UK
                    } else {
                        sem::title_case(country)
                    };
                    if claim(&mut analysis.mapping, v, &rendered) {
                        misplaced += 1;
                    }
                }
            }
        }
    }
    if misplaced > 0 {
        analysis.issues.push(format!(
            "{misplaced} values belong to a different concept than the column (misplaced)"
        ));
    }

    // 9. Casing/whitespace variants of the same token.
    let groups = sem::case_variant_groups(census);
    let mut case_fixed = 0usize;
    for (canonical, variants) in &groups {
        for variant in variants {
            if claim(&mut analysis.mapping, variant, canonical) {
                case_fixed += 1;
            }
        }
    }
    if case_fixed > 0 {
        analysis.issues.push(format!(
            "{case_fixed} values differ from a more frequent value only by case or spacing"
        ));
    }

    analysis
}

fn answer_string_detect(ctx: &Json) -> String {
    let census = census_from(ctx, "values");
    let analysis = analyze_string_values(&census);
    let unusual = !analysis.mapping.is_empty();
    let column = ctx.get("column").and_then(Json::as_str).unwrap_or("the column");
    let summary = if unusual {
        format!(
            "{} values are unusual because {}",
            analysis.mapping.len(),
            analysis.issues.join("; ")
        )
    } else {
        String::new()
    };
    let reasoning = if unusual {
        format!(
            "The values of {column} contain {} problems: {}. They are unusual.",
            analysis.issues.len(),
            analysis.issues.join("; ")
        )
    } else {
        format!("The values of {column} are consistent representations. They are acceptable.")
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("Unusualness".into(), Json::Bool(unusual)),
        ("Summary".into(), Json::String(summary)),
        ("Confidence".into(), Json::Number(string_confidence(&analysis.issues))),
    ])
}

fn answer_string_clean(ctx: &Json) -> String {
    let census = census_from(ctx, "values");
    let analysis = analyze_string_values(&census);
    let mapping: Vec<(String, String)> = analysis.mapping.into_iter().collect();
    let explanation = if analysis.issues.is_empty() {
        "No problems found in this batch.".to_string()
    } else {
        format!(
            "The problem is: {}. The correct values are the dominant consistent representations.",
            analysis.issues.join("; ")
        )
    };
    emit_cleaning_response_scored(&explanation, Some(string_confidence(&analysis.issues)), &mapping)
}

// ---------------------------------------------------------------------------
// pattern outliers (§2.1.2)

fn answer_pattern_review(ctx: &Json) -> String {
    let buckets = ctx
        .get("buckets")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|b| {
                    let arr = b.as_array()?;
                    let pattern = arr.first()?.as_str()?.to_string();
                    let count = arr.get(1)?.as_f64()? as usize;
                    let examples: Vec<String> = arr
                        .get(2)?
                        .as_array()?
                        .iter()
                        .filter_map(|e| e.as_str().map(str::to_string))
                        .collect();
                    Some((pattern, count, examples))
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();

    // Classify each bucket by the date family of its examples.
    #[derive(PartialEq, Clone, Copy, Debug)]
    enum Family {
        Iso,
        Mdy,
        Long,
        Other,
    }
    let family_of = |examples: &[String]| -> Family {
        let mut fam = None;
        for e in examples {
            let f = match sem::parse_date(e) {
                Some((sem::DateFormat::Iso, _)) => Family::Iso,
                Some((sem::DateFormat::SlashMdy, _)) => Family::Mdy,
                Some((sem::DateFormat::LongMdy, _)) => Family::Long,
                None => Family::Other,
            };
            match fam {
                None => fam = Some(f),
                Some(prev) if prev == f => {}
                _ => return Family::Other,
            }
        }
        fam.unwrap_or(Family::Other)
    };

    let mut patterns: Vec<String> = buckets.iter().map(|(p, _, _)| p.clone()).collect();
    patterns.dedup();

    let mut weights: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut classified: Vec<(Family, usize)> = Vec::new();
    for (_, count, examples) in &buckets {
        let fam = family_of(examples);
        classified.push((fam, *count));
        let key = match fam {
            Family::Iso => "iso",
            Family::Mdy => "mdy",
            Family::Long => "long",
            Family::Other => "other",
        };
        *weights.entry(key).or_insert(0) += count;
    }
    let iso = weights.get("iso").copied().unwrap_or(0);
    let mdy = weights.get("mdy").copied().unwrap_or(0);
    let long = weights.get("long").copied().unwrap_or(0);
    let date_families = [iso, mdy, long].iter().filter(|&&w| w > 0).count();

    let mut transforms: Vec<(String, String)> = Vec::new();
    let mut reasoning =
        "The shapes were reviewed for semantic meaning (dates, codes, free text).".to_string();
    if date_families >= 2 {
        // Standardise toward the dominant family. LongMdy cannot be produced
        // by pure regex, so it is only ever a source.
        let target_iso = iso >= mdy;
        if target_iso {
            transforms.push((r"^(\d{2})/(\d{2})/(\d{4})$".into(), "$3-$1-$2".into()));
            transforms.push((r"^(\d)/(\d{2})/(\d{4})$".into(), "$3-0$1-$2".into()));
            transforms.push((r"^(\d{2})/(\d)/(\d{4})$".into(), "$3-$1-0$2".into()));
            transforms.push((r"^(\d)/(\d)/(\d{4})$".into(), "$3-0$1-0$2".into()));
            reasoning
                .push_str(" Multiple date formats are present; slash dates are rewritten to ISO.");
        } else {
            transforms.push((r"^(\d{4})-(\d{2})-(\d{2})$".into(), "$2/$3/$1".into()));
            reasoning.push_str(
                " Multiple date formats are present; ISO dates are rewritten to the dominant \
                 month/day/year form.",
            );
        }
    }
    let inconsistent = !transforms.is_empty();
    let transforms_json = Json::Array(
        transforms
            .iter()
            .map(|(p, r)| {
                Json::object(vec![
                    ("pattern".to_string(), Json::String(p.clone())),
                    ("replacement".to_string(), Json::String(r.clone())),
                ])
            })
            .collect(),
    );
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("Patterns".into(), Json::Array(patterns.into_iter().map(Json::String).collect())),
        ("Inconsistent".into(), Json::Bool(inconsistent)),
        ("Transforms".into(), transforms_json),
        ("Confidence".into(), Json::Number(0.9)),
    ])
}

// ---------------------------------------------------------------------------
// disguised missing values (§2.1.3)

fn answer_dmv(ctx: &Json) -> String {
    let census = census_from(ctx, "values");
    let numeric_share = ctx.get("numeric_share").and_then(Json::as_f64).unwrap_or(0.0);
    let allow_sentinels = numeric_share >= 0.8;
    let tokens: Vec<String> = census
        .iter()
        .filter(|(v, _)| !v.trim().is_empty() && sem::is_disguised_missing(v, allow_sentinels))
        .map(|(v, _)| v.clone())
        .collect();
    let reasoning = if tokens.is_empty() {
        "No value semantically denotes a missing entry.".to_string()
    } else {
        format!(
            "Values {:?} are placeholders humans use for missing data; they should be NULL.",
            tokens
        )
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("DisguisedMissing".into(), Json::Array(tokens.into_iter().map(Json::String).collect())),
        ("Confidence".into(), Json::Number(0.92)),
    ])
}

// ---------------------------------------------------------------------------
// column type (§2.1.4)

fn answer_column_type(ctx: &Json) -> String {
    let census = census_from(ctx, "values");
    let column = ctx.get("column").and_then(Json::as_str).unwrap_or("");
    let inferred = ctx.get("inferred").and_then(Json::as_str).unwrap_or("VARCHAR");
    let confidence = ctx.get("confidence").and_then(Json::as_f64).unwrap_or(0.0);
    let name = column.to_lowercase();

    let distinct: Vec<&str> = census.iter().map(|(v, _)| v.as_str()).collect();
    let total: usize = census.iter().map(|(_, c)| c).sum();
    // Values that semantically denote numbers: plain numbers, durations
    // ("1 hr. 30 min."), and unit-annotated numbers ("91%", "45 patients").
    let numericish = |v: &str| {
        v.trim().parse::<f64>().is_ok()
            || sem::is_duration(v)
            || leading_number_with_unit(v).is_some()
    };
    let numericish_weight: usize =
        census.iter().filter(|(v, _)| numericish(v)).map(|(_, c)| c).sum();
    let has_units =
        census.iter().any(|(v, _)| sem::is_duration(v) || leading_number_with_unit(v).is_some());

    let (type_name, reasoning, self_report) = if sem::values_look_boolean(&distinct) {
        ("BOOLEAN", "The values are yes/no-style tokens, semantically a boolean.".to_string(), 0.9)
    } else if ["zip", "phone", "ssn", "fax", "issn", "isbn"].iter().any(|k| name.contains(k)) {
        (
            "VARCHAR",
            "Identifier-like values (zip/phone) must keep leading zeros; text is safest."
                .to_string(),
            0.95,
        )
    } else if has_units && total > 0 && numericish_weight * 10 >= total * 8 {
        (
            "DOUBLE",
            "The values denote numbers dressed with units (durations, percents, counts); \
             semantically a numeric column."
                .to_string(),
            0.85,
        )
    } else if confidence >= 0.95 && inferred != "VARCHAR" {
        (
            match inferred {
                "BOOLEAN" => "BOOLEAN",
                "BIGINT" => "BIGINT",
                "DOUBLE" => "DOUBLE",
                "DATE" => "DATE",
                "TIME" => "TIME",
                _ => "VARCHAR",
            },
            format!(
                "{:.0}% of values parse as {inferred}; the statistical type is semantically sensible.",
                confidence * 100.0
            ),
            confidence,
        )
    } else {
        ("VARCHAR", "No richer type fits all values; keep text.".to_string(), 0.8)
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("Type".into(), Json::String(type_name.into())),
        ("Confidence".into(), Json::Number(self_report)),
    ])
}

// ---------------------------------------------------------------------------
// numeric outliers (§2.1.5)

fn answer_numeric_range(ctx: &Json) -> String {
    let column = ctx.get("column").and_then(Json::as_str).unwrap_or("").to_lowercase();
    let q1 = ctx.get("q1").and_then(Json::as_f64).unwrap_or(0.0);
    let q3 = ctx.get("q3").and_then(Json::as_f64).unwrap_or(0.0);
    // Name-keyed world knowledge about plausible ranges. Earlier entries
    // win, so count-like names are matched before the "rating" in
    // "rating_count" can claim a 0–10 range.
    let named: Option<(f64, f64, &str)> = [
        ("count", 0.0, 1e15),
        ("votes", 0.0, 1e15),
        ("id", 0.0, 1e15),
        ("index", 0.0, 1e15),
        ("score", 0.0, 100.0),
        ("rating", 0.0, 10.0),
        ("stars", 0.0, 5.0),
        ("percent", 0.0, 100.0),
        ("pct", 0.0, 100.0),
        ("year", 1850.0, 2035.0),
        ("age", 0.0, 120.0),
        ("duration", 0.0, 900.0),
        ("runtime", 0.0, 900.0),
        ("minutes", 0.0, 900.0),
        ("abv", 0.0, 70.0),
        ("ibu", 0.0, 200.0),
        ("delay", -120.0, 2880.0),
    ]
    .iter()
    .find(|(key, _, _)| column.contains(key))
    .map(|&(key, lo, hi)| (lo, hi, key));
    let (low, high, reasoning, self_report) = match named {
        Some((lo, hi, key)) => (
            Some(lo),
            Some(hi),
            format!("A column about \"{key}\" plausibly lies in [{lo}, {hi}]."),
            0.8,
        ),
        None => {
            // Semantic review of the statistical fences: triple-width Tukey.
            let iqr = (q3 - q1).abs();
            if iqr == 0.0 {
                (None, None, "The distribution is degenerate; no range is enforced.".into(), 0.6)
            } else {
                (
                    Some(q1 - 3.0 * iqr),
                    Some(q3 + 3.0 * iqr),
                    "Without domain cues, only far-out statistical outliers are rejected.".into(),
                    0.7,
                )
            }
        }
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("Low".into(), low.map(Json::Number).unwrap_or(Json::Null)),
        ("High".into(), high.map(Json::Number).unwrap_or(Json::Null)),
        ("Confidence".into(), Json::Number(self_report)),
    ])
}

// ---------------------------------------------------------------------------
// functional dependencies (§2.1.6)

/// Whether `lhs → rhs` is semantically meaningful, judged from column names
/// and geographic knowledge. Mirrors the paper's analysis: per-event
/// measurements (e.g. *actual* departure/arrival times) are not functions of
/// an identifier even when statistics suggest so.
fn fd_semantically_meaningful(lhs: &str, rhs: &str) -> bool {
    let l = lhs.to_lowercase();
    let r = rhs.to_lowercase();
    // Event-level measurements vary per occurrence; treating them as
    // FD-determined is the Flights-benchmark ambiguity the paper analyses.
    const EVENTLIKE: [&str; 4] = ["actual", "observed", "measured", "recorded"];
    if EVENTLIKE.iter().any(|k| r.contains(k)) {
        return false;
    }
    const GEO: [(&str, &str); 6] = [
        ("zip", "city"),
        ("zip", "state"),
        ("zip", "county"),
        ("city", "state"),
        ("city", "county"),
        ("county", "state"),
    ];
    if GEO.iter().any(|(a, b)| l.contains(a) && r.contains(b)) {
        return true;
    }
    const IDLIKE: [&str; 10] = [
        "id",
        "code",
        "number",
        "zip",
        "key",
        "flight",
        "provider",
        "isbn",
        "issn",
        "abbreviation",
    ];
    if IDLIKE.iter().any(|k| l.contains(k)) {
        return true;
    }
    // name ↔ code style pairs (e.g. measure name → measure code) and
    // bibliographic title ↔ abbreviation/ISSN pairs.
    if (l.contains("name") && r.contains("code")) || (l.contains("code") && r.contains("name")) {
        return true;
    }
    if l.contains("title") && (r.contains("abbreviation") || r.contains("issn")) {
        return true;
    }
    false
}

fn answer_fd_review(ctx: &Json) -> String {
    let lhs = ctx.get("lhs").and_then(Json::as_str).unwrap_or("");
    let rhs = ctx.get("rhs").and_then(Json::as_str).unwrap_or("");
    let meaningful = fd_semantically_meaningful(lhs, rhs);
    let reasoning = if meaningful {
        format!("{lhs} identifies an entity whose attribute {rhs} is fixed in the real world.")
    } else {
        format!(
            "{rhs} is not a real-world function of {lhs} (per-event or coincidental); \
             repairing it would guess at inherently variable data."
        )
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("Meaningful".into(), Json::Bool(meaningful)),
        ("Confidence".into(), Json::Number(0.85)),
    ])
}

fn answer_fd_mapping(ctx: &Json) -> String {
    let groups = groups_from(ctx, "groups");
    let mut mapping: Vec<(String, String)> = Vec::new();
    let mut skipped = 0usize;
    for (_, census) in &groups {
        if census.len() < 2 {
            continue;
        }
        // census arrives sorted by descending count.
        let (top_value, top_count) = &census[0];
        let (_, second_count) = &census[1];
        if *top_count == 1 {
            // All-singleton group: no evidence for any correction.
            skipped += 1;
            continue;
        }
        let typo_close = census.iter().skip(1).all(|(v, _)| {
            !sem::typo::differs_only_in_digits(v, top_value)
                && sem::damerau_levenshtein(&v.to_lowercase(), &top_value.to_lowercase())
                    <= sem::typo::typo_threshold(v.chars().count().max(top_value.chars().count()))
        });
        if top_count == second_count && !typo_close {
            // Ambiguous group: no safe correction.
            skipped += 1;
            continue;
        }
        for (v, _) in census.iter().skip(1) {
            mapping.push((v.clone(), top_value.clone()));
        }
    }
    let explanation = format!(
        "The problem is conflicting values within groups that should agree. The correct values \
         are the dominant value of each group. {skipped} ambiguous groups were left unchanged."
    );
    emit_cleaning_response_scored(&explanation, Some(0.85), &mapping)
}

// ---------------------------------------------------------------------------
// numeric conversion (column-type support, Appendix B)

fn answer_numeric_conversion(ctx: &Json) -> String {
    let census = census_from(ctx, "values");
    let mut mapping: Vec<(String, String)> = Vec::new();
    for (v, _) in &census {
        if v.trim().parse::<f64>().is_ok() {
            continue;
        }
        // Durations ("1 hr. 30 min." → 90).
        if let Some(minutes) = sem::parse_duration_minutes(v) {
            let rendered = if minutes.fract() == 0.0 {
                format!("{}", minutes as i64)
            } else {
                format!("{minutes}")
            };
            mapping.push((v.clone(), rendered));
            continue;
        }
        // Number with a trailing unit word ("12 oz" → 12, "45 patients" →
        // 45, "91%" → 91): the number is the content, the unit is dressing.
        if let Some(n) = leading_number_with_unit(v) {
            let rendered = if n.fract() == 0.0 { format!("{}", n as i64) } else { format!("{n}") };
            mapping.push((v.clone(), rendered));
            continue;
        }
        // Currency / thousands separators ("$1,234" → 1234).
        let stripped: String =
            v.chars().filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
        if !stripped.is_empty()
            && stripped.parse::<f64>().is_ok()
            && v.chars().any(|c| c == '$' || c == ',' || c == '%' || c.is_whitespace())
            && v.chars().all(|c| c.is_ascii_digit() || ".,-$%".contains(c) || c.is_whitespace())
        {
            mapping.push((v.clone(), stripped));
            continue;
        }
        // No number recoverable: meaningless for a numeric column.
        mapping.push((v.clone(), String::new()));
    }
    emit_cleaning_response_scored(
        "The problem is values that are not plain numbers. The correct values are the numbers \
         they semantically denote; values without a number become empty.",
        Some(0.85),
        &mapping,
    )
}

/// Parses `"12 oz"` / `"45 patients"` / `"91%"`-style values: a leading
/// number followed by a unit made of letters, `%`, dots or spaces.
fn leading_number_with_unit(v: &str) -> Option<f64> {
    let t = v.trim();
    let digits_end = t.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    if digits_end == 0 {
        return None;
    }
    let (num, unit) = t.split_at(digits_end);
    let unit = unit.trim();
    // A single unit token only: "45 patients" and "91%" qualify, while
    // "123 Main St" (an address) must not look numeric.
    if unit.is_empty()
        || unit.contains(' ')
        || unit.len() > 12
        || !unit.chars().all(|c| c.is_alphabetic() || c == '%' || c == '.')
    {
        return None;
    }
    num.parse().ok()
}

// ---------------------------------------------------------------------------
// duplication (§2.1.7) and uniqueness (§2.1.8)

fn answer_duplication(ctx: &Json) -> String {
    let columns: Vec<String> = ctx
        .get("columns")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(|c| c.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    // Logging-style tables legitimately repeat rows at coarse granularity.
    let loggish = columns.iter().any(|c| {
        let l = c.to_lowercase();
        l.contains("log") || l.contains("event") || l.contains("reading")
    });
    let reasoning = if loggish {
        "The table looks like an event log; identical rows at coarse time granularity are \
         expected."
            .to_string()
    } else {
        "The table models entities, not events; exact duplicate rows are erroneous.".to_string()
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("Acceptable".into(), Json::Bool(loggish)),
        ("Confidence".into(), Json::Number(0.95)),
    ])
}

fn answer_uniqueness(ctx: &Json) -> String {
    let column = ctx.get("column").and_then(Json::as_str).unwrap_or("");
    let ratio = ctx.get("unique_ratio").and_then(Json::as_f64).unwrap_or(0.0);
    let columns: Vec<String> = ctx
        .get("columns")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(|c| c.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    let name = column.to_lowercase();
    let idlike = name == "id"
        || name.ends_with("_id")
        || name.ends_with(" id")
        || name.contains("key")
        || name == "index";
    let should = idlike && ratio >= 0.9;
    let order_by = if should {
        columns
            .iter()
            .find(|c| {
                let l = c.to_lowercase();
                l.contains("updated")
                    || l.contains("modified")
                    || l.contains("timestamp")
                    || l.contains("version")
            })
            .cloned()
    } else {
        None
    };
    let reasoning = if should {
        format!("{column} names an identifier; duplicates should be collapsed to one record.")
    } else {
        format!("{column} is not semantically required to be unique.")
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(reasoning)),
        ("ShouldBeUnique".into(), Json::Bool(should)),
        ("OrderBy".into(), order_by.map(Json::String).unwrap_or(Json::Null)),
        ("Confidence".into(), Json::Number(0.75)),
    ])
}

// ---------------------------------------------------------------------------
// repair verification (cross-variant agreement re-asks)

fn answer_repair_verify(ctx: &Json) -> String {
    let issue = ctx.get("issue").and_then(Json::as_str).unwrap_or("");
    let reasoning = ctx.get("reasoning").and_then(Json::as_str).unwrap_or("");
    let variant = ctx.get("variant").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    // The oracle endorses its own world-knowledge repairs, but the
    // "skeptical reviewer" variant dissents on concept-misplacement guesses
    // — the one heuristic class whose answer is genuinely underdetermined
    // ("India" in a language column could be Hindi, English, …). This keeps
    // cross-variant agreement a real signal: < 1.0 exactly where the
    // self-report is lowest.
    let guessy = reasoning.contains("misplaced") || issue.contains("misplaced");
    let skeptical = variant % 3 == 1;
    let agree = !(guessy && skeptical);
    let (verdict_reasoning, self_report) = if agree {
        (
            "Re-deriving the repair from the evidence reaches the same conclusion.".to_string(),
            if guessy { 0.7 } else { 0.9 },
        )
    } else {
        (
            "The repair maps a token across concepts; several targets are equally plausible."
                .to_string(),
            0.6,
        )
    };
    json_fence(vec![
        ("Reasoning".into(), Json::String(verdict_reasoning)),
        ("Agree".into(), Json::Bool(agree)),
        ("Confidence".into(), Json::Number(self_report)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts;
    use crate::responses::*;

    fn ask(prompt: String) -> String {
        SimLlm::new().complete(&ChatRequest::simple(prompt)).unwrap().content
    }

    #[test]
    fn batch_answers_equal_single_completions_slot_for_slot() {
        let census = vec![("eng".to_string(), 40), ("English".to_string(), 9)];
        let mut requests: Vec<ChatRequest> = (0..12)
            .map(|i| {
                ChatRequest::simple(match i % 3 {
                    0 => prompts::string_outliers_detect(&format!("lang_{i}"), &census),
                    1 => prompts::dmv_detect(&format!("city_{i}"), &census, 0.0),
                    _ => prompts::numeric_range(&format!("rating_{i}"), 0.0, 99.0, 5.0, 8.0),
                })
            })
            .collect();
        // A prompt without a context block fails in its own slot only.
        requests.insert(5, ChatRequest::simple("free-form question"));
        let llm = SimLlm::new();
        let batch = llm.complete_batch(&requests);
        let single: Vec<_> = requests.iter().map(|r| llm.complete(r)).collect();
        assert_eq!(batch, single);
        assert!(batch[5].is_err());
        assert_eq!(batch.iter().filter(|answer| answer.is_ok()).count(), 12);
    }

    #[test]
    fn example1_language_cleaning() {
        // The paper's Example 1: "eng" dominant, full names minority.
        let census = vec![
            ("eng".to_string(), 464),
            ("English".to_string(), 95),
            ("fre".to_string(), 40),
            ("French".to_string(), 8),
            ("ger".to_string(), 30),
            ("German".to_string(), 5),
            ("chi".to_string(), 20),
            ("Chinese".to_string(), 4),
        ];
        let detect = ask(prompts::string_outliers_detect("article_language", &census));
        let verdict = parse_detect_verdict(&detect).unwrap();
        assert!(verdict.unusual);

        let clean =
            ask(prompts::string_outliers_clean("article_language", &verdict.summary, &census));
        let map = parse_cleaning_map(&clean).unwrap();
        let as_map: std::collections::HashMap<_, _> = map.mapping.into_iter().collect();
        assert_eq!(as_map.get("English").map(String::as_str), Some("eng"));
        assert_eq!(as_map.get("French").map(String::as_str), Some("fre"));
        assert_eq!(as_map.get("German").map(String::as_str), Some("ger"));
        assert_eq!(as_map.get("Chinese").map(String::as_str), Some("chi"));
    }

    #[test]
    fn consistent_column_is_acceptable() {
        let census = vec![("eng".to_string(), 40), ("fre".to_string(), 10)];
        let detect = ask(prompts::string_outliers_detect("lang", &census));
        let verdict = parse_detect_verdict(&detect).unwrap();
        assert!(!verdict.unusual);
    }

    #[test]
    fn typo_and_stutter_fixes() {
        let census =
            vec![("coffee".to_string(), 50), ("cofffee".to_string(), 1), ("tea".to_string(), 30)];
        let clean = ask(prompts::string_outliers_clean("drink", "typos", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        assert_eq!(map.mapping, vec![("cofffee".to_string(), "coffee".to_string())]);
    }

    #[test]
    fn beers_ounce_normalisation() {
        let census = vec![
            ("12 oz".to_string(), 100),
            ("12 ounce".to_string(), 7),
            ("16 oz".to_string(), 30),
        ];
        let clean = ask(prompts::string_outliers_clean("volume", "units", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        assert_eq!(map.mapping, vec![("12 ounce".to_string(), "12 oz".to_string())]);
    }

    #[test]
    fn movies_duration_normalisation() {
        let census = vec![
            ("100 min".to_string(), 80),
            ("1 hr. 30 min.".to_string(), 3),
            ("90 min".to_string(), 40),
        ];
        let clean = ask(prompts::string_outliers_clean("duration", "durations", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        assert_eq!(map.mapping, vec![("1 hr. 30 min.".to_string(), "90 min".to_string())]);
    }

    #[test]
    fn date_trailing_junk_fixed() {
        let census = vec![("1/1/2000".to_string(), 10), ("1/1/2000x".to_string(), 1)];
        let clean = ask(prompts::string_outliers_clean("date", "junk", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        assert_eq!(map.mapping, vec![("1/1/2000x".to_string(), "1/1/2000".to_string())]);
    }

    #[test]
    fn pattern_review_standardises_dates() {
        let buckets = vec![
            (r"\d{2}/\d{2}/\d{4}".to_string(), 90, vec!["01/02/2003".to_string()]),
            (r"\d{4}-\d{2}-\d{2}".to_string(), 10, vec!["2003-01-02".to_string()]),
        ];
        let resp = ask(prompts::pattern_review("date", &buckets));
        let plan = parse_pattern_plan(&resp).unwrap();
        assert!(plan.inconsistent);
        assert_eq!(plan.transforms.len(), 1);
        assert_eq!(plan.transforms[0].1, "$2/$3/$1"); // ISO → dominant MDY
    }

    #[test]
    fn pattern_review_accepts_consistent() {
        let buckets =
            vec![(r"[a-z]+".to_string(), 100, vec!["abc".to_string(), "def".to_string()])];
        let resp = ask(prompts::pattern_review("word", &buckets));
        let plan = parse_pattern_plan(&resp).unwrap();
        assert!(!plan.inconsistent);
        assert!(plan.transforms.is_empty());
    }

    #[test]
    fn dmv_detection_with_sentinels() {
        let census = vec![("42".to_string(), 50), ("N/A".to_string(), 3), ("9999".to_string(), 2)];
        let resp = ask(prompts::dmv_detect("score", &census, 0.95));
        let verdict = parse_dmv_verdict(&resp).unwrap();
        assert!(verdict.tokens.contains(&"N/A".to_string()));
        assert!(verdict.tokens.contains(&"9999".to_string()));
        // Without numeric context, sentinels stay.
        let resp = ask(prompts::dmv_detect("name", &census, 0.1));
        let verdict = parse_dmv_verdict(&resp).unwrap();
        assert!(!verdict.tokens.contains(&"9999".to_string()));
    }

    #[test]
    fn emergency_service_becomes_boolean() {
        let census = vec![("yes".to_string(), 700), ("no".to_string(), 300)];
        let resp =
            ask(prompts::column_type("EmergencyService", "VARCHAR", "BOOLEAN", 1.0, &census));
        let verdict = parse_type_verdict(&resp).unwrap();
        assert_eq!(verdict.type_name, "BOOLEAN");
    }

    #[test]
    fn zip_stays_varchar() {
        let census = vec![("35233".to_string(), 10), ("02139".to_string(), 5)];
        let resp = ask(prompts::column_type("zip_code", "VARCHAR", "BIGINT", 1.0, &census));
        assert_eq!(parse_type_verdict(&resp).unwrap().type_name, "VARCHAR");
    }

    #[test]
    fn duration_column_becomes_double() {
        let census = vec![("100 min".to_string(), 60), ("90 min".to_string(), 40)];
        let resp = ask(prompts::column_type("duration", "VARCHAR", "VARCHAR", 0.0, &census));
        assert_eq!(parse_type_verdict(&resp).unwrap().type_name, "DOUBLE");
    }

    #[test]
    fn numeric_range_uses_name_knowledge() {
        let resp = ask(prompts::numeric_range("imdb_rating", 0.0, 99.0, 5.0, 8.0));
        let verdict = parse_range_verdict(&resp).unwrap();
        assert_eq!(verdict.high, Some(10.0));
        let resp = ask(prompts::numeric_range("mystery", 0.0, 99.0, 5.0, 8.0));
        let verdict = parse_range_verdict(&resp).unwrap();
        assert!(verdict.high.unwrap() > 8.0);
    }

    #[test]
    fn fd_review_rejects_actual_times() {
        // The Flights ambiguity: flight → actual arrival is NOT meaningful.
        assert!(!fd_semantically_meaningful("flight", "actual_arrival_time"));
        assert!(fd_semantically_meaningful("flight", "scheduled_arrival_time"));
        assert!(fd_semantically_meaningful("zip", "city"));
        assert!(!fd_semantically_meaningful("title", "director"));
        let resp = ask(prompts::fd_review("flight", "actual_dept_time", 0.97, 12, &[]));
        assert!(!parse_fd_verdict(&resp).unwrap().meaningful);
    }

    #[test]
    fn fd_mapping_majority_votes_and_skips_ambiguous() {
        let groups = vec![
            ("z1".to_string(), vec![("Austin".to_string(), 4), ("Autsin".to_string(), 1)]),
            ("z2".to_string(), vec![("Dallas".to_string(), 2), ("Houston".to_string(), 2)]),
        ];
        let resp = ask(prompts::fd_mapping("zip", "city", &groups));
        let map = parse_cleaning_map(&resp).unwrap();
        assert_eq!(map.mapping, vec![("Autsin".to_string(), "Austin".to_string())]);
    }

    #[test]
    fn duplication_verdicts() {
        let resp = ask(prompts::duplication_review(5, 100, &["id".into(), "name".into()]));
        assert!(!parse_dup_verdict(&resp).unwrap().acceptable);
        let resp =
            ask(prompts::duplication_review(5, 100, &["event_time".into(), "reading".into()]));
        assert!(parse_dup_verdict(&resp).unwrap().acceptable);
    }

    #[test]
    fn uniqueness_verdicts() {
        let resp = ask(prompts::uniqueness_review(
            "record_id",
            0.999,
            &["record_id".into(), "updated_at".into()],
        ));
        let v = parse_unique_verdict(&resp).unwrap();
        assert!(v.should_be_unique);
        assert_eq!(v.order_by.as_deref(), Some("updated_at"));
        let resp = ask(prompts::uniqueness_review("city", 0.99, &["city".into()]));
        assert!(!parse_unique_verdict(&resp).unwrap().should_be_unique);
    }

    #[test]
    fn movies_misplacement_repair() {
        // country column dominated by countries; "Hindi" is misplaced.
        let census = vec![
            ("USA".to_string(), 500),
            ("India".to_string(), 80),
            ("France".to_string(), 40),
            ("Hindi".to_string(), 6),
        ];
        let clean = ask(prompts::string_outliers_clean("country", "misplaced", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        let as_map: std::collections::HashMap<_, _> = map.mapping.into_iter().collect();
        assert_eq!(as_map.get("Hindi").map(String::as_str), Some("India"));

        // language column dominated by languages; "Japan" is misplaced.
        let census =
            vec![("English".to_string(), 500), ("Hindi".to_string(), 80), ("Japan".to_string(), 5)];
        let clean = ask(prompts::string_outliers_clean("language", "misplaced", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        let as_map: std::collections::HashMap<_, _> = map.mapping.into_iter().collect();
        assert_eq!(as_map.get("Japan").map(String::as_str), Some("Japanese"));
        // "English" must never be remapped (ambiguous country).
        assert!(!as_map.contains_key("English"));
    }

    #[test]
    fn numeric_conversion_handles_durations_and_currency() {
        let census = vec![
            ("1 hr. 30 min.".to_string(), 2),
            ("90".to_string(), 10),
            ("$1,234".to_string(), 1),
            ("no number".to_string(), 1),
        ];
        let resp = ask(prompts::numeric_conversion("duration", &census));
        let map = parse_cleaning_map(&resp).unwrap();
        let as_map: std::collections::HashMap<_, _> = map.mapping.into_iter().collect();
        assert_eq!(as_map.get("1 hr. 30 min.").map(String::as_str), Some("90"));
        assert_eq!(as_map.get("$1,234").map(String::as_str), Some("1234"));
        assert_eq!(as_map.get("no number").map(String::as_str), Some(""));
        assert!(!as_map.contains_key("90"));
    }

    #[test]
    fn oracle_self_reports_confidence() {
        // Misplaced-concept repairs are the designated low-confidence class.
        let census =
            vec![("USA".to_string(), 500), ("India".to_string(), 80), ("Hindi".to_string(), 6)];
        let clean = ask(prompts::string_outliers_clean("country", "misplaced", &census));
        let map = parse_cleaning_map(&clean).unwrap();
        assert_eq!(map.confidence, Some(0.65));

        // Typo repairs self-report high.
        let census =
            vec![("coffee".to_string(), 50), ("cofffee".to_string(), 1), ("tea".to_string(), 30)];
        let clean = ask(prompts::string_outliers_clean("drink", "typos", &census));
        assert_eq!(parse_cleaning_map(&clean).unwrap().confidence, Some(0.95));

        // JSON verdicts carry one too.
        let detect = ask(prompts::string_outliers_detect("drink", &census));
        assert_eq!(parse_detect_verdict(&detect).unwrap().confidence, Some(0.95));
    }

    #[test]
    fn repair_verify_variants_agree_except_skeptic_on_guesses() {
        let verdict = |reasoning: &str, variant: usize| {
            let resp = ask(prompts::repair_verify(
                "String Outliers",
                Some("country"),
                "1 rare value",
                reasoning,
                "SELECT ...",
                variant,
            ));
            parse_repair_verdict(&resp).unwrap()
        };
        // World-knowledge repairs: all three variants endorse.
        for v in 0..3 {
            assert!(verdict("values look like typos", v).agree, "variant {v}");
        }
        // Misplacement guesses: the skeptical reviewer (variant 1) dissents.
        assert!(verdict("values are misplaced across concepts", 0).agree);
        assert!(!verdict("values are misplaced across concepts", 1).agree);
        assert!(verdict("values are misplaced across concepts", 2).agree);
    }

    #[test]
    fn unknown_prompt_fails_cleanly() {
        let err = SimLlm::new().complete(&ChatRequest::simple("hello")).unwrap_err();
        assert!(matches!(err, LlmError::Malformed { .. }));
    }
}
