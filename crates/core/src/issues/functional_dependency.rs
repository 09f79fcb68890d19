//! §2.1.6 Functional Dependencies.
//!
//! Following Baran, only single-attribute FDs are considered. Statistical
//! detection ranks column pairs by conditional entropy; the LLM reviews
//! whether a statistically strong FD is *semantically* meaningful (the
//! Flights `flight → actual time` FD is the canonical rejection); for
//! meaningful FDs the LLM maps each violating group's wrong values to the
//! correct one, compiled to a group-scoped `CASE WHEN`.
//!
//! Detect phase (concurrent, per candidate pair): violating groups on the
//! stage-entry snapshot → semantic FD review. Decide phase (sequential):
//! because FD repairs can interact (one repair may fix — or create —
//! another candidate's violations), groups are taken from the snapshot only
//! while no repair has been applied yet; after the first applied repair
//! each remaining candidate reads its groups from the live table,
//! exactly as the sequential pipeline always did. One [`FdScan`] serves
//! both phases: each applied repair re-codes the column it rewrote, so the
//! scan always describes the live table.

use crate::apply::{apply_and_count, column_rewrite_select};
use crate::decision::{CleaningReview, Decision, DetectionReview};
use crate::ops::{CleaningOp, Confidence, IssueKind};
use crate::state::{DetectCtx, Outcome, PipelineState};
use cocoon_llm::{parse_cleaning_map, parse_fd_verdict, prompts, FdVerdict};
use cocoon_profile::{FdCandidate, FdScan};
use cocoon_sql::{render_select, Expr};
use cocoon_table::Value;

/// One violating group: `(lhs value, rhs census)`, census by descending count.
type Group = (Value, Vec<(Value, usize)>);

/// Rendered violating groups: `(lhs value, rhs census)` as prompt text.
type GroupsText = Vec<(String, Vec<(String, usize)>)>;

struct Finding {
    lhs: usize,
    rhs: usize,
    lhs_name: String,
    rhs_name: String,
    strength: f64,
    /// Semantic review prefetched on the snapshot. `None` when the snapshot
    /// had no violating groups, so no review was spent; the decide phase
    /// asks lazily in the rare case an earlier repair has since created
    /// violations.
    verdict: Option<FdVerdict>,
    /// Violating-group count on the snapshot.
    groups_len: usize,
    /// Snapshot groups, fully rendered — only for meaningful verdicts (the
    /// mapping step needs them); rejected candidates never pay the render.
    groups: Option<GroupsText>,
}

fn degraded(err: &crate::error::CoreError) -> String {
    format!("FD repair degraded to statistical-only: {err}")
}

/// Runs FD review and repair over the whole table.
pub fn run(state: &mut PipelineState<'_>) {
    // One scan encodes every column once; candidate scoring, each
    // detection worker's group extraction and the decide phase's live
    // groups all reuse it. It owns its codings, so it outlives the detect
    // phase's borrow of `state.table`.
    let mut scan = FdScan::new(&state.table);
    let candidates =
        scan.candidates(state.config.fd_min_strength, state.config.fd_max_unique_ratio);
    let outcomes =
        state.detect_map(candidates, |ctx, candidate| detect_candidate(ctx, &scan, candidate));
    // Becomes true once a repair lands; later candidates then read their
    // groups from the (re-coded) scan instead of the snapshot.
    let mut table_changed = false;
    for outcome in outcomes {
        match outcome {
            Outcome::Clean => {}
            Outcome::Note(note) => state.note(note),
            Outcome::Finding(finding) => match decide(state, &mut scan, &finding, table_changed) {
                Ok(applied) => table_changed |= applied,
                Err(err) => state.note(degraded(&err)),
            },
        }
    }
}

fn render_group((lhs, census): &Group) -> (String, Vec<(String, usize)>) {
    (lhs.render(), census.iter().map(|(v, c)| (v.render(), *c)).collect())
}

/// Asks the semantic FD review, which shows the model the first five
/// groups; only those are rendered.
fn ask_review(
    ask: impl FnOnce(String) -> crate::error::Result<String>,
    lhs_name: &str,
    rhs_name: &str,
    strength: f64,
    groups: &[Group],
) -> crate::error::Result<FdVerdict> {
    let head: GroupsText = groups.iter().take(5).map(render_group).collect();
    let response = ask(prompts::fd_review(lhs_name, rhs_name, strength, groups.len(), &head))?;
    Ok(parse_fd_verdict(&response)?)
}

fn detect_candidate(
    ctx: &DetectCtx<'_>,
    scan: &FdScan,
    candidate: FdCandidate,
) -> Outcome<Finding> {
    match detect_inner(ctx, scan, &candidate) {
        Ok(outcome) => outcome,
        Err(err) => Outcome::Note(degraded(&err)),
    }
}

fn detect_inner(
    ctx: &DetectCtx<'_>,
    scan: &FdScan,
    candidate: &FdCandidate,
) -> crate::error::Result<Outcome<Finding>> {
    let lhs_name = ctx.table.schema().field(candidate.lhs)?.name().to_string();
    let rhs_name = ctx.table.schema().field(candidate.rhs)?.name().to_string();
    let groups = scan.violating_groups(candidate.lhs, candidate.rhs);
    // No violations on the snapshot: no review to spend. The finding still
    // reaches the decide phase, which re-checks against the live table.
    let (verdict, rendered) = if groups.is_empty() {
        (None, None)
    } else {
        let verdict = ask_review(
            |prompt| ctx.ask(prompt),
            &lhs_name,
            &rhs_name,
            candidate.strength,
            &groups,
        )?;
        // The mapping step consumes the full rendered groups; only
        // meaningful verdicts get there, so only they pay the render.
        let rendered = verdict.meaningful.then(|| groups.iter().map(render_group).collect());
        (Some(verdict), rendered)
    };
    Ok(Outcome::Finding(Finding {
        lhs: candidate.lhs,
        rhs: candidate.rhs,
        lhs_name,
        rhs_name,
        strength: candidate.strength,
        verdict,
        groups_len: groups.len(),
        groups: rendered,
    }))
}

/// Reviews and (when approved) repairs one candidate. Returns whether a
/// repair was applied to the table; an applied repair re-codes its column
/// in `scan`, keeping the scan live for the candidates after it.
fn decide(
    state: &mut PipelineState<'_>,
    scan: &mut FdScan,
    finding: &Finding,
    table_changed: bool,
) -> crate::error::Result<bool> {
    let (lhs_name, rhs_name) = (finding.lhs_name.as_str(), finding.rhs_name.as_str());
    // Snapshot groups stay valid until the first applied repair; after one,
    // read the live groups off the scan and render only what the next
    // prompt needs.
    let (groups_text, groups_len, verdict) = if table_changed {
        let groups = scan.violating_groups(finding.lhs, finding.rhs);
        if groups.is_empty() {
            return Ok(false);
        }
        let verdict = match &finding.verdict {
            Some(verdict) => verdict.clone(),
            // An earlier repair created violations the snapshot didn't
            // have; ask for the semantic review now, on live groups.
            None => ask_review(
                |prompt| state.ask(prompt),
                lhs_name,
                rhs_name,
                finding.strength,
                &groups,
            )?,
        };
        let groups_text = if verdict.meaningful {
            groups.iter().map(render_group).collect()
        } else {
            GroupsText::new()
        };
        (groups_text, groups.len(), verdict)
    } else {
        if finding.groups_len == 0 {
            return Ok(false);
        }
        let verdict = finding.verdict.clone().expect("non-empty snapshot groups were reviewed");
        // Rejected candidates never need the full render.
        let groups_text = if verdict.meaningful {
            finding.groups.clone().expect("meaningful finding carries rendered groups")
        } else {
            GroupsText::new()
        };
        (groups_text, finding.groups_len, verdict)
    };
    let FdVerdict { meaningful, reasoning, confidence: review_confidence } = verdict;
    let evidence =
        format!("entropy strength {:.3}; {} violating groups", finding.strength, groups_len);
    if !meaningful {
        state.note(format!(
            "FD {lhs_name} → {rhs_name} rejected as not semantically meaningful: {reasoning}"
        ));
        return Ok(false);
    }
    let detection = DetectionReview {
        issue: IssueKind::FunctionalDependency,
        column: Some(rhs_name),
        statistical_evidence: &evidence,
        llm_reasoning: &reasoning,
    };
    if state.hook.review_detection(&detection) == Decision::Reject {
        state.note(format!("FD {lhs_name} → {rhs_name} rejected by reviewer"));
        return Ok(false);
    }

    // Semantic cleaning: the LLM provides the correct mapping per group.
    let response = state.ask(prompts::fd_mapping(lhs_name, rhs_name, &groups_text))?;
    let map = parse_cleaning_map(&response)?;
    if map.mapping.is_empty() {
        return Ok(false);
    }

    // Compile group-scoped CASE arms: a pair (old → new) applies only inside
    // groups that contain `old` and whose plurality value is `new`. Literals
    // are parsed back into the column's declared type so repairs keep
    // working after a CAST step retyped the column.
    let lhs_type = state.table.schema().field(finding.lhs)?.data_type();
    let rhs_type = state.table.schema().field(finding.rhs)?.data_type();
    let typed = |raw: &str, ty: cocoon_table::DataType| -> Value {
        let text = Value::Text(raw.to_string());
        text.cast(ty).unwrap_or(text)
    };
    let mut arms: Vec<(Value, Value, Value)> = Vec::new();
    let mut pairs_for_review: Vec<(String, String)> = Vec::new();
    for (lhs_value, census) in &groups_text {
        let Some((top_value, _)) = census.first() else { continue };
        for (old, new) in &map.mapping {
            if new != top_value || old == new {
                continue;
            }
            if !census.iter().any(|(v, _)| v == old) {
                continue;
            }
            arms.push((typed(lhs_value, lhs_type), typed(old, rhs_type), typed(new, rhs_type)));
            pairs_for_review.push((old.clone(), new.clone()));
        }
    }
    if arms.is_empty() {
        return Ok(false);
    }
    let expr = Expr::pair_map(lhs_name, rhs_name, &arms);
    let select = column_rewrite_select(&state.table, rhs_name, expr);
    let preview = render_select(&select);
    let review = CleaningReview {
        issue: IssueKind::FunctionalDependency,
        column: Some(rhs_name),
        llm_explanation: &map.explanation,
        mapping: &pairs_for_review,
        sql_preview: &preview,
    };
    if state.hook.review_cleaning(&review) == Decision::Reject {
        state.note(format!("FD repair {lhs_name} → {rhs_name} rejected by reviewer"));
        return Ok(false);
    }
    let (table, changed) = apply_and_count(&select, &state.table)?;
    if changed == 0 {
        return Ok(false);
    }
    let confidence = match (review_confidence, map.confidence) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let applied = state.commit_op(
        table,
        CleaningOp {
            issue: IssueKind::FunctionalDependency,
            column: Some(rhs_name.to_string()),
            statistical_evidence: format!("{lhs_name} → {rhs_name}: {evidence}"),
            llm_reasoning: format!("{reasoning} {}", map.explanation),
            sql: select,
            cells_changed: changed,
            confidence: Confidence::self_reported(confidence),
        },
    );
    if applied {
        scan.recode(&state.table, finding.rhs);
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;
    use cocoon_table::Table;

    fn hospital_like() -> Table {
        // zip → city holds across 10 zip groups except one typo and one
        // misplaced county value.
        let cities = [
            "birmingham",
            "dothan",
            "mobile",
            "huntsville",
            "montgomery",
            "tuscaloosa",
            "phoenix",
            "tucson",
            "austin",
            "dallas",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, city) in cities.iter().enumerate() {
            let zip = format!("35{:03}", i);
            for _ in 0..8 {
                rows.push(vec![zip.clone(), (*city).into()]);
            }
        }
        rows[1][1] = "birminghxm".into(); // typo in the birmingham group
        rows[9][1] = "jefferson".into(); // misplaced county in the dothan group
        Table::from_text_rows(&["zip_code", "city"], &rows).unwrap()
    }

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>, Vec<String>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops, state.notes)
    }

    #[test]
    fn zip_city_fd_repaired_by_majority() {
        let (cleaned, ops, _) = run_on(hospital_like());
        assert!(!ops.is_empty());
        let city = cleaned.column_by_name("city").unwrap();
        assert!(!city
            .values()
            .iter()
            .any(|v| { matches!(v.as_text(), Some("birminghxm") | Some("jefferson")) }));
        assert_eq!(cleaned.render_cell(1, 1).unwrap(), "birmingham");
        assert_eq!(cleaned.render_cell(9, 1).unwrap(), "dothan");
        let op = &ops[0];
        assert_eq!(op.issue, IssueKind::FunctionalDependency);
        assert_eq!(op.cells_changed, 2);
        assert!(op.rendered_sql().contains("zip_code ="));
    }

    /// title → journal_abbreviation → region over 10 journals × 8 rows.
    /// Row 1 carries an abbreviation typo and a wrong region; the region
    /// conflicts with its journal's only once the typo is repaired. With
    /// `region_typo`, row 9 adds a region conflict the snapshot already has.
    fn journals(region_typo: bool) -> Table {
        let regions = [
            "europe", "europe", "europe", "europe", "asia", "asia", "asia", "america", "america",
            "america",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (j, region) in regions.iter().enumerate() {
            for _ in 0..8 {
                rows.push(vec![format!("journal {j}"), format!("J{j}"), (*region).into()]);
            }
        }
        rows[1][1] = "J0x".into();
        rows[1][2] = "asia".into();
        if region_typo {
            rows[9][2] = "europx".into();
        }
        Table::from_text_rows(&["title", "journal_abbreviation", "region"], &rows).unwrap()
    }

    #[test]
    fn earlier_repair_changes_later_candidates_groups() {
        // The stronger title → journal_abbreviation FD repairs row 1's typo
        // first. journal_abbreviation → region must then read its groups
        // from the live table, where row 1's region conflicts inside J0.
        let (cleaned, ops, _) = run_on(journals(true));
        assert_eq!(cleaned.render_cell(1, 1).unwrap(), "J0");
        assert_eq!(cleaned.render_cell(1, 2).unwrap(), "europe");
        assert_eq!(cleaned.render_cell(9, 2).unwrap(), "europe");
        let columns: Vec<&str> = ops.iter().filter_map(|op| op.column.as_deref()).collect();
        assert_eq!(columns, ["journal_abbreviation", "region"]);
        assert!(ops[1].statistical_evidence.ends_with("; 2 violating groups"));
    }

    #[test]
    fn lazily_asked_review_reads_live_groups() {
        // Without the region typo, journal_abbreviation → region has no
        // violation on the snapshot, so detection spends no review on it.
        // Such a candidate has strength 1 and ranks first in `run`; decide
        // it after the typo repair here, which makes decide ask the review
        // on the live groups.
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(journals(false), &llm, &config, &mut hook);
        let mut scan = FdScan::new(&state.table);
        let candidates = scan.candidates(config.fd_min_strength, config.fd_max_unique_ratio);
        let findings: Vec<Finding> = state
            .detect_map(candidates, |ctx, candidate| detect_candidate(ctx, &scan, candidate))
            .into_iter()
            .filter_map(|outcome| match outcome {
                Outcome::Finding(finding) => Some(finding),
                _ => None,
            })
            .collect();
        let find = |lhs: &str, rhs: &str| {
            findings.iter().find(|f| f.lhs_name == lhs && f.rhs_name == rhs).expect("candidate")
        };
        let (typo_fd, region_fd) =
            (find("title", "journal_abbreviation"), find("journal_abbreviation", "region"));
        assert!(region_fd.verdict.is_none());
        assert!(decide(&mut state, &mut scan, typo_fd, false).unwrap());
        assert!(decide(&mut state, &mut scan, region_fd, true).unwrap());
        assert_eq!(state.table.render_cell(1, 2).unwrap(), "europe");
        assert!(state.ops[1].statistical_evidence.ends_with("; 1 violating groups"));
    }

    #[test]
    fn actual_time_fd_rejected() {
        // flight → actual_arrival is statistically strong but semantically
        // rejected (the paper's Flights analysis).
        let mut rows: Vec<Vec<String>> = Vec::new();
        // 20 flights, each with a consistent time except two flights whose
        // actual arrival varies by a minute — statistically a strong FD.
        for f in 0..20 {
            let time = format!("{}:{:02} p.m.", (f % 11) + 1, f * 2);
            for _ in 0..6 {
                rows.push(vec![format!("AA-{f}"), time.clone()]);
            }
        }
        rows[1][1] = "10:31 p.m.".into();
        rows[7][1] = "10:39 p.m.".into();
        let table = Table::from_text_rows(&["flight", "actual_arrival_time"], &rows).unwrap();
        let (cleaned, ops, notes) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
        assert!(notes.iter().any(|n| n.contains("rejected as not semantically meaningful")));
    }

    #[test]
    fn consistent_fd_no_op() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "a".into()],
            vec!["1".into(), "a".into()],
            vec!["2".into(), "b".into()],
            vec!["2".into(), "b".into()],
        ];
        let table = Table::from_text_rows(&["code", "name"], &rows).unwrap();
        let (_, ops, _) = run_on(table);
        assert!(ops.is_empty());
    }

    #[test]
    fn ambiguous_group_left_alone() {
        // Two rhs values with equal support and no typo relation: the
        // mapping skips the group.
        let rows: Vec<Vec<String>> = vec![
            vec!["z1".into(), "alpha".into()],
            vec!["z1".into(), "omega".into()],
            vec!["z1".into(), "alpha".into()],
            vec!["z1".into(), "omega".into()],
            vec!["z2".into(), "beta".into()],
            vec!["z2".into(), "beta".into()],
        ];
        let table = Table::from_text_rows(&["zone_code", "name"], &rows).unwrap();
        let (cleaned, ops, _) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
    }
}
