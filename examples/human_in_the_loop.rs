//! The human-in-the-loop mode of §2.2 / Appendix A: a reviewer sees every
//! detection and then every cleaning proposal (with the LLM's reasoning,
//! the mapping and the SQL that would apply it) and can approve, reject,
//! or adjust it.
//!
//! ```sh
//! cargo run --release --example human_in_the_loop
//! ```

use cocoon_core::{Cleaner, CleaningReview, Decision, DecisionHook, DetectionReview, IssueKind};
use cocoon_llm::SimLlm;
use cocoon_table::csv;

/// A console "human": prints what the UI of Figure 4 would show and applies
/// a policy — approve everything except numeric-outlier nulling, and
/// override one language mapping. Keeps the SQL of every cast it reviewed.
struct ConsoleReviewer {
    reviews_seen: usize,
    casts: Vec<String>,
}

impl DecisionHook for ConsoleReviewer {
    fn review_detection(&mut self, review: &DetectionReview<'_>) -> Decision {
        self.reviews_seen += 1;
        println!(
            "[detection] {} on {:?}\n    statistics: {}\n    reasoning : {}",
            review.issue,
            review.column.unwrap_or("<table>"),
            review.statistical_evidence,
            review.llm_reasoning
        );
        if review.issue == IssueKind::NumericOutliers {
            println!("    -> human says: leave outliers alone in this run");
            return Decision::Reject;
        }
        println!("    -> approved");
        Decision::Approve
    }

    fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
        self.reviews_seen += 1;
        println!(
            "[cleaning ] {} on {:?} proposes {} value mappings",
            review.issue,
            review.column.unwrap_or("<table>"),
            review.mapping.len()
        );
        for (old, new) in review.mapping.iter().take(5) {
            println!("    {old:?} -> {new:?}");
        }
        // The review carries the statement; its text is rendered on demand.
        let sql = review.sql_preview();
        println!("    sql:");
        for line in sql.lines() {
            println!("      {line}");
        }
        if review.issue == IssueKind::ColumnType {
            self.casts.push(sql);
        }
        if review.issue == IssueKind::StringOutliers
            && review.mapping.iter().any(|(old, _)| old == "English")
        {
            println!("    -> human adjusts: use 'en' instead of 'eng'");
            let adjusted = review
                .mapping
                .iter()
                .map(|(old, new)| {
                    if old == "English" {
                        (old.clone(), "en".to_string())
                    } else {
                        (old.clone(), new.clone())
                    }
                })
                .collect();
            return Decision::AdjustMapping(adjusted);
        }
        println!("    -> approved");
        Decision::Approve
    }
}

fn main() {
    let dirty_csv = "\
id,language,rating
a1,eng,7.5
a2,eng,8.0
a3,English,99.0
a4,eng,6.5
a5,fre,7.0
a6,eng,7.2
";
    let dirty = csv::read_str(dirty_csv).expect("valid CSV");
    let cleaner = Cleaner::new(SimLlm::new());
    let mut reviewer = ConsoleReviewer { reviews_seen: 0, casts: Vec::new() };
    let run = cleaner.clean_observed(&dirty, &mut reviewer, None).expect("pipeline");

    println!("\n{} reviews were presented to the human.", reviewer.reviews_seen);
    println!("\ncleaned table:\n{}", run.table);
    println!("notes:");
    for note in &run.notes {
        println!("  - {note}");
    }
    // The adjusted mapping took effect; the rejected outlier repair did not.
    assert_eq!(run.table.render_cell(2, 1).unwrap(), "en");
    assert_eq!(run.table.render_cell(2, 2).unwrap(), "99.0");
    // The `rating` cast was reviewed as the TRY_CAST that applied.
    let cast = run
        .ops
        .iter()
        .find(|op| op.issue == IssueKind::ColumnType && op.column.as_deref() == Some("rating"))
        .expect("rating cast");
    let sql = cocoon_sql::render_select(&cast.sql);
    assert!(sql.contains("TRY_CAST(rating AS"), "{sql}");
    assert!(reviewer.casts.contains(&sql), "the rating cast was reviewed as its SQL");
}
