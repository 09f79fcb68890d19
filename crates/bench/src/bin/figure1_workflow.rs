//! Regenerates Figure 1: the two-dimensional decomposition of the cleaning
//! workflow — issue types (a) × statistical/semantic steps (b) — as an
//! execution trace over a real benchmark table.

use cocoon_core::{workflow_trace, Cleaner};
use cocoon_llm::{SimLlm, Transcript};

fn main() {
    let dataset = cocoon_datasets::by_name("Rayyan").expect("dataset");
    let cleaner = Cleaner::new(Transcript::new(SimLlm::new()));
    let run = cleaner.clean(&dataset.dirty).expect("pipeline");
    println!("{}", workflow_trace(&run));
    let llm = cleaner.llm();
    println!(
        "pipeline made {} model round trips carrying {} prompts ({} prompt tokens, {} completion \
         tokens)",
        llm.round_trips(),
        llm.exchange_count(),
        llm.total_usage().prompt_tokens,
        llm.total_usage().completion_tokens,
    );
}
