//! # cocoon-baselines
//!
//! Runnable re-implementations of the four comparison systems of Table 1
//! (§3.1): [`holoclean`] (denial-constraint repair with its memory-cap
//! sampling), [`raha`] + [`baran`] (ensemble detection piped into learned
//! correction, combined as [`raha_baran::RahaBaran`]), [`cleanagent`]
//! (category standardisation) and [`retclean`] (lake retrieval + aggressive
//! typo fixing). Each keeps the algorithmic property the paper's analysis
//! hinges on; see the module docs, and the README's opening section for
//! why the whole workspace runs on synthetic data and a simulated model.

pub mod baran;
pub mod cleanagent;
pub mod common;
pub mod holoclean;
pub mod raha;
pub mod raha_baran;
pub mod retclean;

pub use cleanagent::CleanAgent;
pub use common::{sample_labeled_cells, BenchmarkContext, CleaningSystem, LabeledCell};
pub use holoclean::HoloClean;
pub use raha_baran::RahaBaran;
pub use retclean::RetClean;
