//! The experiment implementations behind the harness binaries.
//!
//! Each public function regenerates one table or figure of the paper's
//! evaluation section and prints it in a paper-comparable layout. The
//! `experiments` binary runs one by name, or all of them in-process.

mod ablations;
mod functionality;
mod robustness;
mod security;
mod tables;

pub use ablations::{ablation_agents, ablation_filter, ablation_modes, ablation_optimizer, active_learning};
pub use functionality::{fig6_energy, fig7_cost, fig8_temp, fig9_benefit};
pub use robustness::robustness;
pub use security::{fig5_roc, security_detection};
pub use tables::{table1, table2, table3};
