//! Regenerate the tables and figures of the evaluation:
//!
//! ```text
//! cargo run --release -p jarvis-bench --bin experiments -- [NAME]
//!     [--quick | --full] [--seed N] [--days N] [--episodes N]
//! ```
//!
//! With a NAME (see [`EXPERIMENTS`]), runs that experiment. Without one,
//! runs every experiment of the paper's evaluation in sequence; the
//! `robustness` fault-injection sweep runs only by name.

use jarvis_bench::experiments as e;
use jarvis_bench::Args;

/// One experiment: regenerates and prints a table or figure.
type Experiment = fn(&Args);

/// Every experiment by name, in run order.
const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("table1", e::table1),
    ("table2", e::table2),
    ("table3", e::table3),
    ("security", e::security_detection),
    ("fig5_roc", e::fig5_roc),
    ("fig6_energy", e::fig6_energy),
    ("fig7_cost", e::fig7_cost),
    ("fig8_temp", e::fig8_temp),
    ("fig9_benefit", e::fig9_benefit),
    ("ablation_modes", e::ablation_modes),
    ("ablation_filter", e::ablation_filter),
    ("ablation_optimizer", e::ablation_optimizer),
    ("ablation_agents", e::ablation_agents),
    ("active_learning", e::active_learning),
    ("robustness", e::robustness),
];

/// The first argument that is neither a flag nor a flag's value.
fn experiment_name() -> Option<String> {
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seed" | "--days" | "--episodes" => {
                argv.next();
            }
            flag if flag.starts_with("--") => {}
            _ => return Some(arg),
        }
    }
    None
}

fn main() {
    let args = Args::parse();
    match experiment_name() {
        None => {
            for (name, run) in EXPERIMENTS {
                if name != "robustness" {
                    run(&args);
                }
            }
        }
        Some(name) => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(&args),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown experiment {name:?}; known: {}", known.join(" "));
                std::process::exit(2);
            }
        },
    }
}
