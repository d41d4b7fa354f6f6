//! End-to-end benchmark of the Jarvis serving path.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload replay|live|adapt --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload serves a fleet whose homes were onboarded from their own
//! logs (Algorithm 1 per home) and registered in the deployed `Generalized`
//! match mode, with one trained fleet policy. Input generation and ingest
//! happen in set-up; the timed region calls only `serve*` and the learning
//! calls of the `adapt` workload. The last line of standard output is one
//! JSON object: `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics from a traced run. See `e2ebench/README.md`.

mod alloc;
mod check;
mod fixture;
mod openloop;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, when it is an order statistic.
    pub samples: Option<usize>,
}

/// What a finished run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Events submitted in the timed region.
    pub attempted: u64,
    /// Events without an outcome.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    /// Add an order statistic with its sample count.
    pub fn push_pct(&mut self, name: &'static str, pct: stats::Pct, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: pct.value,
            unit,
            samples: Some(pct.samples),
        });
    }
}

/// Why a run did not report.
#[derive(Debug)]
pub enum Failure {
    /// An output differed from what the program must produce.
    Incorrect {
        /// Events submitted before the failure.
        attempted: u64,
        /// Events without an outcome.
        failed: u64,
        /// The first mismatch.
        why: String,
    },
    /// The fixture degenerated; the benchmark refuses to report.
    Degenerate(String),
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    workloads::process_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(64);
        }
    };
    let result = match args.workload.as_str() {
        "replay" => workloads::replay(&args),
        "live" => workloads::live(&args),
        "adapt" => workloads::adapt(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (replay, live, adapt)");
            return ExitCode::from(64);
        }
    };
    match result {
        Ok(report) => {
            let mut fields = Vec::with_capacity(report.metrics.len());
            for m in &report.metrics {
                let n = m.samples.map_or_else(String::new, |n| format!("  (n={n})"));
                println!("{:<34} {:>18} {}{n}", m.name, json_number(m.value), m.unit);
                fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                ));
            }
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.attempted,
                report.failed,
                fields.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Incorrect {
            attempted,
            failed,
            why,
        }) => {
            eprintln!("e2ebench: correctness check failed: {why}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
                attempted.max(1)
            );
            ExitCode::from(1)
        }
        Err(Failure::Degenerate(why)) => {
            eprintln!("e2ebench: refusing to report a degenerate fixture: {why}");
            ExitCode::from(2)
        }
    }
}
