//! Request-level benchmark for the smx matching engine.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload <interactive|bulk_bounded|churn_restart> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One workload runs from one seed in a single process. With `--trace 0`
//! it times the public entry point and prints the end-to-end metrics;
//! with `--trace 1` it runs the entry point, then replays the same
//! requests as the public calls the entry point makes, one span per
//! layer, and prints the per-layer metrics. Every answer is checked
//! against an exhaustive oracle outside the timed regions. The last
//! stdout line is the JSON result; see `README.md` for the metrics.

mod bulk;
mod churn;
mod common;
mod inputs;
mod interactive;
mod stats;
mod trace;

use common::{Ledger, RunConfig};
use stats::Metrics;

const USAGE: &str = "usage: reqbench --workload <interactive|bulk_bounded|churn_restart> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();
    let mut metrics: Metrics = match workload.as_str() {
        "interactive" => {
            let corpus = interactive::corpus(cfg.seed);
            print_fingerprint(
                &workload,
                cfg.seed,
                interactive::fingerprint(cfg.seed, &corpus),
            );
            interactive::run(cfg, &corpus, &mut ledger)
        }
        "bulk_bounded" => {
            let inputs = bulk::Inputs::generate(cfg.seed);
            print_fingerprint(&workload, cfg.seed, inputs.fingerprint());
            bulk::run(cfg, &inputs, &mut ledger)
        }
        "churn_restart" => {
            let corpus = interactive::corpus(cfg.seed);
            print_fingerprint(&workload, cfg.seed, churn::fingerprint(cfg.seed, &corpus));
            churn::run(cfg, &corpus, &mut ledger)
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg.trace {
        metrics.put(
            "error_rate",
            stats::ratio(ledger.failed as f64, ledger.attempted as f64),
            "ratio",
        );
    }
    for name in metrics.non_finite() {
        ledger.record(false, || format!("metric {name} is not a finite number"));
    }
    eprint!("{}", metrics.table());
    for reason in ledger.reasons() {
        eprintln!("error: {reason}");
    }
    println!(
        "{}",
        metrics.result_json(ledger.failed == 0, ledger.attempted.max(1), ledger.failed)
    );
}

fn print_fingerprint(workload: &str, seed: u64, (inputs, requests): (u64, u64)) {
    println!(
        "fingerprint workload={workload} seed={seed} inputs={inputs:016x} requests={requests:016x}"
    );
}
