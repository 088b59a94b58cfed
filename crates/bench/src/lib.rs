//! Shared harness code for the figure-regeneration binaries.
//!
//! Every evaluation-bearing figure of the paper has one binary under
//! `src/bin/`, named after the figure it regenerates. They all print
//! aligned text tables plus CSV lines, so series can be diffed and
//! re-plotted.

use smx::pipeline::Experiment;
use smx::synth::ScenarioConfig;

/// The default scenario every figure binary uses unless stated otherwise:
/// a 5-element personal schema against 42 repository schemas (30 with a
/// grafted perturbed copy, 12 pure noise), seed 42. [`standard_experiment`]
/// searches it up to [`STANDARD_DELTA_MAX`].
pub fn standard_config() -> ScenarioConfig {
    ScenarioConfig {
        derived_schemas: 30,
        noise_schemas: 12,
        personal_nodes: 5,
        host_nodes: 10,
        // Strong perturbation spreads the correct mappings' scores across
        // the whole δ range, so recall climbs gradually along the sweep —
        // the regime the paper's Figures 5/11 show.
        perturbation_strength: 0.9,
        seed: 42,
        ..Default::default()
    }
}

/// The δ_max all standard runs search up to.
pub const STANDARD_DELTA_MAX: f64 = 0.25;

/// Number of grid points for measured curves.
pub const GRID_POINTS: usize = 20;

/// Build the standard experiment.
pub fn standard_experiment() -> Experiment {
    Experiment::generate(standard_config(), STANDARD_DELTA_MAX)
}

/// Print a table: a header row then rows of same-width columns, followed
/// by a CSV block for machine consumption.
pub fn print_series(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .max()
                .unwrap_or(0)
                .max(h.len())
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
    println!("-- csv --");
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
    println!();
}

/// Format a float with 4 decimals for table cells.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_experiment_builds() {
        let exp = standard_experiment();
        assert!(!exp.truth.is_empty());
        assert_eq!(exp.scenario.repository.len(), 42);
    }

    #[test]
    fn print_series_does_not_panic() {
        print_series(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3.5".into(), "x".into()]],
        );
        assert_eq!(f(0.25), "0.2500");
    }
}
