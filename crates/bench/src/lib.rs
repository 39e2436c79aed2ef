//! # gates-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§5), plus ablation studies of the adaptation algorithm
//! and the adaptation-policy A-B. Performance is measured by the perf
//! ledger (`ledger/`), not here.
//!
//! | binary | paper artifact | what it prints |
//! |---|---|---|
//! | `fig5` | Figure 5 (table) | centralized vs. distributed count-samps: execution time and accuracy |
//! | `fig6` | Figure 6 | execution time, 5 versions × 4 bandwidths |
//! | `fig7` | Figure 7 | accuracy, same sweep |
//! | `fig8` | Figure 8 | sampling-factor trajectories under 5 processing costs |
//! | `fig9` | Figure 9 | sampling-factor trajectories under 5 generation rates |
//! | `ablation` | — (DESIGN.md §5) | adaptation design-choice sweeps |
//! | `midrun` | — (extension) | re-adaptation when the generation rate changes mid-run |
//! | `hetero` | — (extension) | sampling factor settled on nodes of different speed |
//! | `abtest` | — (extension) | paper vs AIMD vs PID adaptation policy on the fig8 scenario |
//!
//! Every run uses the deterministic virtual-time engine, so the numbers
//! are identical across machines and invocations.

use std::path::PathBuf;
use std::sync::Arc;

use gates_apps::comp_steer::{self, CompSteerParams};
use gates_apps::count_samps::{self, CountSampsHandles, CountSampsParams};
use gates_core::report::RunReport;
use gates_core::trace::FlightRecorder;
use gates_engine::{DesEngine, RunOptions};
use gates_grid::{Deployer, ResourceRegistry};
use gates_sim::SimDuration;

/// A uniform cluster with one node per source site plus a central node.
pub fn count_samps_registry(sources: usize) -> ResourceRegistry {
    let mut sites: Vec<String> = (0..sources).map(|i| format!("site-{i}")).collect();
    sites.push("central".to_string());
    let refs: Vec<&str> = sites.iter().map(String::as_str).collect();
    ResourceRegistry::uniform_cluster(&refs)
}

/// Build, deploy and run a count-samps configuration to completion.
pub fn run_count_samps(params: &CountSampsParams) -> (RunReport, CountSampsHandles) {
    run_count_samps_with(params, RunOptions::default())
}

/// [`run_count_samps`] with explicit run options (e.g. a flight
/// recorder attached by [`TraceSink::begin`]).
pub fn run_count_samps_with(
    params: &CountSampsParams,
    opts: RunOptions,
) -> (RunReport, CountSampsHandles) {
    let (topology, handles) = count_samps::build(params);
    let registry = count_samps_registry(params.sources);
    let plan = Deployer::new().deploy(&topology, &registry).expect("placement");
    let mut engine = DesEngine::new(topology, &plan, opts).expect("engine");
    let report = engine.run_to_completion();
    (report, handles)
}

/// Build, deploy and run a comp-steer configuration for `secs` of
/// virtual time; returns the run report (trajectories live in it).
pub fn run_comp_steer(params: &CompSteerParams, secs: u64) -> RunReport {
    run_comp_steer_with(params, secs, RunOptions::default())
}

/// [`run_comp_steer`] with explicit run options (e.g. a flight
/// recorder attached by [`TraceSink::begin`]).
pub fn run_comp_steer_with(params: &CompSteerParams, secs: u64, opts: RunOptions) -> RunReport {
    let (topology, _handles) = comp_steer::build(params);
    let registry = ResourceRegistry::uniform_cluster(&["hpc", "analysis"]);
    let plan = Deployer::new().deploy(&topology, &registry).expect("placement");
    let mut engine = DesEngine::new(topology, &plan, opts).expect("engine");
    engine.run_for(SimDuration::from_secs(secs))
}

/// `--trace <path>` support shared by the fig binaries.
///
/// Each experiment run gets a fresh [`FlightRecorder`]; the per-run JSONL
/// streams are concatenated into one file so a single invocation yields a
/// single trace artifact, and a compact summary table per run is printed
/// at the end. When the flag is absent every method is a no-op, so the
/// binaries call `begin`/`end`/`finish` unconditionally.
pub struct TraceSink {
    inner: Option<TraceInner>,
}

struct TraceInner {
    path: PathBuf,
    current: Option<(String, Arc<FlightRecorder>)>,
    jsonl: String,
    summaries: Vec<String>,
}

impl TraceSink {
    /// Parse `--trace <path>` from the process arguments. Exits with an
    /// error when the flag is present without a path, or when an unknown
    /// flag is given (the fig binaries take no other arguments).
    pub fn from_env() -> TraceSink {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        let mut inner = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trace" => match it.next() {
                    Some(path) => {
                        inner = Some(TraceInner {
                            path: PathBuf::from(path),
                            current: None,
                            jsonl: String::new(),
                            summaries: Vec::new(),
                        });
                    }
                    None => {
                        eprintln!("error: --trace needs a file path");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!("error: unknown flag {other:?} (supported: --trace <path>)");
                    std::process::exit(2);
                }
            }
        }
        TraceSink { inner }
    }

    /// Options for the next run: a fresh recorder when tracing, the plain
    /// defaults otherwise. `label` names the run in the final summary.
    pub fn begin(&mut self, label: &str) -> RunOptions {
        match &mut self.inner {
            Some(inner) => {
                let rec = Arc::new(FlightRecorder::new(1 << 20));
                inner.current = Some((label.to_string(), Arc::clone(&rec)));
                RunOptions::default().recorder(rec)
            }
            None => RunOptions::default(),
        }
    }

    /// Absorb the run started by the matching [`Self::begin`].
    pub fn end(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        if let Some((label, rec)) = inner.current.take() {
            inner.jsonl.push_str(&rec.to_jsonl());
            inner
                .summaries
                .push(format!("-- trace: {label} --\n{}", rec.run_trace().summary_table()));
        }
    }

    /// Write the JSONL file and print the per-run summary tables.
    pub fn finish(self) {
        let Some(inner) = self.inner else { return };
        if let Err(e) = std::fs::write(&inner.path, &inner.jsonl) {
            eprintln!("error: cannot write trace {}: {e}", inner.path.display());
            std::process::exit(1);
        }
        println!();
        for s in &inner.summaries {
            println!("{s}");
        }
        println!("trace written to {}", inner.path.display());
    }
}

/// The sampler's sampling-rate trajectory from a comp-steer report.
pub fn sampling_trajectory(report: &RunReport) -> Vec<(f64, f64)> {
    report
        .stage("sampler")
        .and_then(|s| s.param("sampling_rate"))
        .map(|t| t.samples.clone())
        .unwrap_or_default()
}

/// Convergence summary of a trajectory: `(final tail mean, tail std,
/// time at which the series first stays within ±tol of the tail mean)`.
pub fn convergence_summary(samples: &[(f64, f64)], tail: usize, tol: f64) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, f64::NAN);
    }
    let tail_slice = &samples[samples.len().saturating_sub(tail)..];
    let mean = tail_slice.iter().map(|&(_, v)| v).sum::<f64>() / tail_slice.len() as f64;
    let var =
        tail_slice.iter().map(|&(_, v)| (v - mean).powi(2)).sum::<f64>() / tail_slice.len() as f64;
    let std = var.sqrt();
    // First time after which every sample stays within tolerance.
    let mut converged_at = samples.last().map(|&(t, _)| t).unwrap_or(0.0);
    for i in (0..samples.len()).rev() {
        if (samples[i].1 - mean).abs() > tol {
            break;
        }
        converged_at = samples[i].0;
    }
    (mean, std, converged_at)
}

/// Render a row-major table with a header and fixed-width numeric cells.
pub fn render_table(
    title: &str,
    col_names: &[String],
    rows: &[(String, Vec<f64>)],
    unit: &str,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = write!(out, "{:<28}", "");
    for c in col_names {
        let _ = write!(out, "{c:>14}");
    }
    let _ = writeln!(out);
    for (name, cells) in rows {
        let _ = write!(out, "{name:<28}");
        for v in cells {
            let _ = write!(out, "{v:>14.2}");
        }
        let _ = writeln!(out);
    }
    if !unit.is_empty() {
        let _ = writeln!(out, "(values in {unit})");
    }
    out
}

/// Emit a CSV block (for plotting) to stdout after the table.
pub fn print_csv(name: &str, header: &[&str], rows: &[Vec<f64>]) {
    println!("-- csv:{name} --");
    println!("{}", header.join(","));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        println!("{}", cells.join(","));
    }
    println!("-- end csv --");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_apps::count_samps::Mode;

    #[test]
    fn harness_runs_a_tiny_experiment() {
        let params = CountSampsParams {
            sources: 2,
            items_per_source: 1_000,
            mode: Mode::Distributed { k: 50.0 },
            ..Default::default()
        };
        let (report, handles) = run_count_samps(&params);
        assert!(report.execution_secs() > 0.0);
        assert!(handles.accuracy(10).score > 0.0);
    }

    #[test]
    fn convergence_summary_detects_plateau() {
        let mut samples: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64 * 0.1)).collect();
        samples.extend((10..40).map(|i| (i as f64, 1.0)));
        let (mean, std, at) = convergence_summary(&samples, 20, 0.05);
        assert!((mean - 1.0).abs() < 1e-9);
        assert!(std < 1e-9);
        assert!((at - 10.0).abs() < 1e-9, "converged at t=10, got {at}");
    }

    #[test]
    fn convergence_summary_empty_is_safe() {
        let (mean, std, at) = convergence_summary(&[], 10, 0.1);
        assert_eq!(mean, 0.0);
        assert_eq!(std, 0.0);
        assert!(at.is_nan());
    }

    #[test]
    fn table_renders_all_cells() {
        let table =
            render_table("demo", &["a".into(), "b".into()], &[("row".into(), vec![1.0, 2.0])], "s");
        assert!(table.contains("demo"));
        assert!(table.contains("1.00"));
        assert!(table.contains("2.00"));
    }
}
