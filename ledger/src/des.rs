//! `des-sweep`: the paper's figure-6 and figure-8 shapes on the
//! virtual-time engine, in process, on one thread.
//!
//! One *sweep* is 25 simulated runs (*cells*): count-samps in five
//! versions at four bandwidths, and comp-steer at five processing costs.
//! Sweeps repeat with seeds derived from `--seed` until the run's time is
//! used. No sockets and no executor are involved, so this workload uses
//! gates-core's adaptation loop, `StageApi` and the applications'
//! `process()` the way the wall-clock engines do not.

use std::time::Instant;

use gates_apps::comp_steer::{self, CompSteerParams};
use gates_apps::count_samps::{self, CountSampsParams, Mode};
use gates_core::report::RunReport;
use gates_engine::{DesEngine, RunOptions};
use gates_grid::{Deployer, ResourceRegistry};
use gates_net::Bandwidth;
use gates_sim::rng::derive_seed;
use gates_sim::SimDuration;

use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::sys;
use crate::workloads::des as k;

/// One simulated run of a sweep.
#[derive(Clone, Copy)]
enum Cell {
    CountSamps { mode: Mode, bandwidth_kb: f64 },
    CompSteer { cost_ms: f64 },
}

fn cells() -> Vec<Cell> {
    let versions = k::FIXED_K.iter().map(|&k| Mode::Distributed { k }).chain([Mode::Adaptive {
        init: k::ADAPT_K.0,
        min: k::ADAPT_K.1,
        max: k::ADAPT_K.2,
    }]);
    let mut cells = Vec::new();
    for mode in versions {
        for &bandwidth_kb in &k::BANDWIDTHS_KB {
            cells.push(Cell::CountSamps { mode, bandwidth_kb });
        }
    }
    cells.extend(k::COSTS_MS.iter().map(|&cost_ms| Cell::CompSteer { cost_ms }));
    cells
}

/// What a finished cell tells the checks.
struct CellResult {
    report: RunReport,
    /// Top-10 accuracy score (count-samps) on the paper's 0–100 scale.
    accuracy: f64,
    /// Mean of the sampling factor's last rounds (comp-steer).
    converged: f64,
    /// Packets its sources emitted.
    source_packets: u64,
    /// Seconds [`prepare`] took, before the first event ran.
    setup_s: f64,
}

/// A cell built and deployed, ready to run: the part `setup_s` times.
struct Ready {
    engine: DesEngine,
    handles: Option<count_samps::CountSampsHandles>,
    sources: Vec<String>,
}

fn prepare(cell: Cell, seed: u64) -> Ready {
    let (topology, handles, registry) = match cell {
        Cell::CountSamps { mode, bandwidth_kb } => {
            let params = CountSampsParams {
                sources: k::SOURCES,
                items_per_source: k::ITEMS_PER_SOURCE,
                mode,
                bandwidth: Bandwidth::kb_per_sec(bandwidth_kb),
                flush_every: k::FLUSH_EVERY,
                seed,
                ..Default::default()
            };
            let (t, h) = count_samps::build(&params);
            let mut sites: Vec<String> = (0..k::SOURCES).map(|i| format!("site-{i}")).collect();
            sites.push("central".into());
            let refs: Vec<&str> = sites.iter().map(String::as_str).collect();
            (t, Some(h), ResourceRegistry::uniform_cluster(&refs))
        }
        Cell::CompSteer { cost_ms } => {
            let params = CompSteerParams { seed, ..CompSteerParams::figure8(cost_ms) };
            let (t, _) = comp_steer::build(&params);
            (t, None, ResourceRegistry::uniform_cluster(&["hpc", "analysis"]))
        }
    };
    let sources =
        topology.sources().iter().map(|&id| topology.stages()[id.index()].name.clone()).collect();
    let plan = Deployer::new().deploy(&topology, &registry).expect("cells place on their cluster");
    let engine = DesEngine::new(topology, &plan, RunOptions::default()).expect("cells validate");
    Ready { engine, handles, sources }
}

fn run_cell(cell: Cell, seed: u64) -> CellResult {
    let t = Instant::now();
    let mut ready = prepare(cell, seed);
    let setup_s = t.elapsed().as_secs_f64();
    let report = match cell {
        Cell::CountSamps { .. } => ready.engine.run_to_completion(),
        Cell::CompSteer { .. } => ready.engine.run_for(SimDuration::from_secs(k::STEER_HORIZON_S)),
    };
    let accuracy = ready.handles.map(|h| h.accuracy(10).score).unwrap_or(0.0);
    let converged = report
        .stage("sampler")
        .and_then(|s| s.param("sampling_rate"))
        .and_then(|t| t.tail_mean(k::STEER_TAIL))
        .unwrap_or(0.0);
    let source_packets =
        ready.sources.iter().filter_map(|n| report.stage(n)).map(|s| s.packets_out).sum();
    CellResult { report, accuracy, converged, source_packets, setup_s }
}

/// Everything a deterministic re-run must reproduce.
fn same_run(a: &RunReport, b: &RunReport) -> bool {
    a.finished_at == b.finished_at && a.events == b.events && a.stages == b.stages
}

/// The paper-shape checks of one sweep; returns `(checks, failures)`.
///
/// Shapes, not pinned constants. On the slowest link, execution time
/// and accuracy both grow with the summary size, and the adaptive
/// version finishes sooner than the largest fixed size (it buys that by
/// shrinking k, so its accuracy there is *not* checked); on the fastest
/// link, where nothing constrains it, the adaptive version is at least
/// as accurate as the smallest fixed size. The converged sampling factor
/// falls as processing cost rises.
fn shape_checks(cells: &[Cell], results: &[CellResult], notes: &mut Vec<String>) -> (u64, u64) {
    let find = |want: Mode, kb: f64| {
        cells
            .iter()
            .zip(results)
            .find_map(|(c, r)| match *c {
                Cell::CountSamps { mode, bandwidth_kb } if mode == want && bandwidth_kb == kb => {
                    Some(r)
                }
                _ => None,
            })
            .expect("every version ran at every bandwidth")
    };
    let (slowest, fastest) = (k::BANDWIDTHS_KB[0], k::BANDWIDTHS_KB[k::BANDWIDTHS_KB.len() - 1]);
    let adaptive = Mode::Adaptive { init: k::ADAPT_K.0, min: k::ADAPT_K.1, max: k::ADAPT_K.2 };
    let smallest = Mode::Distributed { k: k::FIXED_K[0] };
    let largest = Mode::Distributed { k: k::FIXED_K[k::FIXED_K.len() - 1] };
    let secs = |m, kb| find(m, kb).report.execution_secs();
    let steer: Vec<f64> = cells
        .iter()
        .zip(results)
        .filter(|(c, _)| matches!(c, Cell::CompSteer { .. }))
        .map(|(_, r)| r.converged)
        .collect();

    let checks = [
        (
            "fig6: execution time grows with k on the slowest link",
            k::FIXED_K.windows(2).all(|w| {
                secs(Mode::Distributed { k: w[1] }, slowest)
                    > secs(Mode::Distributed { k: w[0] }, slowest)
            }),
        ),
        (
            "fig6: adaptive finishes sooner than the largest fixed k on the slowest link",
            secs(adaptive, slowest) < secs(largest, slowest),
        ),
        (
            "fig7: accuracy grows from the smallest to the largest fixed k",
            find(largest, slowest).accuracy > find(smallest, slowest).accuracy,
        ),
        (
            "fig7: unconstrained, adaptive is at least as accurate as the smallest fixed k",
            find(adaptive, fastest).accuracy >= find(smallest, fastest).accuracy,
        ),
        (
            "fig8: converged sampling factor falls as cost rises",
            steer.windows(2).all(|w| w[1] <= w[0]) && steer[steer.len() - 1] < steer[0],
        ),
    ];
    let mut failed = 0;
    for (what, ok) in checks {
        if !ok {
            failed += 1;
            notes.push(format!("shape check failed: {what}"));
        }
    }
    (checks.len() as u64, failed)
}

/// `ledger --des-rss <seed>`: run one sweep and print this process's
/// peak resident set, MiB. A process that ran only this says what the
/// sweep needs; the caller's own peak also holds whatever ran before it
/// (`ledger run` gets here after three workloads on worker processes).
pub fn rss_main(seed: u64) -> i32 {
    for cell in cells() {
        std::hint::black_box(run_cell(cell, derive_seed(seed, 0)));
    }
    println!("{}", sys::peak_rss_mb());
    0
}

fn fresh_process_rss(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = std::process::Command::new(exe)
        .args(["--des-rss", &seed.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    if !child.status.success() {
        return Err(format!("child exited with {}", child.status));
    }
    let text = String::from_utf8_lossy(&child.stdout);
    text.trim().parse().map_err(|_| format!("child printed {text:?}"))
}

/// Run the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Outcome {
    let root = spans.open("des-sweep", 0);
    let cells = cells();
    let mut out = Outcome::default();

    // setup_s: build + deploy + engine construction, summed over the
    // cells of a sweep; one value per sweep, their median reported.
    let mut setups = Vec::new();
    let cpu_before = sys::self_usage().cpu_s();
    let started = Instant::now();
    let (mut events, mut packets, mut busy_s) = (0u64, 0u64, 0.0f64);
    // Wall nanoseconds of every simulated run, all cells pooled.
    let mut job_ns: Vec<f64> = Vec::new();
    let mut first_sweep = Vec::new();
    let mut sweep = 0u64;
    while sweep == 0 || started.elapsed().as_secs_f64() < seconds {
        let sweep_seed = derive_seed(seed, sweep);
        let sweep_span = spans.open("des.sweep", root);
        let mut results: Vec<CellResult> = Vec::with_capacity(cells.len());
        for &cell in &cells {
            let span = spans.open("des.cell", sweep_span);
            let t = Instant::now();
            let r = run_cell(cell, sweep_seed);
            let dt = t.elapsed();
            spans.close(span);
            busy_s += dt.as_secs_f64() - r.setup_s;
            job_ns.push(dt.as_nanos() as f64);
            events += r.report.events;
            packets += r.source_packets;
            results.push(r);
        }
        spans.close(sweep_span);
        setups.push(results.iter().map(|r| r.setup_s).sum());

        let (checks, failed) = shape_checks(&cells, &results, &mut out.notes);
        out.attempted += checks;
        out.failed += failed;
        if sweep == 0 {
            first_sweep = results;
        }
        sweep += 1;
    }
    let cpu_s = sys::self_usage().cpu_s() - cpu_before;

    // Determinism: the first sweep's cells, run again with the same
    // seed, must give the same report. Outside the measured work.
    let again = spans.open("des.determinism", root);
    for (&cell, first) in cells.iter().zip(&first_sweep) {
        out.attempted += 1;
        if !same_run(&first.report, &run_cell(cell, derive_seed(seed, 0)).report) {
            out.failed += 1;
            out.notes.push("determinism check failed: same seed, different report".into());
        }
    }
    spans.close(again);
    spans.close(root);

    // The latency of a batch job is input to complete result: the wall
    // time of one simulated run. Percentiles over every run of the
    // workload, all cells pooled: the sweep is a fixed mix of 25 jobs, so
    // the median job is the mix's middle cell and the 99th percentile
    // lies in the upper quarter of its slowest cell's runs. A 20 s run
    // makes about a thousand jobs, ten of them beyond the 99th.
    out.samples = sweep;
    let mpkt = packets as f64 / 1e6;
    out.metric("packets_per_s", packets as f64 / busy_s);
    out.metric("latency_p50_ms", quantile(&job_ns, 0.50) / 1e6);
    out.metric("latency_p99_ms", quantile(&job_ns, 0.99) / 1e6);
    out.metric("cpu_s_per_mpkt", cpu_s / mpkt);
    let rss = fresh_process_rss(seed).unwrap_or_else(|e| {
        out.fail(format!("peak RSS of one sweep in a fresh process: {e}"));
        sys::peak_rss_mb()
    });
    out.metric("rss_peak_mb", rss);
    out.metric("setup_s", median(&setups));
    out.layer("engine.des.events_per_s", events as f64 / busy_s);
    out
}
