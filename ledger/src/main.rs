//! `ledger` — the perf ledger of GATES-rs: one end-to-end + per-layer
//! benchmark, defined by `BENCHMARK.json` at the repo root.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload; the last stdout line is the result
//!     object the benchmark contract asks for. This is what
//!     BENCHMARK.json's `command` runs.
//! ledger run   [--seed <u64>] [--out <file>] [--smoke]
//!     Every workload, tracing off, three repeats; prints every
//!     end-to-end metric by name and checks outputs.
//! ledger trace [--seed <u64>] [--out <file>] [--smoke]
//!     The traced run: per-layer metrics, spans in <out>.spans.jsonl.
//! ledger agree <a.json> <b.json>
//!     Compare two result sets of the same commit, metric by metric,
//!     against the bounds.
//! ```
//!
//! See `README.md` in this directory for every metric's definition.

mod des;
mod dist;
mod distload;
mod gate;
mod hist;
mod json;
mod probes;
mod report;
mod spans;
mod stages;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;

use distload::Kind;
use report::{benchmark, Metric, Outcome};
use spans::Spans;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// One run of one workload. A traced run carries the isolated probes'
/// rows (`probes`) and the budget rows derived from them.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    probes: Option<&[Metric]>,
    spans: &Spans,
) -> Outcome {
    // The one workload that is not a pipeline on worker processes is
    // `des-sweep`; names were validated against `BENCHMARK.json` already.
    let mut out = match Kind::from_name(name) {
        Some(kind) => distload::run(kind, seed, seconds, probes.is_some(), spans),
        None => des::run(seed, seconds, spans),
    };
    if let Some(probes) = probes {
        out.layers.extend_from_slice(probes);
        budget(name, &mut out);
    }
    out
}

/// The budget rows: the isolated probe costs along one source packet's
/// path through this workload, and the share they account for of the
/// time the packet really took — the pipeline's per-packet period
/// (sources ÷ `packets_per_s`) where the loop is closed, the median
/// latency where it is open. The rest is waiting — handoffs, timers,
/// contention — which only spans inside the program (ROADMAP item 5) can
/// attribute.
fn budget(workload: &str, out: &mut Outcome) {
    let layer = |n: &str| out.layers.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
    let metric = |n: &str| out.metrics.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
    let pps = metric("packets_per_s");
    if pps <= 0.0 {
        return;
    }
    let generate = 100.0 * layer("streams.zipf.sample_ns");
    let hop = layer("engine.threaded.hop_ns");
    let wire = |encode: &str| {
        layer(encode)
            + layer("net.ackwin.push_ack_ns")
            + layer("net.reader.next_frame_ns")
            + layer("core.packet.decode_ns")
            + hop
    };
    let (path_ns, took_ns) = match workload {
        "cs-central-dist" => (
            generate
                + wire("core.packet.encode_ns_800B")
                + layer("apps.count_samps.collector_ns_per_pkt"),
            1e9 / pps,
        ),
        // One packet in fifty turns into a summary that crosses the wire;
        // the source+summarizer pairs run side by side.
        "cs-summ-dist" => (
            generate
                + hop
                + layer("apps.count_samps.summarizer_ns_per_pkt")
                + wire("core.packet.encode_ns_800B") / 50.0,
            1e9 * workloads::cs_summ::SOURCES as f64 / pps,
        ),
        "relay-open-dist" => {
            (2.0 * wire("core.packet.encode_ns_256B"), metric("latency_p50_ms") * 1e6)
        }
        // Virtual time: events per source packet × the cost of an event.
        _ => (layer("engine.des.events_per_s") / pps * layer("engine.des.event_ns"), 1e9 / pps),
    };
    out.layer("budget.path_ns", path_ns);
    out.layer("budget.accounted_share", path_ns / took_ns);
    out.layer("budget.unaccounted_ns", took_ns - path_ns);
}

/// Non-zero when any outcome failed its correctness gate.
fn exit_code(outcomes: &[Outcome]) -> i32 {
    i32::from(outcomes.iter().any(|o| !o.correct()))
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = value()?.parse().map_err(|_| "--seed takes a u64".to_string())?,
            "--seconds" => {
                let s: f64 =
                    value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value()?)),
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(f)
}

/// `BENCHMARK.json`'s command: one workload, one run, one result line.
fn contract_run(f: &Flags) -> Result<i32, String> {
    let name = f.workload.as_deref().ok_or("--workload is required")?;
    let known: Vec<&str> = benchmark().workloads.iter().map(|(n, _)| n.as_str()).collect();
    if !known.contains(&name) {
        return Err(format!("unknown workload {name:?}; one of {known:?}"));
    }
    let seconds = f.seconds.unwrap_or(benchmark().run_seconds);
    let spans = Spans::new(f.trace);
    let probes = f.trace.then(|| probes::run(f.seed, &spans, 0));
    let out = run_workload(name, f.seed, seconds, probes.as_deref(), &spans);
    for note in &out.notes {
        eprintln!("ledger: {name}: {note}");
    }
    println!("{}", report::contract_line(&out, f.trace));
    // The result line carries `correct`; the exit code only says the
    // benchmark itself ran.
    Ok(0)
}

/// `ledger run` and `ledger trace`.
fn full_run(f: &Flags, traced: bool) -> Result<i32, String> {
    let (seconds, repeats) = match (f.smoke, traced) {
        (true, _) => (workloads::SMOKE_SECONDS, 1),
        (false, true) => (benchmark().run_seconds, 1),
        (false, false) => (benchmark().run_seconds, workloads::REPEATS),
    };
    let spans = Spans::new(traced);
    let probes = traced.then(|| probes::run(f.seed, &spans, 0));
    let mut runs: Vec<(&str, Vec<Outcome>)> = Vec::new();
    for (name, why) in &benchmark().workloads {
        eprintln!("ledger: {name}: {why}");
        let outcomes: Vec<Outcome> = (0..repeats)
            .map(|_| run_workload(name, f.seed, seconds, probes.as_deref(), &spans))
            .collect();
        report::print_summary(name, &outcomes, traced);
        runs.push((name, outcomes));
    }
    if let Some(path) = &f.out {
        let meta = report::Meta {
            mode: if traced { "trace" } else { "run" },
            seed: f.seed,
            smoke: f.smoke,
            seconds,
        };
        std::fs::write(path, report::result_file(&meta, &runs))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\nresults written to {}", path.display());
        if traced {
            let mut spans_path = path.clone().into_os_string();
            spans_path.push(".spans.jsonl");
            spans.write_jsonl(spans_path.as_ref()).map_err(|e| format!("write spans: {e}"))?;
            println!("{} spans written to {}", spans.len(), PathBuf::from(spans_path).display());
        }
    }
    let all: Vec<Outcome> = runs.into_iter().flat_map(|(_, o)| o).collect();
    Ok(exit_code(&all))
}

fn agree(paths: &[String]) -> Result<i32, String> {
    let [a, b] = paths else { return Err("usage: ledger agree <a.json> <b.json>".into()) };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    Ok(i32::from(report::agree(&read(a)?, &read(b)?) > 0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--worker") => match &args[1..] {
            [name, site, coordinator, prefix, index] => match index.parse() {
                Ok(index) => Ok(dist::worker_main(name, site, coordinator, prefix, index)),
                Err(_) => Err("--worker: <index> is a number".into()),
            },
            _ => Err(
                "usage (internal): ledger --worker <name> <site> <coordinator> <prefix> <index>"
                    .into(),
            ),
        },
        Some("--des-rss") => match args.get(1).and_then(|s| s.parse().ok()) {
            Some(seed) => Ok(des::rss_main(seed)),
            None => Err("usage (internal): ledger --des-rss <seed>".into()),
        },
        Some("run") => parse_flags(&args[1..]).and_then(|f| full_run(&f, false)),
        Some("trace") => parse_flags(&args[1..]).and_then(|f| full_run(&f, true)),
        Some("agree") => agree(&args[1..]),
        _ => parse_flags(&args).and_then(|f| contract_run(&f)),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    }
}
