//! The three workloads that run on worker processes: how each is
//! launched, what is read out of a finished launch, and how the launches
//! of one run become its metrics.
//!
//! One run = [`dist::SETUP_LAUNCHES`] zero-length launches (timed for
//! `setup_s`) followed by as many full launches as fit in the run's
//! seconds. Every metric is computed per launch and the run reports the
//! median over its launches.

use std::collections::HashMap;
use std::time::Instant;

use gates_core::report::{RunReport, StageReport};
use gates_grid::AppConfig;
use gates_streams::metrics::top_k_accuracy;

use crate::dist::{launch, Launch, LaunchSpec};
use crate::gate::{check_report, Expect, Hop};
use crate::hist::Histogram;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stages::{self, read_taps, tap_key, RelayParams};
use crate::stats::median;
use crate::workloads::{cs_central, cs_summ, dist, relay};

/// Which pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `cs-central-dist`.
    CsCentral,
    /// `cs-summ-dist`.
    CsSumm,
    /// `relay-open-dist`.
    RelayOpen,
}

/// The `<application>` document of a count-samps launch of `packets`
/// packets per source.
pub fn count_samps_xml(name: &str, sources: usize, packets: u64, summ: bool, seed: u64) -> String {
    let (batch, mode) =
        if summ { (cs_summ::BATCH, "distributed") } else { (cs_central::BATCH, "centralized") };
    AppConfig::new(name, stages::COUNT_SAMPS_APP)
        .with_param("sources", sources)
        .with_param("items_per_source", packets * batch)
        .with_param("batch", batch)
        .with_param("mode", mode)
        .with_param("k", cs_summ::K)
        .with_param("flush_every", cs_summ::FLUSH_EVERY)
        .with_param("top_k", dist::TOP_K)
        .with_param("seed", seed)
        .to_xml()
}

/// Position in `relay::WORKERS` of the process hosting the relay's sink.
const RELAY_SINK_WORKER: usize = 2;

/// Stage names of a pipeline by role.
struct Roles {
    sources: Vec<String>,
    /// Stages between source and sink (empty for `cs-central-dist`).
    mids: Vec<String>,
    sink: &'static str,
}

impl Kind {
    /// The pipeline a workload name stands for (`des-sweep` has none).
    pub fn from_name(name: &str) -> Option<Kind> {
        [Kind::CsCentral, Kind::CsSumm, Kind::RelayOpen].into_iter().find(|k| k.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Kind::CsCentral => "cs-central-dist",
            Kind::CsSumm => "cs-summ-dist",
            Kind::RelayOpen => "relay-open-dist",
        }
    }

    fn workers(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Kind::CsCentral => &cs_central::WORKERS,
            Kind::CsSumm => &cs_summ::WORKERS,
            Kind::RelayOpen => &relay::WORKERS,
        }
    }

    fn sources(self) -> usize {
        match self {
            Kind::CsCentral => cs_central::SOURCES,
            Kind::CsSumm => cs_summ::SOURCES,
            Kind::RelayOpen => 1,
        }
    }

    /// Packets per source in one full launch.
    fn packets(self) -> u64 {
        match self {
            Kind::CsCentral => cs_central::PACKETS,
            Kind::CsSumm => cs_summ::PACKETS,
            Kind::RelayOpen => relay::PACKETS,
        }
    }

    fn roles(self) -> Roles {
        let n = self.sources();
        match self {
            Kind::CsCentral | Kind::CsSumm => Roles {
                sources: (0..n).map(|i| format!("source-{i}")).collect(),
                mids: if self == Kind::CsSumm {
                    (0..n).map(|i| format!("summarizer-{i}")).collect()
                } else {
                    Vec::new()
                },
                sink: "collector",
            },
            Kind::RelayOpen => Roles {
                sources: vec!["stamp-source".into()],
                mids: vec!["relay".into()],
                sink: "sink",
            },
        }
    }

    fn xml(self, packets: u64, seed: u64, traced: bool) -> String {
        match self {
            Kind::CsCentral => count_samps_xml(self.name(), 1, packets, false, seed),
            Kind::CsSumm => count_samps_xml(self.name(), cs_summ::SOURCES, packets, true, seed),
            Kind::RelayOpen => {
                let (rate, payload) = (relay::RATE, relay::PAYLOAD);
                RelayParams { packets, rate, payload, seed, traced, settle: true }
                    .to_xml(self.name())
            }
        }
    }
}

/// What one full launch measured.
struct Sample {
    pps: f64,
    /// `(p50, p99)` latency, ms, of each window of the launch: the whole
    /// launch after warm-up for count-samps, the relay sink's nine.
    windows: Vec<(f64, f64)>,
    cpu_s_per_mpkt: f64,
    rss_peak_mb: f64,
    /// Relay only: p50 of the launch's late windows ÷ its early ones'.
    backlog_ratio: f64,
    /// In-situ per-layer values, by metric name.
    layers: Vec<(&'static str, f64)>,
    /// Relay only: per-hop histograms and sampled stamp rows.
    hists: HashMap<String, Histogram>,
    stamps: Vec<[u64; 6]>,
}

fn names(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// Gate one launch's report and observations; everything that does not
/// hold is added to `out`.
fn gate(kind: Kind, l: &Launch, packets: u64, reference: Option<&[(u64, f64)]>, out: &mut Outcome) {
    let roles = kind.roles();
    let (sources, mids) = (names(&roles.sources), names(&roles.mids));
    let sink = [roles.sink];
    let offered = packets * kind.sources() as u64;
    let (consumers, hops): (&[&str], Vec<Hop>) = if mids.is_empty() {
        (&sink, vec![(&sources, &sink)])
    } else {
        (&mids, vec![(&sources, &mids), (&mids, &sink)])
    };
    let batch = match kind {
        Kind::CsCentral => cs_central::BATCH,
        Kind::CsSumm => cs_summ::BATCH,
        Kind::RelayOpen => 1,
    };
    let expect = Expect {
        offered_packets: offered,
        offered_records: offered * batch,
        consumers,
        hops: &hops,
    };
    check_report(&l.report, &expect, out);
    for (w, (name, _)) in l.workers.iter().zip(kind.workers()) {
        if !w.clean {
            out.fail(format!("worker {name} did not exit cleanly"));
        }
    }

    match kind {
        Kind::CsCentral | Kind::CsSumm if packets > 0 => {
            // Truth comes from the source side, the answer from the
            // collector's process; score them as the paper does.
            let mut truth: HashMap<u64, u64> = HashMap::new();
            let mut answer = Vec::new();
            for w in &l.workers {
                for (&v, &c) in &w.dump.truth {
                    *truth.entry(v).or_insert(0) += c;
                }
                if !w.dump.answer.is_empty() {
                    answer = w.dump.answer.clone();
                }
            }
            let generated: u64 = truth.values().sum();
            if generated != offered * batch {
                out.fail(format!(
                    "sources generated {generated} records, {} asked",
                    offered * batch
                ));
            }
            if reference.is_some_and(|r| r != answer) {
                out.fail("the collector's answer differs from the single-thread reference");
            }
            // The paper's accuracy score, where the sketch can meet it:
            // one 400-entry central sample over a launch's records does;
            // 100-entry samples over millions of records have let τ grow
            // past every true count and do not, on any engine.
            let acc = top_k_accuracy(&answer, &truth, dist::TOP_K);
            if kind == Kind::CsCentral && acc.score < dist::MIN_ACCURACY {
                out.fail(format!(
                    "top-{} accuracy {:.1} below {:.0}",
                    dist::TOP_K,
                    acc.score,
                    dist::MIN_ACCURACY
                ));
            }
        }
        Kind::RelayOpen => {
            let d = &l.workers[RELAY_SINK_WORKER].dump;
            let (arrived, dup) = (d.count("arrived"), d.count("duplicates"));
            if arrived != packets {
                out.failed += arrived.abs_diff(packets);
                out.notes.push(format!("sink saw {arrived} distinct packets of {packets}"));
            }
            if dup > 0 {
                out.failed += dup;
                out.notes.push(format!("{dup} packets delivered more than once"));
            }
        }
        _ => {}
    }
}

/// Per-stage and per-worker counters of one launch, as per-layer rows.
fn in_situ(kind: Kind, l: &Launch, offered: u64, setup_allocs: f64) -> Vec<(&'static str, f64)> {
    let roles = kind.roles();
    let r: &RunReport = &l.report;
    let pick = |names: &[String]| -> Vec<&StageReport> {
        names.iter().filter_map(|n| r.stage(n)).collect()
    };
    let (src, mid) = (pick(&roles.sources), pick(&roles.mids));
    let sink = r.stage(roles.sink);
    let total =
        |s: &[&StageReport], f: fn(&StageReport) -> u64| s.iter().map(|s| f(s)).sum::<u64>() as f64;
    let mean = |s: &[&StageReport], f: fn(&StageReport) -> f64| {
        if s.is_empty() {
            0.0
        } else {
            s.iter().map(|s| f(s)).sum::<f64>() / s.len() as f64
        }
    };
    let pkts = offered.max(1) as f64;
    let allocs: f64 = l.workers.iter().map(|w| w.dump.allocs as f64).sum();
    vec![
        ("dist.backpressure_us", r.backpressure_us as f64),
        ("dist.packets_replayed", r.packets_replayed as f64),
        ("dist.packets_deduped", r.packets_deduped as f64),
        ("dist.packets_lost", r.packets_lost as f64),
        ("stage.source.packets_out", total(&src, |s| s.packets_out)),
        ("stage.mid.packets_in", total(&mid, |s| s.packets_in)),
        ("stage.mid.packets_out", total(&mid, |s| s.packets_out)),
        ("stage.mid.queue_avg", mean(&mid, |s| s.queue.mean())),
        ("stage.sink.packets_in", sink.map_or(0.0, |s| s.packets_in as f64)),
        ("stage.sink.queue_avg", sink.map_or(0.0, |s| s.queue.mean())),
        (
            "stage.sink.latency_mean_ms",
            sink.map_or(0.0, |s| if s.latency.count() > 0 { s.latency.mean() * 1e3 } else { 0.0 }),
        ),
        ("worker.cpu_user_s", l.workers.iter().map(|w| w.usage.user_s).sum()),
        ("worker.cpu_sys_s", l.workers.iter().map(|w| w.usage.sys_s).sum()),
        ("worker.vcsw_per_pkt", l.workers.iter().map(|w| w.usage.vcsw as f64).sum::<f64>() / pkts),
        ("worker.allocs_per_pkt", (allocs - setup_allocs).max(0.0) / pkts),
    ]
}

/// Turn a finished count-samps launch into a [`Sample`] from its taps.
fn count_samps_sample(kind: Kind, l: &Launch, packets: u64) -> Result<(f64, Histogram), String> {
    let mut src: HashMap<u64, u64> = HashMap::new();
    let mut sink: HashMap<u64, u64> = HashMap::new();
    let mut mid: HashMap<u64, u64> = HashMap::new();
    for w in &l.workers {
        src.extend(read_taps(&w.prefix, "src"));
        mid.extend(read_taps(&w.prefix, "mid"));
        sink.extend(read_taps(&w.prefix, "sink"));
    }
    // Source packets end at the summarizers when there are any.
    let consumer = if kind == Kind::CsSumm { &mid } else { &sink };
    let last_consumed = consumer.values().copied().max().unwrap_or(0);
    let first_due = src.values().copied().min().ok_or("no source taps")?;
    if last_consumed <= first_due {
        return Err("tap clocks out of order".into());
    }
    let stream_s = (last_consumed - first_due) as f64 / 1e9;

    // Latency: from the poll that produced the (last) source packet a
    // sink arrival depends on, to the sink's `process()` entry.
    let per_summary = cs_summ::FLUSH_EVERY / cs_summ::BATCH;
    let warmup = (packets as f64 * dist::WARMUP_SHARE) as u64;
    let mut lat = Histogram::default();
    for (&key, &t_in) in &sink {
        let (stream, seq) = ((key >> 40) as u32, key & ((1 << 40) - 1));
        let source_seq = match kind {
            Kind::CsSumm => ((seq + 1) * per_summary - 1).min(packets - 1),
            _ => seq,
        };
        if source_seq < warmup {
            continue;
        }
        let t_due =
            *src.get(&tap_key(stream, source_seq)).ok_or("sink packet without a source tap")?;
        lat.record(t_in.saturating_sub(t_due));
    }
    Ok((stream_s, lat))
}

fn sample(
    kind: Kind,
    l: &Launch,
    packets: u64,
    setup_allocs: f64,
    out: &mut Outcome,
) -> Option<Sample> {
    let offered = packets * kind.sources() as u64;
    let mut backlog_ratio = 0.0;
    let (stream_s, windows, hists, stamps) = match kind {
        Kind::CsCentral | Kind::CsSumm => match count_samps_sample(kind, l, packets) {
            Ok((s, h)) => {
                let whole = (h.percentile(50.0) / 1e6, h.percentile(99.0) / 1e6);
                (s, vec![whole], HashMap::new(), Vec::new())
            }
            Err(e) => {
                out.fail(format!("cannot time the launch: {e}"));
                return None;
            }
        },
        Kind::RelayOpen => {
            let d = &l.workers[RELAY_SINK_WORKER].dump;
            if d.windows.len() < 2 || d.count("last_ns") <= d.count("first_due_ns") {
                out.fail("sink reported no latency windows");
                return None;
            }
            let stream_s = (d.count("last_ns") - d.count("first_due_ns")) as f64 / 1e9;
            let third = d.windows.len().div_ceil(3);
            let p50_of =
                |w: &[[u64; 2]]| median(&w.iter().map(|w| w[0] as f64).collect::<Vec<_>>());
            backlog_ratio = p50_of(&d.windows[d.windows.len() - third..])
                / p50_of(&d.windows[..third]).max(1.0);
            let windows =
                d.windows.iter().map(|w| (w[0] as f64 / 1e6, w[1] as f64 / 1e6)).collect();
            // Only a stamped launch's per-hop histograms are looked at
            // again; keeping six per launch would grow this process by
            // a quarter MiB each.
            let hists = if d.samples.is_empty() { HashMap::new() } else { d.hists.clone() };
            (stream_s, windows, hists, d.samples.clone())
        }
    };
    let consumed = match kind {
        Kind::RelayOpen => l.workers[RELAY_SINK_WORKER].dump.count("arrived"),
        _ => offered,
    };
    Some(Sample {
        pps: consumed as f64 / stream_s,
        windows,
        cpu_s_per_mpkt: l.cpu_s() / (offered as f64 / 1e6),
        rss_peak_mb: l.rss_peak_mb(),
        backlog_ratio,
        layers: in_situ(kind, l, offered, setup_allocs),
        hists,
        stamps,
    })
}

fn med(samples: &[&Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(|s| f(s)).collect::<Vec<_>>())
}

/// Median over every latency window of every sample.
fn window_med<'a>(samples: impl IntoIterator<Item = &'a Sample>, f: fn(&(f64, f64)) -> f64) -> f64 {
    median(&samples.into_iter().flat_map(|s| &s.windows).map(f).collect::<Vec<_>>())
}

/// Run `kind` for about `seconds`. A traced run also fills the outcome's
/// per-layer rows; for the relay it alternates stamped and unstamped
/// launches (their p50 difference is the tracing overhead) and adds one
/// closed-loop launch of the same pipeline.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, spans: &Spans) -> Outcome {
    let mut out = Outcome::default();
    let root = spans.open(kind.name(), 0);
    let go = |xml: &str, parent: u64| {
        launch(&LaunchSpec { xml, workers: kind.workers() }, spans, parent)
    };

    // ---- set-up: the same launch with a zero-length stream -----------
    let setup_span = spans.open("setup", root);
    let (mut setups, mut setup_allocs) = (Vec::new(), Vec::new());
    for _ in 0..dist::SETUP_LAUNCHES {
        match go(&kind.xml(0, seed, false), setup_span) {
            Ok(l) => {
                gate(kind, &l, 0, None, &mut out);
                setups.push(l.wall_s);
                setup_allocs.push(l.workers.iter().map(|w| w.dump.allocs as f64).sum());
            }
            Err(e) => out.fail(format!("set-up launch: {e}")),
        }
    }
    spans.close(setup_span);
    let setup_allocs = median(&setup_allocs);

    // ---- measured launches -------------------------------------------
    let packets = kind.packets();
    // Every launch of a run streams the same input, so one reference
    // computation checks them all.
    let reference = match kind {
        Kind::RelayOpen => None,
        _ => match stages::reference_answer(&kind.xml(packets, seed, false)) {
            Ok(answer) => Some(answer),
            Err(e) => {
                out.fail(format!("reference computation: {e}"));
                None
            }
        },
    };
    let started = Instant::now();
    let (mut plain, mut stamped): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    loop {
        // Odd launches of a traced relay run carry the in-relay stamps.
        let stamp = traced && kind == Kind::RelayOpen && n % 2 == 1;
        let t = Instant::now();
        out.attempted += packets * kind.sources() as u64;
        match go(&kind.xml(packets, seed, stamp), root) {
            Ok(l) => {
                gate(kind, &l, packets, reference.as_deref(), &mut out);
                if let Some(s) = sample(kind, &l, packets, setup_allocs, &mut out) {
                    if stamp { &mut stamped } else { &mut plain }.push(s);
                }
            }
            Err(e) => {
                // Nothing of this launch can be trusted as delivered.
                out.failed += packets * kind.sources() as u64;
                out.notes.push(format!("launch {n}: {e}"));
            }
        }
        n += 1;
        let spent = started.elapsed().as_secs_f64();
        if spent + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }

    let all: Vec<&Sample> = plain.iter().collect();
    out.samples = all.len() as u64;
    let wanted = ((seconds * dist::MIN_LAUNCHES_PER_S) as u64).max(1);
    if out.samples < wanted {
        out.fail(format!("{} launches measured, at least {wanted} wanted", out.samples));
    }
    if all.is_empty() {
        spans.close(root);
        return out;
    }
    if kind == Kind::RelayOpen {
        // Open loop only holds if the pipeline keeps up. Judged, like the
        // metrics, on the median launch: a pipeline that cannot keep up
        // falls behind in every launch, whereas a host that freezes the
        // VM for 100 ms spoils one launch and belongs in the latency tail.
        let delivered = med(&all, |s| s.pps);
        if (delivered - relay::RATE).abs() / relay::RATE > relay::RATE_TOLERANCE {
            out.fail(format!("delivered {delivered:.0} packets/s, offered {}", relay::RATE));
        }
        let ratio = med(&all, |s| s.backlog_ratio);
        if ratio > relay::BACKLOG_RATIO {
            out.fail(format!("backlog grows: late windows' p50 is {ratio:.2}x the early ones'"));
        }
    }
    out.metric("packets_per_s", med(&all, |s| s.pps));
    out.metric("latency_p50_ms", window_med(all.iter().copied(), |w| w.0));
    out.metric("latency_p99_ms", window_med(all.iter().copied(), |w| w.1));
    out.metric("cpu_s_per_mpkt", med(&all, |s| s.cpu_s_per_mpkt));
    out.metric("rss_peak_mb", med(&all, |s| s.rss_peak_mb));
    out.metric("setup_s", median(&setups));

    if traced {
        for i in 0..all[0].layers.len() {
            out.layer(all[0].layers[i].0, med(&all, |s| s.layers[i].1));
        }
        if kind == Kind::RelayOpen {
            relay_layers(seed, &all, &stamped, &go, spans, root, &mut out);
        }
    }
    spans.close(root);
    out
}

/// The traced relay run's extra rows: per-hop percentiles from the
/// stamped launches, per-packet spans, the tracing overhead, and the
/// same pipeline closed-loop.
fn relay_layers(
    seed: u64,
    plain: &[&Sample],
    stamped: &[Sample],
    go: &dyn Fn(&str, u64) -> Result<Launch, String>,
    spans: &Spans,
    root: u64,
    out: &mut Outcome,
) {
    let mut merged: HashMap<&str, Histogram> = HashMap::new();
    for s in stamped {
        for name in ["gen_late", "hop1", "hop2", "latency"] {
            if let Some(h) = s.hists.get(name) {
                merged.entry(name).or_default().merge(h);
            }
        }
        for row in &s.stamps {
            let [_, due, emit, relay_in, relay_out, sink_in] = *row;
            let packet = spans.add("relay.packet", root, due, sink_in);
            spans.add("relay.gen_wait", packet, due, emit);
            spans.add("relay.hop1", packet, emit, relay_in);
            spans.add("relay.relay", packet, relay_in, relay_out);
            spans.add("relay.hop2", packet, relay_out, sink_in);
        }
    }
    let pct = |name: &str, p: f64| merged.get(name).map_or(0.0, |h| h.percentile(p));
    out.layer("relay.gen_late_p99_us", pct("gen_late", 99.0) / 1e3);
    out.layer("relay.hop1_p50_us", pct("hop1", 50.0) / 1e3);
    out.layer("relay.hop1_p99_us", pct("hop1", 99.0) / 1e3);
    out.layer("relay.hop2_p50_us", pct("hop2", 50.0) / 1e3);
    out.layer("relay.hop2_p99_us", pct("hop2", 99.0) / 1e3);
    out.layer("relay.latency_p999_ms", pct("latency", 99.9) / 1e6);

    let untraced_p50 = window_med(plain.iter().copied(), |w| w.0);
    let traced_p50 = window_med(stamped, |w| w.0);
    let overhead = if stamped.is_empty() || untraced_p50 == 0.0 {
        0.0
    } else {
        traced_p50 / untraced_p50 - 1.0
    };
    out.layer("trace.overhead_share", overhead);

    // Closed loop, 1 KiB: what the same three processes move flat out.
    let flat = RelayParams {
        packets: relay::FLAT_PACKETS,
        rate: 0.0,
        payload: relay::FLAT_PAYLOAD,
        seed,
        traced: false,
        settle: true,
    };
    out.attempted += flat.packets;
    let flat_pps = match go(&flat.to_xml("relay-flat"), root) {
        Ok(l) => {
            let d = &l.workers[RELAY_SINK_WORKER].dump;
            let (arrived, dup) = (d.count("arrived"), d.count("duplicates"));
            if arrived != flat.packets || dup > 0 || l.report.packets_lost > 0 {
                out.failed += arrived.abs_diff(flat.packets) + dup + l.report.packets_lost;
                out.notes
                    .push(format!("closed-loop relay delivered {arrived} of {}", flat.packets));
            }
            let stream_ns = d.count("last_ns").saturating_sub(d.count("first_due_ns")).max(1);
            arrived as f64 / (stream_ns as f64 / 1e9)
        }
        Err(e) => {
            out.failed += flat.packets;
            out.notes.push(format!("closed-loop relay: {e}"));
            0.0
        }
    };
    out.layer("relay.flat_pps", flat_pps);
}
