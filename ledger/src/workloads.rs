//! Every constant that sizes the four workloads; nothing about load is
//! decided anywhere else. Their permanent names, and why each exists, are
//! in `BENCHMARK.json`.
//!
//! Sizing target: `nproc` = 2. Every worker runs with one executor thread
//! and one reactor; no workload uses more than three workers plus the
//! in-process coordinator; every source stage is one thread of work.

use std::time::Duration;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// Repeats per workload in `ledger run` (each a full `run_seconds` run).
pub const REPEATS: usize = 3;
/// `ledger run --smoke`: one short run per workload, same code paths.
pub const SMOKE_SECONDS: f64 = 1.0;

/// Constants shared by the three workloads that run on worker processes.
pub mod dist {
    use super::Duration;

    /// Zero-length launches timed for `setup_s` (their median is
    /// reported); they also warm the page cache before measuring.
    pub const SETUP_LAUNCHES: usize = 5;
    /// The engine's own stop: a full launch streams for about half a
    /// second, so one still streaming now is wedged. It fails, and its
    /// packets count as failed — nothing is retried.
    pub const ENGINE_STOP: Duration = Duration::from_secs(4);
    /// Hard deadline of one launch, behind the engine's stop and its
    /// report grace: a pipeline that does not even stop ends here
    /// instead of hanging the run.
    pub const LAUNCH_TIMEOUT: Duration = Duration::from_secs(12);
    /// A run must end with at least this many measured launches per
    /// second of run (about 1.5 fit); a median over fewer is not reported
    /// as one.
    pub const MIN_LAUNCHES_PER_S: f64 = 0.5;
    /// How long every source of a non-empty stream waits before its first
    /// packet. A worker's remote senders connect in the first millisecond
    /// or two after `Start`; a packet emitted while one is between
    /// `Reactor::register` and `RemoteWake::install`
    /// (crates/engine/src/dist/worker.rs, `RemoteSender::run`) pings an
    /// empty slot, the ping is lost, and the parked sender — no deadline,
    /// disarmed — never drains its bridge: the launch wedges (about 1 in
    /// 360 before this wait). Starting the stream after the senders are
    /// installed keeps that start-up race, which is the engine's to fix,
    /// out of every measurement.
    pub const SETTLE: Duration = Duration::from_millis(20);
    /// Share of each launch's stream discarded as warm-up before
    /// latencies count.
    pub const WARMUP_SHARE: f64 = 0.10;
    /// Top-k of the count-samps query the accuracy check scores.
    pub const TOP_K: usize = 10;
    /// Lowest acceptable `top_k_accuracy` score (0–100 scale).
    pub const MIN_ACCURACY: f64 = 90.0;
}

/// `cs-central-dist`.
pub mod cs_central {
    /// `(worker, site)`: the source alone on one process, the collector
    /// on the other.
    pub const WORKERS: [(&str, &str); 2] = [("w0", "site-0"), ("wc", "central")];
    /// Source stages.
    pub const SOURCES: usize = 1;
    /// Records per packet: 100 × u64 = 800 B payloads.
    pub const BATCH: u64 = 100;
    /// Packets per source per launch: ≈0.55 s of stream on the reference
    /// box. Launch-to-launch noise is a fresh draw per launch (where the
    /// scheduler put the threads), not within-launch sampling error, so
    /// many short launches and their median beat few long ones: about
    /// thirty fit in `RUN_SECONDS`, and the median shrugs off the few
    /// that run in the faster regime a box shows for some seconds after
    /// a CPU-heavy spell.
    pub const PACKETS: u64 = 1_350;
}

/// `cs-summ-dist`.
pub mod cs_summ {
    /// Two source+summarizer pairs on their own processes, the collector
    /// on a third.
    pub const WORKERS: [(&str, &str); 3] = [("w0", "site-0"), ("w1", "site-1"), ("wc", "central")];
    /// Source stages.
    pub const SOURCES: usize = 2;
    /// Records per packet.
    pub const BATCH: u64 = 100;
    /// Packets per source per launch (≈0.55 s of stream).
    pub const PACKETS: u64 = 25_000;
    /// Counting-samples footprint per summarizer.
    pub const K: u64 = 100;
    /// Records between summary flushes: 1 summary per 50 packets.
    pub const FLUSH_EVERY: u64 = 5_000;
}

/// `relay-open-dist`.
pub mod relay {
    /// One stage per process.
    pub const WORKERS: [(&str, &str); 3] = [("wg", "gen"), ("wm", "mid"), ("wo", "out")];
    /// Offered rate, packets/s — about a third of the closed-loop
    /// capacity of the same pipeline on the reference box.
    pub const RATE: f64 = 20_000.0;
    /// Payload bytes.
    pub const PAYLOAD: usize = 256;
    /// Packets per launch (0.55 s at `RATE`).
    pub const PACKETS: u64 = 11_000;
    /// The median launch's delivered rate must be within this share of
    /// the offered rate.
    pub const RATE_TOLERANCE: f64 = 0.005;
    /// In the median launch, the p50 of the last third of the latency
    /// windows may be at most this multiple of the first third's (a
    /// growing backlog pulls them apart).
    pub const BACKLOG_RATIO: f64 = 1.5;
    /// Closed-loop companion (`relay.flat_pps`, traced run only).
    pub const FLAT_PAYLOAD: usize = 1_024;
    /// Packets of the closed-loop companion launch.
    pub const FLAT_PACKETS: u64 = 60_000;
}

/// `des-sweep`.
pub mod des {
    /// Fixed summary sizes of the figure-6 versions…
    pub const FIXED_K: [f64; 4] = [40.0, 80.0, 120.0, 160.0];
    /// …and the adaptive version's `(init, min, max)`.
    pub const ADAPT_K: (f64, f64, f64) = (100.0, 10.0, 240.0);
    /// Link bandwidths, KB/s, slowest first.
    pub const BANDWIDTHS_KB: [f64; 4] = [1.0, 10.0, 100.0, 1_000.0];
    /// Sources and items per source of every count-samps cell (paper).
    pub const SOURCES: usize = 4;
    /// Items each source generates.
    pub const ITEMS_PER_SOURCE: u64 = 25_000;
    /// Summarizer flush period, records (as `fig6`).
    pub const FLUSH_EVERY: u64 = 250;
    /// Figure-8 processing costs, ms/byte.
    pub const COSTS_MS: [f64; 5] = [1.0, 5.0, 8.0, 10.0, 20.0];
    /// Virtual seconds each comp-steer cell runs.
    pub const STEER_HORIZON_S: u64 = 400;
    /// Adaptation rounds averaged for the converged sampling factor.
    pub const STEER_TAIL: usize = 50;
}
