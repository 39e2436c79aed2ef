//! End-to-end tests of the distributed runtime through the real CLI
//! binary: a coordinator (`gates-cli run --engine dist`) plus
//! `gates-cli worker` child processes wired over loopback TCP.
//!
//! Two scenarios:
//!
//! * the README's loopback demo — three workers run the adaptive
//!   counting-samples config and the converged suggested `k` matches a
//!   virtual-time (DES) run of the same config within 10%;
//! * a worker is killed mid-run — the senders that lose their peer
//!   retry with backoff, the coordinator records the loss, and the run
//!   drains to a clean exit instead of hanging.
//!
//! Then the seeded chaos drills, and at the end flow-control tests that
//! run the coordinator and the workers as threads of the test process,
//! so their stages can report to the test directly.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use gates::core::report::RunReport;
use gates::core::{Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor, Topology};
use gates::engine::{DistConfig, DistEngine, DistWorker, RunOptions};
use gates::grid::{AppConfig, ApplicationRepository};
use gates::net::{Bandwidth, LinkSpec};
use gates::sim::{SimDuration, SimTime};

const CLI: &str = env!("CARGO_BIN_EXE_gates-cli");

fn config_path(name: &str) -> String {
    format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn spawn_worker(name: &str, site: &str, coordinator: &str) -> Child {
    spawn_worker_with(name, site, coordinator, &[])
}

/// A worker process with extra `gates-cli worker` flags.
fn spawn_worker_with(name: &str, site: &str, coordinator: &str, extra: &[&str]) -> Child {
    Command::new(CLI)
        .args(["worker", "--name", name, "--site", site, "--coordinator", coordinator])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

/// Start a coordinator process and block until it announces its control
/// address on stdout. Returns the child, the address, and a thread that
/// keeps draining the rest of stdout (so the pipe never fills up).
fn spawn_coordinator(args: &[&str]) -> (Child, String, std::thread::JoinHandle<String>) {
    let mut child = Command::new(CLI)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let stdout = child.stdout.take().expect("coordinator stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read coordinator stdout") == 0 {
            let _ = child.kill();
            panic!("coordinator exited before announcing its address");
        }
        if let Some(rest) = line.trim().strip_prefix("coordinator listening on ") {
            break rest.to_string();
        }
    };
    let pump = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });
    (child, addr, pump)
}

fn wait_with_timeout(child: &mut Child, dur: Duration, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + dur;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not exit within {dur:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Extract the final value from a `parameter <stage>/<param>: start
/// <a>, final <b>` line printed by the CLI.
fn param_final(stdout: &str, stage: &str, param: &str) -> f64 {
    let prefix = format!("parameter {stage}/{param}: ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no `{prefix}...` line in output:\n{stdout}"));
    line.rsplit("final ")
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparsable parameter line: {line}"))
}

/// The README quickstart, verbatim in test form: three workers plus a
/// coordinator run the adaptive counting-samples demo over loopback,
/// and the adaptation loop converges to the same suggested summary
/// size `k` as the deterministic virtual-time engine (within 10%).
#[test]
fn loopback_demo_matches_des() {
    let cfg = config_path("count_samps_dist.xml");
    let (mut coord, addr, pump) = spawn_coordinator(&[
        "run",
        &cfg,
        "--engine",
        "dist",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "3",
        "--observe-ms",
        "20",
        "--adapt-ms",
        "100",
        "--max-time",
        "30",
    ]);
    let mut workers = vec![
        spawn_worker("w0", "site-0", &addr),
        spawn_worker("w1", "site-1", &addr),
        spawn_worker("wc", "central", &addr),
    ];

    let status = wait_with_timeout(&mut coord, Duration::from_secs(90), "coordinator");
    let stdout = pump.join().expect("stdout pump");
    assert!(status.success(), "coordinator failed; output:\n{stdout}");
    for w in &mut workers {
        let st = wait_with_timeout(w, Duration::from_secs(15), "worker");
        assert!(st.success(), "a worker exited nonzero");
    }

    // Same config, same observation/adaptation cadence, virtual time.
    let des = Command::new(CLI)
        .args(["run", &cfg, "--engine", "des", "--observe-ms", "20", "--adapt-ms", "100"])
        .output()
        .expect("run DES engine");
    assert!(des.status.success(), "DES run failed");
    let des_out = String::from_utf8_lossy(&des.stdout).to_string();

    for stage in ["summarizer-0", "summarizer-1"] {
        let dist_k = param_final(&stdout, stage, "k");
        let des_k = param_final(&des_out, stage, "k");
        assert!(
            (dist_k - des_k).abs() <= 0.10 * des_k.abs(),
            "{stage}: distributed k={dist_k} diverged from DES k={des_k} by more than 10%"
        );
    }

    // A clean run must not report phantom losses: every worker stayed up,
    // so the partial-run machinery must stay silent.
    assert!(!stdout.contains("lost worker:"), "clean run reported lost workers; output:\n{stdout}");
}

/// Kill the worker hosting the collector mid-run. The coordinator must
/// notice, reassign the collector to a survivor via the matchmaker, ship
/// its last checkpoint there, and the neighbors must re-dial the adopted
/// stage so the run completes — with the loss named in the final report
/// rather than silently absorbed, and not one packet lost or consumed
/// twice across the failover.
#[test]
fn killed_worker_reconnects_with_backoff_then_drains() {
    // A 4-second stream so the kill lands mid-run.
    let dir = std::env::temp_dir();
    let cfg = dir.join("gates_dist_kill.xml");
    std::fs::write(
        &cfg,
        r#"<application name="count-samps-kill" repository="count-samps">
  <param name="sources" value="2"/>
  <param name="items_per_source" value="8000"/>
  <param name="rate" value="2000"/>
  <param name="mode" value="adaptive"/>
  <param name="k_init" value="40"/>
  <param name="bandwidth_kb" value="1000"/>
  <param name="seed" value="7"/>
</application>
"#,
    )
    .expect("write kill-test config");
    let trace = dir.join("gates_dist_kill_trace.jsonl");
    let _ = std::fs::remove_file(&trace);

    let (mut coord, addr, pump) = spawn_coordinator(&[
        "run",
        cfg.to_str().unwrap(),
        "--engine",
        "dist",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "3",
        "--observe-ms",
        "20",
        "--adapt-ms",
        "100",
        "--max-time",
        "30",
        "--drain-ms",
        "1000",
        "--retry-attempts",
        "3",
        "--retry-base-ms",
        "50",
        "--checkpoint-every",
        "8",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let mut w0 = spawn_worker("w0", "site-0", &addr);
    let mut w1 = spawn_worker("w1", "site-1", &addr);
    let mut center = spawn_worker("wc", "central", &addr);

    // Let the run get going, then take the collector's process down.
    std::thread::sleep(Duration::from_millis(1800));
    center.kill().expect("kill central worker");
    let _ = center.wait();

    let status = wait_with_timeout(&mut coord, Duration::from_secs(90), "coordinator");
    let stdout = pump.join().expect("stdout pump");
    assert!(status.success(), "coordinator must survive a lost worker; output:\n{stdout}");
    for (w, name) in [(&mut w0, "w0"), (&mut w1, "w1")] {
        let st = wait_with_timeout(w, Duration::from_secs(30), name);
        assert!(st.success(), "surviving worker {name} exited nonzero");
    }

    // The loss is surfaced in the human-readable report...
    assert!(
        stdout.contains("lost worker: wc"),
        "final report must name the killed worker; output:\n{stdout}"
    );

    // ...yet nothing is lost: the frames unacked at the kill replay to
    // the adopted collector...
    let (lost, _replayed, _deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "at-least-once delivery must repair a SIGKILL; output:\n{stdout}");

    // ...and every recovery step left a flight-recorder event.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        trace_text.contains("\"kind\":\"reconnecting\""),
        "senders must retry the dead peer with backoff; trace:\n{trace_text}"
    );
    assert!(
        trace_text.contains("\"kind\":\"worker_lost\""),
        "coordinator must record the lost worker; trace:\n{trace_text}"
    );
    assert!(
        trace_text.contains("\"kind\":\"reassigned\""),
        "coordinator must re-place the stranded stage on a survivor; trace:\n{trace_text}"
    );
    assert!(
        trace_text.contains("\"kind\":\"restored\""),
        "a survivor must adopt and restart the stranded stage; trace:\n{trace_text}"
    );
    assert!(
        trace_text.contains("resumed from checkpoint"),
        "the adopted collector must start from shipped checkpoint state; trace:\n{trace_text}"
    );
    assert!(
        trace_text.contains("\"kind\":\"resumed\""),
        "data must flow into the adopted collector again; trace:\n{trace_text}"
    );

    // Exact conservation across the failover. The adopted collector
    // counts only what it consumed after the checkpoint it restored, so
    // the checkpoint's packet count plus that must equal what the
    // summarizers emitted: a replayed packet consumed twice, or one
    // never replayed, breaks the sum.
    let restored_at: u64 = trace_text
        .split("resumed from checkpoint seq ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no checkpoint seq in the restored event; trace:\n{trace_text}"));
    let (_, out0) = stage_pkts(&stdout, "summarizer-0");
    let (_, out1) = stage_pkts(&stdout, "summarizer-1");
    let (after_restore, _) = stage_pkts(&stdout, "collector");
    assert_eq!(
        restored_at + after_restore,
        out0 + out1,
        "summarizers emitted {out0}+{out1} packets; the collector checkpointed {restored_at} and \
         consumed {after_restore} after its restore;\noutput:\n{stdout}"
    );

    // The adopted collector numbers its own checkpoints on from the one
    // it restored, so the coordinator keeps them: a second failover
    // would otherwise restore the stale first one.
    let meta = trace_text.lines().find(|l| l.contains("\"type\":\"meta\"")).expect("meta event");
    let collector = meta
        .split("{\"stage\":")
        .skip(1)
        .position(|s| s.starts_with("\"collector\""))
        .expect("collector in the placements");
    let (_, after) = trace_text.split_once("\"kind\":\"restored\"").expect("restored event");
    let ckpt_link = format!("\"link\":\"checkpoint-{collector}\"");
    let stale: Vec<&str> = after
        .lines()
        .filter(|l| l.contains(&ckpt_link) && l.contains("not newer than stored"))
        .collect();
    assert!(stale.is_empty(), "the adopted collector's checkpoints were discarded: {stale:?}");
}

/// Pull a `"key":"value"` string field out of a JSONL trace line. Good
/// enough for flight-recorder events, whose string fields never contain
/// escaped quotes.
fn json_str_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat).map(|i| i + pat.len()).unwrap_or(line.len());
    let rest = &line[start..];
    &rest[..rest.find('"').unwrap_or(0)]
}

/// The `(link, node, detail)` signature of every injected fault in a
/// trace, sorted — the wallclock `t` field is stripped so two runs of
/// the same seed can be compared for identical fault schedules.
fn fault_signatures(trace_text: &str) -> Vec<(String, String, String)> {
    let mut sigs: Vec<_> = trace_text
        .lines()
        .filter(|l| l.contains("\"kind\":\"fault_injected\""))
        .map(|l| {
            (
                json_str_field(l, "link").to_string(),
                json_str_field(l, "node").to_string(),
                json_str_field(l, "detail").to_string(),
            )
        })
        .collect();
    sigs.sort();
    sigs
}

/// Run the chaos config through the distributed runtime once and return
/// the coordinator's stdout plus the flight-recorder trace. `chaos: None`
/// runs the same topology fault-free (the baseline for exact-count
/// comparisons).
fn run_dist_with_chaos(cfg: &std::path::Path, chaos: Option<&str>, tag: &str) -> (String, String) {
    run_dist_with_chaos_on(cfg, chaos, tag, &[])
}

/// [`run_dist_with_chaos`] with extra flags for every worker.
fn run_dist_with_chaos_on(
    cfg: &std::path::Path,
    chaos: Option<&str>,
    tag: &str,
    worker_flags: &[&str],
) -> (String, String) {
    let trace = std::env::temp_dir().join(format!("gates_dist_chaos_{tag}.jsonl"));
    let _ = std::fs::remove_file(&trace);
    let mut args = vec![
        "run",
        cfg.to_str().unwrap(),
        "--engine",
        "dist",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "3",
        "--max-time",
        "30",
        "--drain-ms",
        "1000",
        "--retry-attempts",
        "3",
        "--retry-base-ms",
        "50",
        "--trace",
        trace.to_str().unwrap(),
    ];
    if let Some(spec) = chaos {
        args.push("--chaos");
        args.push(spec);
    }
    let (mut coord, addr, pump) = spawn_coordinator(&args);
    let mut workers = vec![
        spawn_worker_with("w0", "site-0", &addr, worker_flags),
        spawn_worker_with("w1", "site-1", &addr, worker_flags),
        spawn_worker_with("wc", "central", &addr, worker_flags),
    ];
    let status = wait_with_timeout(&mut coord, Duration::from_secs(90), "coordinator");
    let stdout = pump.join().expect("stdout pump");
    assert!(status.success(), "coordinator failed under chaos {chaos:?}; output:\n{stdout}");
    for w in &mut workers {
        let st = wait_with_timeout(w, Duration::from_secs(30), "worker");
        assert!(st.success(), "a worker exited nonzero under chaos {chaos:?}");
    }
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    (stdout, trace_text)
}

fn write_chaos_config(name: &str) -> std::path::PathBuf {
    let cfg = std::env::temp_dir().join(format!("{name}.xml"));
    // flush_every=50 so each remote link carries ~120 summary frames —
    // enough volume for percent-level fault rates to actually fire.
    std::fs::write(
        &cfg,
        r#"<application name="count-samps-chaos" repository="count-samps">
  <param name="sources" value="2"/>
  <param name="items_per_source" value="6000"/>
  <param name="rate" value="2000"/>
  <param name="mode" value="distributed"/>
  <param name="k" value="40"/>
  <param name="flush_every" value="50"/>
  <param name="bandwidth_kb" value="1000"/>
  <param name="seed" value="7"/>
</application>
"#,
    )
    .expect("write chaos-test config");
    cfg
}

/// Drops and duplicates on the data plane: the run must still drain to a
/// clean exit with the injected faults surfaced — and the same seed must
/// replay the identical fault schedule on a second run.
#[test]
fn chaos_faults_are_injected_survived_and_deterministic() {
    let cfg = write_chaos_config("gates_dist_chaos_loss");
    let spec = "seed=7,drop=0.05,dup=0.02";
    let (stdout_a, trace_a) = run_dist_with_chaos(&cfg, Some(spec), "loss_a");
    let (_stdout_b, trace_b) = run_dist_with_chaos(&cfg, Some(spec), "loss_b");

    // Faults fired, were counted, and did not cost us a worker.
    assert!(!stdout_a.contains("lost worker:"), "chaos loss run lost a worker:\n{stdout_a}");
    let chaos_line = stdout_a
        .lines()
        .find(|l| l.starts_with("chaos: "))
        .unwrap_or_else(|| panic!("no `chaos:` summary line in output:\n{stdout_a}"));
    let faults: u64 = chaos_line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable chaos line: {chaos_line}"));
    assert!(faults > 0, "drop=0.05 over ~240 frames must inject faults; line: {chaos_line}");

    // Every injected fault left a flight-recorder event...
    let sigs_a = fault_signatures(&trace_a);
    assert!(!sigs_a.is_empty(), "no fault_injected events in trace:\n{trace_a}");
    // ...and the schedule is a pure function of the seed: a second run
    // with the same spec injects exactly the same faults on the same
    // links (drop/dup never perturb frame indices, so the multisets
    // must match event-for-event).
    let sigs_b = fault_signatures(&trace_b);
    assert_eq!(sigs_a, sigs_b, "same seed must replay the identical fault schedule");
}

/// Bit-flipped frames on the data plane: the CRC catches every one, the
/// receiver skips or resets instead of delivering garbage, and the run
/// completes — a corrupted frame must never poison the whole run.
#[test]
fn chaos_corrupted_frames_do_not_poison_the_run() {
    let cfg = write_chaos_config("gates_dist_chaos_corrupt");
    let (stdout, trace_text) = run_dist_with_chaos(&cfg, Some("seed=7,corrupt=0.1"), "corrupt");

    assert!(!stdout.contains("lost worker:"), "corruption run lost a worker:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("chaos: ")),
        "corruption must be counted in the chaos summary; output:\n{stdout}"
    );
    assert!(
        trace_text.contains("\"kind\":\"fault_injected\""),
        "corruptions must be traced as injected faults; trace:\n{trace_text}"
    );
    // The receiving end noticed: corrupted frames were dropped at the
    // CRC check rather than delivered as data.
    assert!(
        trace_text.contains("\"kind\":\"crc_drop\""),
        "receivers must skip corrupted frames; trace:\n{trace_text}"
    );
    // ...and replay repairs every frame the CRC check threw away.
    let (lost, _replayed, _deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "corrupted frames must be replayed; output:\n{stdout}");
    assert_conservation(&stdout, "corrupt=0.1");
}

/// The kill drill under chaos: SIGKILL the collector's worker while the
/// control plane duplicates frames. Failover must still work, and every
/// duplicated Reassign/Checkpoint must be discarded idempotently with a
/// `stale_discarded` trace event instead of being applied twice.
#[test]
fn chaos_failover_discards_duplicate_control_frames_idempotently() {
    let dir = std::env::temp_dir();
    let cfg = dir.join("gates_dist_chaos_kill.xml");
    std::fs::write(
        &cfg,
        r#"<application name="count-samps-chaos-kill" repository="count-samps">
  <param name="sources" value="2"/>
  <param name="items_per_source" value="8000"/>
  <param name="rate" value="2000"/>
  <param name="mode" value="adaptive"/>
  <param name="k_init" value="40"/>
  <param name="flush_every" value="50"/>
  <param name="bandwidth_kb" value="1000"/>
  <param name="seed" value="7"/>
</application>
"#,
    )
    .expect("write chaos-kill config");
    let trace = dir.join("gates_dist_chaos_kill_trace.jsonl");
    let _ = std::fs::remove_file(&trace);

    let (mut coord, addr, pump) = spawn_coordinator(&[
        "run",
        cfg.to_str().unwrap(),
        "--engine",
        "dist",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "3",
        "--observe-ms",
        "20",
        "--adapt-ms",
        "100",
        "--max-time",
        "30",
        "--drain-ms",
        "1000",
        "--retry-attempts",
        "3",
        "--retry-base-ms",
        "50",
        "--checkpoint-every",
        "8",
        "--chaos",
        "seed=7,drop=0.02,dup=0.25,ctrl=on",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let mut w0 = spawn_worker("w0", "site-0", &addr);
    let mut w1 = spawn_worker("w1", "site-1", &addr);
    let mut center = spawn_worker("wc", "central", &addr);

    std::thread::sleep(Duration::from_millis(1800));
    center.kill().expect("kill central worker");
    let _ = center.wait();

    let status = wait_with_timeout(&mut coord, Duration::from_secs(90), "coordinator");
    let stdout = pump.join().expect("stdout pump");
    assert!(status.success(), "coordinator must survive kill + chaos; output:\n{stdout}");
    for (w, name) in [(&mut w0, "w0"), (&mut w1, "w1")] {
        let st = wait_with_timeout(w, Duration::from_secs(30), name);
        assert!(st.success(), "surviving worker {name} exited nonzero");
    }

    assert!(
        stdout.contains("lost worker: wc"),
        "final report must name the killed worker; output:\n{stdout}"
    );
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    // Failover still completes with chaos on both planes...
    assert!(
        trace_text.contains("\"kind\":\"reassigned\""),
        "coordinator must re-place the stranded stage; trace:\n{trace_text}"
    );
    assert!(
        trace_text.contains("\"kind\":\"restored\""),
        "a survivor must adopt the stranded stage; trace:\n{trace_text}"
    );
    // ...faults really were injected on the control plane too...
    assert!(
        trace_text.contains("\"kind\":\"fault_injected\""),
        "chaos must leave fault_injected events; trace:\n{trace_text}"
    );
    // ...and duplicated control frames (including the at-least-once
    // Reassign broadcast the coordinator uses under chaos) were
    // discarded by epoch/seq instead of applied twice.
    assert!(
        trace_text.contains("\"kind\":\"stale_discarded\""),
        "duplicated Reassign/Checkpoint must be idempotently discarded; trace:\n{trace_text}"
    );
}

/// A stage's `(pkts in, pkts out)` from the run's summary table (the
/// block headed `stage  pkts in  pkts out ...` — other tables also lead
/// with stage names, so the parser anchors on that header).
fn stage_pkts(stdout: &str, stage: &str) -> (u64, u64) {
    let mut lines = stdout.lines();
    for l in lines.by_ref() {
        let mut w = l.split_whitespace();
        if w.next() == Some("stage") && l.contains("pkts in") {
            break;
        }
    }
    let row = lines
        .find(|l| l.split_whitespace().next() == Some(stage))
        .unwrap_or_else(|| panic!("no summary-table row for `{stage}` in output:\n{stdout}"));
    let mut w = row.split_whitespace().skip(1);
    let pkts_in = w.next().and_then(|v| v.parse().ok());
    let pkts_out = w.next().and_then(|v| v.parse().ok());
    match (pkts_in, pkts_out) {
        (Some(i), Some(o)) => (i, o),
        _ => panic!("unparsable summary row: {row}"),
    }
}

/// Parse the CLI's `delivery: X lost, Y replayed, Z deduped, W us
/// stalled` accounting line.
fn delivery_counts(stdout: &str) -> (u64, u64, u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("delivery: "))
        .unwrap_or_else(|| panic!("no `delivery:` line in output:\n{stdout}"));
    let nums: Vec<u64> = line.split_whitespace().filter_map(|w| w.parse().ok()).collect();
    assert_eq!(nums.len(), 4, "unparsable delivery line: {line}");
    (nums[0], nums[1], nums[2], nums[3])
}

/// Exact packet conservation across the remote links: everything the
/// summarizers emitted arrived at the collector exactly once — no loss,
/// no duplicate delivery. (The summarizers' only out-edge is the remote
/// link to the collector, and the collector's only inputs are those two
/// links, so the counts must balance to the packet.)
fn assert_conservation(stdout: &str, what: &str) {
    let (_, out0) = stage_pkts(stdout, "summarizer-0");
    let (_, out1) = stage_pkts(stdout, "summarizer-1");
    let (got, _) = stage_pkts(stdout, "collector");
    assert_eq!(
        got,
        out0 + out1,
        "{what}: summarizers emitted {out0}+{out1} packets but the collector consumed {got};\n\
         output:\n{stdout}"
    );
}

/// Aggressive duplication on the data plane (`dup=0.05`): every
/// duplicate — including any replayed end-of-stream marker — must be
/// discarded by the receiver's edge-sequence dedup, never delivered
/// twice and never allowed to double-close a drain window. The
/// collector must consume *exactly* what the summarizers emitted, and
/// the dedup work must be visible in the delivery accounting.
#[test]
fn chaos_duplicates_are_deduped_exactly() {
    let cfg = write_chaos_config("gates_dist_chaos_dup");
    let (stdout, _) = run_dist_with_chaos(&cfg, Some("seed=7,dup=0.05"), "dup");

    assert!(!stdout.contains("lost worker:"), "dup-only run lost a worker:\n{stdout}");
    let (lost, _replayed, deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "duplication must never lose frames; output:\n{stdout}");
    assert!(deduped > 0, "dup=0.05 must exercise receiver dedup; output:\n{stdout}");
    assert_conservation(&stdout, "dup=0.05");
}

/// The drop+dup chaos regime on the at-least-once plane: dropped frames
/// are repaired by NAK-triggered replay and duplicates are deduped, so
/// the run ends with zero packets lost and the collector consuming
/// exactly what the summarizers emitted — drops are *repaired*, not
/// absorbed into fuzzy totals.
#[test]
fn chaos_drops_are_replayed_to_zero_loss() {
    let cfg = write_chaos_config("gates_dist_chaos_zeroloss");
    let (stdout, _) = run_dist_with_chaos(&cfg, Some("seed=7,drop=0.02,dup=0.01"), "zeroloss");

    assert!(!stdout.contains("lost worker:"), "zero-loss run lost a worker:\n{stdout}");
    let (lost, replayed, _deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "drop=0.02 must be fully repaired by replay; output:\n{stdout}");
    assert!(replayed > 0, "repairing drops must replay frames; output:\n{stdout}");
    assert_conservation(&stdout, "drop=0.02,dup=0.01");
}

/// Worker `wc` (the collector's host) is cut off from every peer for
/// 800 ms mid-run. Once the partition heals, the senders reconnect and
/// replay what it missed: zero loss, exact conservation.
#[test]
fn chaos_partition_heals_to_zero_loss() {
    let cfg = write_chaos_config("gates_dist_chaos_partition");
    let spec = Some("seed=7,partition=wc@1s+800ms");
    let (stdout, trace_text) = run_dist_with_chaos(&cfg, spec, "partition");

    assert!(
        trace_text.contains("\"kind\":\"fault_injected\""),
        "the partition must fire mid-run; trace:\n{trace_text}"
    );
    let (lost, _replayed, _deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "a healed partition must lose nothing; output:\n{stdout}");
    assert_conservation(&stdout, "partition=wc@1s+800ms");
    // The partitioned worker accepts dials and drops them: the senders
    // must back off between re-dials, not spin on them.
    let reconnects = trace_text.matches("\"kind\":\"reconnecting\"").count();
    assert!(reconnects <= 200, "{reconnects} re-dials in an 800 ms partition");
}

/// Every fault kind at once on the data plane: drops, bit flips,
/// delays, duplicates and connection resets. The run must still drain
/// to zero loss and exact conservation.
#[test]
fn chaos_mixed_faults_drain_clean() {
    let cfg = write_chaos_config("gates_dist_chaos_mixed");
    let spec = Some("seed=7,drop=0.02,corrupt=0.005,delay=5ms..40ms,dup=0.01,reset=0.002");
    let (stdout, trace_text) = run_dist_with_chaos(&cfg, spec, "mixed");

    assert!(
        trace_text.contains("\"kind\":\"fault_injected\""),
        "mixed regime must inject faults; trace:\n{trace_text}"
    );
    let (lost, _replayed, _deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "mixed faults must be fully repaired; output:\n{stdout}");
    assert_conservation(&stdout, "drop,corrupt,delay,dup,reset");
}

/// The drop+dup drill again, with every worker on one executor thread
/// that also drives its sockets (`--cores 1 --reactors 1`): stages,
/// socket I/O and acks interleave on a single thread, and delivery must
/// still end with zero loss and exact conservation.
#[test]
fn single_thread_workers_repair_chaos_drops_to_zero_loss() {
    let cfg = write_chaos_config("gates_dist_chaos_zeroloss_1t");
    let spec = Some("seed=7,drop=0.02,dup=0.01");
    let one_thread = ["--cores", "1", "--reactors", "1"];
    let (stdout, _) = run_dist_with_chaos_on(&cfg, spec, "zeroloss_1t", &one_thread);

    assert!(!stdout.contains("lost worker:"), "zero-loss run lost a worker:\n{stdout}");
    let (lost, replayed, _deduped, _stalled) = delivery_counts(&stdout);
    assert_eq!(lost, 0, "drop=0.02 must be fully repaired by replay; output:\n{stdout}");
    assert!(replayed > 0, "repairing drops must replay frames; output:\n{stdout}");
    assert_conservation(&stdout, "one thread per worker, drop=0.02,dup=0.01");
}

// ---------------------------------------------------------------------
// Flow control, in process
// ---------------------------------------------------------------------

/// What the stages of an in-process probe run saw.
#[derive(Clone, Default)]
struct ProbeLog {
    /// When any source made its first poll.
    first_poll: Arc<Mutex<Option<Instant>>>,
    /// `(stream, seq, when)` of every packet the sink processed.
    arrivals: Arc<Mutex<Vec<(u32, u64, Instant)>>>,
}

/// Streams `left` packets as fast as the pipeline takes them.
struct CountingSource {
    stream: u32,
    next: u64,
    left: u64,
    log: ProbeLog,
}

impl StreamProcessor for CountingSource {
    fn process(&mut self, _packet: Packet, _api: &mut StageApi) {}

    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        self.log.first_poll.lock().unwrap().get_or_insert_with(Instant::now);
        if self.left == 0 {
            return SourceStatus::Done;
        }
        self.left -= 1;
        api.emit(Packet::data(self.stream, self.next, 1, Bytes::from_static(b"credit")));
        self.next += 1;
        SourceStatus::Continue { next_poll: SimDuration::ZERO }
    }
}

/// Records every arrival, then spends `work` on it.
struct RecordingSink {
    work: Duration,
    log: ProbeLog,
}

impl StreamProcessor for RecordingSink {
    fn process(&mut self, packet: Packet, _api: &mut StageApi) {
        self.log.arrivals.lock().unwrap().push((packet.stream_id, packet.seq, Instant::now()));
        if !self.work.is_zero() {
            std::thread::sleep(self.work);
        }
    }
}

/// A disconnected in-edge is closed with an injected end-of-stream after
/// this long; a probe run that takes it has lost its own marker.
const PROBE_DRAIN_WINDOW: Duration = Duration::from_secs(10);

/// Sources `src-<i>` on sites `site-<i>`, the `i`-th sending
/// `packets[i]` packets, each over its own blocking remote edge with
/// `buffer_packets = 2` into `sink` (site `sink`, queue of 64), which
/// spends `work` per packet. The sink's queue is observed every
/// millisecond. Fails if the run outlasts half the drain window.
fn run_probe(packets: &[u64], work: Duration, cores: usize) -> (RunReport, ProbeLog) {
    let log = ProbeLog::default();
    let mut repo = ApplicationRepository::new();
    {
        let (packets, log) = (packets.to_vec(), log.clone());
        repo.publish("credit-probe", move |_| {
            let mut t = Topology::new();
            let sink_log = log.clone();
            let sink = t
                .add_stage(
                    StageBuilder::new("sink")
                        .queue_capacity(64)
                        .processor(move || RecordingSink { work, log: sink_log.clone() }),
                )
                .map_err(|e| e.to_string())?;
            let link =
                LinkSpec::with_bandwidth(Bandwidth::bytes_per_sec(1e12)).buffer(2).blocking();
            for (i, &left) in packets.iter().enumerate() {
                let log = log.clone();
                let stream = i as u32;
                let source = t
                    .add_stage_raw(
                        StageBuilder::new(format!("src-{i}")).site(format!("site-{i}")).processor(
                            move || CountingSource { stream, next: 0, left, log: log.clone() },
                        ),
                    )
                    .map_err(|e| e.to_string())?;
                t.connect(source, sink, link.clone());
            }
            Ok(t)
        });
    }
    let xml = AppConfig::new("credit-probe", "credit-probe").to_xml();
    let opts = RunOptions::default()
        .observe_every(SimDuration::from_millis(1))
        .max_time(SimTime::from_secs_f64(30.0));
    let config = DistConfig::default().drain_window(PROBE_DRAIN_WINDOW);
    let engine = DistEngine::bind(xml, "127.0.0.1:0", packets.len() + 1, opts, config)
        .expect("bind coordinator");
    let addr = engine.local_addr().expect("coordinator address").to_string();
    let sites = (0..packets.len()).map(|i| format!("site-{i}")).chain(["sink".to_string()]);
    let workers: Vec<_> = sites
        .map(|site| {
            let (repo, addr) = (repo.clone(), addr.clone());
            std::thread::spawn(move || {
                DistWorker::new(site.clone(), addr).site(site).cores(cores).reactors(1).run(&repo)
            })
        })
        .collect();
    let started = Instant::now();
    let report = engine.run(&repo).expect("coordinator run");
    for w in workers {
        w.join().expect("worker thread").expect("worker run");
    }
    let took = started.elapsed();
    assert!(
        took < PROBE_DRAIN_WINDOW / 2,
        "the run took {took:?}: a stream must end on its own end-of-stream marker"
    );
    (report, log)
}

/// Every stream arrived whole, once and in order, and the coordinator
/// counts no loss.
fn assert_delivered_exactly(report: &RunReport, log: &ProbeLog, packets: &[u64]) {
    assert_eq!(report.packets_lost, 0, "no packet may be lost");
    let arrivals = log.arrivals.lock().unwrap();
    for (stream, &n) in packets.iter().enumerate() {
        let seqs: Vec<u64> =
            arrivals.iter().filter(|a| a.0 == stream as u32).map(|a| a.1).collect();
        assert_eq!(
            seqs,
            (0..n).collect::<Vec<_>>(),
            "stream {stream}: every packet once, in order"
        );
    }
    let sink = report.stages.iter().find(|s| s.name == "sink").expect("sink report");
    let sent: u64 =
        report.stages.iter().filter(|s| s.name.starts_with("src-")).map(|s| s.packets_out).sum();
    assert_eq!(sink.packets_in, sent, "conservation: the sink consumed what the sources sent");
}

/// A slow consumer behind a blocking remote edge with two packets of
/// buffer holds at most two unconsumed packets from it: credit returns
/// only when the stage dequeues, not when a packet reaches its queue.
#[test]
fn credit_bounds_what_a_slow_consumer_holds() {
    // Slow enough that the sending worker finishes (and stops) with its
    // last packets still waiting for credit.
    let packets = [40];
    let (report, log) = run_probe(&packets, Duration::from_millis(15), 1);
    assert_delivered_exactly(&report, &log, &packets);
    let sink = report.stages.iter().find(|s| s.name == "sink").expect("sink report");
    assert!(sink.queue.count() > 20, "the sink's queue was observed ({})", sink.queue.count());
    assert!(
        sink.queue.max() <= 2.0,
        "the sink held {} unconsumed packets from a buffer-2 edge",
        sink.queue.max()
    );
}

/// Fan-in: two senders of different volume into one slow stage, on a
/// two-thread pool. Each dequeue credits the edge its packet came from,
/// so neither edge stalls or overruns: together they hold at most their
/// two buffers, and both streams arrive whole.
#[test]
fn credit_is_returned_per_edge_under_fan_in() {
    let packets = [300, 100];
    let (report, log) = run_probe(&packets, Duration::from_micros(500), 2);
    assert_delivered_exactly(&report, &log, &packets);
    let sink = report.stages.iter().find(|s| s.name == "sink").expect("sink report");
    assert!(
        sink.queue.max() <= 4.0,
        "the sink held {} unconsumed packets from two buffer-2 edges",
        sink.queue.max()
    );
}

/// A sender blocked on a full buffer-2 bridge is woken when its remote
/// sender drains the bridge, not by a retry timer: 2 000 packets to a
/// fast consumer stream in well under the second a 1 ms retry would
/// take at two packets per tick (timed in optimized builds, as CI's
/// `delivery` job runs it).
#[test]
fn a_drained_bridge_wakes_its_sender() {
    let packets = [2_000];
    let (report, log) = run_probe(&packets, Duration::ZERO, 1);
    assert_delivered_exactly(&report, &log, &packets);
    let first = log.first_poll.lock().unwrap().expect("the source ran");
    let last = log.arrivals.lock().unwrap().last().expect("packets arrived").2;
    let took = last - first;
    // Only an optimized build moves packets fast enough for the bound to
    // tell waking from polling; a debug build still checks delivery.
    if !cfg!(debug_assertions) {
        assert!(took < Duration::from_millis(500), "2 000 packets took {took:?}");
    }
}
