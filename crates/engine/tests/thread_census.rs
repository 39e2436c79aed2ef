//! A distributed worker runs on its executor pool threads and the thread
//! that called `run`, and nothing else: no helper thread that only
//! sleeps and polls (timer driver, drain monitor, partition timer,
//! budget watchdog, report joiner), and no thread per outgoing remote
//! edge — its sender dials, backs off and re-dials as a reactor source,
//! through a partition and after it heals.
//!
//! This lives in its own single-test integration binary on purpose: the
//! census scans every thread in the process, so it cannot share a
//! process with tests that run pools of their own.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gates_core::trace::FlightRecorder;
use gates_core::{Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor, Topology};
use gates_engine::{DistConfig, DistEngine, DistWorker, RunOptions};
use gates_grid::{AppConfig, ApplicationRepository};
use gates_net::{FaultPlan, LinkSpec};
use gates_sim::{SimDuration, SimTime};

/// Names of every live thread in this process (Linux).
fn live_thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect()
}

/// Emits as many packets as it counts, one every two milliseconds.
struct Paced(u32);
impl StreamProcessor for Paced {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.0 == 0 {
            return SourceStatus::Done;
        }
        self.0 -= 1;
        api.emit(Packet::data(0, self.0 as u64, 1, Bytes::from_static(b"census")));
        SourceStatus::Continue { next_poll: SimDuration::from_millis(2) }
    }
}

struct Sink;
impl StreamProcessor for Sink {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
}

#[test]
fn a_partitioned_single_core_worker_runs_no_helper_threads() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipping: /proc scan is Linux-only");
        return;
    }
    let mut repo = ApplicationRepository::new();
    repo.publish("census", |_| {
        let mut t = Topology::new();
        let src = t
            .add_stage_raw(StageBuilder::new("src").site("a").processor(|| Paced(300)))
            .map_err(|e| e.to_string())?;
        let sink = t
            .add_stage(StageBuilder::new("sink").site("b").processor(|| Sink))
            .map_err(|e| e.to_string())?;
        t.connect(src, sink, LinkSpec::local().blocking());
        Ok(t)
    });
    let xml = AppConfig::new("census", "census").to_xml();
    let recorder = Arc::new(FlightRecorder::new(4_096));
    let opts =
        RunOptions::default().max_time(SimTime::from_secs_f64(30.0)).recorder(recorder.clone());
    // The sink's worker drops off the network mid-stream, so the
    // partition window opens and heals while the census runs.
    let plan = FaultPlan::parse("seed=1,partition=b@100ms+200ms").expect("fault plan");
    let config = DistConfig::default().fault(plan);
    let engine = DistEngine::bind(xml, "127.0.0.1:0", 2, opts, config).expect("bind coordinator");
    let addr = engine.local_addr().expect("coordinator address").to_string();

    let sampling = Arc::new(AtomicBool::new(true));
    let census = {
        let sampling = Arc::clone(&sampling);
        std::thread::spawn(move || {
            let mut seen = BTreeSet::new();
            while sampling.load(Ordering::Relaxed) {
                seen.extend(live_thread_names());
                std::thread::sleep(Duration::from_millis(2));
            }
            seen
        })
    };
    let workers: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|site| {
            let (repo, addr) = (repo.clone(), addr.clone());
            std::thread::spawn(move || DistWorker::new(site, addr).site(site).cores(1).run(&repo))
        })
        .collect();
    let report = engine.run(&repo).expect("coordinator run");
    for w in workers {
        w.join().expect("worker thread").expect("worker run");
    }
    sampling.store(false, Ordering::Relaxed);
    let seen = census.join().expect("census thread");

    // The census sampled from before the run began until after it
    // ended, so its samples cover the partition window and the healed
    // link that follows it.
    let trace = recorder.to_jsonl();
    assert!(trace.contains("partition cut"), "the partition window opened");
    assert!(trace.contains("partition healed"), "the partition window ran");
    assert_eq!(report.packets_lost, 0);
    let sink = report.stages.iter().find(|s| s.name == "sink").expect("sink report");
    assert_eq!(sink.packets_in, 300, "every packet crossed the healed partition");
    assert!(seen.contains("gates-exec-0"), "the census ran while pools did: {seen:?}");
    let helpers = ["gates-timer", "gates-drain", "gates-partition", "gates-watchdog", "gates-join"];
    let found: Vec<&String> = seen.iter().filter(|n| helpers.contains(&n.as_str())).collect();
    assert!(found.is_empty(), "sleep-and-poll helper threads ran: {found:?}");
    let tenders: Vec<&String> = seen.iter().filter(|n| n.starts_with("gates-tx-")).collect();
    assert!(tenders.is_empty(), "a thread per remote out-edge ran: {tenders:?}");
}
