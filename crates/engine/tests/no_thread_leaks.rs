//! A default threaded run must leave no detached threads behind: no
//! `gates-exec-*` pool workers.
//!
//! This lives in its own single-test integration binary on purpose: the
//! assertion scans every thread in the process, so it cannot share a
//! process with tests that legitimately have pools running in parallel.

use bytes::Bytes;
use gates_core::{Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor, Topology};
use gates_engine::{RunOptions, ThreadedEngine};
use gates_grid::{Deployer, ResourceRegistry};
use gates_net::LinkSpec;
use gates_sim::{SimDuration, SimTime};

/// Names of every live thread in this process (Linux).
fn live_thread_names() -> Vec<String> {
    let mut names = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return names;
    };
    for task in tasks.flatten() {
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            names.push(comm.trim().to_string());
        }
    }
    names
}

struct Burst(u32);
impl StreamProcessor for Burst {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.0 == 0 {
            return SourceStatus::Done;
        }
        self.0 -= 1;
        api.emit(Packet::data(0, 0, 1, Bytes::from_static(b"x")));
        SourceStatus::Continue { next_poll: SimDuration::from_micros(100) }
    }
}

struct Sink;
impl StreamProcessor for Sink {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
}

fn run_once(opts: RunOptions) {
    let mut t = Topology::new();
    let s = t.add_stage_raw(StageBuilder::new("src").processor(|| Burst(25))).unwrap();
    let k = t.add_stage(StageBuilder::new("sink").processor(|| Sink)).unwrap();
    t.connect(s, k, LinkSpec::local().blocking());
    let registry = ResourceRegistry::uniform_cluster(&["a", "b"]);
    let plan = Deployer::new().deploy(&t, &registry).unwrap();
    let report = ThreadedEngine::new(t, &plan, opts).unwrap().run().unwrap();
    assert_eq!(report.stage("sink").unwrap().packets_in, 25);
}

#[test]
fn runs_leave_no_engine_threads_behind() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipping: /proc scan is Linux-only");
        return;
    }
    // A clean finish and a budget-stopped run: neither may leak.
    run_once(RunOptions::default().max_time(SimTime::from_secs_f64(20.0)));
    run_once(RunOptions::default().max_time(SimTime::from_secs_f64(0.05)));

    let leaked: Vec<String> =
        live_thread_names().into_iter().filter(|n| n.starts_with("gates-exec")).collect();
    assert!(leaked.is_empty(), "engine threads survived run(): {leaked:?}");
}
