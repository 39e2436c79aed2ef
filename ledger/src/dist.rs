//! Launching a pipeline on real worker processes and bringing back
//! everything the ledger measures about it.
//!
//! One [`launch`] = an in-process `DistEngine` coordinator plus this
//! binary re-exec'd once per worker (`ledger --worker …`, the pattern
//! `delivery.rs` and `failover.rs` use). Workers sit behind a
//! kill-on-drop guard and every launch has a hard deadline, so a wedged
//! pipeline fails its workload instead of hanging the benchmark. Each
//! launch works in its own directory, removed when the launch is
//! dropped.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gates_core::report::RunReport;
use gates_engine::{DistConfig, DistEngine, DistWorker, RunOptions};
use gates_grid::ApplicationRepository;
use gates_sim::SimTime;

use crate::spans::Spans;
use crate::stages::{self, WorkerDump};
use crate::sys::{self, Usage};
use crate::workloads::dist::{ENGINE_STOP, LAUNCH_TIMEOUT};

/// What to launch.
pub struct LaunchSpec<'a> {
    /// Application XML handed to the coordinator (and by it to workers).
    pub xml: &'a str,
    /// `(worker name, site label)`, one process each.
    pub workers: &'a [(&'a str, &'a str)],
}

/// One worker process after its run.
pub struct WorkerOutcome {
    /// Exited with status 0.
    pub clean: bool,
    /// CPU and context switches over the process's life.
    pub usage: Usage,
    /// What its stages observed.
    pub dump: WorkerDump,
    /// File prefix of its tap tables (inside the launch directory).
    pub prefix: PathBuf,
}

/// A finished launch.
pub struct Launch {
    /// The coordinator's merged report.
    pub report: RunReport,
    /// Seconds from just before the first spawn until the last worker
    /// was reaped.
    pub wall_s: f64,
    /// CPU the coordinator (this process) used meanwhile.
    pub coordinator_cpu_s: f64,
    /// Per worker, in `LaunchSpec::workers` order.
    pub workers: Vec<WorkerOutcome>,
    _dir: RunDir,
}

impl Launch {
    /// User+system CPU seconds of the coordinator and every worker.
    pub fn cpu_s(&self) -> f64 {
        self.coordinator_cpu_s + self.workers.iter().map(|w| w.usage.cpu_s()).sum::<f64>()
    }

    /// Largest worker peak RSS, MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.workers.iter().map(|w| w.dump.rss_peak_mb).fold(0.0, f64::max)
    }
}

/// A per-launch scratch directory next to the executable (so inside the
/// checkout's build directory), removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new(".")).join("ledger-tmp");
        let dir = base.join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned worker; killed and reaped on drop unless already reaped.
struct WorkerProc {
    child: Child,
    reaped: Option<(bool, Usage)>,
}

impl WorkerProc {
    fn poll(&mut self) -> bool {
        if self.reaped.is_none() {
            // ECHILD cannot happen: nothing else waits on this pid.
            self.reaped = sys::try_reap(self.child.id()).unwrap_or(Some((false, Usage::default())));
        }
        self.reaped.is_some()
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        if self.reaped.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Entry point of a re-exec'd worker, the `index`-th of its launch: host
/// stages until the run ends, then write the observations under
/// `prefix`. Returns the exit code.
pub fn worker_main(name: &str, site: &str, coordinator: &str, prefix: &str, index: usize) -> i32 {
    // A core of its own per worker while cores last, as each worker of
    // the paper's grid has a node of its own; later workers float. Left
    // to the scheduler, where ten threads land on two cores differs from
    // launch to launch and from hour to hour, and that — not the code
    // under test — was most of the run-to-run spread.
    sys::pin_to_nth_cpu(index);
    let mut repo = ApplicationRepository::new();
    stages::publish(&mut repo);
    // One executor thread and one reactor per worker: the load is sized
    // for a 2-core box hosting up to three workers and a coordinator.
    let worker = DistWorker::new(name, coordinator).site(site).cores(1).reactors(1);
    let before = sys::allocs();
    let result = worker.run(&repo);
    let allocs = sys::allocs() - before;
    if let Err(e) = stages::dump(Path::new(prefix), allocs, sys::peak_rss_mb()) {
        eprintln!("worker {name}: cannot write observations: {e}");
        return 1;
    }
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("worker {name}: {e}");
            1
        }
    }
}

/// Run one launch to completion. `Err` means the launch itself broke:
/// spawn failure, coordinator error, or a pipeline that was still
/// running at [`ENGINE_STOP`] (or, failing that, at the hard
/// [`LAUNCH_TIMEOUT`]) — nothing it reported can be used.
pub fn launch(spec: &LaunchSpec, spans: &Spans, parent: u64) -> Result<Launch, String> {
    let span = spans.open("dist.launch", parent);
    let dir = RunDir::create().map_err(|e| format!("create run directory: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let deadline = Instant::now() + LAUNCH_TIMEOUT;

    let mut repo = ApplicationRepository::new();
    stages::publish(&mut repo);
    // The engine's own stop (Stop broadcast at max_time, then one report
    // grace) fires before the ledger's hard deadline does.
    let opts = RunOptions::default().max_time(SimTime::from_secs_f64(ENGINE_STOP.as_secs_f64()));
    let config = DistConfig::default().report_grace(Duration::from_secs(2));

    let cpu_before = sys::self_usage().cpu_s();
    let started = Instant::now();

    let bind = spans.open("dist.bind", span);
    let engine = DistEngine::bind(spec.xml, "127.0.0.1:0", spec.workers.len(), opts, config)
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let addr = engine.local_addr().map_err(|e| e.to_string())?.to_string();
    spans.close(bind);

    let spawn = spans.open("dist.spawn_workers", span);
    let mut procs = Vec::with_capacity(spec.workers.len());
    let mut prefixes = Vec::with_capacity(spec.workers.len());
    for (index, (name, site)) in spec.workers.iter().enumerate() {
        let prefix = dir.0.join(name);
        let child = Command::new(&exe)
            .args(["--worker", name, site, &addr])
            .arg(&prefix)
            .arg(index.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn worker {name}: {e}"))?;
        procs.push(WorkerProc { child, reaped: None });
        prefixes.push(prefix);
    }
    spans.close(spawn);

    // The coordinator blocks until every worker reported; run it on its
    // own thread so the deadline holds even if it never returns.
    let run = spans.open("dist.engine_run", span);
    let (tx, rx) = mpsc::channel();
    let coordinator = std::thread::spawn(move || {
        let _ = tx.send(engine.run(&repo));
    });
    let outcome = rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
    spans.close(run);
    let report = match outcome {
        Ok(result) => {
            coordinator.join().map_err(|_| "coordinator thread panicked".to_string())?;
            result.map_err(|e| format!("coordinator: {e}"))?
        }
        Err(_) => {
            // Wedged. Dropping the guards kills the workers; the
            // coordinator then sees its connections close and returns.
            drop(procs);
            if rx.recv_timeout(Duration::from_secs(10)).is_ok() {
                let _ = coordinator.join();
            }
            return Err(format!("launch exceeded its {LAUNCH_TIMEOUT:?} deadline"));
        }
    };

    let reap = spans.open("dist.reap", span);
    loop {
        // Poll every worker each round (no short circuit): each is
        // reaped, and its usage frozen, as soon as it exits.
        let mut all = true;
        for p in &mut procs {
            all &= p.poll();
        }
        if all {
            break;
        }
        if Instant::now() >= deadline {
            return Err("workers did not exit after reporting".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let wall_s = started.elapsed().as_secs_f64();
    spans.close(reap);
    if wall_s >= ENGINE_STOP.as_secs_f64() {
        return Err(format!("pipeline still running at the engine's {ENGINE_STOP:?} stop"));
    }
    let coordinator_cpu_s = sys::self_usage().cpu_s() - cpu_before;

    let collect = spans.open("dist.collect", span);
    let mut workers = Vec::with_capacity(procs.len());
    for (proc_, prefix) in procs.iter().zip(prefixes) {
        let (clean, usage) = proc_.reaped.expect("every worker was reaped above");
        let dump = WorkerDump::read(&prefix).unwrap_or_default();
        workers.push(WorkerOutcome { clean, usage, dump, prefix });
    }
    spans.close(collect);
    spans.close(span);
    Ok(Launch { report, wall_s, coordinator_cpu_s, workers, _dir: dir })
}
