//! `gates-cli` — launch a GATES application from configuration files.
//!
//! The command-line embodiment of the paper's application-user workflow
//! (§3.2): "To start the application, the user simply passes the XML
//! file's URL link to the Launcher."
//!
//! ```sh
//! # Run an application config on an auto-generated uniform grid:
//! gates-cli run app.xml
//!
//! # With an explicit resource pool and a fixed virtual-time horizon:
//! gates-cli run app.xml --grid grid.xml --duration 120
//!
//! # On native threads instead of the virtual-time engine:
//! gates-cli run app.xml --engine threaded --max-time 30
//!
//! # Distributed: start a coordinator for three worker processes...
//! gates-cli run app.xml --engine dist --listen 127.0.0.1:7070 --workers 3
//!
//! # ...and, in three other shells, the workers:
//! gates-cli worker --name w0 --coordinator 127.0.0.1:7070
//!
//! # With a flight-recorder trace (JSONL) of the run:
//! gates-cli run app.xml --trace run.jsonl
//!
//! # With deterministic fault injection (same seed => same faults):
//! gates-cli run app.xml --engine dist --workers 3 --trace chaos.jsonl \
//!     --chaos "seed=7,drop=0.02,corrupt=0.005,delay=5ms..40ms,dup=0.01"
//!
//! # List the built-in application templates:
//! gates-cli apps
//!
//! # Print skeleton config files:
//! gates-cli template app | tee app.xml
//! gates-cli template grid | tee grid.xml
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gates::apps;
use gates::core::adapt::PolicyKind;
use gates::core::trace::FlightRecorder;
use gates::engine::{DesEngine, DistConfig, DistEngine, DistWorker, RunOptions, ThreadedEngine};
use gates::grid::{registry_from_xml, ApplicationRepository, Launcher, ResourceRegistry};
use gates::net::RetryPolicy;
use gates::replay::{diff_adapt, Recording, RunRecipe};
use gates::sim::{SimDuration, SimTime};

fn usage() -> &'static str {
    "usage:\n  gates-cli run <app.xml> [--grid <grid.xml>] [--duration <secs>]\n                          [--max-time <secs>] [--engine des|threaded|dist]\n                          [--observe-ms <ms>] [--adapt-ms <ms>]\n                          [--trace <out.jsonl>]\n                          [--listen <host:port>] [--workers <n>]\n                          [--drain-ms <ms>] [--retry-attempts <n>] [--retry-base-ms <ms>]\n                          [--heartbeat-ms <ms>] [--heartbeat-timeout-ms <ms>]\n                          [--checkpoint-every <packets>]\n                          [--cores <n>]      executor pool size for threaded runs (default: auto)\n                          [--chaos <spec>]   e.g. \"seed=7,drop=0.02,delay=5ms..40ms\"\n                          [--record <out.jsonl>]  capture a replayable recording\n                          [--policy paper|aimd|pid]  adaptation policy for every stage\n  gates-cli replay <recording.jsonl> [--policy paper|aimd|pid] [--trace <out.jsonl>]\n  gates-cli worker --name <name> --coordinator <host:port>\n                   [--site <site>] [--speed <f>] [--capacity <n>] [--bind-host <host>]\n                   [--cores <n>] [--reactors <n>]  pool threads driving sockets (default: 1)\n  gates-cli apps\n  gates-cli template app|grid"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("worker") => worker(&args[1..]),
        Some("apps") => {
            let mut repo = ApplicationRepository::new();
            apps::publish_all(&mut repo);
            println!("published application templates:");
            for key in repo.keys() {
                println!("  {key}");
            }
            ExitCode::SUCCESS
        }
        Some("template") => template(args.get(1).map(String::as_str)),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn template(kind: Option<&str>) -> ExitCode {
    match kind {
        Some("app") => {
            println!(
                r#"<application name="my-run" repository="count-samps">
  <param name="sources" value="4"/>
  <param name="items_per_source" value="25000"/>
  <param name="mode" value="adaptive"/>
  <param name="bandwidth_kb" value="100"/>
</application>"#
            );
            ExitCode::SUCCESS
        }
        Some("grid") => {
            println!(
                r#"<grid>
  <node name="central-0" site="central" speed="2.0" memory="8192" capacity="4"/>
  <node name="edge-0" site="site-0"/>
  <node name="edge-1" site="site-1"/>
  <node name="edge-2" site="site-2"/>
  <node name="edge-3" site="site-3"/>
</grid>"#
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    app_path: String,
    grid_path: Option<String>,
    duration: Option<u64>,
    max_time: Option<f64>,
    engine: String,
    trace_path: Option<String>,
    observe_ms: Option<u64>,
    adapt_ms: Option<u64>,
    listen: String,
    workers: usize,
    drain_ms: Option<u64>,
    retry_attempts: Option<u32>,
    retry_base_ms: Option<u64>,
    heartbeat_ms: Option<u64>,
    heartbeat_timeout_ms: Option<u64>,
    checkpoint_every: Option<u64>,
    chaos: Option<gates::net::FaultPlan>,
    cores: Option<usize>,
    record_path: Option<String>,
    policy: Option<PolicyKind>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        app_path: String::new(),
        grid_path: None,
        duration: None,
        max_time: None,
        engine: "des".to_string(),
        trace_path: None,
        observe_ms: None,
        adapt_ms: None,
        listen: "127.0.0.1:0".to_string(),
        workers: 3,
        drain_ms: None,
        retry_attempts: None,
        retry_base_ms: None,
        heartbeat_ms: None,
        heartbeat_timeout_ms: None,
        checkpoint_every: None,
        chaos: None,
        cores: None,
        record_path: None,
        policy: None,
    };
    let mut it = args.iter();
    let Some(app) = it.next() else {
        return Err("missing <app.xml>".into());
    };
    parsed.app_path = app.clone();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--grid" => parsed.grid_path = Some(value("--grid")?),
            "--duration" => {
                parsed.duration =
                    Some(value("--duration")?.parse().map_err(|_| "--duration: not a number")?)
            }
            "--max-time" => {
                parsed.max_time =
                    Some(value("--max-time")?.parse().map_err(|_| "--max-time: not a number")?)
            }
            "--engine" => {
                let v = value("--engine")?;
                if v != "des" && v != "threaded" && v != "dist" {
                    return Err(format!("--engine must be des, threaded or dist, got {v:?}"));
                }
                parsed.engine = v;
            }
            "--trace" => parsed.trace_path = Some(value("--trace")?),
            "--observe-ms" => {
                parsed.observe_ms =
                    Some(value("--observe-ms")?.parse().map_err(|_| "--observe-ms: not a number")?)
            }
            "--adapt-ms" => {
                parsed.adapt_ms =
                    Some(value("--adapt-ms")?.parse().map_err(|_| "--adapt-ms: not a number")?)
            }
            "--listen" => parsed.listen = value("--listen")?,
            "--workers" => {
                parsed.workers =
                    Some(value("--workers")?.parse().map_err(|_| "--workers: not a number")?)
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--workers must be at least 1")?
            }
            "--drain-ms" => {
                parsed.drain_ms =
                    Some(value("--drain-ms")?.parse().map_err(|_| "--drain-ms: not a number")?)
            }
            "--retry-attempts" => {
                parsed.retry_attempts = Some(
                    value("--retry-attempts")?
                        .parse()
                        .map_err(|_| "--retry-attempts: not a number")?,
                )
            }
            "--retry-base-ms" => {
                parsed.retry_base_ms = Some(
                    value("--retry-base-ms")?
                        .parse()
                        .map_err(|_| "--retry-base-ms: not a number")?,
                )
            }
            "--heartbeat-ms" => {
                parsed.heartbeat_ms = Some(
                    value("--heartbeat-ms")?.parse().map_err(|_| "--heartbeat-ms: not a number")?,
                )
            }
            "--heartbeat-timeout-ms" => {
                parsed.heartbeat_timeout_ms = Some(
                    value("--heartbeat-timeout-ms")?
                        .parse()
                        .map_err(|_| "--heartbeat-timeout-ms: not a number")?,
                )
            }
            "--checkpoint-every" => {
                parsed.checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|_| "--checkpoint-every: not a number")?,
                )
            }
            "--chaos" => {
                parsed.chaos = Some(
                    gates::net::FaultPlan::parse(&value("--chaos")?)
                        .map_err(|e| format!("--chaos: {e}"))?,
                )
            }
            "--cores" => {
                let n: usize = value("--cores")?.parse().map_err(|_| "--cores: not a number")?;
                if n == 0 {
                    return Err("--cores must be at least 1".into());
                }
                parsed.cores = Some(n);
            }
            "--record" => parsed.record_path = Some(value("--record")?),
            "--policy" => {
                parsed.policy = Some(
                    PolicyKind::parse(&value("--policy")?).map_err(|e| format!("--policy: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// `gates-cli worker`: one worker process of a distributed run.
fn worker(args: &[String]) -> ExitCode {
    let mut name = None;
    let mut coordinator = None;
    let mut site = None;
    let mut speed = None;
    let mut capacity = None;
    let mut bind_host = None;
    let mut cores = None;
    let mut reactors = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |n: &str| it.next().cloned().ok_or_else(|| format!("{n} needs a value"));
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--name" => name = Some(value("--name")?),
                "--coordinator" => coordinator = Some(value("--coordinator")?),
                "--site" => site = Some(value("--site")?),
                "--speed" => {
                    speed = Some(
                        value("--speed")?
                            .parse::<f64>()
                            .map_err(|_| "--speed: not a number".to_string())?,
                    )
                }
                "--capacity" => {
                    capacity = Some(
                        value("--capacity")?
                            .parse::<u32>()
                            .map_err(|_| "--capacity: not a number".to_string())?,
                    )
                }
                "--bind-host" => bind_host = Some(value("--bind-host")?),
                "--cores" => {
                    let n: usize = value("--cores")?
                        .parse()
                        .map_err(|_| "--cores: not a number".to_string())?;
                    if n == 0 {
                        return Err("--cores must be at least 1".into());
                    }
                    cores = Some(n);
                }
                "--reactors" => {
                    let n: usize = value("--reactors")?
                        .parse()
                        .map_err(|_| "--reactors: not a number".to_string())?;
                    if n == 0 {
                        return Err("--reactors must be at least 1".into());
                    }
                    reactors = Some(n);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    let (Some(name), Some(coordinator)) = (name, coordinator) else {
        eprintln!("error: worker needs --name and --coordinator\n{}", usage());
        return ExitCode::FAILURE;
    };

    let mut repo = ApplicationRepository::new();
    apps::publish_all(&mut repo);

    let mut w = DistWorker::new(&name, coordinator);
    if let Some(s) = site {
        w = w.site(s);
    }
    if let Some(s) = speed {
        w = w.speed(s);
    }
    if let Some(c) = capacity {
        w = w.capacity(c);
    }
    if let Some(h) = bind_host {
        w = w.bind_host(h);
    }
    if let Some(n) = cores {
        w = w.cores(n);
    }
    if let Some(n) = reactors {
        w = w.reactors(n);
    }
    match w.run(&repo) {
        Ok(()) => {
            eprintln!("worker {name} finished");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: worker {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let mut app_xml = match std::fs::read_to_string(&parsed.app_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", parsed.app_path);
            return ExitCode::FAILURE;
        }
    };

    let mut repo = ApplicationRepository::new();
    apps::publish_all(&mut repo);

    // --policy rewrites the config so every engine — and any recording
    // made of this run — sees the override as ordinary <stage> attrs.
    if let Some(kind) = parsed.policy {
        match apply_policy_to_xml(&app_xml, kind, &repo) {
            Ok(xml) => app_xml = xml,
            Err(e) => {
                eprintln!("error: --policy: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut opts = RunOptions::default();
    if let Some(mt) = parsed.max_time {
        opts = opts.max_time(SimTime::from_secs_f64(mt));
    }
    if let Some(ms) = parsed.observe_ms {
        opts = opts.observe_every(SimDuration::from_millis(ms));
    }
    if let Some(ms) = parsed.adapt_ms {
        opts = opts.adapt_every(SimDuration::from_millis(ms));
    }
    if let Some(n) = parsed.cores {
        opts = opts.cores(n);
    }
    // A recording must be complete: --record uses an unbounded recorder
    // so no adaptation round is evicted from the ring.
    let recorder = if parsed.record_path.is_some() {
        Some(Arc::new(FlightRecorder::lossless()))
    } else {
        parsed.trace_path.as_ref().map(|_| Arc::new(FlightRecorder::default()))
    };
    if let Some(rec) = &recorder {
        opts = opts.recorder(Arc::clone(rec) as _);
    }
    if let Some(plan) = &parsed.chaos {
        if parsed.engine == "threaded" {
            eprintln!(
                "warning: --chaos applies to the des and dist engines; threaded runs ignore it"
            );
        } else {
            opts = opts.chaos(plan.clone());
            if parsed.trace_path.is_none() && parsed.engine == "dist" {
                eprintln!("note: pass --trace to relay per-fault events into the run report");
            }
        }
    }

    // The distributed engine builds its resource registry from worker
    // registrations, so the local --grid machinery does not apply.
    if parsed.engine == "dist" {
        return run_dist(&parsed, &app_xml, &repo, opts, recorder);
    }
    let recipe = make_recipe(&parsed, &app_xml);

    // Build the topology once just to learn the sites it wants, so an
    // auto-generated uniform grid can cover them when no --grid is given.
    let config = match gates::grid::AppConfig::from_xml(&app_xml) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = match &parsed.grid_path {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|xml| registry_from_xml(&xml).map_err(|e| e.to_string()))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: cannot load grid {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let probe = match repo.build(&config) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let sites: Vec<String> = probe.stages().iter().map(|s| s.site.clone()).collect();
            let unique: Vec<&str> = {
                let mut seen = std::collections::BTreeSet::new();
                sites.iter().filter(|s| seen.insert(s.as_str())).map(String::as_str).collect()
            };
            eprintln!("no --grid given; generating a uniform cluster over {} sites", unique.len());
            ResourceRegistry::uniform_cluster(&unique)
        }
    };

    let deployment = match Launcher::new().launch(config, &repo, &registry) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: launch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "launched {:?}: {} stages on {} nodes",
        deployment.config.name,
        deployment.topology.stages().len(),
        registry.len()
    );
    for (i, stage) in deployment.topology.stages().iter().enumerate() {
        let id = gates::core::StageId::from_index(i);
        eprintln!("  {:<20} -> {}", stage.name, deployment.plan.node_of(id).unwrap_or("?"));
    }

    let report = match parsed.engine.as_str() {
        "threaded" => {
            match ThreadedEngine::new(deployment.topology, &deployment.plan, opts)
                .and_then(ThreadedEngine::run)
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            let mut engine = match DesEngine::new(deployment.topology, &deployment.plan, opts) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parsed.duration {
                Some(secs) => engine.run_for(SimDuration::from_secs(secs)),
                None => engine.run_to_completion(),
            }
        }
    };

    finish(&parsed, &report, recorder.as_ref(), Some(&recipe))
}

/// Coordinator side of `--engine dist`: bind, announce the control
/// address, and run the deployment across the registered workers.
fn run_dist(
    parsed: &RunArgs,
    app_xml: &str,
    repo: &ApplicationRepository,
    opts: RunOptions,
    recorder: Option<Arc<FlightRecorder>>,
) -> ExitCode {
    let mut config = DistConfig::default();
    if let Some(ms) = parsed.drain_ms {
        config.drain_window = Duration::from_millis(ms);
    }
    let mut retry = RetryPolicy::default();
    if let Some(n) = parsed.retry_attempts {
        retry.max_attempts = n;
    }
    if let Some(ms) = parsed.retry_base_ms {
        retry.base_delay = Duration::from_millis(ms);
    }
    config.retry = retry;
    if let Some(ms) = parsed.heartbeat_ms {
        config.heartbeat_interval = Duration::from_millis(ms);
    }
    if let Some(ms) = parsed.heartbeat_timeout_ms {
        config.heartbeat_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = parsed.checkpoint_every {
        config.checkpoint_every = n;
    }
    // The distributed runtime carries the fault plan to every worker in
    // its config; RunOptions::chaos only drives the virtual-time engine.
    config.fault = parsed.chaos.clone();

    let engine = match DistEngine::bind(app_xml, &parsed.listen, parsed.workers, opts, config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match engine.local_addr() {
        // Scripts (and the integration tests) parse this line to learn
        // the port when --listen used port 0; keep it stable.
        Ok(addr) => println!("coordinator listening on {addr}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("waiting for {} workers...", parsed.workers);
    let recipe = make_recipe(parsed, app_xml);
    match engine.run(repo) {
        Ok(report) => finish(parsed, &report, recorder.as_ref(), Some(&recipe)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The replayable description of the run the CLI was asked to make.
fn make_recipe(parsed: &RunArgs, app_xml: &str) -> RunRecipe {
    let mut recipe = RunRecipe::new(app_xml, parsed.engine.as_str());
    recipe.grid_xml = parsed.grid_path.as_ref().and_then(|p| std::fs::read_to_string(p).ok());
    recipe.duration = parsed.duration;
    recipe.max_time = parsed.max_time;
    recipe.observe_ms = parsed.observe_ms;
    recipe.adapt_ms = parsed.adapt_ms;
    recipe.chaos = parsed.chaos.as_ref().map(|p| p.to_spec());
    recipe
}

/// Rewrite `app_xml` so every adapting stage declares `policy`.
fn apply_policy_to_xml(
    app_xml: &str,
    kind: PolicyKind,
    repo: &ApplicationRepository,
) -> Result<String, String> {
    let mut config = gates::grid::AppConfig::from_xml(app_xml).map_err(|e| e.to_string())?;
    let probe = repo.build(&config).map_err(|e| e.to_string())?;
    for stage in probe.stages() {
        if stage.adaptation.is_some() {
            config.set_policy(&stage.name, kind);
        }
    }
    Ok(config.to_xml())
}

/// Shared tail of every `run` variant: persist the trace, print tables.
fn finish(
    parsed: &RunArgs,
    report: &gates::core::report::RunReport,
    recorder: Option<&Arc<FlightRecorder>>,
    recipe: Option<&RunRecipe>,
) -> ExitCode {
    if let (Some(path), Some(rec)) = (&parsed.trace_path, recorder) {
        if let Err(e) = rec.save_jsonl(path) {
            eprintln!("error: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{}", rec.run_trace().summary_table());
        eprintln!("trace written to {path} ({} events)", rec.len());
    }
    if let (Some(path), Some(rec), Some(recipe)) = (&parsed.record_path, recorder, recipe) {
        if let Err(e) = Recording::save(path, recipe, rec) {
            eprintln!("error: cannot write recording {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "recording written to {path} ({} trace events; replay with: gates-cli replay {path})",
            rec.len()
        );
    }

    // A partial run must never look like a clean one: name every worker
    // that vanished, and why. (Integration tests parse these lines.)
    for lost in &report.lost_workers {
        println!("lost worker: {} ({}) at {:.1}s", lost.worker, lost.reason, lost.at);
    }
    if !report.lost_workers.is_empty() {
        println!(
            "WARNING: partial run — {} worker(s) lost; stage counts may be incomplete",
            report.lost_workers.len()
        );
    }
    // Chaos accounting (integration tests parse this line too).
    if report.faults_injected > 0 || report.fault_recoveries > 0 {
        println!(
            "chaos: {} faults injected, {} recoveries",
            report.faults_injected, report.fault_recoveries
        );
    }
    // At-least-once delivery accounting (integration tests and the bench
    // drills parse this line). Printed whenever the delivery layer did
    // any work, so a zero-loss chaos run still shows its repairs.
    if report.packets_lost > 0
        || report.packets_replayed > 0
        || report.packets_deduped > 0
        || report.backpressure_us > 0
    {
        println!(
            "delivery: {} lost, {} replayed, {} deduped, {} us stalled",
            report.packets_lost,
            report.packets_replayed,
            report.packets_deduped,
            report.backpressure_us
        );
    }

    println!("{}", report.summary_table());
    println!("{}", report.detail_table());
    for stage in &report.stages {
        for param in &stage.params {
            if let Some(v) = param.final_value() {
                println!(
                    "parameter {}/{}: start {:.3}, final {:.3}",
                    stage.name, param.name, param.samples[0].1, v
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// `gates-cli replay`: re-drive a recording, optionally under a
/// different adaptation policy, and diff the adaptation-round traces.
fn replay_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("error: replay needs a recording file\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut policy = None;
    let mut trace_out = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |n: &str| it.next().cloned().ok_or_else(|| format!("{n} needs a value"));
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--policy" => {
                    policy = Some(
                        PolicyKind::parse(&value("--policy")?)
                            .map_err(|e| format!("--policy: {e}"))?,
                    )
                }
                "--trace" => trace_out = Some(value("--trace")?),
                other => return Err(format!("unknown flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    let recording = match Recording::load(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut repo = ApplicationRepository::new();
    apps::publish_all(&mut repo);
    eprintln!(
        "replaying {path} (engine {}, {} recorded adaptation rounds){}",
        recording.recipe.engine,
        recording.adapt_lines().len(),
        match policy {
            Some(kind) => format!(" under policy {kind}"),
            None => String::new(),
        }
    );
    let (report, recorder) = match gates::replay::replay(&recording.recipe, policy, &repo) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(out) = &trace_out {
        if let Err(e) = recorder.save_jsonl(out) {
            eprintln!("error: cannot write trace {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("replay trace written to {out} ({} events)", recorder.len());
    }

    let recorded = recording.adapt_lines();
    let replayed = gates::replay::adapt_lines_of(&recorder);
    let diff = diff_adapt(&recorded, &replayed);
    println!("{}", report.summary_table());
    if policy.is_none() {
        // Same recipe, same policy: on the virtual-time engine the
        // adaptation trace must match the recording bit for bit.
        // (Integration tests and CI parse these lines.)
        if diff.identical() {
            println!("replay: adaptation trace identical to recording ({} rounds)", diff.recorded);
            ExitCode::SUCCESS
        } else {
            println!(
                "replay: DIVERGED — {} recorded vs {} replayed rounds",
                diff.recorded, diff.replayed
            );
            if let Some((i, a, b)) = &diff.first_divergence {
                println!("  first divergence at round {i}:");
                println!("    recorded: {}", a.as_deref().unwrap_or("<missing>"));
                println!("    replayed: {}", b.as_deref().unwrap_or("<missing>"));
            }
            ExitCode::FAILURE
        }
    } else {
        // A-B mode: divergence is the point; report how far apart.
        match &diff.first_divergence {
            Some((i, _, _)) => println!(
                "replay: {} recorded vs {} replayed rounds; traces diverge at round {i}",
                diff.recorded, diff.replayed
            ),
            None => println!(
                "replay: adaptation trace identical despite policy change ({} rounds)",
                diff.recorded
            ),
        }
        ExitCode::SUCCESS
    }
}
