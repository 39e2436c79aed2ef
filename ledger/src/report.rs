//! What the ledger reports and how: the benchmark's definition (the
//! repo-root `BENCHMARK.json`, compiled in — every name, unit, direction,
//! bound and `why` comes from there and is written nowhere else), a
//! run's outcome, the result-file format and `ledger agree`.

use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::json::{self, number, quote, Json};
use crate::stats::{median, quartiles, spread};

/// One metric as `BENCHMARK.json` lists it.
pub struct MetricDef {
    /// Its permanent name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// End to end: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression. Per-layer
    /// metrics explain a movement, they do not gate one: no bound.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Benchmark {
    /// How long one run measures, seconds.
    pub run_seconds: f64,
    /// `(name, why)`, in the order `ledger run` executes them.
    pub workloads: Vec<(String, String)>,
    /// What a user of the middleware would see.
    pub end_to_end: Vec<MetricDef>,
    /// Where a packet's time goes.
    pub per_layer: Vec<MetricDef>,
}

impl Benchmark {
    fn parse(text: &str) -> Result<Benchmark, String> {
        let file = json::parse(text)?;
        let list = |key: &str| file.get(key).map_or(&[][..], Json::items);
        let text_of = |item: &Json, key: &str| {
            item.get(key).and_then(Json::str).map(str::to_string).ok_or(format!("{key} missing"))
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better: {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Benchmark {
            run_seconds: file
                .get("run_seconds")
                .and_then(Json::num)
                .ok_or("run_seconds missing")?,
            workloads: list("workloads")
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The benchmark this binary was built to run.
pub fn benchmark() -> &'static Benchmark {
    static PARSED: OnceLock<Benchmark> = OnceLock::new();
    PARSED.get_or_init(|| {
        Benchmark::parse(include_str!("../../BENCHMARK.json"))
            .expect("the compiled-in BENCHMARK.json is well formed")
    })
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// `value` under the name and unit `BENCHMARK.json` lists in `defs`.
    /// Reporting a name it does not list is a bug in the ledger.
    fn listed(defs: &'static [MetricDef], name: &str, value: f64) -> Metric {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not listed in BENCHMARK.json"));
        Metric { name: &def.name, value, unit: &def.unit }
    }

    /// A per-layer metric.
    pub fn layer(name: &str, value: f64) -> Metric {
        Metric::listed(&benchmark().per_layer, name, value)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: source packets scheduled, or checks.
    pub attempted: u64,
    /// Operations that failed: packets lost, dropped, duplicated or not
    /// delivered exactly once — every packet of a launch that broke or
    /// wedged — plus failed checks.
    pub failed: u64,
    /// How many samples each reported median is over: measured launches,
    /// or sweeps of `des-sweep`.
    pub samples: u64,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// One line per violation, for the human reading the run.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::listed(&benchmark().end_to_end, name, value));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push(Metric::layer(name, value));
    }

    /// Count a failed check: one more operation attempted, and failed.
    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(note.into());
    }

    /// Outputs were correct: nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result the benchmark contract asks for: end-to-end
/// metrics of an untraced run, per-layer metrics of a traced one (a
/// metric the workload does not exercise reads 0).
pub fn contract_line(out: &Outcome, traced: bool) -> String {
    let metrics: Vec<Metric> = if traced {
        benchmark()
            .per_layer
            .iter()
            .map(|d| {
                let value = out.layers.iter().find(|m| m.name == d.name).map_or(0.0, |m| m.value);
                Metric { name: &d.name, value, unit: &d.unit }
            })
            .collect()
    } else {
        out.metrics.clone()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_object(&metrics)
    )
}

/// Host and run description carried by every result file.
pub struct Meta {
    /// `run` or `trace`.
    pub mode: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Reduced counts (`--smoke`).
    pub smoke: bool,
    /// Seconds each run measured.
    pub seconds: f64,
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Serialise a whole `ledger run` / `ledger trace` result set.
pub fn result_file(meta: &Meta, runs: &[(&str, Vec<Outcome>)]) -> String {
    use crate::workloads as w;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"ledger\": 1,");
    let _ = writeln!(s, "  \"mode\": {},", quote(meta.mode));
    let _ = writeln!(s, "  \"seed\": {},", meta.seed);
    let _ = writeln!(s, "  \"smoke\": {},", meta.smoke);
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}},",
        quote(kernel.trim()),
        quote(&command_line("rustc", &["-V"])),
        quote(&command_line("git", &["rev-parse", "HEAD"]))
    );
    let _ = writeln!(
        s,
        "  \"constants\": {{\"run_seconds\": {}, \"setup_launches\": {}, \"settle_ms\": {}, \"engine_stop_s\": {}, \"launch_timeout_s\": {}, \
         \"cs-central-dist\": {{\"workers\": {}, \"sources\": {}, \"batch\": {}, \"packets_per_launch\": {}}}, \
         \"cs-summ-dist\": {{\"workers\": {}, \"sources\": {}, \"batch\": {}, \"packets_per_source_per_launch\": {}, \"k\": {}, \"flush_every\": {}}}, \
         \"relay-open-dist\": {{\"workers\": {}, \"rate_pps\": {}, \"payload\": {}, \"packets_per_launch\": {}}}, \
         \"des-sweep\": {{\"cells_per_sweep\": {}, \"sources\": {}, \"items_per_source\": {}, \"steer_horizon_s\": {}}}}},",
        number(meta.seconds),
        w::dist::SETUP_LAUNCHES,
        w::dist::SETTLE.as_millis(),
        w::dist::ENGINE_STOP.as_secs(),
        w::dist::LAUNCH_TIMEOUT.as_secs(),
        w::cs_central::WORKERS.len(),
        w::cs_central::SOURCES,
        w::cs_central::BATCH,
        w::cs_central::PACKETS,
        w::cs_summ::WORKERS.len(),
        w::cs_summ::SOURCES,
        w::cs_summ::BATCH,
        w::cs_summ::PACKETS,
        w::cs_summ::K,
        w::cs_summ::FLUSH_EVERY,
        w::relay::WORKERS.len(),
        w::relay::RATE,
        w::relay::PAYLOAD,
        w::relay::PACKETS,
        (w::des::FIXED_K.len() + 1) * w::des::BANDWIDTHS_KB.len() + w::des::COSTS_MS.len(),
        w::des::SOURCES,
        w::des::ITEMS_PER_SOURCE,
        w::des::STEER_HORIZON_S,
    );
    let _ = writeln!(s, "  \"workloads\": [");
    for (wi, (name, outcomes)) in runs.iter().enumerate() {
        let _ = writeln!(s, "    {{\"name\": {}, \"runs\": [", quote(name));
        for (i, o) in outcomes.iter().enumerate() {
            let notes: Vec<String> = o.notes.iter().map(|n| quote(n)).collect();
            let _ = writeln!(
                s,
                "      {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"samples\": {}, \"metrics\": {}, \"layers\": {}, \"notes\": [{}]}}{}",
                o.correct(),
                o.attempted,
                o.failed,
                o.samples,
                metrics_object(&o.metrics),
                metrics_object(&o.layers),
                notes.join(", "),
                if i + 1 == outcomes.len() { "" } else { "," }
            );
        }
        let _ = writeln!(s, "    ]}}{}", if wi + 1 == runs.len() { "" } else { "," });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Print every metric of one workload's runs by name: unit, sample
/// count, median and quartiles.
pub fn print_summary(name: &str, outcomes: &[Outcome], layers: bool) {
    println!("\n== {name} ==");
    println!(
        "{:<42} {:>6} {:>3} {:>16} {:>16} {:>16}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    let Some(first) = outcomes.first() else { return };
    let rows: Vec<&Metric> =
        if layers { first.layers.iter().collect() } else { first.metrics.iter().collect() };
    for m in rows {
        let values: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| {
                if layers { &o.layers } else { &o.metrics }.iter().find(|x| x.name == m.name)
            })
            .map(|x| x.value)
            .collect();
        let (q1, q3) = quartiles(&values);
        println!(
            "{:<42} {:>6} {:>3} {:>16.6} {:>16.6} {:>16.6}",
            m.name,
            m.unit,
            values.len(),
            median(&values),
            q1,
            q3
        );
    }
    let (attempted, failed): (u64, u64) =
        outcomes.iter().fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed));
    println!(
        "{:<42} {:>6} {:>3} {:>16.6}   ({failed} failed of {attempted} attempted)",
        "failed_share",
        "share",
        outcomes.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let samples: Vec<u64> = outcomes.iter().map(|o| o.samples).collect();
    println!("each run's values are medians over {samples:?} launches (sweeps for des-sweep)");
    for note in outcomes.iter().flat_map(|o| &o.notes) {
        println!("  ! {note}");
    }
}

/// The values of `metric` over the runs of `workload` in a result file.
fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .map_or(&[][..], Json::items)
        .iter()
        .filter(|w| w.get("name").and_then(Json::str) == Some(workload))
        .flat_map(|w| w.get("runs").map_or(&[][..], Json::items))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num())
        .collect()
}

/// How two result sets of the same code compare on one metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Medians within the bound and both spreads inside it.
    Agree,
    /// The medians differ by more than the bound.
    Disagree,
    /// A spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// One side has no value.
    Missing,
}

/// Judge one metric from its runs on both sides.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Same code on both sides: neither may be worse than the other by
    // more than the bound.
    let worse = |base: f64, other: f64| {
        if higher_is_better {
            (base - other) / base.abs()
        } else {
            (other - base) / base.abs()
        }
    };
    if worse(ma, mb) > bound || worse(mb, ma) > bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    }
}

/// `ledger agree`: print every run, median and quartile of both files
/// metric by metric; returns how many metrics disagree.
pub fn agree(a: &Json, b: &Json) -> usize {
    let mut disagreements = 0;
    for (workload, _) in &benchmark().workloads {
        println!("\n== {workload} ==");
        for def in &benchmark().end_to_end {
            let (metric, unit) = (&def.name, &def.unit);
            let bound = def.bound.expect("every end-to-end metric has a bound");
            let (va, vb) = (values_of(a, workload, metric), values_of(b, workload, metric));
            let verdict = judge(&va, &vb, def.higher_is_better, bound);
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!(
                    "median {:.6} [q1 {:.6}, q3 {:.6}, spread {:.1}%] runs {:?}",
                    median(v),
                    q1,
                    q3,
                    spread(v) * 100.0,
                    v
                )
            };
            println!("{metric} ({unit}, bound {:.0}%): {verdict:?}", bound * 100.0);
            println!("    a: {}", side(&va));
            println!("    b: {}", side(&vb));
            if matches!(verdict, Verdict::Disagree | Verdict::Missing) {
                disagreements += 1;
            }
        }
    }
    println!("\n{disagreements} metric(s) disagree; Unresolved = spread wider than the bound, not \"unchanged\"");
    disagreements
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn the_compiled_in_benchmark_meets_the_contract_limits() {
        let b = benchmark();
        assert!((1.0..=60.0).contains(&b.run_seconds) && b.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&b.workloads.len()));
        assert!(b.workloads.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!((1..=16).contains(&b.end_to_end.len()) && (1..=128).contains(&b.per_layer.len()));
        assert!(b.end_to_end.iter().all(|d| d.bound.is_some_and(|x| x > 0.0 && x <= 0.25)));
        assert!(b.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = b.end_to_end.iter().find(|d| d.name == "setup_s").expect("setup_s listed");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let mut names: Vec<&str> = b.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(b.end_to_end.iter().chain(&b.per_layer).map(|d| d.name.as_str()));
        assert!(names.iter().all(|n| n.len() <= 64));
        let listed = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed, "a name is used once");
    }

    #[test]
    fn judge_separates_agreement_disagreement_and_noise() {
        let tight_a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&tight_a, &[102.0, 100.0, 101.0], true, 0.07), Verdict::Agree);
        assert_eq!(judge(&tight_a, &[80.0, 81.0, 79.0], true, 0.07), Verdict::Disagree);
        assert_eq!(judge(&tight_a, &[120.0, 121.0, 119.0], false, 0.07), Verdict::Disagree);
        // A spread wider than the bound cannot vouch for "unchanged".
        assert_eq!(judge(&[100.0, 130.0, 75.0], &tight_a, true, 0.07), Verdict::Unresolved);
        assert_eq!(judge(&[], &tight_a, true, 0.07), Verdict::Missing);
    }

    #[test]
    fn contract_line_has_the_four_keys_and_every_layer_name() {
        let mut out = Outcome { attempted: 10, ..Default::default() };
        out.metric("packets_per_s", 1234.5678);
        out.layer("xml.parse_us", 3.25);
        let line = parse(&contract_line(&out, false)).unwrap();
        assert_eq!(line.members().unwrap().len(), 4);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            line.get("metrics").unwrap().get("packets_per_s").unwrap().get("value").unwrap().num(),
            Some(1234.5678)
        );
        let traced = parse(&contract_line(&out, true)).unwrap();
        let metrics = traced.get("metrics").unwrap().members().unwrap();
        assert_eq!(metrics.len(), benchmark().per_layer.len());
        assert_eq!(metrics["xml.parse_us"].get("value").unwrap().num(), Some(3.25));
        assert_eq!(metrics["relay.flat_pps"].get("value").unwrap().num(), Some(0.0));
    }

    #[test]
    fn result_files_round_trip_through_agree() {
        let mut o = Outcome { attempted: 5, ..Default::default() };
        for def in &benchmark().end_to_end {
            o.metric(&def.name, 2.0);
        }
        o.notes.push("a \"quoted\" note".into());
        let meta = Meta { mode: "run", seed: 1, smoke: true, seconds: 1.0 };
        let workloads = &benchmark().workloads;
        let mut runs: Vec<(&str, Vec<Outcome>)> =
            workloads.iter().map(|(name, _)| (name.as_str(), vec![])).collect();
        runs[0].1.push(o);
        let file = parse(&result_file(&meta, &runs)).expect("result file is valid JSON");
        assert_eq!(values_of(&file, &workloads[0].0, "setup_s"), vec![2.0]);
        assert!(file.get("host").unwrap().get("nproc").unwrap().num().unwrap() >= 1.0);
        assert!(file.get("constants").unwrap().get("cs-summ-dist").is_some());
        // Same file on both sides: workload 0 agrees, the empty ones are missing.
        assert_eq!(agree(&file, &file), benchmark().end_to_end.len() * (workloads.len() - 1));
    }
}
