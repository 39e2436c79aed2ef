//! The correctness gate: what must hold of every launch before its
//! numbers count.
//!
//! Each violated condition is added to the run's `failed` count (packets
//! for loss, drops and mis-delivery; one per failed check) and named in
//! its notes; `ledger` exits non-zero when anything failed.

use gates_core::report::RunReport;

use crate::report::Outcome;

/// `(upstream stages, downstream stages)`: what one side emitted, the
/// other side took in — exactly.
pub type Hop<'a> = (&'a [&'a str], &'a [&'a str]);

/// What a clean launch of a pipeline must show in its `RunReport`.
pub struct Expect<'a> {
    /// Packets the sources were asked to emit, all sources together.
    pub offered_packets: u64,
    /// Records those packets hold (0 = do not check records).
    pub offered_records: u64,
    /// The stages that consume source packets (the sink side of the
    /// data hop): together they must take in exactly what was offered.
    pub consumers: &'a [&'a str],
    /// Every hop of the pipeline.
    pub hops: &'a [Hop<'a>],
}

fn sum(
    report: &RunReport,
    names: &[&str],
    f: impl Fn(&gates_core::report::StageReport) -> u64,
) -> u64 {
    names.iter().filter_map(|n| report.stage(n)).map(f).sum()
}

/// Check one launch's report against `expect`, adding to `out`.
pub fn check_report(report: &RunReport, expect: &Expect, out: &mut Outcome) {
    for lost in &report.lost_workers {
        out.fail(format!("worker {} lost: {}", lost.worker, lost.reason));
    }
    if report.packets_lost > 0 {
        out.failed += report.packets_lost;
        out.notes.push(format!("{} packets lost by the delivery layer", report.packets_lost));
    }
    let dropped = report.total_dropped();
    if dropped > 0 {
        out.failed += dropped;
        out.notes.push(format!("{dropped} packets dropped at full queues"));
    }
    for name in
        expect.consumers.iter().chain(expect.hops.iter().flat_map(|(a, b)| a.iter().chain(*b)))
    {
        if report.stage(name).is_none() {
            out.fail(format!("stage {name} missing from the report"));
        }
    }

    // Exactly-once into the consuming side: a shortfall is packets not
    // delivered, an excess is duplicates.
    let consumed = sum(report, expect.consumers, |s| s.packets_in);
    if consumed != expect.offered_packets {
        out.failed += consumed.abs_diff(expect.offered_packets);
        out.notes.push(format!(
            "{consumed} packets consumed by {:?}, {} offered",
            expect.consumers, expect.offered_packets
        ));
    }
    if expect.offered_records > 0 {
        let records = sum(report, expect.consumers, |s| s.records_in);
        if records != expect.offered_records {
            out.fail(format!("{records} records consumed, {} offered", expect.offered_records));
        }
    }
    for (up, down) in expect.hops {
        let (sent, got) = (sum(report, up, |s| s.packets_out), sum(report, down, |s| s.packets_in));
        if sent != got {
            out.failed += sent.abs_diff(got);
            out.notes.push(format!("{up:?} emitted {sent} packets, {down:?} took in {got}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_core::report::{LostWorker, StageReport};

    fn stage(name: &str, packets_in: u64, packets_out: u64, records_in: u64) -> StageReport {
        StageReport { name: name.into(), packets_in, packets_out, records_in, ..Default::default() }
    }

    fn clean() -> RunReport {
        RunReport {
            stages: vec![stage("source-0", 0, 100, 0), stage("collector", 100, 0, 10_000)],
            ..Default::default()
        }
    }

    const EXPECT: Expect = Expect {
        offered_packets: 100,
        offered_records: 10_000,
        consumers: &["collector"],
        hops: &[(&["source-0"], &["collector"])],
    };

    #[test]
    fn a_clean_report_passes() {
        let mut out = Outcome::default();
        check_report(&clean(), &EXPECT, &mut out);
        assert!(out.correct(), "{:?}", out.notes);
    }

    #[test]
    fn one_lost_packet_fails_the_gate() {
        let mut report = clean();
        report.packets_lost = 1;
        let mut out = Outcome::default();
        check_report(&report, &EXPECT, &mut out);
        assert_eq!(out.failed, 1);
        assert!(!out.correct());
        // …and `main` turns an incorrect outcome into a non-zero exit.
        assert_ne!(crate::exit_code(&[out]), 0);
    }

    #[test]
    fn drops_shortfalls_duplicates_and_lost_workers_are_counted() {
        let mut out = Outcome::default();
        let mut report = clean();
        report.stages[1].packets_dropped = 2;
        report.stages[1].packets_in = 98; // 2 short: conservation and exactly-once both see it
        report.stages[1].records_in = 9_800;
        check_report(&report, &EXPECT, &mut out);
        assert_eq!(out.failed, 2 + 2 + 1 + 2, "{:?}", out.notes);

        let mut out = Outcome::default();
        let mut report = clean();
        report.stages[1].packets_in = 101; // a duplicate got through
        report.lost_workers.push(LostWorker { worker: "wc".into(), ..Default::default() });
        check_report(&report, &EXPECT, &mut out);
        assert_eq!(out.failed, 1 + 1 + 1, "{:?}", out.notes);

        let mut out = Outcome::default();
        let mut report = clean();
        report.stages.pop();
        check_report(&report, &EXPECT, &mut out);
        assert!(out.failed >= 100, "a missing consumer delivers nothing: {:?}", out.notes);
    }
}
