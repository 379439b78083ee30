//! Fault-isolated sweeps and resumable journals: one bad cell must
//! never cost the rest of the sweep, and a journaled sweep must resume
//! to byte-identical results.

use critmem::config::{AgentMix, PredictorKind};
use critmem::experiments::{Runner, Scale};
use critmem::journal::SweepJournal;
use critmem::pool::MAX_ATTEMPTS;
use critmem::{FaultKind, FaultPlan, RunStats};
use critmem_common::codec::ByteWriter;
use critmem_common::SimError;
use critmem_sched::SchedulerKind;
use std::path::PathBuf;

fn tiny_scale() -> Scale {
    Scale {
        instructions: 500,
        ..Scale::quick()
    }
}

/// The faulted cell of every test: `app` under CASRAS-Crit without a
/// predictor, i.e. `r.parallel(app, SchedulerKind::CasRasCrit,
/// PredictorKind::None)`.
fn faulted_cell(r: &mut Runner, app: &'static str) -> std::sync::Arc<RunStats> {
    r.parallel(app, SchedulerKind::CasRasCrit, PredictorKind::None)
}

/// The memo key of [`faulted_cell`] at [`tiny_scale`].
fn faulted_key(app: &str) -> String {
    format!("{app}|CASRAS-Crit|none|@500")
}

/// Wedges every bank of the runner's platform at cycle 0: no command
/// ever issues, so the cell livelocks until the watchdog trips.
fn wedge_all(r: &Runner) -> FaultPlan {
    let org = r.parallel_cfg().dram.org;
    let mut plan = FaultPlan::new(0);
    for channel in 0..u16::from(org.channels) {
        for rank in 0..org.ranks_per_channel {
            for bank in 0..org.banks_per_rank {
                plan = plan.with_fault(FaultKind::WedgeBank {
                    channel,
                    rank,
                    bank,
                    at_cycle: 0,
                });
            }
        }
    }
    plan
}

/// Arms [`wedge_all`] on the faulted cell of each of `apps`.
fn wedge(r: &mut Runner, apps: &[&str]) {
    for app in apps {
        let plan = wedge_all(r);
        r.inject(faulted_key(app), plan);
    }
}

fn bytes(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("critmem-resilience-{name}-{}", std::process::id()));
    p
}

/// A cell that livelocks (every bank wedged, watchdog trip) is recorded
/// as a per-cell failure while the surrounding cells complete and the
/// figure still renders from placeholder values.
#[test]
fn wedged_cell_fails_alone_and_the_sweep_survives() {
    let mut r = Runner::new(tiny_scale());
    wedge(&mut r, &["swim"]);
    let good_before = r.baseline("swim");
    let bad = faulted_cell(&mut r, "swim");
    let good_after = r.baseline("mg");
    assert!(good_before.cycles > 1 && good_after.cycles > 1);
    assert_eq!(bad.cycles, 1, "failed cell must hold the placeholder");
    assert!(r.has_failures());
    assert_eq!(r.failures().len(), 1);
    let f = &r.failures()[0];
    assert_eq!(f.key, faulted_key("swim"));
    assert!(matches!(f.error, SimError::Watchdog(_)), "{:?}", f.error);
    // The placeholder is memoized: re-requesting the failed cell must
    // not re-run the livelock (and must not duplicate the failure).
    let again = faulted_cell(&mut r, "swim");
    assert!(std::sync::Arc::ptr_eq(&bad, &again));
    assert_eq!(r.failures().len(), 1);
}

/// Typed per-cell errors (not just panics) are isolated on the
/// parallel path too, and the result is independent of the job count.
#[test]
fn parallel_sweep_with_wedged_cell_matches_serial() {
    let sweep = |jobs: usize| {
        let mut r = Runner::new(tiny_scale());
        r.jobs = jobs;
        wedge(&mut r, &["swim", "mg"]);
        r.run_parallel(|r| {
            for app in ["swim", "mg"] {
                r.baseline(app);
                faulted_cell(r, app);
            }
        });
        let failures: Vec<String> = r.failures().iter().map(|f| f.key.clone()).collect();
        (r.memo_snapshot(), failures)
    };
    let (snap_serial, fail_serial) = sweep(1);
    let (snap_parallel, mut fail_parallel) = sweep(4);
    assert_eq!(snap_serial, snap_parallel);
    assert_eq!(fail_serial.len(), 2);
    // run_parallel reports plan-order failures; serial reports
    // call-order. Same set either way.
    fail_parallel.sort();
    let mut fail_serial = fail_serial;
    fail_serial.sort();
    assert_eq!(fail_serial, fail_parallel);
}

/// An unknown workload surfaces as a config-class failure in the
/// sweep, not an abort.
#[test]
fn unknown_workload_cell_is_contained() {
    let mut r = Runner::new(tiny_scale());
    let stats = r.run_keyed(
        "bogus|case".to_string(),
        r.parallel_cfg(),
        &AgentMix::Parallel("not-an-app"),
    );
    assert_eq!(stats.cycles, 1, "placeholder for the failed cell");
    assert_eq!(r.failures().len(), 1);
    assert!(
        matches!(r.failures()[0].error, SimError::UnknownWorkload { .. }),
        "{:?}",
        r.failures()[0].error
    );
}

/// A journaled sweep resumes without re-running completed cells and
/// reproduces the identical memo table.
#[test]
fn journal_resume_skips_completed_cells_byte_for_byte() {
    let path = tmp("resume");
    let drive = |r: &mut Runner| {
        for app in ["swim", "mg"] {
            r.baseline(app);
            r.parallel(app, SchedulerKind::CasRasCrit, PredictorKind::None);
            r.replay(app, SchedulerKind::FrFcfs);
        }
    };

    // First pass: run everything under a journal.
    let mut first = Runner::new(tiny_scale());
    first.set_journal(SweepJournal::create(&path).unwrap());
    drive(&mut first);
    assert_eq!(first.runs_executed(), 6); // 4 runs + 2 captures
    assert_eq!(first.replays_executed(), 2);
    let reference = first.memo_snapshot();

    // Resume: every journaled cell preloads; only the captures (which
    // are intermediate artifacts, deliberately not journaled) re-run.
    let (journal, entries) = SweepJournal::resume(&path).unwrap();
    assert_eq!(entries.len(), 6, "4 runs + 2 replays journaled");
    let mut resumed = Runner::new(tiny_scale());
    resumed.preload(entries);
    resumed.set_journal(journal);
    drive(&mut resumed);
    assert_eq!(resumed.runs_executed(), 0, "no run or capture re-executed");
    assert_eq!(resumed.replays_executed(), 0, "no replay re-executed");
    assert_eq!(resumed.memo_snapshot(), reference);
    assert!(!resumed.has_failures());
    std::fs::remove_file(&path).unwrap();
}

/// Failed cells are not journaled: a resume retries exactly them.
#[test]
fn journal_resume_retries_only_the_failed_cell() {
    let path = tmp("retry");
    let mut first = Runner::new(tiny_scale());
    first.set_journal(SweepJournal::create(&path).unwrap());
    wedge(&mut first, &["swim"]);
    first.baseline("swim");
    faulted_cell(&mut first, "swim");
    assert_eq!(first.failures().len(), 1);

    let (journal, entries) = SweepJournal::resume(&path).unwrap();
    assert_eq!(entries.len(), 1, "only the good cell was journaled");
    let mut resumed = Runner::new(tiny_scale());
    resumed.preload(entries);
    resumed.set_journal(journal);
    wedge(&mut resumed, &["swim"]);
    resumed.baseline("swim");
    assert_eq!(
        resumed.runs_executed(),
        0,
        "good cell came from the journal"
    );
    // The wedged cell is retried (and, being genuinely wedged, fails
    // again — but it was retried, which is the contract).
    faulted_cell(&mut resumed, "swim");
    assert_eq!(resumed.runs_executed(), 1);
    assert_eq!(resumed.failures().len(), 1);
    std::fs::remove_file(&path).unwrap();
}

/// A panic inside one simulation of a parallel, journaled sweep is
/// contained to that cell: it fails as a cell panic after every retry,
/// every other cell equals a clean sweep's, and a resume from the
/// journal re-runs exactly the panicked cell.
#[test]
fn injected_panic_fails_one_cell_and_resume_reruns_only_it() {
    const APPS: [&str; 2] = ["swim", "mg"];
    let sweep = |r: &mut Runner| {
        r.run_parallel(|r| {
            for app in APPS {
                r.baseline(app);
                faulted_cell(r, app);
            }
        })
    };
    // Every cell's full statistics, recalled from the memo tables.
    let cells = |r: &mut Runner| -> Vec<(String, Vec<u8>)> {
        let mut v = Vec::new();
        for app in APPS {
            v.push((format!("{app} baseline"), bytes(&r.baseline(app))));
            v.push((faulted_key(app), bytes(&faulted_cell(r, app))));
        }
        v
    };
    let mut clean = Runner::new(tiny_scale());
    clean.jobs = 4;
    sweep(&mut clean);
    assert!(!clean.has_failures());
    let reference = cells(&mut clean);

    let path = tmp("panic");
    let target = faulted_key("mg");
    let mut faulted = Runner::new(tiny_scale());
    faulted.jobs = 4;
    faulted.set_journal(SweepJournal::create(&path).unwrap());
    faulted.inject(
        target.clone(),
        FaultPlan::new(0).with_fault(FaultKind::Panic { at_cycle: 0 }),
    );
    sweep(&mut faulted);
    assert_eq!(faulted.failures().len(), 1);
    let f = &faulted.failures()[0];
    assert_eq!(f.key, target);
    assert!(
        matches!(
            f.error,
            SimError::CellPanic {
                attempts: MAX_ATTEMPTS,
                ..
            }
        ),
        "{:?}",
        f.error
    );
    let executed = faulted.runs_executed();
    let got = cells(&mut faulted);
    assert_eq!(faulted.runs_executed(), executed, "recall re-ran a cell");
    for (want, have) in reference.iter().zip(&got) {
        if want.0 != target {
            assert_eq!(want, have, "{} differs from the clean sweep", want.0);
        }
    }

    let (journal, entries) = SweepJournal::resume(&path).unwrap();
    assert_eq!(
        entries.len(),
        reference.len() - 1,
        "all but the panicked cell"
    );
    let mut resumed = Runner::new(tiny_scale());
    resumed.jobs = 4;
    resumed.preload(entries);
    resumed.set_journal(journal);
    sweep(&mut resumed);
    assert_eq!(resumed.runs_executed(), 1, "only the panicked cell re-runs");
    assert!(!resumed.has_failures());
    assert_eq!(cells(&mut resumed), reference);
    std::fs::remove_file(&path).unwrap();
}
