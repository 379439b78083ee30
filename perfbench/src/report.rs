//! Metric definitions, the simulated counters, provenance and output.

use crate::workloads::{CellStats, Pass};
use critmem::metrics::mean;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.into(),
        }
    }
}

/// `a / b`, zero when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The lower quartile (nearest rank): a quarter of the values are at
/// or below it.
pub fn lower_quartile(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 4]
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean CASRAS-Crit + MaxStallTime CBP speedup over FR-FCFS on the
/// parallel apps, in percent: the paper's headline, +9.3% (PAPER.md;
/// EXPERIMENTS.md, Figure 4).
pub const PAPER_SPEEDUP_PCT: f64 = 9.3;

/// Mean share of execution cycles the ROB head is blocked by a
/// long-latency load under FR-FCFS: 48.6% (EXPERIMENTS.md, Figure 1).
pub const PAPER_ROB_BLOCKED_PCT: f64 = 48.6;

/// `(speedup error, ROB-blocked error)` in percentage points against
/// the paper's numbers, from a `paper-sweep` pass.
pub fn paper_errors(pass: &Pass, instructions: u64) -> Option<(f64, f64)> {
    let mut speedups = Vec::new();
    let mut blocked = Vec::new();
    for app in critmem_workloads::PARALLEL_APPS {
        let base = pass.run(&format!("{app}|FR-FCFS|none|@{instructions}"))?;
        let crit = pass.run(&format!(
            "{app}|CASRAS-Crit|MaxStallTime CBP (64-entry)|@{instructions}"
        ))?;
        speedups.push(base.cycles as f64 / crit.cycles as f64);
        blocked.push(base.blocked_cycle_fraction());
    }
    Some((
        ((mean(&speedups) - 1.0) * 100.0 - PAPER_SPEEDUP_PCT).abs(),
        (mean(&blocked) * 100.0 - PAPER_ROB_BLOCKED_PCT).abs(),
    ))
}

/// The simulated counters of a pass, pooled over its cells. They are
/// exact for a given seed and length, so any simulator-speed change
/// must leave them identical.
pub fn counters(pass: &Pass, agent_max_slowdown: f64) -> Vec<Metric> {
    #[derive(Default)]
    struct Sums {
        committed: f64,
        core_cycles: f64,
        long_block: f64,
        lq_full: f64,
        issued_loads: f64,
        issued_critical: f64,
        l2_accesses: f64,
        l2_misses: f64,
        pf_sent: f64,
        pf_useful: f64,
        writebacks: f64,
        row_hits: f64,
        row_total: f64,
        bus_busy: f64,
        ticks: f64,
        occupancy: f64,
        crit_reads: f64,
        crit_lat: f64,
        reads: f64,
        read_lat: f64,
        writes: f64,
        rejected: f64,
        promotions: f64,
        units_done: f64,
        replay_serviced: f64,
        replay_reads: f64,
        replay_read_lat: f64,
    }
    let mut s = Sums::default();
    for stats in pass.cells.values() {
        let channels = match stats {
            CellStats::Run(r) => {
                for c in &r.cores {
                    s.committed += c.committed as f64;
                    s.core_cycles += c.cycles as f64;
                    s.long_block += c.long_block_cycles as f64;
                    s.issued_loads += c.issued_loads as f64;
                    s.issued_critical += c.issued_critical_loads as f64;
                }
                s.lq_full += r.lq_full_cycles.iter().sum::<u64>() as f64;
                let h = &r.hierarchy;
                s.l2_accesses += h.l2_accesses as f64;
                s.l2_misses += h.l2_misses as f64;
                s.pf_sent += h.prefetches_sent as f64;
                s.pf_useful += h.prefetch_useful as f64;
                s.writebacks += h.writebacks as f64;
                s.units_done += r.agents.iter().map(|a| a.units_done).sum::<u64>() as f64;
                &r.channels
            }
            CellStats::Replay(r) => {
                s.replay_serviced += r.requests_serviced() as f64;
                s.replay_reads += r.reads as f64;
                s.replay_read_lat += r.read_latency_sum as f64;
                &r.channels
            }
        };
        for c in channels {
            s.row_hits += c.row_hits as f64;
            s.row_total += (c.row_hits + c.row_misses + c.row_conflicts) as f64;
            s.bus_busy += c.bus_busy_cycles as f64;
            s.ticks += c.ticks as f64;
            s.occupancy += c.occupancy_sum as f64;
            s.crit_reads += c.critical_reads_completed as f64;
            s.crit_lat += c.critical_read_latency_sum as f64;
            s.reads += c.reads_completed as f64;
            s.read_lat += c.read_latency_sum as f64;
            s.writes += c.writes_completed as f64;
            s.rejected += c.rejected_full as f64;
            s.promotions += c.starvation_promotions as f64;
        }
    }
    vec![
        Metric::new("cpu.ipc", ratio(s.committed, s.core_cycles), "instr/cycle"),
        Metric::new(
            "cpu.rob_blocked_frac",
            ratio(s.long_block, s.core_cycles),
            "frac",
        ),
        Metric::new("cpu.lq_full_frac", ratio(s.lq_full, s.core_cycles), "frac"),
        Metric::new(
            "predict.critical_load_frac",
            ratio(s.issued_critical, s.issued_loads),
            "frac",
        ),
        Metric::new(
            "cache.l2_miss_rate",
            ratio(s.l2_misses, s.l2_accesses),
            "frac",
        ),
        Metric::new(
            "cache.prefetch_useful_frac",
            ratio(s.pf_useful, s.pf_sent),
            "frac",
        ),
        Metric::new("cache.writebacks", s.writebacks, "count"),
        Metric::new("dram.row_hit_rate", ratio(s.row_hits, s.row_total), "frac"),
        Metric::new("dram.bus_util", ratio(s.bus_busy, s.ticks), "frac"),
        Metric::new("dram.mean_occupancy", ratio(s.occupancy, s.ticks), "txns"),
        Metric::new(
            "dram.read_lat_crit",
            ratio(s.crit_lat, s.crit_reads),
            "dram_cycles",
        ),
        Metric::new(
            "dram.read_lat_noncrit",
            ratio(s.read_lat - s.crit_lat, s.reads - s.crit_reads),
            "dram_cycles",
        ),
        Metric::new(
            "dram.rejected_full_frac",
            ratio(s.rejected, s.rejected + s.reads + s.writes),
            "frac",
        ),
        Metric::new("sched.starvation_promotions", s.promotions, "count"),
        Metric::new("agents.units_done", s.units_done, "count"),
        Metric::new("agents.max_slowdown", agent_max_slowdown, "ratio"),
        Metric::new("trace.requests_serviced", s.replay_serviced, "count"),
        Metric::new(
            "trace.mean_read_latency",
            ratio(s.replay_read_lat, s.replay_reads),
            "cpu_cycles",
        ),
    ]
}

/// Build and host facts recorded beside the numbers.
pub fn provenance() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| -> String {
        let mut c = std::process::Command::new(cmd);
        c.args(args);
        // Never report the revision of a repository enclosing the
        // benchmark's checkout.
        if let Ok(cwd) = std::env::current_dir() {
            if let Some(parent) = cwd.parent() {
                c.env("GIT_CEILING_DIRECTORIES", parent);
            }
        }
        c.stderr(std::process::Stdio::null());
        match c.output() {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
            _ => "unknown".to_string(),
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("nproc", nproc.to_string()),
        ("git_revision", run("git", &["rev-parse", "HEAD"])),
        ("rustc", run("rustc", &["--version"])),
        (
            "cargo_profile",
            if cfg!(debug_assertions) {
                "dev".to_string()
            } else {
                "release (lto=thin, debug=true)".to_string()
            },
        ),
    ]
}

/// The process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
