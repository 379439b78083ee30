//! The three benchmark workloads: their cells, their seeded inputs, and
//! one untraced pass over each.
//!
//! * `paper-sweep` — the cells `repro fig4 fig10 table7` simulates,
//!   requested figure by figure through `Runner::run_parallel` exactly
//!   as those experiments request them, so memo hits and dedupe happen
//!   as in a user's sweep. The experiments build their configurations
//!   with the default seed, so the benchmark states the same cells with
//!   `SystemConfig::seed` taken from the command line.
//! * `hetero-contention` — one all-class agent mix under the hetero
//!   scheduler zoo, plus its alone runs, serially.
//! * `dram-replay` — a seeded synthetic request stream replayed on the
//!   DRAM system alone under FR-FCFS and CASRAS-Crit.

use crate::clock::{self, process_cpu};
use critmem::experiments::{frontier_schedulers, Runner, Scale};
use critmem::{AgentMix, PredictorKind, RunStats, SystemConfig};
use critmem_common::codec::ByteWriter;
use critmem_cpu::AgentClass;
use critmem_dram::{DramConfig, DramSystem};
use critmem_predict::{CbpMetric, ClptMode, TableSize};
use critmem_sched::{MorseConfig, SchedulerKind, TcmTiebreak};
use critmem_trace::{
    CoreProfile, Fingerprint, ReplayConfig, ReplayStats, SynthSource, TraceReplayer, TrafficProfile,
};
use critmem_workloads::{BUNDLES, PARALLEL_APPS};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    HeteroContention,
    DramReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::HeteroContention,
        Workload::DramReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::HeteroContention => "hetero-contention",
            Workload::DramReplay => "dram-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run lengths: instructions per core of the execution-driven cells and
/// requests per replay cell.
#[derive(Debug, Clone, Copy)]
pub struct Lengths {
    pub paper_instructions: u64,
    pub hetero_instructions: u64,
    pub replay_requests: u64,
}

/// The lengths the benchmark measures at.
pub const MEASURED: Lengths = Lengths {
    paper_instructions: 3_000,
    hetero_instructions: 1_000,
    replay_requests: 250_000,
};

/// The lengths of the self-test.
pub const TINY: Lengths = Lengths {
    paper_instructions: 300,
    hetero_instructions: 200,
    replay_requests: 5_000,
};

/// The `repro` experiments `paper-sweep` runs, in order.
pub const PAPER_EXPERIMENTS: [&str; 3] = ["fig4", "fig10", "table7"];

/// The mix of `hetero-contention`: two OoO cores beside a streamer, a
/// bulk-copy engine and a prefetcher.
pub const HETERO_MIX: &str = "ooo:mcf+ooo:art1+stream+bulk+prefetch";

/// Requests a replay cell may have outstanding (an MSHR-like throttle).
const REPLAY_OUTSTANDING: usize = 64;

/// One cell's statistics.
#[derive(Debug, Clone)]
pub enum CellStats {
    Run(Arc<RunStats>),
    Replay(Arc<ReplayStats>),
}

impl CellStats {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            CellStats::Run(s) => s.encode(&mut w),
            CellStats::Replay(s) => s.encode(&mut w),
        }
        w.into_bytes()
    }

    /// Simulated CPU cycles: the run's length, or the replay's.
    pub fn cycles(&self) -> u64 {
        match self {
            CellStats::Run(s) => s.cycles,
            CellStats::Replay(s) => s.cpu_cycles,
        }
    }

    /// Simulated work: OoO instructions committed, or requests replayed.
    pub fn work(&self) -> u64 {
        match self {
            CellStats::Run(s) => s.cores.iter().map(|c| c.committed).sum(),
            CellStats::Replay(s) => s.completed,
        }
    }
}

/// One timed unit of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Process CPU time of the unit (all threads, the runner's workers
    /// included).
    pub cpu: Duration,
    /// CPU time of the host-speed probe run right after the unit.
    pub probe: Duration,
}

/// Records the timed units of a pass, each followed by the host-speed
/// probe, and the wall time the probes took.
struct UnitTimer {
    units: Vec<Unit>,
    probe_wall: Duration,
    /// Threads the units run on, and so the probe.
    threads: usize,
}

impl UnitTimer {
    fn new(threads: usize) -> Self {
        UnitTimer {
            units: Vec::new(),
            probe_wall: Duration::ZERO,
            threads,
        }
    }

    /// Ends the unit that started at process CPU time `started`.
    fn finish(&mut self, started: Duration) {
        let cpu = process_cpu() - started;
        let t = Instant::now();
        let probe = clock::probe(self.threads);
        self.probe_wall += t.elapsed();
        self.units.push(Unit { cpu, probe });
    }
}

/// The outcome of one untraced pass over a workload's cells.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, its probes left out.
    pub wall: Duration,
    /// The timed units of the pass, in the same order on every pass of
    /// a workload: each experiment's `run_parallel` call when the runner
    /// has workers, each request when it runs serially, each replay
    /// cell.
    pub units: Vec<Unit>,
    /// Every distinct cell, by memo key.
    pub cells: BTreeMap<String, CellStats>,
    /// Failed cells: `key: reason`.
    pub failures: Vec<String>,
    /// Cells the experiments requested (memo hits included).
    pub requested: u64,
    /// Distinct simulations the runner executed.
    pub executed: u64,
    /// Time spent in the plan and render passes of `run_parallel`.
    pub runner_overhead: Duration,
    /// Plan and render passes run.
    pub runner_passes: u64,
}

impl Pass {
    pub fn work(&self) -> u64 {
        self.cells.values().map(CellStats::work).sum()
    }

    pub fn cycles(&self) -> u64 {
        self.cells.values().map(CellStats::cycles).sum()
    }

    /// FNV-1a digest of every cell's encoded statistics, by key.
    pub fn cell_digests(&self) -> Vec<(String, u64)> {
        self.cells
            .iter()
            .map(|(key, stats)| (key.clone(), fnv1a(FNV_BASIS, &stats.encode())))
            .collect()
    }

    /// FNV-1a digest over every cell's key and encoded statistics.
    pub fn digest(&self) -> u64 {
        self.cells.iter().fold(FNV_BASIS, |h, (key, stats)| {
            let h = fnv1a(h, key.as_bytes());
            fnv1a(fnv1a(h, &[0]), &stats.encode())
        })
    }

    pub fn run(&self, key: &str) -> Option<&RunStats> {
        match self.cells.get(key) {
            Some(CellStats::Run(s)) => Some(s),
            _ => None,
        }
    }

    /// The output check every cell must pass: each core committed its
    /// instruction target, each agent finished its work, each replayed
    /// request was generated, injected and completed.
    pub fn check_outputs(&mut self, replay_requests: u64) {
        for (key, stats) in &self.cells {
            let bad = match stats {
                CellStats::Run(s) => {
                    s.cores
                        .iter()
                        .any(|c| c.committed < s.instructions_per_core)
                        || s.agents.iter().any(|a| a.units_done < a.units_target)
                }
                CellStats::Replay(s) => {
                    s.injected != replay_requests || s.completed != replay_requests
                }
            };
            if bad && !self.failures.iter().any(|f| f.starts_with(key.as_str())) {
                self.failures.push(format!("{key}: output check failed"));
            }
        }
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Base configuration of a parallel-app cell (`Runner::parallel_cfg`).
pub fn parallel_cfg(instructions: u64, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(instructions);
    cfg.max_cycles = instructions.saturating_mul(20_000).max(1_000_000_000);
    cfg.seed = seed;
    cfg
}

/// Base configuration of a multiprogrammed cell (Figure 12).
fn multiprog_cfg(instructions: u64, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::multiprogrammed_baseline(instructions);
    cfg.max_cycles = instructions.saturating_mul(40_000).max(1_000_000_000);
    cfg.seed = seed;
    cfg
}

/// A single-core alone run on the multiprogrammed platform.
fn alone_cfg(instructions: u64, seed: u64) -> SystemConfig {
    let mut cfg = multiprog_cfg(instructions, seed);
    cfg.cores = 1;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
    cfg.hierarchy.l2_mshrs = 32;
    cfg
}

/// A heterogeneous-mix cell with `cores` OoO cores.
fn hetero_cfg(instructions: u64, seed: u64, cores: usize) -> SystemConfig {
    let mut cfg = multiprog_cfg(instructions, seed);
    cfg.cores = cores;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(cores);
    cfg.watchdog.max_request_age = 2_000_000;
    cfg
}

fn maxstall() -> PredictorKind {
    PredictorKind::cbp64(CbpMetric::MaxStallTime)
}

/// Figure 4's series: CASRAS-Crit under each ranked predictor.
fn fig4_series() -> Vec<(SchedulerKind, PredictorKind)> {
    let mut s = vec![
        (
            SchedulerKind::CasRasCrit,
            PredictorKind::cbp64(CbpMetric::Binary),
        ),
        (
            SchedulerKind::CasRasCrit,
            PredictorKind::Clpt(ClptMode::Consumers { threshold: 3 }),
        ),
    ];
    for metric in [
        CbpMetric::BlockCount,
        CbpMetric::LastStallTime,
        CbpMetric::MaxStallTime,
        CbpMetric::TotalStallTime,
    ] {
        s.push((SchedulerKind::CasRasCrit, PredictorKind::cbp64(metric)));
    }
    s
}

/// Figure 10's series: MaxStallTime against AHB, MORSE-P and Crit-RL.
fn fig10_series() -> Vec<(SchedulerKind, PredictorKind)> {
    vec![
        (SchedulerKind::CasRasCrit, maxstall()),
        (SchedulerKind::Ahb, PredictorKind::None),
        (
            SchedulerKind::Morse(MorseConfig::default()),
            PredictorKind::None,
        ),
        (
            SchedulerKind::Morse(MorseConfig {
                use_criticality: true,
                ..MorseConfig::default()
            }),
            PredictorKind::cbp64(CbpMetric::Binary),
        ),
    ]
}

/// Figure 12's schedulers, after the PAR-BS reference.
fn fig12_schedulers() -> [(&'static str, SchedulerKind, PredictorKind); 4] {
    let cbp = PredictorKind::Cbp {
        metric: CbpMetric::MaxStallTime,
        size: TableSize::Entries(64),
        reset_interval: None,
    };
    [
        ("FR-FCFS", SchedulerKind::FrFcfs, PredictorKind::None),
        (
            "TCM",
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            },
            PredictorKind::None,
        ),
        ("MaxStallTime", SchedulerKind::CasRasCrit, cbp),
        (
            "TCM+MaxStallTime",
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::CritFrFcfs,
            },
            cbp,
        ),
    ]
}

/// A cell of an execution-driven workload.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Memo key, as the runner stores it (`…@{instructions}`).
    pub key: String,
    pub cfg: SystemConfig,
    pub mix: AgentMix,
}

impl SimCell {
    fn new(key: String, cfg: SystemConfig, mix: AgentMix) -> Self {
        SimCell {
            key: format!("{key}@{}", cfg.instructions_per_core),
            cfg,
            mix,
        }
    }
}

fn parallel_cell(
    instr: u64,
    seed: u64,
    app: &'static str,
    s: SchedulerKind,
    p: PredictorKind,
) -> SimCell {
    SimCell::new(
        format!("{app}|{}|{}|", s.name(), p.name()),
        parallel_cfg(instr, seed)
            .with_scheduler(s)
            .with_predictor(p),
        AgentMix::Parallel(app),
    )
}

fn alone_cell(instr: u64, seed: u64, app: &'static str) -> SimCell {
    SimCell::new(
        format!("alone|{app}"),
        alone_cfg(instr, seed),
        AgentMix::Alone(app),
    )
}

fn bundle_cell(
    instr: u64,
    seed: u64,
    name: &'static str,
    label: &str,
    s: SchedulerKind,
    p: PredictorKind,
) -> SimCell {
    SimCell::new(
        format!("bundle|{name}|{label}"),
        multiprog_cfg(instr, seed)
            .with_scheduler(s)
            .with_predictor(p),
        AgentMix::Bundle(name),
    )
}

/// The cells of one `repro` experiment, in the order it requests them
/// (repeats included: they are the memo hits).
pub fn paper_requests(figure: &str, instr: u64, seed: u64) -> Vec<SimCell> {
    let mut out = Vec::new();
    let series = |out: &mut Vec<SimCell>, list: Vec<(SchedulerKind, PredictorKind)>| {
        for (s, p) in list {
            for app in PARALLEL_APPS {
                out.push(parallel_cell(
                    instr,
                    seed,
                    app,
                    SchedulerKind::FrFcfs,
                    PredictorKind::None,
                ));
                out.push(parallel_cell(instr, seed, app, s, p));
            }
        }
    };
    if figure != "fig10" {
        series(&mut out, fig4_series());
    }
    if figure != "fig4" {
        series(&mut out, fig10_series());
    }
    if figure == "table7" {
        for b in BUNDLES {
            for app in b.apps {
                out.push(alone_cell(instr, seed, app));
            }
            out.push(bundle_cell(
                instr,
                seed,
                b.name,
                "PAR-BS",
                SchedulerKind::ParBs { marking_cap: 5 },
                PredictorKind::None,
            ));
            for (label, s, p) in fig12_schedulers() {
                out.push(bundle_cell(instr, seed, b.name, label, s, p));
            }
        }
    }
    out
}

/// The hetero-contention cells in request order: the OoO alone runs,
/// the agent alone runs, then the mix under every zoo scheduler.
pub fn hetero_requests(instr: u64, seed: u64) -> Vec<SimCell> {
    let mix: AgentMix = HETERO_MIX.parse().expect("the hetero mix parses");
    let mut out = Vec::new();
    let specs = mix.specs().expect("a hetero mix has specs");
    let mut ooo = 0;
    for spec in specs {
        for _ in 0..spec.count {
            if spec.class == AgentClass::Ooo {
                ooo += 1;
                out.push(alone_cell(instr, seed, spec.profile));
            }
        }
    }
    for spec in specs {
        for _ in 0..spec.count {
            if spec.class != AgentClass::Ooo {
                let term = format!("{}:{}", spec.class.keyword(), spec.profile);
                let alone: AgentMix = term.parse().expect("canonical term parses");
                out.push(SimCell::new(
                    format!("heteroalone|{term}"),
                    hetero_cfg(instr, seed, 0),
                    alone,
                ));
            }
        }
    }
    for (label, s, p) in frontier_schedulers() {
        out.push(SimCell::new(
            format!("hetero|{mix}|{label}"),
            hetero_cfg(instr, seed, ooo)
                .with_scheduler(s)
                .with_predictor(p),
            mix.clone(),
        ));
    }
    out
}

/// The dense 8-core traffic profile of `dram-replay`: one request every
/// ~6 CPU cycles in aggregate keeps the controllers saturated, so host
/// time measures controller and scheduler work, not idle cycles.
pub fn dense_profile() -> TrafficProfile {
    let dram = DramConfig::paper_baseline();
    let core = CoreProfile {
        weight: 0.125,
        write_frac: 0.25,
        prefetch_frac: 0.10,
        crit_frac: 0.30,
        mean_crit: 40.0,
        row_hit_frac: 0.60,
        footprint_rows: 64,
    };
    TrafficProfile {
        fingerprint: Fingerprint::of(8, 4_270, &dram),
        source: "perfbench:dense".to_string(),
        records_fitted: 0,
        mean_gap: 6.0,
        mean_issue_lag: 12.0,
        cores: vec![core; 8],
    }
}

/// The schedulers `dram-replay` replays under.
pub const REPLAY_SCHEDULERS: [SchedulerKind; 2] =
    [SchedulerKind::FrFcfs, SchedulerKind::CasRasCrit];

fn replay_key(s: SchedulerKind) -> String {
    format!("replay|{}", s.name())
}

pub fn replay_config() -> ReplayConfig {
    ReplayConfig::default().with_max_outstanding(REPLAY_OUTSTANDING)
}

/// A DRAM system of the replay topology, schedulers built by `wrap`.
pub fn replay_dram(
    s: SchedulerKind,
    wrap: impl Fn(Box<dyn critmem_dram::CommandScheduler>) -> Box<dyn critmem_dram::CommandScheduler>,
) -> DramSystem {
    let profile_cores = 8;
    DramSystem::new(DramConfig::paper_baseline(), |ch| {
        wrap(s.build(profile_cores, u64::from(ch.0)))
    })
}

/// Runs a workload's cells once, untraced. `jobs` is the worker count
/// of `paper-sweep`; the other workloads run serially.
pub fn run_pass(w: Workload, lengths: Lengths, seed: u64, jobs: usize) -> Pass {
    let mut pass = match w {
        Workload::PaperSweep => runner_pass(
            &PAPER_EXPERIMENTS,
            lengths.paper_instructions,
            jobs,
            |figure| paper_requests(figure, lengths.paper_instructions, seed),
        ),
        Workload::HeteroContention => {
            runner_pass(&["hetero"], lengths.hetero_instructions, 1, |_| {
                hetero_requests(lengths.hetero_instructions, seed)
            })
        }
        Workload::DramReplay => replay_pass(lengths.replay_requests, seed),
    };
    pass.check_outputs(lengths.replay_requests);
    pass
}

/// Drives the cells of each experiment through one
/// `Runner::run_parallel` call on a fresh runner, as `repro` does.
fn runner_pass(
    experiments: &[&str],
    instructions: u64,
    jobs: usize,
    requests: impl Fn(&str) -> Vec<SimCell>,
) -> Pass {
    let mut r = Runner::new(Scale {
        instructions,
        apps: Vec::new(),
        sweep_apps: Vec::new(),
        bundles: Vec::new(),
    });
    r.jobs = jobs;
    let overhead = Cell::new(Duration::ZERO);
    let passes = Cell::new(0u64);
    let timer = RefCell::new(UnitTimer::new(jobs));
    let mut pass = Pass::default();
    let start = Instant::now();
    for experiment in experiments {
        let cells = requests(experiment);
        let t = process_cpu();
        let got = r.run_parallel(|r| {
            let mut got = Vec::with_capacity(cells.len());
            let mut request_all = |timed: bool| {
                for c in &cells {
                    // The runner appends the instruction budget itself.
                    let key = c.key.rsplit_once('@').map_or(c.key.as_str(), |(k, _)| k);
                    let t = process_cpu();
                    got.push(r.run_keyed(key.to_string(), c.cfg.clone(), &c.mix));
                    if timed {
                        timer.borrow_mut().finish(t);
                    }
                }
            };
            if jobs > 1 {
                // Plan and render passes only: the simulations run
                // between them, on the pool.
                let t = Instant::now();
                request_all(false);
                overhead.set(overhead.get() + t.elapsed());
                passes.set(passes.get() + 1);
            } else {
                // Serial: the simulations run inside the requests, so
                // the runner's own overhead is not separable here, and
                // each request is a timed unit.
                request_all(true);
            }
            got
        });
        if jobs > 1 {
            timer.borrow_mut().finish(t);
        }
        pass.requested += cells.len() as u64;
        for (c, stats) in cells.iter().zip(got) {
            pass.cells.insert(c.key.clone(), CellStats::Run(stats));
        }
    }
    let timer = timer.into_inner();
    pass.wall = start.elapsed() - timer.probe_wall;
    pass.units = timer.units;
    pass.executed = r.runs_executed();
    pass.runner_overhead = overhead.get();
    pass.runner_passes = passes.get();
    pass.failures = r
        .failures()
        .iter()
        .map(|f| format!("{}: {}", f.key, f.error))
        .collect();
    pass
}

/// One seeded synthetic stream, capped at `requests`.
pub fn replay_source(requests: u64, seed: u64) -> SynthSource {
    SynthSource::new(&dense_profile(), seed).with_limit(requests)
}

fn replay_pass(requests: u64, seed: u64) -> Pass {
    let mut pass = Pass::default();
    let mut timer = UnitTimer::new(1);
    let start = Instant::now();
    for s in REPLAY_SCHEDULERS {
        let key = replay_key(s);
        let t = process_cpu();
        let mut source = replay_source(requests, seed);
        let outcome =
            TraceReplayer::from_source(&mut source, replay_dram(s, |b| b), replay_config())
                .map_err(|e| e.to_string())
                .and_then(|r| r.try_run().map_err(|e| e.to_string()));
        timer.finish(t);
        match outcome {
            Ok(stats) => {
                if source.generated() != requests {
                    pass.failures.push(format!(
                        "{key}: generated {} of {requests} requests",
                        source.generated()
                    ));
                }
                pass.cells.insert(key, CellStats::Replay(Arc::new(stats)));
            }
            Err(e) => pass.failures.push(format!("{key}: {e}")),
        }
        pass.requested += 1;
        pass.executed += 1;
    }
    pass.wall = start.elapsed() - timer.probe_wall;
    pass.units = timer.units;
    pass
}

/// Largest agent slowdown over the hetero zoo: an agent's finish cycle
/// in the shared run over its finish cycle alone (the `repro hetero`
/// definition). Zero when the pass holds no hetero cells.
pub fn hetero_agent_max_slowdown(pass: &Pass, instructions: u64, seed: u64) -> f64 {
    let cells = hetero_requests(instructions, seed);
    let finish = |key: &str| -> Vec<f64> {
        pass.run(key)
            .map(|s| s.agents.iter().map(|a| a.finish.max(1) as f64).collect())
            .unwrap_or_default()
    };
    let alone: Vec<f64> = cells
        .iter()
        .filter(|c| c.key.starts_with("heteroalone|"))
        .filter_map(|c| finish(&c.key).first().copied())
        .collect();
    cells
        .iter()
        .filter(|c| c.key.starts_with("hetero|"))
        .flat_map(|c| {
            finish(&c.key)
                .into_iter()
                .zip(alone.iter())
                .map(|(shared, al)| shared / al)
                .collect::<Vec<_>>()
        })
        .fold(0.0, f64::max)
}
