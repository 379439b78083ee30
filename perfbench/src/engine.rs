//! Bench-side stepping loops built only from the layers' public
//! functions: a copy of the `System` step/horizon/skip loop and of the
//! `TraceReplayer` loop, with a span around every call into a layer.
//!
//! The loops must reproduce `Session::run` and `TraceReplayer::try_run`
//! exactly; the traced run checks that they do (byte-equal encoded
//! statistics) before it publishes any per-layer number.

use crate::trace::{self, Layer, TimedPredictor, TimedScheduler, TimedSource};
use critmem::{AgentMix, PredictorKind, RunStats, SystemConfig};
use critmem_cache::CacheHierarchy;
use critmem_common::{ClockDivider, CoreId, CpuCycle, Criticality, MemRequest};
use critmem_cpu::{
    AgentClass, CbpPredictor, ClptPredictor, Core, InstrSource, LoadCriticalityPredictor,
    MemoryAgent, NoPredictor,
};
use critmem_dram::DramSystem;
use critmem_predict::{Clpt, CommitBlockPredictor};
use critmem_trace::{Fingerprint, ReplayConfig, ReplayStats, RequestSource};
use critmem_workloads::{
    build_agent, bundle, multi_app, parallel_app, target_units_for, AppThread,
};
use std::collections::{HashMap, VecDeque};

/// Horizon-pin attribution slots, in the order the horizon consults
/// the components.
pub const PIN_NAMES: [&str; 5] = ["core", "agent", "forward", "cache", "dram"];
const PIN_CORE: usize = 0;
const PIN_AGENT: usize = 1;
const PIN_FORWARD: usize = 2;
const PIN_CACHE: usize = 3;
const PIN_DRAM: usize = 4;

/// Loop counters of one or more bench-side runs.
#[derive(Debug, Clone, Default)]
pub struct LoopCounts {
    /// Executed `step`s (loop iterations).
    pub steps: u64,
    /// CPU cycles advanced by skip-ahead instead of stepping.
    pub skipped: u64,
    /// Final simulated CPU cycle, summed over runs.
    pub cycles: u64,
    /// Horizon queries.
    pub horizon_queries: u64,
    /// Horizon queries each component pinned to `now + 1`.
    pub pins: [u64; 5],
}

impl LoopCounts {
    pub fn add(&mut self, o: &LoopCounts) {
        self.steps += o.steps;
        self.skipped += o.skipped;
        self.cycles += o.cycles;
        self.horizon_queries += o.horizon_queries;
        for (a, b) in self.pins.iter_mut().zip(o.pins) {
            *a += b;
        }
    }
}

fn build_predictor(kind: PredictorKind) -> Box<dyn LoadCriticalityPredictor> {
    let inner: Box<dyn LoadCriticalityPredictor> = match kind {
        PredictorKind::None => Box::new(NoPredictor),
        PredictorKind::Cbp {
            metric,
            size,
            reset_interval,
        } => {
            let mut cbp = CommitBlockPredictor::new(metric, size);
            if let Some(interval) = reset_interval {
                cbp = cbp.with_reset_interval(interval);
            }
            Box::new(CbpPredictor::new(cbp))
        }
        PredictorKind::Clpt(mode) => Box::new(ClptPredictor::new(Clpt::new(mode))),
    };
    Box::new(TimedPredictor(inner))
}

fn app_thread(app: &str, thread: usize, seed: u64, parallel: bool) -> Result<AppThread, String> {
    let spec = if parallel {
        parallel_app(app)
    } else {
        multi_app(app).or_else(|| parallel_app(app))
    };
    let spec = spec.ok_or_else(|| format!("unknown application {app}"))?;
    Ok(AppThread::new(&spec, thread, seed))
}

/// A forwarding message of the §5.1 naive scheme.
struct Forward {
    deliver_at: CpuCycle,
    addr: u64,
    core: CoreId,
}

/// The bench-side copy of `critmem::System` and its run loop.
pub struct Stepper {
    cfg: SystemConfig,
    cores: Vec<Core>,
    sources: Vec<TimedSource>,
    agents: Vec<Box<dyn MemoryAgent>>,
    agent_pending: VecDeque<MemRequest>,
    scratch: Vec<MemRequest>,
    hierarchy: CacheHierarchy,
    dram: DramSystem,
    divider: ClockDivider,
    forwards: VecDeque<Forward>,
    now: CpuCycle,
    core_finish: Vec<Option<u64>>,
    lq_full_cycles: Vec<u64>,
    counts: LoopCounts,
}

impl Stepper {
    /// Builds the system for `workload` the way `System::try_new`
    /// does, with timing decorators around the predictors, the
    /// instruction sources and the schedulers.
    ///
    /// # Errors
    ///
    /// A description of an unsupported option or unknown workload.
    pub fn new(cfg: SystemConfig, workload: &AgentMix) -> Result<Self, String> {
        cfg.validate()?;
        if cfg.sample_epoch.is_some() || cfg.audit || cfg.shards > 1 {
            return Err("the bench-side loop runs unsampled, unaudited, unsharded".into());
        }
        let seed = cfg.seed;
        let mut sources = Vec::new();
        let mut qos = Vec::new();
        let mut agents: Vec<Box<dyn MemoryAgent>> = Vec::new();
        match workload {
            AgentMix::Parallel(app) => {
                for c in 0..cfg.cores {
                    sources.push(app_thread(app, c, seed, true)?);
                }
            }
            AgentMix::Bundle(name) => {
                let b = bundle(name).ok_or_else(|| format!("unknown bundle {name}"))?;
                for (c, app) in b.apps.iter().enumerate() {
                    sources.push(app_thread(app, c, seed, false)?);
                }
            }
            AgentMix::Alone(app) => sources.push(app_thread(app, 0, seed, false)?),
            AgentMix::Hetero(specs) => {
                for spec in specs {
                    for _ in 0..spec.count {
                        if spec.class == AgentClass::Ooo {
                            sources.push(app_thread(spec.profile, sources.len(), seed, false)?);
                            qos.push(Some(spec.effective_qos_millis()));
                        } else {
                            let index = agents.len();
                            let agent = build_agent(
                                spec.class,
                                spec.profile,
                                index,
                                CoreId((cfg.cores + index) as u8),
                                spec.effective_qos_millis(),
                                target_units_for(spec.class, cfg.instructions_per_core),
                                seed,
                            )
                            .ok_or_else(|| format!("unknown agent profile {}", spec.profile))?;
                            agents.push(agent);
                        }
                    }
                }
            }
        }
        if sources.len() != cfg.cores {
            return Err(format!(
                "workload has {} cores, configuration {}",
                sources.len(),
                cfg.cores
            ));
        }
        qos.resize(cfg.cores, None);
        let cores = qos
            .iter()
            .enumerate()
            .map(|(c, millis)| {
                let core = Core::new(
                    CoreId(c as u8),
                    cfg.core,
                    build_predictor(cfg.predictor),
                    u64::MAX / 2,
                );
                match millis {
                    Some(m) => core.with_qos_budget_millis(*m),
                    None => core,
                }
            })
            .collect();
        let num_threads = cfg.cores + agents.len();
        let scheduler = cfg.scheduler;
        let dram = DramSystem::new(cfg.dram, |ch| {
            Box::new(TimedScheduler(
                scheduler.build(num_threads, u64::from(ch.0)),
            ))
        });
        Ok(Stepper {
            hierarchy: CacheHierarchy::new(cfg.hierarchy),
            dram,
            divider: ClockDivider::new(cfg.dram.preset.bus_mhz, cfg.cpu_mhz),
            forwards: VecDeque::new(),
            now: 0,
            core_finish: vec![None; cfg.cores],
            lq_full_cycles: vec![0; cfg.cores],
            cores,
            sources: sources
                .into_iter()
                .map(|s| TimedSource(Box::new(s) as Box<dyn InstrSource>))
                .collect(),
            agents,
            agent_pending: VecDeque::new(),
            scratch: Vec::new(),
            cfg,
            counts: LoopCounts::default(),
        })
    }

    fn done(&self) -> bool {
        self.core_finish.iter().all(Option::is_some) && self.agents.iter().all(|a| a.finished())
    }

    /// Runs to completion (the `System::drive` loop without a stop
    /// cycle) and returns the run's statistics.
    ///
    /// # Errors
    ///
    /// The run hit its cycle limit.
    pub fn run(mut self) -> Result<(RunStats, LoopCounts), String> {
        let check_interval = self.cfg.watchdog.check_interval;
        let mut next_check = self.now.saturating_add(check_interval);
        while !self.done() {
            let root = trace::begin_iteration(Layer::SystemLoop);
            if self.now >= self.cfg.max_cycles {
                trace::end_iteration(root);
                return Err(format!("cycle limit {} reached", self.cfg.max_cycles));
            }
            if self.cfg.skip_ahead {
                // The same cap as `System::drive`: the watchdog's check
                // cycles are landed on exactly.
                let mut cap = self.cfg.max_cycles;
                if check_interval > 0 {
                    cap = cap.min(next_check);
                }
                let horizon = self.idle_horizon().min(cap);
                if horizon > self.now + 1 {
                    self.skip(horizon - self.now - 1);
                }
            }
            self.step();
            if self.now >= next_check {
                next_check = self.now.saturating_add(check_interval);
            }
            trace::end_iteration(root);
        }
        self.counts.cycles = self.now;
        let counts = self.counts.clone();
        Ok((self.into_stats(), counts))
    }

    fn step(&mut self) {
        self.counts.steps += 1;
        self.now += 1;
        let now = self.now;
        let n = self.cores.len();
        let start = if n > 0 { (now as usize) % n } else { 0 };
        for k in 0..n {
            let i = (start + k) % n;
            let core = &mut self.cores[i];
            let source = &mut self.sources[i];
            let hierarchy = &mut self.hierarchy;
            let events = trace::timed(Layer::CpuStep, || core.step(now, source, hierarchy));
            if core.lq_full() {
                self.lq_full_cycles[i] += 1;
            }
            if self.core_finish[i].is_none()
                && core.stats().committed >= self.cfg.instructions_per_core
            {
                self.core_finish[i] = Some(now);
            }
            if self.cfg.naive_forwarding {
                if let Some(b) = events.block_started {
                    self.forwards.push_back(Forward {
                        deliver_at: now + self.cfg.forward_latency,
                        addr: b.addr & !63,
                        core: CoreId(i as u8),
                    });
                }
            }
        }
        while self.forwards.front().is_some_and(|m| m.deliver_at <= now) {
            let m = self.forwards.pop_front().expect("front checked above");
            self.dram
                .promote_by_addr(m.addr, m.core, Criticality::binary());
        }
        loop {
            let hierarchy = &mut self.hierarchy;
            let Some(req) = trace::timed(Layer::CachePop, || hierarchy.pop_request(now)) else {
                break;
            };
            let dram = &mut self.dram;
            if let Err(back) = trace::timed(Layer::DramEnqueue, || dram.enqueue(req)) {
                trace::timed(Layer::CachePop, || hierarchy.unpop_request(back));
                break;
            }
        }
        if !self.agents.is_empty() {
            self.agent_step(now);
        }
        if self.divider.tick() {
            let token = trace::enter(Layer::DramTick);
            let completions = self.dram.tick();
            trace::exit(token);
            for done in completions {
                let origin = done.req.core.index();
                if origin >= self.cores.len() {
                    let agent = &mut self.agents[origin - self.cores.len()];
                    trace::timed(Layer::AgentsGenerate, || agent.complete(&done.req, now));
                } else {
                    let hierarchy = &mut self.hierarchy;
                    let delivered = trace::timed(Layer::CacheDramCompleted, || {
                        hierarchy.dram_completed(&done.req, now)
                    });
                    for c in delivered {
                        let core = &mut self.cores[c.core.index()];
                        trace::timed(Layer::MemCompleted, || {
                            core.mem_completed(c.token.0, c.done);
                        });
                    }
                }
            }
        }
    }

    fn agent_step(&mut self, now: CpuCycle) {
        while let Some(req) = self.agent_pending.front().copied() {
            let dram = &mut self.dram;
            if trace::timed(Layer::DramEnqueue, || dram.enqueue(req)).is_err() {
                break;
            }
            self.agent_pending.pop_front();
        }
        let n = self.agents.len();
        let start = (now as usize) % n;
        let mut scratch = std::mem::take(&mut self.scratch);
        for k in 0..n {
            let i = (start + k) % n;
            scratch.clear();
            let agent = &mut self.agents[i];
            trace::timed(Layer::AgentsGenerate, || agent.generate(now, &mut scratch));
            for &req in &scratch {
                if !self.agent_pending.is_empty() {
                    self.agent_pending.push_back(req);
                    continue;
                }
                let dram = &mut self.dram;
                if let Err(back) = trace::timed(Layer::DramEnqueue, || dram.enqueue(req)) {
                    self.agent_pending.push_back(back);
                }
            }
        }
        self.scratch = scratch;
    }

    /// `System::idle_horizon`, attributing each query that cannot skip
    /// to the first component that pinned it to `now + 1`.
    fn idle_horizon(&mut self) -> CpuCycle {
        self.counts.horizon_queries += 1;
        let now = self.now;
        let nxt = now + 1;
        let mut horizon = CpuCycle::MAX;
        for core in &self.cores {
            horizon = horizon.min(trace::timed(Layer::Horizon, || core.quiescent_until(now)));
            if horizon <= nxt {
                self.counts.pins[PIN_CORE] += 1;
                return nxt;
            }
        }
        if !self.agent_pending.is_empty() {
            self.counts.pins[PIN_AGENT] += 1;
            return nxt;
        }
        for agent in &self.agents {
            horizon = horizon.min(trace::timed(Layer::Horizon, || agent.quiescent_until(now)));
            if horizon <= nxt {
                self.counts.pins[PIN_AGENT] += 1;
                return nxt;
            }
        }
        let mut pinned = None;
        if let Some(m) = self.forwards.front() {
            horizon = horizon.min(m.deliver_at.max(nxt));
            if horizon <= nxt {
                pinned = Some(PIN_FORWARD);
            }
        }
        let hierarchy = &self.hierarchy;
        if let Some(ready) = trace::timed(Layer::Horizon, || hierarchy.next_request_ready_at()) {
            horizon = horizon.min(ready.max(nxt));
            if horizon <= nxt {
                pinned = pinned.or(Some(PIN_CACHE));
            }
        }
        let dram = &self.dram;
        let d = trace::timed(Layer::Horizon, || dram.next_event_cycle())
            .saturating_sub(self.divider.slow_cycles());
        horizon = horizon.min(now.saturating_add(self.divider.fast_cycles_until(d)));
        if horizon <= nxt {
            pinned = pinned.or(Some(PIN_DRAM));
        }
        if let Some(p) = pinned {
            self.counts.pins[p] += 1;
        }
        horizon.max(nxt)
    }

    fn skip(&mut self, n: u64) {
        self.counts.skipped += n;
        let now = self.now;
        for (i, core) in self.cores.iter_mut().enumerate() {
            trace::timed(Layer::Skip, || core.skip(now, n));
            if core.lq_full() {
                self.lq_full_cycles[i] += n;
            }
        }
        let d = self.divider.advance(n);
        if d > 0 {
            let dram = &mut self.dram;
            trace::timed(Layer::Skip, || dram.skip(d));
        }
        self.now += n;
    }

    fn into_stats(self) -> RunStats {
        let now = self.now;
        RunStats {
            cycles: self
                .core_finish
                .iter()
                .map(|f| f.unwrap_or(now))
                .chain(self.agents.iter().map(|a| a.finish_cycle().unwrap_or(now)))
                .max()
                .unwrap_or(0),
            core_finish: self.core_finish.iter().map(|f| f.unwrap_or(now)).collect(),
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            hierarchy: self.hierarchy.stats().clone(),
            channels: self.dram.channel_stats().into_iter().cloned().collect(),
            lq_full_cycles: self.lq_full_cycles,
            instructions_per_core: self.cfg.instructions_per_core,
            predictor_observed: self
                .cores
                .iter()
                .map(|c| c.predictor().observed_extremes())
                .collect(),
            series: None,
            agents: self.agents.iter().map(|a| a.stats()).collect(),
        }
    }
}

/// The bench-side copy of `TraceReplayer::try_run` (no sampling, no
/// audit), one root span per replayed CPU cycle.
///
/// # Errors
///
/// A topology mismatch, a corrupt source or the cycle limit.
pub fn replay(
    mut source: impl RequestSource,
    mut dram: DramSystem,
    cfg: ReplayConfig,
) -> Result<(ReplayStats, LoopCounts), String> {
    let fp = source.fingerprint().clone();
    fp.check_compatible(&Fingerprint::of(
        fp.cores as usize,
        fp.cpu_mhz,
        dram.config(),
    ))
    .map_err(|e| e.to_string())?;
    let mut divider = ClockDivider::new(fp.bus_mhz, fp.cpu_mhz);
    let mut stats = ReplayStats::default();
    let mut counts = LoopCounts::default();
    let mut pending = source.next_record().map_err(|e| e.to_string())?;
    let mut outstanding = 0usize;
    let mut inject_cycle: HashMap<u64, u64> = HashMap::new();
    let mut crit_of: HashMap<u64, u64> = HashMap::new();
    let mut now = 0u64;
    while (pending.is_some() || outstanding > 0) && cfg.stop_at_cycle.is_none_or(|s| now < s) {
        let root = trace::begin_iteration(Layer::ReplayLoop);
        counts.steps += 1;
        now += 1;
        if now >= cfg.max_cycles {
            trace::end_iteration(root);
            return Err(format!("cycle limit {} reached", cfg.max_cycles));
        }
        while let Some(rec) = pending {
            if rec.enqueue_cycle > now {
                break;
            }
            if cfg.max_outstanding.is_some_and(|cap| outstanding >= cap) {
                stats.throttled_cycles += 1;
                break;
            }
            if trace::timed(Layer::DramEnqueue, || dram.enqueue(rec.to_request())).is_err() {
                stats.queue_full_retries += 1;
                break;
            }
            outstanding += 1;
            stats.injected += 1;
            inject_cycle.insert(rec.id, now);
            crit_of.insert(rec.id, rec.crit);
            pending = source.next_record().map_err(|e| e.to_string())?;
        }
        if divider.tick() {
            let token = trace::enter(Layer::DramTick);
            let completions = dram.tick();
            trace::exit(token);
            for done in completions {
                outstanding -= 1;
                stats.completed += 1;
                let start = inject_cycle.remove(&done.req.id).unwrap_or(now);
                let crit = crit_of.remove(&done.req.id).unwrap_or(0);
                let lat = now - start;
                if done.req.kind.is_demand_read() {
                    stats.reads += 1;
                    stats.read_latency_sum += lat;
                    stats.weighted_latency_sum += u128::from(lat) * u128::from(1 + crit);
                    if crit > 0 {
                        stats.critical_reads += 1;
                        stats.critical_read_latency_sum += lat;
                    }
                }
            }
        }
        trace::end_iteration(root);
    }
    stats.cpu_cycles = now;
    stats.channels = dram.channel_stats().into_iter().cloned().collect();
    counts.cycles = now;
    Ok((stats, counts))
}
