//! The cycle-level out-of-order core model.
//!
//! Implements the Table 1 microarchitecture at the fidelity the paper's
//! mechanism depends on: a 128-entry ROB with in-order 4-wide commit,
//! a 32-entry load queue whose occupancy gates dispatch (Figure 9),
//! dependence-driven out-of-order issue over a bounded window with
//! per-class functional-unit ports, branch-misprediction redirect
//! stalls, a post-commit store buffer, and — centrally — the commit
//! stage's ROB-head block detection that trains the Commit Block
//! Predictor (Figure 2 of the paper).
//!
//! Deliberate simplifications (recorded in DESIGN.md): no wrong-path
//! execution (a mispredicted branch stalls the front end for the
//! redirect penalty once it resolves), perfect memory disambiguation
//! (Table 1 assumes it too), and an always-hitting L1I (the synthetic
//! workloads' code footprints are tiny).

use crate::config::CoreConfig;
use crate::instr::{Instr, InstrKind};
use crate::predictor::LoadCriticalityPredictor;
use critmem_cache::{AccessOutcome, CacheAccessKind, CacheHierarchy};
use critmem_common::{CoreId, CpuCycle, Criticality, Histogram, Pc, PhysAddr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// An infinite dynamic-instruction stream (implemented by the workload
/// generators).
pub trait InstrSource {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;

    /// Appends the generator's mutable state for checkpointing. The
    /// default saves nothing (stateless/scripted sources).
    fn save_state(&self, _w: &mut critmem_common::codec::ByteWriter) {}

    /// Restores state captured by [`InstrSource::save_state`] onto a
    /// freshly constructed generator of the same configuration.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    fn load_state(
        &mut self,
        _r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        Ok(())
    }
}

/// Statistics gathered by one core.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Cycles this core was stepped.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Loads that blocked the ROB head (stall >= min_block_cycles).
    pub blocked_loads: u64,
    /// Loads whose ROB-head stall was "long" (>= long_block_cycles) —
    /// the Figure 1 numerator.
    pub long_blocked_loads: u64,
    /// Cycles the ROB head was blocked by an incomplete load.
    pub block_cycles: u64,
    /// Sum of stalls of long-blocked loads — Figure 1's right panel.
    pub long_block_cycles: u64,
    /// Cycles dispatch stalled because the load queue was full.
    pub lq_full_cycles: u64,
    /// Cycles dispatch stalled for a branch-mispredict redirect.
    pub redirect_stall_cycles: u64,
    /// Cycles commit stalled because the store buffer was full.
    pub sb_full_cycles: u64,
    /// Loads issued to the memory hierarchy.
    pub issued_loads: u64,
    /// Issued loads carrying a critical prediction.
    pub issued_critical_loads: u64,
    /// Distribution of ROB-head stall durations of committed loads.
    pub stall_histogram: Histogram,
}

impl CoreStats {
    /// Instructions committed per cycle stepped.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut critmem_common::codec::ByteWriter) {
        for v in [
            self.cycles,
            self.committed,
            self.loads,
            self.stores,
            self.branches,
            self.blocked_loads,
            self.long_blocked_loads,
            self.block_cycles,
            self.long_block_cycles,
            self.lq_full_cycles,
            self.redirect_stall_cycles,
            self.sb_full_cycles,
            self.issued_loads,
            self.issued_critical_loads,
        ] {
            w.put_u64(v);
        }
        self.stall_histogram.encode(w);
    }

    /// Deserializes journaled core statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    pub fn decode(
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<Self, critmem_common::codec::CodecError> {
        Ok(CoreStats {
            cycles: r.get_u64()?,
            committed: r.get_u64()?,
            loads: r.get_u64()?,
            stores: r.get_u64()?,
            branches: r.get_u64()?,
            blocked_loads: r.get_u64()?,
            long_blocked_loads: r.get_u64()?,
            block_cycles: r.get_u64()?,
            long_block_cycles: r.get_u64()?,
            lq_full_cycles: r.get_u64()?,
            redirect_stall_cycles: r.get_u64()?,
            sb_full_cycles: r.get_u64()?,
            issued_loads: r.get_u64()?,
            issued_critical_loads: r.get_u64()?,
            stall_histogram: Histogram::decode(r)?,
        })
    }
}

impl critmem_common::Observable for CoreStats {
    /// Reports this core's pipeline metrics. The caller sets the
    /// component path (e.g. `cpu.core0`) first.
    fn observe(&self, v: &mut dyn critmem_common::MetricVisitor) {
        v.counter("cycles", "cpu-cycles", self.cycles);
        v.counter("committed", "instructions", self.committed);
        v.gauge("ipc", "instructions-per-cycle", self.ipc());
        v.counter("loads", "instructions", self.loads);
        v.counter("stores", "instructions", self.stores);
        v.counter("rob_head_blocked_cycles", "cpu-cycles", self.block_cycles);
        v.counter("blocked_loads", "loads", self.blocked_loads);
        v.counter("long_blocked_loads", "loads", self.long_blocked_loads);
        v.counter("lq_full_cycles", "cpu-cycles", self.lq_full_cycles);
        v.counter("sb_full_cycles", "cpu-cycles", self.sb_full_cycles);
        v.counter("issued_loads", "loads", self.issued_loads);
        v.counter("issued_critical_loads", "loads", self.issued_critical_loads);
    }
}

/// Threshold (cycles) above which a ROB-head block counts as
/// "long-latency" for the Figure 1 statistics.
pub const LONG_BLOCK_CYCLES: u64 = 24;

/// Events a [`Core::step`] surfaces to the system.
#[derive(Debug, Clone, Default)]
pub struct StepEvents {
    /// A load began blocking the ROB head this cycle (used by the §5.1
    /// naive forwarding scheme).
    pub block_started: Option<BlockStart>,
}

/// Details of a load that just started blocking the ROB head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStart {
    /// Static PC of the load.
    pub pc: Pc,
    /// Effective address.
    pub addr: PhysAddr,
}

/// End of a waiter chain (see [`RobEntry::waiters`]).
const NO_WAITER: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct RobEntry {
    instr: Instr,
    seq: u64,
    issued: bool,
    completed: bool,
    waiting_mem: bool,
    consumers: u32,
    block_start: Option<CpuCycle>,
    block_reported: bool,
    // Wakeup state, derived from the fields above (not checkpointed;
    // `Core::rebuild_wakeup_state` recomputes it on restore).
    /// Source operands whose producer has not completed; the entry is
    /// ready to issue at zero.
    pending: u8,
    /// Head of the intrusive chain of consumer operands waiting on this
    /// entry. A link is `consumer_seq << 1 | operand` (`NO_WAITER` ends
    /// the chain).
    waiters: u64,
    /// Per source operand, the next link in its producer's chain.
    next_waiter: [u64; 2],
}

impl RobEntry {
    fn dispatched(instr: Instr, seq: u64) -> Self {
        RobEntry {
            instr,
            seq,
            issued: false,
            completed: false,
            waiting_mem: false,
            consumers: 0,
            block_start: None,
            block_reported: false,
            pending: 0,
            waiters: NO_WAITER,
            next_waiter: [NO_WAITER; 2],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreState {
    Waiting,
    Inflight(u64),
}

/// One out-of-order core.
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    rob: VecDeque<RobEntry>,
    base_seq: u64,
    next_seq: u64,
    lq_used: usize,
    sq_used: usize,
    store_buffer: VecDeque<(PhysAddr, StoreState)>,
    /// Unissued ROB seqs in program order; the issue window is the
    /// first `issue_window` of them.
    unissued: VecDeque<u64>,
    /// Ready (`pending == 0`) entries inside the issue window.
    window_ready: usize,
    /// Store-buffer entries in [`StoreState::Waiting`].
    waiting_stores: usize,
    /// Fixed-latency (and memory-resolved) completions: (cycle, seq).
    completions: BinaryHeap<Reverse<(CpuCycle, u64)>>,
    /// In-flight load/store tokens -> ROB seq (or u64::MAX for store
    /// buffer drains).
    pending_mem: HashMap<u64, u64>,
    /// Memory completions received but not yet applied.
    mem_ready: Vec<(CpuCycle, u64)>,
    fetch_stall_until: CpuCycle,
    unresolved_branches: usize,
    peeked: Option<Instr>,
    predictor: Box<dyn LoadCriticalityPredictor>,
    target: u64,
    dispatched: u64,
    stats: CoreStats,
    /// QoS slowdown budget in thousandths (see
    /// [`crate::AgentClass::default_qos_millis`]). Configuration, not
    /// mutable state: deliberately outside `save_state`.
    qos_millis: u32,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("committed", &self.stats.committed)
            .field("rob", &self.rob.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core that will execute `target` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(
        id: CoreId,
        cfg: CoreConfig,
        predictor: Box<dyn LoadCriticalityPredictor>,
        target: u64,
    ) -> Self {
        cfg.validate().expect("invalid core configuration");
        Core {
            id,
            cfg,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            base_seq: 0,
            next_seq: 0,
            lq_used: 0,
            sq_used: 0,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer),
            unissued: VecDeque::with_capacity(cfg.rob_entries),
            window_ready: 0,
            waiting_stores: 0,
            completions: BinaryHeap::new(),
            pending_mem: HashMap::new(),
            mem_ready: Vec::new(),
            fetch_stall_until: 0,
            unresolved_branches: 0,
            peeked: None,
            predictor,
            target,
            dispatched: 0,
            stats: CoreStats::default(),
            qos_millis: crate::AgentClass::Ooo.default_qos_millis(),
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// QoS slowdown budget in thousandths.
    pub fn qos_budget_millis(&self) -> u32 {
        self.qos_millis
    }

    /// Sets the QoS slowdown budget (thousandths; builder style).
    #[must_use]
    pub fn with_qos_budget_millis(mut self, millis: u32) -> Self {
        self.qos_millis = millis;
        self
    }

    /// Whether the core has committed its instruction target.
    pub fn done(&self) -> bool {
        self.stats.committed >= self.target
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The predictor driving this core's criticality annotations.
    pub fn predictor(&self) -> &dyn LoadCriticalityPredictor {
        self.predictor.as_ref()
    }

    /// Replaces the criticality predictor with a fresh one, keeping all
    /// other core state — the warm-start engine's component-swap hook.
    pub fn replace_predictor(&mut self, predictor: Box<dyn LoadCriticalityPredictor>) {
        self.predictor = predictor;
    }

    /// Whether the load queue is currently full (Figure 9 / §5.4
    /// analysis).
    pub fn lq_full(&self) -> bool {
        self.lq_used >= self.cfg.lq_entries
    }

    /// PC of the instruction at the ROB head (`None` when empty) — the
    /// watchdog snapshots this to show where a stuck core is blocked.
    pub fn rob_head_pc(&self) -> Option<Pc> {
        self.rob.front().map(|e| e.instr.pc)
    }

    /// Delivers a memory completion (from the cache hierarchy) for a
    /// token this core issued.
    pub fn mem_completed(&mut self, token: u64, done: CpuCycle) {
        self.mem_ready.push((done, token));
    }

    #[inline]
    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.rob.get(i as usize))
    }

    #[inline]
    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.rob.get_mut(i as usize))
    }

    /// Whether the unissued entry `seq` lies inside the issue window.
    #[inline]
    fn in_window(&self, seq: u64) -> bool {
        let w = self.cfg.issue_window;
        self.unissued.len() <= w || seq <= self.unissued[w - 1]
    }

    /// Chains the source operands of entry `seq` onto the waiter lists
    /// of producers still in flight, setting its `pending` count.
    /// Producers that have committed, precede the stream, or have
    /// completed satisfy the operand at once. With `count_consumers`,
    /// also bumps each load producer's CLPT consumer count.
    fn link_operands(&mut self, seq: u64, count_consumers: bool) {
        let instr = self.entry(seq).expect("linked entry is in the ROB").instr;
        let mut pending = 0;
        let mut next_waiter = [NO_WAITER; 2];
        for (operand, dist) in [instr.src1, instr.src2].into_iter().enumerate() {
            let Some(d) = dist else { continue };
            debug_assert_ne!(d, 0, "producer distance 0 names the consumer itself");
            let Some(p) = seq
                .checked_sub(u64::from(d))
                .and_then(|pseq| self.entry_mut(pseq))
            else {
                continue; // committed, or before the first instruction
            };
            if count_consumers && p.instr.kind.is_load() {
                p.consumers += 1;
            }
            if !p.completed {
                next_waiter[operand] = p.waiters;
                p.waiters = seq << 1 | operand as u64;
                pending += 1;
            }
        }
        let e = self.entry_mut(seq).expect("linked entry is in the ROB");
        e.pending = pending;
        e.next_waiter = next_waiter;
    }

    /// Appends the linked, unissued entry `seq` to the select queue.
    fn push_unissued(&mut self, seq: u64) {
        self.unissued.push_back(seq);
        if self.entry(seq).is_some_and(|e| e.pending == 0) && self.in_window(seq) {
            self.window_ready += 1;
        }
    }

    /// Marks entry `seq` completed and wakes every consumer operand
    /// chained on it.
    fn complete(&mut self, seq: u64) {
        let Some(e) = self.entry_mut(seq) else { return };
        e.completed = true;
        e.waiting_mem = false;
        let mut link = std::mem::replace(&mut e.waiters, NO_WAITER);
        while link != NO_WAITER {
            let (cseq, operand) = (link >> 1, (link & 1) as usize);
            let c = self
                .entry_mut(cseq)
                .expect("waiting consumer is in the ROB");
            link = std::mem::replace(&mut c.next_waiter[operand], NO_WAITER);
            c.pending -= 1;
            if c.pending == 0 && self.in_window(cseq) {
                self.window_ready += 1;
            }
        }
    }

    /// Recomputes the derived wakeup state (waiter chains, `pending`,
    /// the unissued list and both counters) from the checkpointed ROB
    /// and store buffer. Linking in program order reproduces the
    /// chains dispatch built.
    fn rebuild_wakeup_state(&mut self) {
        self.unissued.clear();
        self.window_ready = 0;
        for i in 0..self.rob.len() {
            let seq = self.rob[i].seq;
            self.link_operands(seq, false);
            if !self.rob[i].issued {
                self.push_unissued(seq);
            }
        }
        self.waiting_stores = self
            .store_buffer
            .iter()
            .filter(|(_, s)| *s == StoreState::Waiting)
            .count();
    }

    /// The earliest future cycle at which stepping this core could do
    /// anything beyond batch-replayable counter updates, assuming no
    /// external event (memory completion, forward delivery) arrives
    /// first. Returns at least `now + 1`; `u64::MAX` means "inert until
    /// something external happens".
    ///
    /// This is the core's half of the skip-ahead contract: for every
    /// cycle `c` in `now + 1 .. quiescent_until(now)`, `step(c, ..)`
    /// would leave all architectural state unchanged and only bump the
    /// per-cycle stall counters that [`Core::skip`] replays in closed
    /// form. Each pipeline stage is mirrored explicitly:
    ///
    /// * **commit** — a completed head retires (event at `now + 1`)
    ///   unless it is a store facing a full store buffer (pure
    ///   `sb_full_cycles` counter); a blocked load head is inert only
    ///   after its one-shot block transitions (and the §5.1 forwarding
    ///   event they surface) have fired.
    /// * **store buffer** — a `Waiting` entry retries the hierarchy
    ///   every cycle (read off the `Waiting`-entry counter).
    /// * **issue** — any dependence-ready unissued entry inside the
    ///   issue window reaches a functional unit or probes the cache.
    ///   Wakeup keeps a count of such entries, so this is O(1): no ROB
    ///   scan.
    /// * **dispatch** — mirrors `dispatch`'s precedence: redirect
    ///   stall (counter until `fetch_stall_until`), fetch-target cap
    ///   and full ROB (inert), then a stashed structurally-stalled
    ///   instruction (pure `lq_full_cycles` counter for loads; a
    ///   missing stash would pull the instruction source).
    /// * **events** — pending fixed-latency completions, delivered
    ///   memory completions, and the predictor's periodic reset bound
    ///   the horizon.
    pub fn quiescent_until(&self, now: CpuCycle) -> CpuCycle {
        self.quiescent_given(now, self.waiting_stores > 0 || self.window_ready > 0)
    }

    /// [`Core::quiescent_until`] with the "a store waits to drain or a
    /// ready entry sits in the issue window" answer supplied.
    fn quiescent_given(&self, now: CpuCycle, ready_work: bool) -> CpuCycle {
        let nxt = now + 1;
        if let Some(head) = self.rob.front() {
            if head.completed {
                if !(head.instr.kind.is_store() && self.store_buffer.len() >= self.cfg.store_buffer)
                {
                    return nxt;
                }
            } else if head.instr.kind.is_load()
                && head.issued
                && !(head.block_start.is_some() && head.block_reported)
            {
                return nxt;
            }
        }
        if ready_work {
            return nxt;
        }
        let mut horizon = CpuCycle::MAX;
        if nxt < self.fetch_stall_until {
            horizon = self.fetch_stall_until;
        } else if self.dispatched < self.target + self.cfg.rob_entries as u64
            && self.rob.len() < self.cfg.rob_entries
        {
            match &self.peeked {
                Some(i) => {
                    let stalled = match i.kind {
                        InstrKind::Load { .. } => self.lq_used >= self.cfg.lq_entries,
                        InstrKind::Store { .. } => self.sq_used >= self.cfg.sq_entries,
                        InstrKind::Branch { .. } => {
                            self.unresolved_branches >= self.cfg.max_unresolved_branches
                        }
                        _ => false,
                    };
                    if !stalled {
                        return nxt;
                    }
                }
                None => return nxt,
            }
        }
        if let Some(&Reverse((at, _))) = self.completions.peek() {
            horizon = horizon.min(at);
        }
        for &(done, _) in &self.mem_ready {
            horizon = horizon.min(done);
        }
        horizon = horizon.min(self.predictor.next_event_cycle(now));
        horizon.max(nxt)
    }

    /// Batch-advances `n` cycles that [`Core::quiescent_until`] proved
    /// inert (the caller guarantees `now + n < quiescent_until(now)`),
    /// replaying exactly the per-cycle counters a serial run of
    /// `step(now + 1) .. step(now + n)` would have accumulated.
    pub fn skip(&mut self, now: CpuCycle, n: u64) {
        self.stats.cycles += n;
        if let Some(head) = self.rob.front() {
            if !head.completed && head.instr.kind.is_load() && head.issued {
                self.stats.block_cycles += n;
            } else if head.completed
                && head.instr.kind.is_store()
                && self.store_buffer.len() >= self.cfg.store_buffer
            {
                self.stats.sb_full_cycles += n;
            }
        }
        if now + 1 < self.fetch_stall_until {
            self.stats.redirect_stall_cycles += n;
        } else if self.dispatched < self.target + self.cfg.rob_entries as u64
            && self.rob.len() < self.cfg.rob_entries
        {
            if let Some(i) = &self.peeked {
                if matches!(i.kind, InstrKind::Load { .. }) && self.lq_used >= self.cfg.lq_entries {
                    self.stats.lq_full_cycles += n;
                }
            }
        }
    }

    /// Advances the core one cycle.
    pub fn step(
        &mut self,
        now: CpuCycle,
        source: &mut dyn InstrSource,
        mem: &mut CacheHierarchy,
    ) -> StepEvents {
        self.stats.cycles += 1;
        self.predictor.tick(now);
        self.apply_mem_completions(now);
        self.apply_fixed_completions(now);
        let events = self.commit(now);
        self.drain_store_buffer(now, mem);
        self.issue(now, mem);
        self.dispatch(now, source);
        events
    }

    fn apply_mem_completions(&mut self, now: CpuCycle) {
        let mut i = 0;
        while i < self.mem_ready.len() {
            let (done, token) = self.mem_ready[i];
            if done > now {
                i += 1;
                continue;
            }
            self.mem_ready.swap_remove(i);
            if let Some(seq) = self.pending_mem.remove(&token) {
                if seq == u64::MAX {
                    // Store-buffer drain finished.
                    if let Some(pos) = self
                        .store_buffer
                        .iter()
                        .position(|(_, s)| *s == StoreState::Inflight(token))
                    {
                        self.store_buffer.remove(pos);
                    }
                } else {
                    self.complete(seq);
                }
            }
        }
    }

    fn apply_fixed_completions(&mut self, now: CpuCycle) {
        while let Some(&Reverse((at, seq))) = self.completions.peek() {
            if at > now {
                break;
            }
            self.completions.pop();
            self.complete(seq);
            if let Some(e) = self.entry(seq) {
                if let InstrKind::Branch { mispredict } = e.instr.kind {
                    self.unresolved_branches = self.unresolved_branches.saturating_sub(1);
                    if mispredict {
                        let until = at + self.cfg.mispredict_penalty;
                        self.fetch_stall_until = self.fetch_stall_until.max(until);
                    }
                }
            }
        }
    }

    fn commit(&mut self, now: CpuCycle) -> StepEvents {
        let mut events = StepEvents::default();
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed {
                // ROB-head block tracking: the heart of the CBP.
                if head.instr.kind.is_load() && head.issued {
                    self.stats.block_cycles += 1;
                    let head = self.rob.front_mut().expect("head exists");
                    if head.block_start.is_none() {
                        head.block_start = Some(now);
                    }
                    if !head.block_reported {
                        head.block_reported = true;
                        if let InstrKind::Load { addr } = head.instr.kind {
                            events.block_started = Some(BlockStart {
                                pc: head.instr.pc,
                                addr,
                            });
                        }
                    }
                }
                break;
            }
            // Stores retire into the store buffer; stall if full.
            if head.instr.kind.is_store() && self.store_buffer.len() >= self.cfg.store_buffer {
                self.stats.sb_full_cycles += 1;
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            self.base_seq += 1;
            self.stats.committed += 1;
            match e.instr.kind {
                InstrKind::Load { .. } => {
                    self.stats.loads += 1;
                    self.lq_used -= 1;
                    let stall = e.block_start.map(|s| now.saturating_sub(s)).unwrap_or(0);
                    self.stats.stall_histogram.record(stall);
                    if stall >= self.cfg.min_block_cycles {
                        self.stats.blocked_loads += 1;
                        self.predictor.on_block_commit(e.instr.pc, stall);
                    }
                    if stall >= LONG_BLOCK_CYCLES {
                        self.stats.long_blocked_loads += 1;
                        self.stats.long_block_cycles += stall;
                    }
                    self.predictor.on_load_commit(e.instr.pc, e.consumers);
                }
                InstrKind::Store { addr } => {
                    self.stats.stores += 1;
                    self.sq_used -= 1;
                    self.store_buffer.push_back((addr, StoreState::Waiting));
                    self.waiting_stores += 1;
                }
                InstrKind::Branch { .. } => {
                    self.stats.branches += 1;
                }
                _ => {}
            }
        }
        events
    }

    fn drain_store_buffer(&mut self, now: CpuCycle, mem: &mut CacheHierarchy) {
        // One new drain attempt per cycle, oldest waiting entry first.
        if self.waiting_stores == 0 {
            return;
        }
        let Some(pos) = self
            .store_buffer
            .iter()
            .position(|(_, s)| *s == StoreState::Waiting)
        else {
            return;
        };
        let addr = self.store_buffer[pos].0;
        match mem.access(
            self.id,
            addr,
            CacheAccessKind::Store,
            Criticality::non_critical(),
            now,
        ) {
            AccessOutcome::Done(_) => {
                self.store_buffer.remove(pos);
                self.waiting_stores -= 1;
            }
            AccessOutcome::Pending(token) => {
                self.pending_mem.insert(token.0, u64::MAX);
                self.store_buffer[pos].1 = StoreState::Inflight(token.0);
                self.waiting_stores -= 1;
            }
            AccessOutcome::Retry => {}
        }
    }

    /// Select: walks the issue window (the first `issue_window`
    /// unissued entries, in program order) and sends ready entries to
    /// free functional units. Ready entries blocked on a busy unit, and
    /// loads the hierarchy turns away, stay in the window. The walk
    /// stops early once it has passed every ready entry in the window.
    fn issue(&mut self, now: CpuCycle, mem: &mut CacheHierarchy) {
        let mut budget = self.cfg.issue_width;
        let mut int_u = self.cfg.int_units;
        let mut fp_u = self.cfg.fp_units;
        let mut ld_u = self.cfg.ld_units;
        let mut st_u = self.cfg.st_units;
        let mut br_u = self.cfg.br_units;
        let mut int_mul_u = self.cfg.int_mul_units;
        let mut fp_mul_u = self.cfg.fp_mul_units;
        let window = self.cfg.issue_window;
        let mut ready_left = self.window_ready;
        let mut issued = 0;
        // `pos` indexes `unissued`; entries that issue are removed in
        // place, so `scanned` tracks the start-of-cycle window.
        let mut pos = 0;
        let mut scanned = 0;
        while budget > 0 && ready_left > 0 && scanned < window && pos < self.unissued.len() {
            scanned += 1;
            let seq = self.unissued[pos];
            let idx = (seq - self.base_seq) as usize;
            let e = &self.rob[idx];
            if e.pending > 0 {
                pos += 1;
                continue;
            }
            ready_left -= 1;
            let kind = e.instr.kind;
            let pc = e.instr.pc;
            // Functional-unit check.
            let unit = match kind {
                InstrKind::IntAlu => &mut int_u,
                InstrKind::IntMul => &mut int_mul_u,
                InstrKind::FpAlu => &mut fp_u,
                InstrKind::FpMul => &mut fp_mul_u,
                InstrKind::Load { .. } => &mut ld_u,
                InstrKind::Store { .. } => &mut st_u,
                InstrKind::Branch { .. } => &mut br_u,
            };
            if *unit == 0 {
                pos += 1;
                continue;
            }
            *unit -= 1;
            budget -= 1;
            let went = match kind {
                InstrKind::Load { addr } => {
                    let crit = self.predictor.predict(pc);
                    match mem.access(self.id, addr, CacheAccessKind::Load, crit, now) {
                        AccessOutcome::Done(t) => {
                            self.stats.issued_loads += 1;
                            if crit.is_critical() {
                                self.stats.issued_critical_loads += 1;
                            }
                            self.completions.push(Reverse((t.max(now + 1), seq)));
                            true
                        }
                        AccessOutcome::Pending(token) => {
                            self.stats.issued_loads += 1;
                            if crit.is_critical() {
                                self.stats.issued_critical_loads += 1;
                            }
                            self.rob[idx].waiting_mem = true;
                            self.pending_mem.insert(token.0, seq);
                            true
                        }
                        // Port consumed, load retries next cycle.
                        AccessOutcome::Retry => false,
                    }
                }
                _ => {
                    let lat = kind.fixed_latency().max(1);
                    self.completions.push(Reverse((now + lat, seq)));
                    true
                }
            };
            if went {
                self.rob[idx].issued = true;
                self.unissued.remove(pos);
                issued += 1;
            } else {
                pos += 1;
            }
        }
        // The issued entries left the window; as many unissued entries
        // behind it slide in.
        self.window_ready -= issued;
        for i in window - issued..window {
            let Some(&seq) = self.unissued.get(i) else {
                break;
            };
            if self.rob[(seq - self.base_seq) as usize].pending == 0 {
                self.window_ready += 1;
            }
        }
    }

    /// Captures this core's mutable architectural state (ROB, queues,
    /// store buffer, in-flight bookkeeping, statistics) plus the
    /// predictor's tables as a length-prefixed block, so a restore can
    /// either replay the predictor or discard it in favor of a fresh
    /// one of a different kind.
    pub fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u32(self.rob.len() as u32);
        for e in &self.rob {
            e.instr.encode(w);
            w.put_u64(e.seq);
            w.put_bool(e.issued);
            w.put_bool(e.completed);
            w.put_bool(e.waiting_mem);
            w.put_u32(e.consumers);
            match e.block_start {
                Some(c) => {
                    w.put_bool(true);
                    w.put_u64(c);
                }
                None => w.put_bool(false),
            }
            w.put_bool(e.block_reported);
        }
        w.put_u64(self.base_seq);
        w.put_u64(self.next_seq);
        w.put_u64(self.lq_used as u64);
        w.put_u64(self.sq_used as u64);
        w.put_u32(self.store_buffer.len() as u32);
        for &(addr, state) in &self.store_buffer {
            w.put_u64(addr);
            match state {
                StoreState::Waiting => w.put_u8(0),
                StoreState::Inflight(token) => {
                    w.put_u8(1);
                    w.put_u64(token);
                }
            }
        }
        // The heap's internal layout is not deterministic; serialize
        // its contents sorted (order is irrelevant on rebuild).
        let mut completions: Vec<(CpuCycle, u64)> =
            self.completions.iter().map(|Reverse(p)| *p).collect();
        completions.sort_unstable();
        w.put_u32(completions.len() as u32);
        for (at, seq) in completions {
            w.put_u64(at);
            w.put_u64(seq);
        }
        let mut pending: Vec<(u64, u64)> = self.pending_mem.iter().map(|(&k, &v)| (k, v)).collect();
        pending.sort_unstable();
        w.put_u32(pending.len() as u32);
        for (token, seq) in pending {
            w.put_u64(token);
            w.put_u64(seq);
        }
        // mem_ready is drained with swap_remove, so its order is state.
        w.put_u32(self.mem_ready.len() as u32);
        for &(done, token) in &self.mem_ready {
            w.put_u64(done);
            w.put_u64(token);
        }
        w.put_u64(self.fetch_stall_until);
        w.put_u64(self.unresolved_branches as u64);
        match &self.peeked {
            Some(i) => {
                w.put_bool(true);
                i.encode(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.dispatched);
        self.stats.encode(w);
        let mut pred = critmem_common::codec::ByteWriter::new();
        self.predictor.save_state(&mut pred);
        w.put_bytes(&pred.into_bytes());
    }

    /// Overlays state captured by [`Core::save_state`] onto a freshly
    /// constructed core of the same configuration. When
    /// `load_predictor` is false the saved predictor block is
    /// discarded and the core keeps its fresh predictor — the hook the
    /// warm-start engine uses to swap predictor kinds at the
    /// checkpoint boundary.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    pub fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
        load_predictor: bool,
    ) -> Result<(), critmem_common::codec::CodecError> {
        let n = r.get_u32()? as usize;
        self.rob.clear();
        for _ in 0..n {
            let instr = Instr::decode(r)?;
            let seq = r.get_u64()?;
            let issued = r.get_bool()?;
            let completed = r.get_bool()?;
            let waiting_mem = r.get_bool()?;
            let consumers = r.get_u32()?;
            let block_start = if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            };
            let block_reported = r.get_bool()?;
            self.rob.push_back(RobEntry {
                issued,
                completed,
                waiting_mem,
                consumers,
                block_start,
                block_reported,
                ..RobEntry::dispatched(instr, seq)
            });
        }
        self.base_seq = r.get_u64()?;
        self.next_seq = r.get_u64()?;
        self.lq_used = r.get_u64()? as usize;
        self.sq_used = r.get_u64()? as usize;
        let n = r.get_u32()? as usize;
        self.store_buffer.clear();
        for _ in 0..n {
            let addr = r.get_u64()?;
            let tag_at = r.position();
            let state = match r.get_u8()? {
                0 => StoreState::Waiting,
                1 => StoreState::Inflight(r.get_u64()?),
                t => {
                    return Err(critmem_common::codec::CodecError {
                        message: format!("unknown store-buffer state tag {t}"),
                        offset: tag_at,
                    })
                }
            };
            self.store_buffer.push_back((addr, state));
        }
        let n = r.get_u32()? as usize;
        self.completions = (0..n)
            .map(|_| Ok(Reverse((r.get_u64()?, r.get_u64()?))))
            .collect::<Result<_, critmem_common::codec::CodecError>>()?;
        let n = r.get_u32()? as usize;
        self.pending_mem = (0..n)
            .map(|_| Ok((r.get_u64()?, r.get_u64()?)))
            .collect::<Result<_, critmem_common::codec::CodecError>>()?;
        let n = r.get_u32()? as usize;
        self.mem_ready = (0..n)
            .map(|_| Ok((r.get_u64()?, r.get_u64()?)))
            .collect::<Result<_, critmem_common::codec::CodecError>>()?;
        self.fetch_stall_until = r.get_u64()?;
        self.unresolved_branches = r.get_u64()? as usize;
        self.peeked = if r.get_bool()? {
            Some(Instr::decode(r)?)
        } else {
            None
        };
        self.dispatched = r.get_u64()?;
        self.stats = CoreStats::decode(r)?;
        let pred = r.get_bytes()?;
        if load_predictor {
            let mut pr = critmem_common::codec::ByteReader::new(&pred);
            self.predictor.load_state(&mut pr)?;
        }
        self.rebuild_wakeup_state();
        Ok(())
    }

    fn dispatch(&mut self, now: CpuCycle, source: &mut dyn InstrSource) {
        if now < self.fetch_stall_until {
            self.stats.redirect_stall_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.dispatched >= self.target + self.cfg.rob_entries as u64 {
                // Keep a little headroom past the target so the tail
                // commits at full width, then stop fetching.
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let instr = match self.peeked.take() {
                Some(i) => i,
                None => source.next_instr(),
            };
            // Structural checks before consuming the instruction.
            match instr.kind {
                InstrKind::Load { .. } if self.lq_used >= self.cfg.lq_entries => {
                    self.stats.lq_full_cycles += 1;
                    self.peeked = Some(instr);
                    break;
                }
                InstrKind::Store { .. } if self.sq_used >= self.cfg.sq_entries => {
                    self.peeked = Some(instr);
                    break;
                }
                InstrKind::Branch { .. }
                    if self.unresolved_branches >= self.cfg.max_unresolved_branches =>
                {
                    self.peeked = Some(instr);
                    break;
                }
                _ => {}
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.dispatched += 1;
            match instr.kind {
                InstrKind::Load { .. } => self.lq_used += 1,
                InstrKind::Store { .. } => self.sq_used += 1,
                InstrKind::Branch { .. } => self.unresolved_branches += 1,
                _ => {}
            }
            self.rob.push_back(RobEntry::dispatched(instr, seq));
            // Wakeup linking, plus consumer counting for the CLPT.
            self.link_operands(seq, true);
            self.push_unissued(seq);
        }
        let _ = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::NoPredictor;
    use critmem_cache::HierarchyConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A tiny scripted instruction source.
    struct Script {
        instrs: Vec<Instr>,
        pos: usize,
    }

    impl Script {
        fn new(instrs: Vec<Instr>) -> Self {
            Script { instrs, pos: 0 }
        }
    }

    impl InstrSource for Script {
        fn next_instr(&mut self) -> Instr {
            let i = self.instrs[self.pos % self.instrs.len()];
            self.pos += 1;
            i
        }
    }

    fn run_core(instrs: Vec<Instr>, target: u64, max_cycles: u64) -> (Core, CacheHierarchy, u64) {
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::paper_baseline(),
            Box::new(NoPredictor),
            target,
        );
        let mut mem = CacheHierarchy::new(HierarchyConfig::paper_baseline(1));
        let mut src = Script::new(instrs);
        let mut now = 0;
        while !core.done() && now < max_cycles {
            now += 1;
            core.step(now, &mut src, &mut mem);
            // Service DRAM with a fixed 100-cycle latency.
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    for c in mem.dram_completed(&req, now + 100) {
                        core.mem_completed(c.token.0, c.done);
                    }
                }
            }
        }
        (core, mem, now)
    }

    #[test]
    fn alu_stream_achieves_high_ipc() {
        let instrs = vec![
            Instr::new(0x0, InstrKind::IntAlu),
            Instr::new(0x4, InstrKind::FpAlu),
        ];
        let (core, _, cycles) = run_core(instrs, 4_000, 100_000);
        assert!(core.done());
        let ipc = core.stats().committed as f64 / cycles as f64;
        assert!(
            ipc > 1.5,
            "independent ALU mix should exceed IPC 1.5, got {ipc:.2}"
        );
    }

    #[test]
    fn serial_dependency_chain_limits_ipc() {
        // Every instruction depends on the previous one.
        let instrs = vec![Instr::new(0x0, InstrKind::IntAlu).with_deps(Some(1), None)];
        let (core, _, cycles) = run_core(instrs, 2_000, 100_000);
        assert!(core.done());
        let ipc = core.stats().committed as f64 / cycles as f64;
        assert!(
            ipc < 1.2,
            "serial chain should cap IPC near 1, got {ipc:.2}"
        );
    }

    #[test]
    fn missing_load_blocks_rob_head() {
        // Loads at unique addresses (always missing to DRAM) separated
        // by a few ALU ops.
        let instrs = vec![
            Instr::new(0x0, InstrKind::Load { addr: 0 }),
            Instr::new(0x4, InstrKind::IntAlu),
            Instr::new(0x8, InstrKind::IntAlu),
        ];
        // Every iteration reuses addr 0 after the first fill, so make
        // each load unique via a stride-happy script.
        let mut script = Vec::new();
        for i in 0..64u64 {
            script.push(Instr::new(0x0, InstrKind::Load { addr: i * 8192 }));
            script.push(Instr::new(0x4, InstrKind::IntAlu));
        }
        let _ = instrs;
        let (core, _, _) = run_core(script, 128, 1_000_000);
        assert!(core.done());
        assert!(
            core.stats().blocked_loads > 0,
            "DRAM-bound loads must block the head"
        );
        assert!(core.stats().block_cycles > 0);
    }

    #[test]
    fn mispredicted_branches_slow_execution() {
        let good = vec![
            Instr::new(0x0, InstrKind::IntAlu),
            Instr::new(0x4, InstrKind::Branch { mispredict: false }),
        ];
        let bad = vec![
            Instr::new(0x0, InstrKind::IntAlu),
            Instr::new(0x4, InstrKind::Branch { mispredict: true }),
        ];
        let (_, _, cycles_good) = run_core(good, 2_000, 1_000_000);
        let (core_bad, _, cycles_bad) = run_core(bad, 2_000, 1_000_000);
        assert!(core_bad.stats().redirect_stall_cycles > 0);
        assert!(
            cycles_bad > cycles_good * 2,
            "all-mispredict run should be much slower ({cycles_bad} vs {cycles_good})"
        );
    }

    #[test]
    fn stores_retire_through_store_buffer() {
        let instrs = vec![
            Instr::new(0x0, InstrKind::Store { addr: 64 }),
            Instr::new(0x4, InstrKind::IntAlu),
        ];
        let (core, mem, _) = run_core(instrs, 1_000, 1_000_000);
        assert!(core.done());
        assert_eq!(core.stats().stores, 500);
        // The store line was fetched exclusive and written.
        assert!(mem.stats().l2_accesses > 0);
    }

    #[test]
    fn load_queue_fills_under_memory_pressure() {
        // A flood of independent missing loads.
        let mut script = Vec::new();
        for i in 0..256u64 {
            script.push(Instr::new((i % 64) * 4, InstrKind::Load { addr: i * 4096 }));
        }
        let (core, _, _) = run_core(script, 256, 2_000_000);
        assert!(core.done());
        assert!(
            core.stats().lq_full_cycles > 0,
            "LQ should fill under miss pressure"
        );
    }

    #[test]
    fn consumer_counts_reach_predictor() {
        // Load followed by three consumers of it.
        struct Probe {
            max_consumers: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl LoadCriticalityPredictor for Probe {
            fn predict(&mut self, _pc: Pc) -> Criticality {
                Criticality::non_critical()
            }
            fn on_block_commit(&mut self, _pc: Pc, _stall: u64) {}
            fn on_load_commit(&mut self, _pc: Pc, consumers: u32) {
                self.max_consumers
                    .set(self.max_consumers.get().max(consumers));
            }
            fn tick(&mut self, _now: CpuCycle) {}
            fn name(&self) -> &'static str {
                "probe"
            }
        }
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::paper_baseline(),
            Box::new(Probe {
                max_consumers: seen.clone(),
            }),
            40,
        );
        let mut mem = CacheHierarchy::new(HierarchyConfig::paper_baseline(1));
        let mut src = Script::new(vec![
            Instr::new(0x0, InstrKind::Load { addr: 64 }),
            Instr::new(0x4, InstrKind::IntAlu).with_deps(Some(1), None),
            Instr::new(0x8, InstrKind::IntAlu).with_deps(Some(2), None),
            Instr::new(0xc, InstrKind::IntAlu).with_deps(Some(3), None),
        ]);
        let mut now = 0;
        while !core.done() && now < 100_000 {
            now += 1;
            core.step(now, &mut src, &mut mem);
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    for c in mem.dram_completed(&req, now + 50) {
                        core.mem_completed(c.token.0, c.done);
                    }
                }
            }
        }
        assert!(core.done());
        assert_eq!(seen.get(), 3, "the load has exactly three direct consumers");
    }

    /// Reference for the wakeup state: the per-cycle dependence scan
    /// the core used before wakeup/select. Whether operand `dist` of
    /// entry `seq` has its value.
    fn oracle_dep_ready(core: &Core, seq: u64, dist: Option<u16>) -> bool {
        let Some(d) = dist else { return true };
        let Some(producer) = seq.checked_sub(u64::from(d)) else {
            return true;
        };
        if producer < core.base_seq {
            return true; // already committed
        }
        core.entry(producer).map(|e| e.completed).unwrap_or(true)
    }

    /// Oracle: dependence-ready entries among the first `issue_window`
    /// unissued ones, in program order.
    fn oracle_window_ready(core: &Core) -> Vec<u64> {
        core.rob
            .iter()
            .filter(|e| !e.issued)
            .take(core.cfg.issue_window)
            .filter(|e| {
                oracle_dep_ready(core, e.seq, e.instr.src1)
                    && oracle_dep_ready(core, e.seq, e.instr.src2)
            })
            .map(|e| e.seq)
            .collect()
    }

    /// Oracle select: the window entries the scan-based issue loop
    /// granted a functional unit, in grant order.
    fn oracle_granted(core: &Core) -> Vec<u64> {
        let c = &core.cfg;
        let mut units = [
            c.int_units,
            c.int_mul_units,
            c.fp_units,
            c.fp_mul_units,
            c.ld_units,
            c.st_units,
            c.br_units,
        ];
        let mut budget = c.issue_width;
        let mut granted = Vec::new();
        for seq in oracle_window_ready(core) {
            if budget == 0 {
                break;
            }
            let unit = match core.entry(seq).unwrap().instr.kind {
                InstrKind::IntAlu => &mut units[0],
                InstrKind::IntMul => &mut units[1],
                InstrKind::FpAlu => &mut units[2],
                InstrKind::FpMul => &mut units[3],
                InstrKind::Load { .. } => &mut units[4],
                InstrKind::Store { .. } => &mut units[5],
                InstrKind::Branch { .. } => &mut units[6],
            };
            if *unit == 0 {
                continue;
            }
            *unit -= 1;
            budget -= 1;
            granted.push(seq);
        }
        granted
    }

    fn oracle_store_waiting(core: &Core) -> bool {
        core.store_buffer
            .iter()
            .any(|(_, s)| *s == StoreState::Waiting)
    }

    /// Checks every piece of derived wakeup state against the scans.
    fn check_wakeup_state(core: &Core) {
        let unissued: Vec<u64> = core
            .rob
            .iter()
            .filter(|e| !e.issued)
            .map(|e| e.seq)
            .collect();
        assert!(core.unissued.iter().eq(unissued.iter()), "unissued list");
        assert_eq!(
            core.window_ready,
            oracle_window_ready(core).len(),
            "ready count in the window"
        );
        let waiting = core
            .store_buffer
            .iter()
            .filter(|(_, s)| *s == StoreState::Waiting)
            .count();
        assert_eq!(core.waiting_stores, waiting, "waiting store count");
        for e in &core.rob {
            let in_flight = [e.instr.src1, e.instr.src2]
                .into_iter()
                .filter(|&d| !oracle_dep_ready(core, e.seq, d))
                .count();
            assert_eq!(
                usize::from(e.pending),
                in_flight,
                "pending of seq {}",
                e.seq
            );
            if e.completed {
                assert_eq!(
                    e.waiters, NO_WAITER,
                    "completed seq {} keeps waiters",
                    e.seq
                );
            }
        }
    }

    /// Per-entry wakeup fields: `pending`, `waiters`, `next_waiter`.
    type EntryWakeup = (u8, u64, [u64; 2]);

    /// The derived state, for comparing a live core with a restored one.
    fn wakeup_state(core: &Core) -> (Vec<EntryWakeup>, Vec<u64>, usize, usize) {
        (
            core.rob
                .iter()
                .map(|e| (e.pending, e.waiters, e.next_waiter))
                .collect(),
            core.unissued.iter().copied().collect(),
            core.window_ready,
            core.waiting_stores,
        )
    }

    /// Coverage of one differential run.
    #[derive(Default)]
    struct Coverage {
        retries: usize,
        fu_blocked: usize,
        woken: usize,
        restores: usize,
    }

    /// A predictor that records the PC of every `predict` call.
    struct Recorder(Rc<RefCell<Vec<Pc>>>);

    impl LoadCriticalityPredictor for Recorder {
        fn predict(&mut self, pc: Pc) -> Criticality {
            self.0.borrow_mut().push(pc);
            Criticality::non_critical()
        }
        fn on_block_commit(&mut self, _pc: Pc, _stall: u64) {}
        fn on_load_commit(&mut self, _pc: Pc, _consumers: u32) {}
        fn tick(&mut self, _now: CpuCycle) {}
        fn name(&self) -> &'static str {
            "recorder"
        }
    }

    /// Steps `core` through the same stages in the same order as
    /// [`Core::step`], checking the wakeup state against the oracle
    /// before select, the issued set and the predictor calls after it,
    /// and the horizon at the end of the cycle.
    fn step_checked(
        core: &mut Core,
        now: CpuCycle,
        src: &mut dyn InstrSource,
        mem: &mut CacheHierarchy,
        predicted: &RefCell<Vec<Pc>>,
        cov: &mut Coverage,
    ) {
        let waiting_before: Vec<u64> = core
            .rob
            .iter()
            .filter(|e| e.pending > 0)
            .map(|e| e.seq)
            .collect();
        core.stats.cycles += 1;
        core.predictor.tick(now);
        core.apply_mem_completions(now);
        core.apply_fixed_completions(now);
        core.commit(now);
        core.drain_store_buffer(now, mem);
        check_wakeup_state(core);
        cov.woken += waiting_before
            .iter()
            .filter(|&&s| core.entry(s).is_some_and(|e| e.pending == 0))
            .count();

        let ready = oracle_window_ready(core);
        let granted = oracle_granted(core);
        if granted.len() < ready.len().min(core.cfg.issue_width) {
            cov.fu_blocked += 1;
        }
        let loads_before = core.stats.issued_loads;
        let candidates: Vec<u64> = core.unissued.iter().copied().collect();
        predicted.borrow_mut().clear();
        core.issue(now, mem);
        // Every granted load consults the predictor, in grant order.
        let granted_load_pcs: Vec<Pc> = granted
            .iter()
            .map(|&s| core.entry(s).unwrap().instr)
            .filter(|i| i.kind.is_load())
            .map(|i| i.pc)
            .collect();
        assert_eq!(*predicted.borrow(), granted_load_pcs, "predict calls");
        let issued: Vec<u64> = candidates
            .into_iter()
            .filter(|&s| core.entry(s).unwrap().issued)
            .collect();
        let mut rest = granted.iter();
        for s in &issued {
            assert!(rest.any(|g| g == s), "seq {s} issued without a grant");
        }
        for s in granted.iter().filter(|s| !issued.contains(s)) {
            assert!(
                core.entry(*s).unwrap().instr.kind.is_load(),
                "granted non-load seq {s} did not issue"
            );
            cov.retries += 1;
        }
        let issued_loads = issued
            .iter()
            .filter(|&&s| core.entry(s).unwrap().instr.kind.is_load())
            .count();
        assert_eq!(core.stats.issued_loads - loads_before, issued_loads as u64);

        core.dispatch(now, src);
        check_wakeup_state(core);
        let ready_work = oracle_store_waiting(core) || !oracle_window_ready(core).is_empty();
        assert_eq!(
            core.quiescent_until(now),
            core.quiescent_given(now, ready_work),
            "horizon at cycle {now}"
        );
    }

    fn random_script(rng: &mut critmem_common::SmallRng, len: usize) -> Vec<Instr> {
        fn dist(rng: &mut critmem_common::SmallRng) -> Option<u16> {
            match rng.gen_range(0..8) {
                0 | 1 => None,
                2..=4 => Some(rng.gen_range(1..6) as u16),
                5 | 6 => Some(rng.gen_range(1..200) as u16),
                // Reaches committed producers and, early on, before the
                // first instruction.
                _ => Some(rng.gen_range(100..2_000) as u16),
            }
        }
        (0..len)
            .map(|i| {
                let line = if rng.gen_bool(0.4) {
                    rng.gen_range(0..64) // L1-resident
                } else {
                    rng.gen_range(0..1 << 20) // misses to DRAM
                };
                let kind = match rng.gen_range(0..12) {
                    0..=2 => InstrKind::Load { addr: line * 64 },
                    3 | 4 => InstrKind::Store { addr: line * 64 },
                    5 => InstrKind::Branch {
                        mispredict: rng.gen_bool(0.3),
                    },
                    6 => InstrKind::IntMul,
                    7 => InstrKind::FpMul,
                    8 => InstrKind::FpAlu,
                    _ => InstrKind::IntAlu,
                };
                let src1 = dist(rng);
                let src2 = if rng.gen_bool(0.15) { src1 } else { dist(rng) };
                Instr::new((i as u64 % 61) * 4, kind).with_deps(src1, src2)
            })
            .collect()
    }

    /// Runs one seeded script under the oracle checks, servicing DRAM
    /// with varied latency, and every few hundred cycles checks that a
    /// checkpoint restore rebuilds the identical wakeup state.
    fn differential_run(seed: u64, cfg: CoreConfig, mshrs: usize, cov: &mut Coverage) -> CoreStats {
        let mut rng = critmem_common::SmallRng::seed_from_u64(seed);
        let predicted = Rc::new(RefCell::new(Vec::new()));
        let mut core = Core::new(CoreId(0), cfg, Box::new(Recorder(predicted.clone())), 3_000);
        let mut hcfg = HierarchyConfig::paper_baseline(1);
        hcfg.l1_mshrs = mshrs;
        let mut mem = CacheHierarchy::new(hcfg);
        let mut src = Script::new(random_script(&mut rng, 1_500));
        let mut now = 0;
        while !core.done() && now < 400_000 {
            now += 1;
            step_checked(&mut core, now, &mut src, &mut mem, &predicted, cov);
            while let Some(req) = mem.pop_request(now) {
                let latency = rng.gen_range(20..600);
                for c in mem.dram_completed(&req, now + latency) {
                    core.mem_completed(c.token.0, c.done);
                }
            }
            if now % 397 == 0 {
                let mut w = critmem_common::codec::ByteWriter::new();
                core.save_state(&mut w);
                let bytes = w.into_bytes();
                let mut restored = Core::new(CoreId(0), cfg, Box::new(NoPredictor), 3_000);
                restored
                    .load_state(&mut critmem_common::codec::ByteReader::new(&bytes), true)
                    .unwrap();
                assert_eq!(
                    wakeup_state(&restored),
                    wakeup_state(&core),
                    "restore at {now}"
                );
                cov.restores += 1;
            }
        }
        assert!(core.done(), "seed {seed}: core wedged at cycle {now}");
        core.stats().clone()
    }

    #[test]
    fn wakeup_state_matches_the_scan_oracle() {
        let base = CoreConfig::paper_baseline();
        let narrow = CoreConfig {
            rob_entries: 32,
            lq_entries: 8,
            sq_entries: 8,
            store_buffer: 2,
            issue_window: 3,
            issue_width: 2,
            int_units: 1,
            fp_units: 1,
            ld_units: 1,
            ..base
        };
        let single = CoreConfig {
            issue_window: 1,
            store_buffer: 4,
            ..base
        };
        let mut cov = Coverage::default();
        let (mut sb_full, mut redirects, mut blocked) = (0, 0, 0);
        for seed in 0..4 {
            for (cfg, mshrs) in [(base, 2), (narrow, 1), (single, 8)] {
                let stats = differential_run(seed, cfg, mshrs, &mut cov);
                sb_full += stats.sb_full_cycles;
                redirects += stats.redirect_stall_cycles;
                blocked += stats.block_cycles;
            }
        }
        // The scripts must reach the paths the wakeup state shadows.
        assert!(cov.retries > 0, "no load was turned away");
        assert!(cov.fu_blocked > 0, "no ready entry waited for a unit");
        assert!(cov.woken > 0, "no consumer was woken");
        assert!(cov.restores > 0);
        assert!(sb_full > 0, "the store buffer never filled");
        assert!(redirects > 0, "no mispredict redirect");
        assert!(blocked > 0, "no load blocked the ROB head");
    }

    #[test]
    fn done_stops_at_target() {
        let instrs = vec![Instr::new(0x0, InstrKind::IntAlu)];
        let (core, _, _) = run_core(instrs, 123, 100_000);
        assert!(core.done());
        assert!(core.stats().committed >= 123);
    }
}
