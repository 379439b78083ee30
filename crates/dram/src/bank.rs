//! Per-bank, per-rank, and data-bus timing state machines.
//!
//! Each bank records the earliest DRAM cycle at which each command kind
//! may next be issued to it (`next_*` fields), in the style of
//! DRAMSim-class simulators. Issuing a command updates the constraints
//! of the bank itself, its sibling banks in the same rank, and the
//! shared data bus.

use crate::command::{CommandKind, DramCommand};
use crate::timing::TimingParams;
use critmem_common::{DramCycle, RankId};

/// Timing state of a single DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    /// Earliest cycle an ACTIVATE may issue.
    pub next_act: DramCycle,
    /// Earliest cycle a PRECHARGE may issue.
    pub next_pre: DramCycle,
    /// Earliest cycle a READ may issue.
    pub next_rd: DramCycle,
    /// Earliest cycle a WRITE may issue.
    pub next_wr: DramCycle,
}

impl Bank {
    /// Earliest cycle at which `kind` could legally issue to this bank,
    /// considering only this bank's own constraints (the channel adds
    /// bus and rank constraints on top).
    pub fn earliest(&self, kind: CommandKind) -> DramCycle {
        match kind {
            CommandKind::Activate => self.next_act,
            CommandKind::Precharge => self.next_pre,
            CommandKind::Read => self.next_rd,
            CommandKind::Write => self.next_wr,
            CommandKind::Refresh => self.next_act,
        }
    }
}

/// The timing state of one DRAM channel: all its banks, the shared data
/// bus, and per-rank refresh bookkeeping.
#[derive(Debug, Clone)]
pub struct ChannelTiming {
    banks: Vec<Bank>,
    banks_per_rank: usize,
    timing: TimingParams,
    /// Cycle at which the data bus becomes free.
    bus_free: DramCycle,
    /// Rank that last transferred data (rank switches pay tRTRS).
    last_data_rank: Option<RankId>,
    /// Per-rank cycle at which the next refresh falls due.
    refresh_due: Vec<DramCycle>,
    /// Per-rank: refresh currently wanted (due and not yet issued).
    refresh_pending: Vec<bool>,
    /// Per-rank ring of the last four ACT cycles (tFAW rolling window).
    faw_acts: Vec<[DramCycle; 4]>,
    /// Per-rank write cursor into `faw_acts`.
    faw_idx: Vec<u8>,
    /// Per-rank count of recorded ACTs, saturating at 4.
    faw_count: Vec<u8>,
}

impl ChannelTiming {
    /// Creates the timing state for `ranks` x `banks_per_rank` banks.
    pub fn new(ranks: usize, banks_per_rank: usize, timing: TimingParams) -> Self {
        ChannelTiming {
            banks: vec![Bank::default(); ranks * banks_per_rank],
            banks_per_rank,
            timing,
            bus_free: 0,
            last_data_rank: None,
            refresh_due: (0..ranks)
                .map(|r| timing.t_refi + (r as u64 * timing.t_refi / ranks.max(1) as u64))
                .collect(),
            refresh_pending: vec![false; ranks],
            faw_acts: vec![[0; 4]; ranks],
            faw_idx: vec![0; ranks],
            faw_count: vec![0; ranks],
        }
    }

    /// Number of ranks in the channel.
    pub fn ranks(&self) -> usize {
        self.refresh_due.len()
    }

    /// Number of banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.banks_per_rank
    }

    /// The timing parameter set in force.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    #[inline]
    fn bank_index(&self, rank: RankId, bank: critmem_common::BankId) -> usize {
        rank.index() * self.banks_per_rank + bank.index()
    }

    /// Immutable view of a bank's state.
    pub fn bank(&self, rank: RankId, bank: critmem_common::BankId) -> &Bank {
        &self.banks[self.bank_index(rank, bank)]
    }

    /// Iterates over `(rank, bank, state)` for all banks.
    pub fn banks(&self) -> impl Iterator<Item = (RankId, critmem_common::BankId, &Bank)> {
        let bpr = self.banks_per_rank;
        self.banks.iter().enumerate().map(move |(i, b)| {
            (
                RankId((i / bpr) as u8),
                critmem_common::BankId((i % bpr) as u8),
                b,
            )
        })
    }

    /// Earliest cycle at which `cmd` may issue, considering bank, rank,
    /// bus, and refresh constraints. Returns `None` if the command is
    /// structurally impossible right now (e.g. CAS to a bank whose open
    /// row differs, ACT to an already-open bank, REF with open banks).
    pub fn earliest_issue(&self, cmd: &DramCommand) -> Option<DramCycle> {
        let t = &self.timing;
        match cmd.kind {
            CommandKind::Activate => {
                let b = self.bank(cmd.rank, cmd.bank);
                if b.open_row.is_some() {
                    return None;
                }
                Some(b.next_act)
            }
            CommandKind::Precharge => {
                let b = self.bank(cmd.rank, cmd.bank);
                b.open_row?;
                Some(b.next_pre)
            }
            CommandKind::Read | CommandKind::Write => {
                let b = self.bank(cmd.rank, cmd.bank);
                if b.open_row != Some(cmd.row) {
                    return None;
                }
                let own = b.earliest(cmd.kind);
                // Data-bus availability: the burst must start no earlier
                // than bus_free (+ tRTRS when switching ranks).
                let data_lat = if cmd.kind == CommandKind::Read {
                    t.t_cl
                } else {
                    t.t_wl
                };
                let mut bus_ready = self.bus_free;
                if let Some(last) = self.last_data_rank {
                    if last != cmd.rank {
                        bus_ready += t.t_rtrs;
                    }
                }
                // Command must issue such that issue + data_lat >= bus_ready.
                let bus_constraint = bus_ready.saturating_sub(data_lat);
                Some(own.max(bus_constraint))
            }
            CommandKind::Refresh => {
                // All banks in the rank must be precharged.
                let base = cmd.rank.index() * self.banks_per_rank;
                let mut earliest = 0;
                for b in &self.banks[base..base + self.banks_per_rank] {
                    if b.open_row.is_some() {
                        return None;
                    }
                    earliest = earliest.max(b.next_act);
                }
                Some(earliest)
            }
        }
    }

    /// Issues `cmd` at cycle `now`, updating all affected constraints.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the command is not legal at `now`
    /// according to [`Self::earliest_issue`].
    pub fn issue(&mut self, cmd: &DramCommand, now: DramCycle) {
        debug_assert!(
            self.earliest_issue(cmd).map(|e| e <= now).unwrap_or(false),
            "illegal command {cmd:?} at cycle {now}"
        );
        self.issue_unchecked(cmd, now);
    }

    /// Applies `cmd`'s state updates without the legality
    /// `debug_assert`. Exists solely so fault injection
    /// (`CorruptSchedulerDecision`) can feed the model an illegal
    /// command and let the *auditor* catch it as a typed error instead
    /// of a debug-build panic; normal code paths use [`Self::issue`].
    pub(crate) fn issue_unchecked(&mut self, cmd: &DramCommand, now: DramCycle) {
        let t = self.timing;
        let bl = t.burst_cycles();
        let rank_base = cmd.rank.index() * self.banks_per_rank;
        let idx = self.bank_index(cmd.rank, cmd.bank);
        match cmd.kind {
            CommandKind::Activate => {
                let b = &mut self.banks[idx];
                b.open_row = Some(cmd.row);
                b.next_rd = b.next_rd.max(now + t.t_rcd);
                b.next_wr = b.next_wr.max(now + t.t_rcd);
                b.next_pre = b.next_pre.max(now + t.t_ras);
                b.next_act = b.next_act.max(now + t.t_rc);
                // tRRD to sibling banks in the same rank.
                for i in rank_base..rank_base + self.banks_per_rank {
                    if i != idx {
                        let s = &mut self.banks[i];
                        s.next_act = s.next_act.max(now + t.t_rrd);
                    }
                }
                // tFAW rolling window: once four ACTs have hit this
                // rank, the fifth may not issue before the oldest of
                // the four + tFAW. Folding the floor into next_act
                // keeps candidate generation and skip-ahead horizons
                // consistent without a separate check.
                if t.t_faw > 0 {
                    let r = cmd.rank.index();
                    let cursor = self.faw_idx[r] as usize;
                    self.faw_acts[r][cursor] = now;
                    self.faw_idx[r] = ((cursor + 1) % 4) as u8;
                    if self.faw_count[r] < 4 {
                        self.faw_count[r] += 1;
                    }
                    if self.faw_count[r] == 4 {
                        // The slot the cursor now points at holds the
                        // oldest of the last four ACTs.
                        let oldest = self.faw_acts[r][self.faw_idx[r] as usize];
                        let floor = oldest + t.t_faw;
                        for i in rank_base..rank_base + self.banks_per_rank {
                            let s = &mut self.banks[i];
                            s.next_act = s.next_act.max(floor);
                        }
                    }
                }
            }
            CommandKind::Precharge => {
                let b = &mut self.banks[idx];
                b.open_row = None;
                b.next_act = b.next_act.max(now + t.t_rp);
            }
            CommandKind::Read => {
                let data_start = now + t.t_cl;
                self.bus_free = self.bus_free.max(data_start + bl);
                self.last_data_rank = Some(cmd.rank);
                {
                    let b = &mut self.banks[idx];
                    b.next_pre = b.next_pre.max(now + t.t_rtp);
                }
                // Same-rank CAS-to-CAS and read-to-write turnaround.
                let rd_ok = now + t.t_ccd;
                let wr_ok = (now + t.t_cl + bl + t.t_rtrs).saturating_sub(t.t_wl);
                for i in rank_base..rank_base + self.banks_per_rank {
                    let s = &mut self.banks[i];
                    s.next_rd = s.next_rd.max(rd_ok);
                    s.next_wr = s.next_wr.max(wr_ok);
                }
            }
            CommandKind::Write => {
                let data_start = now + t.t_wl;
                self.bus_free = self.bus_free.max(data_start + bl);
                self.last_data_rank = Some(cmd.rank);
                {
                    let b = &mut self.banks[idx];
                    // Write recovery: PRE only after data end + tWR.
                    b.next_pre = b.next_pre.max(now + t.t_wl + bl + t.t_wr);
                }
                let wr_ok = now + t.t_ccd;
                let rd_ok = now + t.t_wl + bl + t.t_wtr;
                for i in rank_base..rank_base + self.banks_per_rank {
                    let s = &mut self.banks[i];
                    s.next_wr = s.next_wr.max(wr_ok);
                    s.next_rd = s.next_rd.max(rd_ok);
                }
            }
            CommandKind::Refresh => {
                for i in rank_base..rank_base + self.banks_per_rank {
                    let s = &mut self.banks[i];
                    s.next_act = s.next_act.max(now + t.t_rfc);
                }
                self.refresh_due[cmd.rank.index()] = now + t.t_refi;
                self.refresh_pending[cmd.rank.index()] = false;
            }
        }
    }

    /// Marks refreshes that have fallen due by `now`; returns the ranks
    /// (if any) with a pending refresh.
    pub fn update_refresh(&mut self, now: DramCycle) -> Vec<RankId> {
        let mut due = Vec::new();
        self.update_refresh_into(now, &mut due);
        due
    }

    /// Allocation-free variant of [`Self::update_refresh`]: appends the
    /// pending ranks to `due` (which the caller clears and reuses).
    pub fn update_refresh_into(&mut self, now: DramCycle, due: &mut Vec<RankId>) {
        for (r, (&d, pending)) in self
            .refresh_due
            .iter()
            .zip(self.refresh_pending.iter_mut())
            .enumerate()
        {
            if now >= d {
                *pending = true;
            }
            if *pending {
                due.push(RankId(r as u8));
            }
        }
    }

    /// Earliest cycle at which any rank's next refresh falls due. While
    /// `now` is strictly below this (and no refresh is already
    /// pending), [`Self::update_refresh`] is a guaranteed no-op — the
    /// controller's idle fast path uses this to skip the scan.
    pub fn earliest_refresh_due(&self) -> DramCycle {
        self.refresh_due.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Whether any rank currently owes a refresh.
    pub fn any_refresh_pending(&self) -> bool {
        self.refresh_pending.iter().any(|&p| p)
    }

    /// Whether the given rank currently owes a refresh.
    pub fn refresh_pending(&self, rank: RankId) -> bool {
        self.refresh_pending[rank.index()]
    }

    /// The data-bus floor for a CAS of `kind` targeting `rank`: the
    /// earliest issue cycle the shared bus permits (bank constraints
    /// come on top). Exactly the bus term of [`Self::earliest_issue`];
    /// the controller caches it per rank while generating candidates.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not `Read` or `Write`.
    pub fn cas_bus_floor(&self, kind: CommandKind, rank: RankId) -> DramCycle {
        let t = &self.timing;
        let data_lat = match kind {
            CommandKind::Read => t.t_cl,
            CommandKind::Write => t.t_wl,
            _ => panic!("cas_bus_floor called for non-CAS command"),
        };
        let mut bus_ready = self.bus_free;
        if let Some(last) = self.last_data_rank {
            if last != rank {
                bus_ready += t.t_rtrs;
            }
        }
        bus_ready.saturating_sub(data_lat)
    }

    /// Completion cycle of a CAS issued at `now` (when the full burst
    /// has crossed the bus).
    pub fn cas_done_at(&self, kind: CommandKind, now: DramCycle) -> DramCycle {
        let t = &self.timing;
        match kind {
            CommandKind::Read => now + t.t_cl + t.burst_cycles(),
            CommandKind::Write => now + t.t_wl + t.burst_cycles(),
            _ => panic!("cas_done_at called for non-CAS command"),
        }
    }

    /// Freezes one bank: every per-command floor is pushed to the end
    /// of time, so no command ever becomes issuable to it again. This
    /// is the `WedgeBank` fault injection seam — requests queued for
    /// the bank starve and the forward-progress watchdog must trip.
    pub fn wedge_bank(&mut self, rank: RankId, bank: critmem_common::BankId) {
        let i = self.bank_index(rank, bank);
        let b = &mut self.banks[i];
        b.next_act = DramCycle::MAX;
        b.next_pre = DramCycle::MAX;
        b.next_rd = DramCycle::MAX;
        b.next_wr = DramCycle::MAX;
    }
}

impl critmem_common::Snapshot for ChannelTiming {
    fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u32(self.banks.len() as u32);
        for b in &self.banks {
            match b.open_row {
                Some(row) => {
                    w.put_bool(true);
                    w.put_u32(row);
                }
                None => w.put_bool(false),
            }
            w.put_u64(b.next_act);
            w.put_u64(b.next_pre);
            w.put_u64(b.next_rd);
            w.put_u64(b.next_wr);
        }
        w.put_u64(self.bus_free);
        match self.last_data_rank {
            Some(r) => {
                w.put_bool(true);
                w.put_u8(r.0);
            }
            None => w.put_bool(false),
        }
        w.put_u64_seq(&self.refresh_due);
        w.put_u32(self.refresh_pending.len() as u32);
        for &p in &self.refresh_pending {
            w.put_bool(p);
        }
        for (r, ring) in self.faw_acts.iter().enumerate() {
            w.put_u64_seq(ring);
            w.put_u8(self.faw_idx[r]);
            w.put_u8(self.faw_count[r]);
        }
    }

    fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        let n = r.get_u32()? as usize;
        if n != self.banks.len() {
            return Err(critmem_common::codec::CodecError {
                message: format!("snapshot holds {n} banks, channel has {}", self.banks.len()),
                offset: r.position(),
            });
        }
        for b in &mut self.banks {
            b.open_row = if r.get_bool()? {
                Some(r.get_u32()?)
            } else {
                None
            };
            b.next_act = r.get_u64()?;
            b.next_pre = r.get_u64()?;
            b.next_rd = r.get_u64()?;
            b.next_wr = r.get_u64()?;
        }
        self.bus_free = r.get_u64()?;
        self.last_data_rank = if r.get_bool()? {
            Some(RankId(r.get_u8()?))
        } else {
            None
        };
        let due = r.get_u64_seq()?;
        let np = r.get_u32()? as usize;
        if due.len() != self.refresh_due.len() || np != self.refresh_pending.len() {
            return Err(critmem_common::codec::CodecError {
                message: format!(
                    "snapshot holds {} ranks, channel has {}",
                    due.len(),
                    self.refresh_due.len()
                ),
                offset: r.position(),
            });
        }
        self.refresh_due = due;
        for p in &mut self.refresh_pending {
            *p = r.get_bool()?;
        }
        for rank in 0..self.faw_acts.len() {
            let ring = r.get_u64_seq()?;
            if ring.len() != 4 {
                return Err(critmem_common::codec::CodecError {
                    message: format!("tFAW ring holds {} entries, expected 4", ring.len()),
                    offset: r.position(),
                });
            }
            self.faw_acts[rank].copy_from_slice(&ring);
            self.faw_idx[rank] = r.get_u8()?;
            self.faw_count[rank] = r.get_u8()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DDR3_2133;
    use critmem_common::BankId;

    fn timing() -> TimingParams {
        DDR3_2133.timing
    }

    fn cmd(kind: CommandKind, rank: u8, bank: u8, row: u32) -> DramCommand {
        DramCommand {
            kind,
            rank: RankId(rank),
            bank: BankId(bank),
            row,
        }
    }

    #[test]
    fn fresh_bank_accepts_activate_immediately() {
        let ct = ChannelTiming::new(4, 8, timing());
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 0, 0, 5)),
            Some(0)
        );
    }

    #[test]
    fn read_requires_open_matching_row() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        assert_eq!(ct.earliest_issue(&cmd(CommandKind::Read, 0, 0, 5)), None);
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        // Open row 5: read row 5 OK after tRCD, row 6 impossible.
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Read, 0, 0, 5)),
            Some(timing().t_rcd)
        );
        assert_eq!(ct.earliest_issue(&cmd(CommandKind::Read, 0, 0, 6)), None);
    }

    #[test]
    fn act_to_pre_respects_tras() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 10);
        let pre = cmd(CommandKind::Precharge, 0, 0, 0);
        assert_eq!(ct.earliest_issue(&pre), Some(10 + timing().t_ras));
    }

    #[test]
    fn row_cycle_time_between_activates() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        ct.issue(&cmd(CommandKind::Precharge, 0, 0, 0), timing().t_ras);
        let act2 = cmd(CommandKind::Activate, 0, 0, 9);
        // Constrained by both tRC (from ACT) and tRP (from PRE):
        // tRAS + tRP = 50 = tRC here, so both give cycle 50.
        assert_eq!(ct.earliest_issue(&act2), Some(timing().t_rc));
    }

    #[test]
    fn trrd_applies_across_banks_same_rank_only() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 0, 1, 5)),
            Some(timing().t_rrd)
        );
        // A different rank is unconstrained.
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 1, 0, 5)),
            Some(0)
        );
    }

    #[test]
    fn back_to_back_reads_respect_tccd() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        ct.issue(&cmd(CommandKind::Activate, 0, 1, 7), timing().t_rrd);
        // Issue the first read late enough that both banks' tRCD has
        // elapsed, so tCCD is the binding constraint for the second.
        let t0 = 30;
        ct.issue(&cmd(CommandKind::Read, 0, 0, 5), t0);
        // Next read on any bank of the same rank waits tCCD.
        let e = ct.earliest_issue(&cmd(CommandKind::Read, 0, 1, 7)).unwrap();
        assert_eq!(e, t0 + timing().t_ccd);
    }

    #[test]
    fn rank_switch_pays_trtrs_on_data_bus() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        ct.issue(&cmd(CommandKind::Activate, 1, 0, 5), 0);
        let t0 = timing().t_rcd;
        ct.issue(&cmd(CommandKind::Read, 0, 0, 5), t0);
        // Read on rank 1: data may start only after bus_free + tRTRS.
        // bus_free = t0 + tCL + 4. Issue time >= bus_free + tRTRS - tCL.
        let e = ct.earliest_issue(&cmd(CommandKind::Read, 1, 0, 5)).unwrap();
        let expect = t0 + timing().t_cl + 4 + timing().t_rtrs - timing().t_cl;
        assert_eq!(e, expect);
    }

    #[test]
    fn write_to_read_same_rank_pays_twtr() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        let t0 = timing().t_rcd;
        ct.issue(&cmd(CommandKind::Write, 0, 0, 5), t0);
        let e = ct.earliest_issue(&cmd(CommandKind::Read, 0, 0, 5)).unwrap();
        assert_eq!(e, t0 + timing().t_wl + 4 + timing().t_wtr);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut ct = ChannelTiming::new(4, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        let t0 = timing().t_rcd;
        ct.issue(&cmd(CommandKind::Write, 0, 0, 5), t0);
        let e = ct
            .earliest_issue(&cmd(CommandKind::Precharge, 0, 0, 0))
            .unwrap();
        // PRE after write: tWL + burst + tWR, and also >= tRAS from ACT.
        let expect = (t0 + timing().t_wl + 4 + timing().t_wr).max(timing().t_ras);
        assert_eq!(e, expect);
    }

    #[test]
    fn refresh_requires_all_banks_closed() {
        let mut ct = ChannelTiming::new(2, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 3, 5), 0);
        assert_eq!(ct.earliest_issue(&cmd(CommandKind::Refresh, 0, 0, 0)), None);
        ct.issue(&cmd(CommandKind::Precharge, 0, 3, 0), timing().t_ras);
        let e = ct
            .earliest_issue(&cmd(CommandKind::Refresh, 0, 0, 0))
            .unwrap();
        assert_eq!(e, timing().t_ras + timing().t_rp);
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let mut ct = ChannelTiming::new(2, 8, timing());
        ct.issue(&cmd(CommandKind::Refresh, 0, 0, 0), 100);
        let e = ct
            .earliest_issue(&cmd(CommandKind::Activate, 0, 0, 1))
            .unwrap();
        assert_eq!(e, 100 + timing().t_rfc);
        // Other rank is unaffected.
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 1, 0, 1)),
            Some(0)
        );
    }

    #[test]
    fn refresh_becomes_pending_at_trefi() {
        let mut ct = ChannelTiming::new(1, 8, timing());
        assert!(ct.update_refresh(timing().t_refi - 1).is_empty());
        let due = ct.update_refresh(timing().t_refi);
        assert_eq!(due, vec![RankId(0)]);
        assert!(ct.refresh_pending(RankId(0)));
        // Issuing the refresh clears the pending flag and re-arms.
        ct.issue(&cmd(CommandKind::Refresh, 0, 0, 0), timing().t_refi);
        assert!(!ct.refresh_pending(RankId(0)));
        assert!(ct.update_refresh(timing().t_refi + 10).is_empty());
    }

    #[test]
    fn staggered_refresh_across_ranks() {
        let ct = ChannelTiming::new(4, 8, timing());
        // Ranks should not all refresh simultaneously.
        let dues: Vec<u64> = (0..4).map(|r| ct.refresh_due[r]).collect();
        let distinct: std::collections::HashSet<_> = dues.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn cas_completion_times() {
        let ct = ChannelTiming::new(1, 8, timing());
        assert_eq!(ct.cas_done_at(CommandKind::Read, 100), 100 + 14 + 4);
        assert_eq!(ct.cas_done_at(CommandKind::Write, 100), 100 + 7 + 4);
    }

    #[test]
    fn activate_on_open_bank_is_illegal() {
        let mut ct = ChannelTiming::new(1, 8, timing());
        ct.issue(&cmd(CommandKind::Activate, 0, 0, 5), 0);
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 0, 0, 6)),
            None
        );
    }

    #[test]
    fn precharge_on_closed_bank_is_illegal() {
        let ct = ChannelTiming::new(1, 8, timing());
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Precharge, 0, 0, 0)),
            None
        );
    }

    #[test]
    fn tfaw_blocks_fifth_activate_in_window() {
        let t = timing();
        let mut ct = ChannelTiming::new(1, 8, t);
        // Four ACTs to distinct banks at the minimum tRRD spacing.
        for b in 0..4u8 {
            ct.issue(&cmd(CommandKind::Activate, 0, b, 1), b as u64 * t.t_rrd);
        }
        // The fifth ACT is tFAW-bound: oldest ACT was at 0, so the
        // floor is tFAW, which exceeds the tRRD chain (4*tRRD).
        let e = ct
            .earliest_issue(&cmd(CommandKind::Activate, 0, 4, 1))
            .unwrap();
        assert_eq!(e, t.t_faw);
        assert!(e > 4 * t.t_rrd);
    }

    #[test]
    fn tfaw_window_slides() {
        let t = timing();
        let mut ct = ChannelTiming::new(1, 8, t);
        for b in 0..4u8 {
            ct.issue(&cmd(CommandKind::Activate, 0, b, 1), b as u64 * t.t_rrd);
        }
        ct.issue(&cmd(CommandKind::Activate, 0, 4, 1), t.t_faw);
        // Sixth ACT: oldest in the window is now the ACT at tRRD.
        let e = ct
            .earliest_issue(&cmd(CommandKind::Activate, 0, 5, 1))
            .unwrap();
        assert_eq!(e, t.t_rrd + t.t_faw);
    }

    #[test]
    fn tfaw_does_not_cross_ranks() {
        let t = timing();
        let mut ct = ChannelTiming::new(2, 8, t);
        for b in 0..4u8 {
            ct.issue(&cmd(CommandKind::Activate, 0, b, 1), b as u64 * t.t_rrd);
        }
        // A different rank is free of rank 0's window.
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 1, 0, 1)),
            Some(0)
        );
    }

    #[test]
    fn wedged_bank_never_accepts_commands() {
        let mut ct = ChannelTiming::new(1, 8, timing());
        ct.wedge_bank(RankId(0), BankId(0));
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 0, 0, 1)),
            Some(DramCycle::MAX)
        );
        // Sibling banks are unaffected.
        assert_eq!(
            ct.earliest_issue(&cmd(CommandKind::Activate, 0, 1, 1)),
            Some(0)
        );
    }

    #[test]
    fn snapshot_roundtrips_tfaw_state() {
        use critmem_common::Snapshot as _;
        let t = timing();
        let mut ct = ChannelTiming::new(2, 8, t);
        for b in 0..4u8 {
            ct.issue(&cmd(CommandKind::Activate, 0, b, 1), b as u64 * t.t_rrd);
        }
        let mut w = critmem_common::codec::ByteWriter::new();
        ct.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = ChannelTiming::new(2, 8, t);
        let mut r = critmem_common::codec::ByteReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        assert_eq!(
            fresh.earliest_issue(&cmd(CommandKind::Activate, 0, 4, 1)),
            ct.earliest_issue(&cmd(CommandKind::Activate, 0, 4, 1))
        );
        assert_eq!(fresh.faw_count, ct.faw_count);
        assert_eq!(fresh.faw_acts, ct.faw_acts);
    }
}
