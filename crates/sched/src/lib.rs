//! Memory schedulers for the `critmem` simulator.
//!
//! Implements the paper's criticality-aware FR-FCFS variants
//! ([`CritFrFcfs`]: Crit-CASRAS and CASRAS-Crit, §3.2) together with
//! every scheduler it compares against (§5.8): plain [`FrFcfs`],
//! [`Ahb`] (Hur/Lin), [`ParBs`] (Mutlu/Moscibroda), [`Tcm`] (Kim et
//! al., plus the TCM+criticality hybrid), and the [`Morse`] RL
//! scheduler (MORSE-P / Crit-RL).
//!
//! [`SchedulerKind`] is the configuration-level enumeration used by the
//! experiment harness to instantiate one scheduler per channel.
//!
//! # Examples
//!
//! ```
//! use critmem_sched::SchedulerKind;
//!
//! let kind = SchedulerKind::CasRasCrit;
//! let sched = kind.build(8, 0);
//! assert_eq!(sched.name(), "CASRAS-Crit");
//! ```

#![warn(missing_docs)]

pub mod ahb;
pub mod atlas;
pub mod bliss;
pub mod crit;
pub mod frfcfs;
pub mod meta;
pub mod minimalist;
pub mod morse;
pub mod parbs;
pub mod tcm;

#[cfg(test)]
pub(crate) mod testutil;

pub use ahb::Ahb;
pub use atlas::Atlas;
pub use bliss::{Bliss, BlissConfig};
pub use crit::{Arrangement, CritFrFcfs};
pub use frfcfs::FrFcfs;
pub use meta::{MetaSwitch, MetaSwitchConfig};
pub use minimalist::MinimalistOpenPage;
pub use morse::{Morse, MorseConfig};
pub use parbs::ParBs;
pub use tcm::{Tcm, TcmTiebreak};

use critmem_dram::CommandScheduler;

/// Configuration-level scheduler selector.
///
/// Criticality-aware kinds rely on the *requests* carrying criticality
/// annotations from a processor-side predictor; the scheduler itself is
/// predictor-agnostic (the paper's division of labor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Strict first-come-first-served.
    Fcfs,
    /// FR-FCFS baseline (Rixner et al.).
    FrFcfs,
    /// Crit-CASRAS: criticality above CAS/RAS (§3.2).
    CritCasRas,
    /// CASRAS-Crit: CAS/RAS above criticality — the advocated design.
    CasRasCrit,
    /// Adaptive history-based (Hur/Lin).
    Ahb,
    /// ATLAS: least-attained-service ranking (Kim et al., HPCA 2010).
    Atlas,
    /// Minimalist Open-page: MLP-based thread ranking with short
    /// row-hit bursts (Kaseridis et al., MICRO 2011).
    Minimalist,
    /// Parallelism-aware batch scheduling, with marking cap.
    ParBs {
        /// Per-(thread, bank) marking cap (paper: 5).
        marking_cap: usize,
    },
    /// Thread cluster memory scheduling.
    Tcm {
        /// Tiebreak within a priority level.
        tiebreak: TcmTiebreak,
    },
    /// MORSE-style RL scheduler (MORSE-P or Crit-RL).
    Morse(MorseConfig),
    /// BLISS: the Blacklisting Memory Scheduler (Subramanian et al.).
    Bliss(BlissConfig),
    /// Mode-switching meta-scheduler: wraps a performance-mode and a
    /// fairness-mode inner scheduler and flips between them on queue
    /// occupancy / stall-time watermarks. The inner kinds are
    /// `&'static` references so this enum stays `Copy`; const
    /// promotion covers literal kinds
    /// (`&SchedulerKind::CasRasCrit`), and
    /// [`SchedulerKind::DEFAULT_META`] provides the canonical pairing.
    MetaSwitch {
        /// Inner scheduler active in performance mode.
        perf: &'static SchedulerKind,
        /// Inner scheduler active in fairness mode.
        fair: &'static SchedulerKind,
        /// Watermarks and hysteresis.
        cfg: MetaSwitchConfig,
    },
}

impl SchedulerKind {
    /// The canonical meta-scheduler pairing: CASRAS-Crit (the paper's
    /// advocated performance design) in performance mode, BLISS in
    /// fairness mode, default watermarks. This is what
    /// `"metaswitch"` parses to.
    pub const DEFAULT_META: SchedulerKind = SchedulerKind::MetaSwitch {
        perf: &SchedulerKind::CasRasCrit,
        fair: &SchedulerKind::Bliss(BlissConfig::DEFAULT),
        cfg: MetaSwitchConfig::DEFAULT,
    };

    /// Instantiates a scheduler for one channel. `num_threads` sizes
    /// the per-thread state of TCM; `channel_seed` decorrelates the
    /// seeded RNGs of different channels.
    pub fn build(self, num_threads: usize, channel_seed: u64) -> Box<dyn CommandScheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(critmem_dram::Fcfs::new()),
            SchedulerKind::FrFcfs => Box::new(FrFcfs::new()),
            SchedulerKind::CritCasRas => Box::new(CritFrFcfs::new(Arrangement::CritFirst)),
            SchedulerKind::CasRasCrit => Box::new(CritFrFcfs::new(Arrangement::CasRasFirst)),
            SchedulerKind::Ahb => Box::new(Ahb::new()),
            SchedulerKind::Atlas => Box::new(Atlas::new(num_threads)),
            SchedulerKind::Minimalist => Box::new(MinimalistOpenPage::new(num_threads)),
            SchedulerKind::ParBs { marking_cap } => Box::new(ParBs::new(marking_cap)),
            SchedulerKind::Tcm { tiebreak } => {
                Box::new(Tcm::new(num_threads, tiebreak, 0xC0FFEE ^ channel_seed))
            }
            SchedulerKind::Morse(cfg) => {
                let cfg = MorseConfig {
                    seed: cfg.seed ^ channel_seed.wrapping_mul(0x9E37),
                    ..cfg
                };
                Box::new(Morse::new(cfg))
            }
            SchedulerKind::Bliss(cfg) => Box::new(Bliss::new(num_threads, cfg)),
            SchedulerKind::MetaSwitch { perf, fair, cfg } => Box::new(MetaSwitch::new(
                perf.build(num_threads, channel_seed),
                fair.build(num_threads, channel_seed),
                cfg,
            )),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::CritCasRas => "Crit-CASRAS",
            SchedulerKind::CasRasCrit => "CASRAS-Crit",
            SchedulerKind::Ahb => "AHB",
            SchedulerKind::Atlas => "ATLAS",
            SchedulerKind::Minimalist => "Minimalist",
            SchedulerKind::ParBs { .. } => "PAR-BS",
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            } => "TCM",
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::CritFrFcfs,
            } => "TCM+Crit",
            SchedulerKind::Morse(cfg) => {
                if cfg.use_criticality {
                    "Crit-RL"
                } else {
                    "MORSE-P"
                }
            }
            SchedulerKind::Bliss(_) => "BLISS",
            SchedulerKind::MetaSwitch { .. } => "MetaSwitch",
        }
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = critmem_common::SimError;

    /// Parses a display name (as printed by [`SchedulerKind::name`],
    /// case-insensitive) back into a kind, using the paper's default
    /// parameters for the parameterized schedulers.
    ///
    /// # Examples
    ///
    /// ```
    /// use critmem_sched::SchedulerKind;
    /// let k: SchedulerKind = "casras-crit".parse().unwrap();
    /// assert_eq!(k, SchedulerKind::CasRasCrit);
    /// assert!("nope".parse::<SchedulerKind>().is_err());
    /// ```
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        let kind = match name.to_ascii_lowercase().as_str() {
            "fcfs" => SchedulerKind::Fcfs,
            "fr-fcfs" | "frfcfs" => SchedulerKind::FrFcfs,
            "crit-casras" | "critcasras" => SchedulerKind::CritCasRas,
            "casras-crit" | "casrascrit" => SchedulerKind::CasRasCrit,
            "ahb" => SchedulerKind::Ahb,
            "atlas" => SchedulerKind::Atlas,
            "minimalist" => SchedulerKind::Minimalist,
            "par-bs" | "parbs" => SchedulerKind::ParBs { marking_cap: 5 },
            "tcm" => SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            },
            "tcm+crit" => SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::CritFrFcfs,
            },
            "morse-p" | "morse" => SchedulerKind::Morse(MorseConfig::default()),
            "crit-rl" => SchedulerKind::Morse(MorseConfig {
                use_criticality: true,
                ..Default::default()
            }),
            "bliss" => SchedulerKind::Bliss(BlissConfig::DEFAULT),
            "metaswitch" | "meta" => SchedulerKind::DEFAULT_META,
            _ => {
                return Err(critmem_common::SimError::Config(format!(
                    "unknown scheduler '{name}' (expected one of: fcfs, fr-fcfs, \
                     crit-casras, casras-crit, ahb, atlas, minimalist, par-bs, tcm, \
                     tcm+crit, morse-p, crit-rl, bliss, metaswitch)"
                )))
            }
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_names_consistently() {
        let kinds = [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::CritCasRas,
            SchedulerKind::CasRasCrit,
            SchedulerKind::Ahb,
            SchedulerKind::Atlas,
            SchedulerKind::Minimalist,
            SchedulerKind::ParBs { marking_cap: 5 },
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            },
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::CritFrFcfs,
            },
            SchedulerKind::Morse(MorseConfig::default()),
            SchedulerKind::Morse(MorseConfig {
                use_criticality: true,
                ..Default::default()
            }),
            SchedulerKind::Bliss(BlissConfig::DEFAULT),
            SchedulerKind::DEFAULT_META,
            SchedulerKind::MetaSwitch {
                perf: &SchedulerKind::Atlas,
                fair: &SchedulerKind::FrFcfs,
                cfg: MetaSwitchConfig::DEFAULT,
            },
        ];
        for kind in kinds {
            let built = kind.build(8, 3);
            assert_eq!(built.name(), kind.name());
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        let kinds = [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::CritCasRas,
            SchedulerKind::CasRasCrit,
            SchedulerKind::Ahb,
            SchedulerKind::Atlas,
            SchedulerKind::Minimalist,
            SchedulerKind::ParBs { marking_cap: 5 },
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            },
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::CritFrFcfs,
            },
            SchedulerKind::Morse(MorseConfig::default()),
            SchedulerKind::Bliss(BlissConfig::DEFAULT),
            SchedulerKind::DEFAULT_META,
        ];
        for kind in kinds {
            let parsed: SchedulerKind = kind
                .name()
                .parse()
                .unwrap_or_else(|e| panic!("{} must parse: {e}", kind.name()));
            assert_eq!(parsed.name(), kind.name());
        }
        let err = "bogus".parse::<SchedulerKind>().unwrap_err();
        assert!(matches!(err, critmem_common::SimError::Config(_)));
    }

    #[test]
    fn default_meta_parses_to_the_canonical_pairing() {
        let parsed: SchedulerKind = "metaswitch".parse().unwrap();
        assert_eq!(parsed, SchedulerKind::DEFAULT_META);
        let alias: SchedulerKind = "meta".parse().unwrap();
        assert_eq!(alias, parsed);
        // The kind stays Copy: inner schedulers are &'static refs.
        let copied = parsed;
        assert_eq!(copied, parsed);
    }
}
