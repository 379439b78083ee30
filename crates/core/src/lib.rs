//! `critmem` — a full-system reproduction of *"Improving Memory
//! Scheduling via Processor-Side Load Criticality Information"*
//! (Ghose, Lee, Martínez; ISCA 2013) in Rust.
//!
//! The paper pairs a tiny per-core **Commit Block Predictor** — which
//! learns the static loads that block the reorder-buffer head — with a
//! lean FR-FCFS-derived DRAM scheduler that simply prepends the
//! predicted criticality magnitude to its age comparator. This crate
//! assembles the whole evaluation platform from the workspace's
//! substrate crates and reproduces every figure and table of the
//! paper's evaluation:
//!
//! * [`SystemConfig`] / [`System`] — the 8-core CMP of Tables 1 and 3,
//! * [`Session`] — the one run API: observe, sample, checkpoint, warm-start,
//! * [`checkpoint`] — `CMCK` snapshots for warm-started sweeps,
//! * [`experiments`] — one harness per paper figure/table,
//! * [`overhead`] — the §5.7 storage-overhead accounting,
//! * [`audit`] / [`faults`] — independent run auditors and typed,
//!   deterministic fault injection plans (`repro audit`),
//! * the `repro` binary — prints every reproduced table.
//!
//! # Quick start
//!
//! ```
//! use critmem::{PredictorKind, Session, SystemConfig, AgentMix};
//! use critmem_predict::CbpMetric;
//! use critmem_sched::SchedulerKind;
//!
//! // Baseline FR-FCFS vs the paper's MaxStallTime CBP scheduler on a
//! // small swim run (2 cores / 2k instructions to keep the doctest fast).
//! let mut base = SystemConfig::paper_baseline(2_000);
//! base.cores = 2;
//! base.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
//! let wl = AgentMix::Parallel("swim");
//!
//! let b = Session::new(base.clone(), &wl).run().unwrap();
//! let c = Session::new(base, &wl)
//!     .scheduler(SchedulerKind::CasRasCrit)
//!     .predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime))
//!     .run()
//!     .unwrap();
//! assert!(b.stats.cycles > 0 && c.stats.cycles > 0);
//! ```
//!
//! # Warm-started sweeps
//!
//! Sweep cells that share a workload and platform re-simulate a
//! byte-identical warmup region. [`Session::checkpoint_at`] snapshots
//! the full architectural state at a boundary cycle;
//! [`Session::from_checkpoint`] fans every cell out from that shared
//! [`checkpoint::Checkpoint`], swapping in the cell's scheduler and
//! predictor fresh at the boundary.

pub mod audit;
pub mod checkpoint;
pub mod config;
pub mod experiments;
pub mod faults;
pub mod journal;
pub mod metrics;
pub mod overhead;
pub mod pool;
pub mod session;
pub mod system;

pub use audit::ConservationAuditor;
pub use checkpoint::Checkpoint;
pub use config::{AgentMix, PredictorKind, SystemConfig};
pub use faults::{FaultKind, FaultPlan};
pub use metrics::{geomean, speedup, Average};
pub use session::{RunOutput, Session};
pub use system::{RunStats, System};
