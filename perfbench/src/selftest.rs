//! The benchmark's self-test, at tiny lengths: every named metric is
//! printed with its unit, the traced run validates, and two runs at one
//! seed give identical simulated counters and digest. It also checks
//! that at the default seed the `paper-sweep` and `hetero-contention`
//! cells are the cells the library's own experiments simulate.

use crate::workloads::{self, CellStats, Lengths, Pass, Workload, TINY};
use crate::{jobs, not_applicable, traced, untraced, Outcome, DEFAULT_SEED, END_TO_END};
use critmem::experiments::{hetero_study, table7, Runner, Scale};
use critmem::{AgentMix, SystemConfig};
use critmem_workloads::{BUNDLES, PARALLEL_APPS};
use std::path::Path;

type Names = Vec<(String, String)>;

/// The `(name, unit)` pairs of the `end_to_end` and `per_layer` lists
/// of `BENCHMARK.json` (one metric object per line).
fn spec_names() -> Result<(Names, Names), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_string())
    };
    let (mut e2e, mut layers) = (Vec::new(), Vec::new());
    let mut section = "";
    for line in spec.lines() {
        if line.contains("\"end_to_end\"") {
            section = "end_to_end";
        } else if line.contains("\"per_layer\"") {
            section = "per_layer";
        } else if line.contains("\"workloads\"") {
            section = "";
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            match section {
                "end_to_end" => e2e.push((name, unit)),
                "per_layer" => layers.push((name, unit)),
                _ => {}
            }
        }
    }
    Ok((e2e, layers))
}

fn names(o: &Outcome) -> Names {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Every cell of `pass` equals the library runner's cell of the same
/// key: the two hold the same keys, and each cell's encoded statistics
/// (the runner's memo hit) are byte-identical.
fn same_cells(w: Workload, what: &str, pass: &Pass, library: &mut Runner) -> Result<(), String> {
    let ours: Vec<&String> = pass.cells.keys().collect();
    let theirs: Vec<String> = library
        .memo_snapshot()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    ensure(ours.iter().copied().eq(theirs.iter()), || {
        format!(
            "{}: cell keys differ from {what}: {ours:?} vs {theirs:?}",
            w.name()
        )
    })?;
    let executed = library.runs_executed();
    let differ: Vec<&str> = pass
        .cells
        .iter()
        .filter(|(key, stats)| {
            let CellStats::Run(ours) = stats else {
                return true;
            };
            // A memo hit: the key is qualified with the budget again.
            let bare = key.rsplit_once('@').map_or(key.as_str(), |(k, _)| k);
            let mut cfg = SystemConfig::paper_baseline(ours.instructions_per_core);
            cfg.max_cycles = 1;
            let theirs = library.run_keyed(bare.to_string(), cfg, &AgentMix::Parallel("swim"));
            CellStats::Run(theirs).encode() != stats.encode()
        })
        .map(|(key, _)| key.as_str())
        .collect();
    ensure(
        library.runs_executed() == executed && differ.is_empty(),
        || format!("{}: cells differ from {what}: {differ:?}", w.name()),
    )
}

/// At the default seed, the execution-driven workloads simulate exactly
/// the cells the library's own experiments do, key for key and byte
/// for byte: `paper-sweep` against `table7` over every parallel app and
/// bundle (which runs Figures 4, 10 and 12), `hetero-contention`
/// against `hetero_study` on its mix.
fn cells_match_library(lengths: Lengths) -> Result<(), String> {
    let scale = |instructions| Scale {
        instructions,
        apps: PARALLEL_APPS.to_vec(),
        sweep_apps: Vec::new(),
        bundles: BUNDLES.iter().map(|b| b.name).collect(),
    };
    let mut r = Runner::new(scale(lengths.paper_instructions));
    r.jobs = jobs();
    r.run_parallel(table7);
    let pass = workloads::run_pass(Workload::PaperSweep, lengths, DEFAULT_SEED, jobs());
    same_cells(Workload::PaperSweep, "the library's table7", &pass, &mut r)?;
    let mix: AgentMix = workloads::HETERO_MIX.parse().map_err(|e| format!("{e}"))?;
    let mut r = Runner::new(scale(lengths.hetero_instructions));
    hetero_study(&mut r, &[(mix.to_string(), mix)]);
    let pass = workloads::run_pass(Workload::HeteroContention, lengths, DEFAULT_SEED, 1);
    same_cells(
        Workload::HeteroContention,
        "the library's hetero_study",
        &pass,
        &mut r,
    )
}

pub fn run() -> Result<(), String> {
    let (e2e, per_layer) = spec_names()?;
    let ours: Names = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    ensure(e2e == ours, || {
        format!("BENCHMARK.json end_to_end {e2e:?} != {ours:?}")
    })?;
    cells_match_library(TINY)?;
    for w in Workload::ALL {
        let a = untraced(w, TINY, DEFAULT_SEED, 0.0);
        ensure(a.correct, || {
            format!("{}: untraced run failed: {:?}", w.name(), a.notes)
        })?;
        ensure(names(&a) == e2e, || {
            format!("{}: end-to-end metrics {:?}", w.name(), names(&a))
        })?;
        let b = untraced(w, TINY, DEFAULT_SEED, 0.0);
        ensure(a.digest == b.digest && a.counters == b.counters, || {
            format!("{}: two runs at one seed differ", w.name())
        })?;
        let t = traced(w, TINY, DEFAULT_SEED, None);
        ensure(t.correct, || {
            format!("{}: traced run invalid: {:?}", w.name(), t.notes)
        })?;
        ensure(names(&t) == per_layer, || {
            format!("{}: per-layer metrics {:?}", w.name(), names(&t))
        })?;
        let na = not_applicable(w, jobs());
        let nonzero: Vec<&str> = t
            .metrics
            .iter()
            .filter(|m| m.value != 0.0 && na.iter().any(|p| m.name.starts_with(p)))
            .map(|m| m.name.as_str())
            .collect();
        ensure(nonzero.is_empty(), || {
            format!(
                "{}: not-applicable metrics read non-zero: {nonzero:?}",
                w.name()
            )
        })?;
        ensure(t.digest == a.digest && t.counters == a.counters, || {
            format!(
                "{}: traced run's pass differs from the untraced one",
                w.name()
            )
        })?;
        println!("self-test: {} ok", w.name());
    }
    Ok(())
}
