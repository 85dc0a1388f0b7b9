//! Exact work counters across runs.
//!
//! Within one code version and seed the deterministic counters (env
//! steps, scenario checks, MWU and LP calls, simplex iterations, cuts,
//! certificate counts) must repeat exactly, so they are compared, never
//! averaged. Each traced run records them under `.perfbench-state/`
//! keyed by workload, seed and a hash of the program's sources; a later
//! run with the same key reports any difference as nondeterminism.

use crate::metrics::Outcome;
use std::path::{Path, PathBuf};

/// Per-layer metrics that are pure functions of code and seed.
pub const EXACT: [&str; 18] = [
    "rl.epochs",
    "rl.env_steps",
    "rl.trajectories_completed",
    "rl.trajectories_truncated",
    "eval.scenario_checks",
    "eval.stateful_skips",
    "eval.mwu_calls",
    "eval.lp_calls",
    "eval.cut_reuse_hits",
    "eval.witness_reuse_hits",
    "eval.cert_retained_ratio",
    "master.cut_rounds",
    "master.cuts_added",
    "lp.bb_nodes",
    "lp.simplex_iterations",
    "lp.refactorizations",
    "lp.warm_start_pivots",
    "lp.cold_solves",
];

/// Source trees whose contents define the code version.
const SOURCES: [&str; 2] = ["crates", "perfbench/src"];

/// FNV-1a over every file's relative path and bytes, in sorted order.
fn source_hash(root: &Path) -> Option<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for dir in SOURCES {
        walk(&root.join(dir), &mut files).ok()?;
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).ok()?) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Some(h)
}

/// The ledger line for each exact counter of `out`.
fn lines(out: &Outcome) -> Vec<String> {
    EXACT
        .iter()
        .map(|name| format!("{name} {:?}", out.values.get(*name)))
        .collect()
}

/// Compare this run's exact counters with an earlier run of the same
/// code and seed, or record them if this is the first.
pub fn check(workload: &str, seed: u64, out: &mut Outcome) {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(hash) = source_hash(&root) else {
        println!("exact counters: sources not found, cross-run check skipped");
        return;
    };
    let dir = root.join(".perfbench-state").join("counters");
    let path = dir.join(format!("{workload}-{seed}-{hash:016x}.txt"));
    let now = lines(out);
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let before: Vec<&str> = text.lines().collect();
            let diffs: Vec<String> = before
                .iter()
                .zip(&now)
                .filter(|(a, b)| **a != b.as_str())
                .map(|(a, b)| format!("`{a}` then, `{b}` now"))
                .collect();
            out.check(diffs.is_empty() && before.len() == now.len(), || {
                format!(
                    "nondeterminism: exact counters differ from an earlier run of this code \
                     and seed: {}",
                    diffs.join("; ")
                )
            });
            println!("exact counters: identical to the earlier run of this code and seed");
        }
        Err(_) => {
            let written = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&path, now.join("\n") + "\n"));
            match written {
                Ok(()) => println!("exact counters: recorded for later runs"),
                Err(e) => println!("exact counters: not recorded ({e})"),
            }
        }
    }
}
