//! What every workload shares: arguments, seeded instances, timing and
//! process-level measurements.

use neuroplan::NeuroPlanConfig;
use np_churn::splitmix64;
use np_topology::{GeneratorConfig, Network, Perturbation, TopologyPreset};
use std::time::{Duration, Instant};

/// One run's arguments.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The `i`-th value of the seeded stream `stream` of the workload seed
/// `seed`: a pure function, so the same seed always yields the same
/// inputs.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut s = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(i);
    splitmix64(&mut s)
}

/// A planning instance and the configuration it is planned with.
#[derive(Clone)]
pub struct Instance {
    pub net: Network,
    pub cfg: NeuroPlanConfig,
    /// Short description for the report.
    pub label: String,
}

/// Stream ids of [`derive`], one per kind of seeded input.
pub mod stream {
    pub const DEMAND: u64 = 1;
    pub const RUN_SEED: u64 = 2;
    pub const CHURN: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const SERVE_SEEDS: u64 = 5;
}

/// Instance `i` of a plan workload: the paper-calibrated `preset` WAN
/// with every demand scaled by a seeded factor in [0.99, 1.01], planned
/// with the default `--quick` configuration under run seed `i`'s value
/// of a fixed stream.
///
/// The workload seed changes the traffic, and with it every reward and
/// evaluator verdict, but not the topology or the RL seed: on another
/// topology or RL draw the same preset's plan time varies by up to a
/// factor of 3, which no run of a few plans averages out, so the spread
/// across seeds would measure the draw instead of the program.
pub fn preset_instance(preset: TopologyPreset, seed: u64, i: u64) -> Instance {
    let mut net = GeneratorConfig::preset(preset).generate();
    let r = derive(seed, stream::DEMAND, i);
    let factor = 0.99 + 0.02 * (r % 10_001) as f64 / 10_000.0;
    net.apply_perturbation(&Perturbation::DemandScale { factor })
        .expect("a positive demand scale always applies");
    let run_seed = derive(0, stream::RUN_SEED, i) % 1_000_000;
    Instance {
        net,
        cfg: NeuroPlanConfig::quick().with_seed(run_seed),
        label: format!("{preset:?} demand x{factor:.4} run seed {run_seed}"),
    }
}

/// Wall time of `f` and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median time, in seconds, of a set-up step repeated at least
/// `min_reps` times and for at least `min_total`, and the value of the
/// last repetition.
pub fn median_setup<T>(min_reps: usize, min_total: Duration, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    let mut last = None;
    while times.len() < min_reps.max(1) || total < min_total {
        let (d, v) = timed(&mut f);
        times.push(d.as_secs_f64());
        total += d;
        last = Some(v);
    }
    let median = crate::stats::median(&times).expect("at least one repetition");
    (median, last.expect("at least one repetition"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Bit-exact text of a cost, in the program's own `cost_hex` format.
pub fn hex(x: f64) -> String {
    np_chaos::checkpoint::f64_to_hex(x)
}

/// The greedy reference plan of `net` (the first stage's reward
/// normalizer): its cost and units.
pub fn greedy_reference(net: &Network) -> Result<(f64, Vec<u32>), String> {
    let mut scratch = net.clone();
    let cost = neuroplan::greedy_augment(&mut scratch, NeuroPlanConfig::quick().eval)
        .map_err(|e| format!("greedy reference failed: {e:?}"))?;
    let units = scratch
        .link_ids()
        .map(|l| scratch.link(l).capacity_units)
        .collect();
    Ok((cost, units))
}

/// Ratio with a zero denominator mapped to 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands(net: &Network) -> Vec<u64> {
        net.flows()
            .iter()
            .map(|f| f.demand_gbps.to_bits())
            .collect()
    }

    #[test]
    fn the_seed_picks_the_instance() {
        for preset in [TopologyPreset::B, TopologyPreset::C] {
            let a = preset_instance(preset, 7, 0);
            let again = preset_instance(preset, 7, 0);
            let b = preset_instance(preset, 8, 0);
            let next = preset_instance(preset, 7, 1);
            assert_eq!(demands(&a.net), demands(&again.net));
            assert_eq!(a.cfg.seed, again.cfg.seed);
            // Another workload seed: other traffic, same RL seed.
            assert_ne!(demands(&a.net), demands(&b.net));
            assert_eq!(a.cfg.seed, b.cfg.seed);
            // Another instance of the set: other traffic and RL seed.
            assert_ne!(demands(&a.net), demands(&next.net));
            assert_ne!(a.cfg.seed, next.cfg.seed);
            for other in [&b, &next] {
                assert_eq!(a.net.links().len(), other.net.links().len());
            }
        }
    }

    #[test]
    fn derived_streams_are_independent() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
    }
}
