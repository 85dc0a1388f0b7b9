//! `plan_b` / `plan_c`: repeated `NeuroPlan::try_plan` on one preset.
//!
//! Untraced, each run plans a small seeded set of instances in whole
//! passes for the measurement window. Traced, it plans instance 0 once
//! through `try_plan` (the reference) and then through a replica of the
//! same pipeline assembled from the public functions of each layer, so
//! that every layer can be timed from outside. The replica's plan must
//! be bit-equal to the reference, or the trace did not measure the same
//! program.

use crate::common::{
    greedy_reference, hex, median_setup, ms, preset_instance, ratio, timed, Instance, RunArgs,
};
use crate::metrics::Outcome;
use crate::stats;
use crate::timing_env::TimingEnv;
use neuroplan::master::{
    plan_cost_of, polish_units, solve_master_telemetry, MasterConfig, MasterOutcome,
};
use neuroplan::{greedy_augment, validate_plan, NeuroPlan, NeuroPlanConfig, PlanningEnv};
use np_eval::{EvalStats, PlanEvaluator};
use np_rl::{train_resumable, ActorCritic, GraphEnv, TrainReport};
use np_telemetry::Telemetry;
use np_topology::{Network, TopologyPreset};
use std::time::{Duration, Instant};

/// Set-up repetitions (at least this many, for at least this long)
/// whose median is `setup_s`.
const SETUP_REPS: usize = 15;
const SETUP_MIN: Duration = Duration::from_millis(250);
/// `validate_plan` repetitions per distinct plan.
const VERIFY_REPS: usize = 5;
/// Untraced/traced pairs of a traced run, at least: one pair's two
/// plans differ by up to 20% on a busy 2-core machine.
const MIN_PAIRS: usize = 3;

/// The deterministic outputs of one plan: equal across repeats of the
/// same instance, or the program is nondeterministic.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    final_units: Vec<u32>,
    final_cost: String,
    first_cost: String,
    eval: Vec<(&'static str, u64)>,
    master_nodes: usize,
    master_cuts: usize,
    epochs: usize,
}

fn fingerprint(
    final_units: &[u32],
    final_cost: f64,
    first_cost: f64,
    eval: &EvalStats,
    master: &MasterOutcome,
    train: &TrainReport,
) -> Fingerprint {
    Fingerprint {
        final_units: final_units.to_vec(),
        final_cost: hex(final_cost),
        first_cost: hex(first_cost),
        eval: eval.counter_fields().to_vec(),
        master_nodes: master.nodes,
        master_cuts: master.cuts_added,
        epochs: train.epochs_run(),
    }
}

/// Name the first field two fingerprints disagree on.
fn first_difference(a: &Fingerprint, b: &Fingerprint) -> String {
    if a.final_units != b.final_units {
        return "final units".to_string();
    }
    if a.final_cost != b.final_cost || a.first_cost != b.first_cost {
        return format!(
            "costs (final {} vs {}, first stage {} vs {})",
            a.final_cost, b.final_cost, a.first_cost, b.first_cost
        );
    }
    if let Some(((name, x), (_, y))) = a.eval.iter().zip(&b.eval).find(|(p, q)| p.1 != q.1) {
        return format!("eval.{name} ({x} vs {y})");
    }
    format!(
        "master nodes {} vs {}, cuts {} vs {}, epochs {} vs {}",
        a.master_nodes, b.master_nodes, a.master_cuts, b.master_cuts, a.epochs, b.epochs
    )
}

/// Validate `units` on `net` `VERIFY_REPS` times; returns the times in
/// ms, recording a violation if the plan does not validate.
fn verify(net: &Network, units: &[u32], what: &str, out: &mut Outcome) -> Vec<f64> {
    let mut times = Vec::with_capacity(VERIFY_REPS);
    for _ in 0..VERIFY_REPS {
        let (d, verdict) = timed(|| validate_plan(net, units));
        if let Err(e) = verdict {
            out.error(format!("{what}: plan fails validate_plan: {e}"));
            break;
        }
        times.push(ms(d));
    }
    times
}

pub fn run(preset: TopologyPreset, instances: usize, args: &RunArgs, out: &mut Outcome) {
    let (setup_s, set) = median_setup(SETUP_REPS, SETUP_MIN, || {
        (0..instances as u64)
            .map(|i| preset_instance(preset, args.seed, i))
            .collect::<Vec<_>>()
    });
    out.set("setup_s", setup_s);
    for (i, inst) in set.iter().enumerate() {
        println!("instance {i}: {}", inst.label);
    }
    if args.trace {
        traced(preset, &set[0], args, out);
    } else {
        untraced(&set, args, out);
    }
}

fn untraced(set: &[Instance], args: &RunArgs, out: &mut Outcome) {
    let start = Instant::now();
    let mut times: Vec<f64> = Vec::new();
    // Per instance: the first plan's fingerprint, final cost and
    // first-stage units.
    let mut refs: Vec<Option<(Fingerprint, f64, Vec<u32>)>> = vec![None; set.len()];
    let mut passes = 0;
    loop {
        let pass_start = Instant::now();
        for (i, inst) in set.iter().enumerate() {
            out.attempted += 1;
            let planner = NeuroPlan::new(inst.cfg.clone());
            let (d, result) = timed(|| planner.try_plan(&inst.net));
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    println!("instance {i}: try_plan FAILED: {e}");
                    times.push(f64::INFINITY);
                    continue;
                }
            };
            times.push(d.as_secs_f64() * 1e3);
            println!(
                "instance {i} pass {passes}: plan_s {:.3}  first_stage_cost {:.3}  final_cost {:.3}  \
                 quality {}  supervisor.retries {}  supervisor.degrades {}",
                d.as_secs_f64(),
                r.first_stage_cost,
                r.final_cost,
                r.quality.name(),
                r.supervision.total_retries(),
                r.supervision.degrades,
            );
            let fp = fingerprint(
                &r.final_units,
                r.final_cost,
                r.first_stage_cost,
                &r.eval_stats,
                &r.master,
                &r.train_report,
            );
            match &refs[i] {
                None => refs[i] = Some((fp, r.final_cost, r.first_stage_units.clone())),
                Some((first, ..)) if *first != fp => out.error(format!(
                    "nondeterminism: instance {i} planned twice differs in {}",
                    first_difference(first, &fp)
                )),
                Some(_) => {}
            }
        }
        passes += 1;
        let pass = pass_start.elapsed();
        if start.elapsed() + pass > args.window() {
            break;
        }
    }

    // Every plan of the run must pass validate_plan: the final plan, the
    // first-stage plan it came from and the greedy reference. (Its time
    // is reported, not gated: it swings from 8 to 600 ms with how tight
    // the plan is, so it says more about the plan than the program.)
    let mut costs = Vec::new();
    for (i, (inst, r)) in set.iter().zip(&refs).enumerate() {
        let Some((fp, cost, first_units)) = r else {
            continue;
        };
        let recomputed = plan_cost_of(&inst.net, &fp.final_units);
        out.check(
            (recomputed - cost).abs() <= 1e-9 * cost.abs().max(1.0),
            || format!("instance {i}: reported cost {cost} but the units cost {recomputed}"),
        );
        costs.push(*cost);
        let greedy_units = match greedy_reference(&inst.net) {
            Ok((_, units)) => units,
            Err(e) => {
                out.error(format!("instance {i}: {e}"));
                continue;
            }
        };
        for (what, units) in [
            ("final", &fp.final_units),
            ("first-stage", first_units),
            ("greedy reference", &greedy_units),
        ] {
            let v = verify(&inst.net, units, &format!("instance {i} {what}"), out);
            println!(
                "instance {i}: validate_plan of the {what} plan {}",
                stats::describe(&v)
            );
        }
    }
    println!(
        "plan_s {:.3} s (median of {} plans: {passes} passes over {} instances)",
        stats::median(&times).unwrap_or(f64::NAN) / 1e3,
        times.len(),
        set.len()
    );
    println!(
        "failed_frac: {:.4} ({} of {})",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    if let Some(p50) = stats::median(&times) {
        out.set("op_p50_ms", p50);
    }
    // Every instance must have a plan: a mean over a subset would
    // measure which instances failed.
    if costs.len() == set.len() {
        out.set("final_cost", costs.iter().sum::<f64>() / costs.len() as f64);
    }
}

/// Layer times of one traced plan.
pub struct TracedPlan {
    pub first_cost: f64,
    pub final_cost: f64,
    pub final_units: Vec<u32>,
    pub eval: EvalStats,
    pub train: TrainReport,
    pub master: MasterOutcome,
    /// The whole replica, end to end.
    pub wall: Duration,
    pub greedy: Duration,
    /// Training plus the final rollouts: agent and environment.
    pub rl: Duration,
    /// The environment's share of `rl` (`reset` + `step`).
    pub env: Duration,
    /// Second stage: the master solve plus the 1-opt polish.
    pub master_wall: Duration,
}

/// `NeuroPlan::try_plan` on the supervisor's happy path, rebuilt from
/// the public functions of each layer so each can be timed from
/// outside: greedy reference → RL training and final rollouts over a
/// timed `PlanningEnv` → α-pruned master → 1-opt polish. Only the
/// unlimited default budget is supported, and a master that returns no
/// plan (where `try_plan` would walk the degradation ladder) is an
/// error.
pub fn traced_plan(
    net: &Network,
    cfg: &NeuroPlanConfig,
    tel: &Telemetry,
) -> Result<TracedPlan, String> {
    if !cfg.supervisor.budget.is_unlimited() {
        return Err("the traced replica supports only the unlimited stage budget".to_string());
    }
    let t_all = Instant::now();

    // Greedy reference: reward normalizer and fallback plan.
    let (greedy, reference) = timed(|| {
        let mut ref_net = net.clone();
        greedy_augment(&mut ref_net, cfg.eval).map(|cost| {
            let units: Vec<u32> = ref_net
                .link_ids()
                .map(|l| ref_net.link(l).capacity_units)
                .collect();
            (cost, units)
        })
    });
    let (ref_cost, ref_units) = reference.map_err(|e| format!("greedy reference failed: {e:?}"))?;

    // RL first stage over the timing adapter.
    let t_rl = Instant::now();
    let mut inner = PlanningEnv::new(
        net.clone(),
        cfg.eval,
        cfg.max_units_per_step,
        ref_cost.max(1e-6),
    );
    inner.evaluator_mut().set_telemetry(tel.clone());
    let mut env = TimingEnv::new(inner);
    let mut agent = ActorCritic::new(
        env.adjacency().clone(),
        env.feature_dim(),
        cfg.max_units_per_step,
        &cfg.agent,
    );
    let mut tcfg = cfg.train.clone();
    tcfg.stop = Some(np_chaos::CancelToken::new());
    let train = train_resumable(
        &mut env,
        &mut agent,
        &tcfg,
        tel,
        np_chaos::global(),
        None,
        None,
    );
    // Final rollouts: stochastic samples, then one greedy decode.
    agent.reseed_sampling(cfg.seed ^ 0xdead_beef);
    for k in 0..=cfg.final_rollouts {
        let greedy_decode = k == cfg.final_rollouts;
        let mut obs = env.reset();
        for _ in 0..cfg.train.max_traj_len * 4 {
            if !obs.has_valid_action() {
                break;
            }
            let action = if greedy_decode {
                agent.act_greedy(&obs.features, &obs.action_mask)
            } else {
                agent.act(&obs.features, &obs.action_mask).0
            };
            let (o, _, done) = env.step(action);
            obs = o;
            if done {
                break;
            }
        }
    }
    let (first_cost, first_units) = match env.inner.best_plan().cloned() {
        Some((cost, snap)) if cost <= ref_cost => (cost, snap.as_slice().to_vec()),
        _ => (ref_cost, ref_units),
    };
    let evaluator = env.inner.evaluator_mut();
    let certs: Vec<_> = (0..evaluator.num_scenarios())
        .filter_map(|i| evaluator.certificate(i).cloned())
        .collect();
    let mut eval = evaluator.take_stats();
    let rl = t_rl.elapsed();

    // Second stage: α-pruned master seeded with the certificates and
    // warm-started from the first-stage plan, then the polish.
    let t_master = Instant::now();
    let mut evaluator = PlanEvaluator::with_telemetry(net, cfg.eval, tel.clone());
    let mcfg = MasterConfig {
        upper_bounds: MasterConfig::pruned_bounds(net, &first_units, cfg.relax_factor),
        cutoff: Some(first_cost * (1.0 + 1e-9) + 1e-9),
        node_limit: cfg.mip_node_limit,
        time_limit_secs: cfg.mip_time_limit_secs,
        max_cuts_per_round: 8,
        seed_cuts: certs,
        granularity: 1,
        gap_tol: MasterConfig::DEFAULT_GAP,
        warm_units: Some(first_units.clone()),
        polish_final: false,
        lp_backend: cfg.lp_backend,
    };
    let mut master = solve_master_telemetry(net, &mut evaluator, &mcfg, tel);
    if !master.has_plan() {
        return Err(format!(
            "master returned no plan (status {:?}); the traced replica does not follow the \
             degradation ladder",
            master.status
        ));
    }
    polish_units(net, &mut evaluator, &mut master.units);
    master.cost = plan_cost_of(net, &master.units);
    eval.merge(&evaluator.take_stats());
    let master_wall = t_master.elapsed();

    let (final_cost, final_units) = if master.cost < first_cost {
        (master.cost, master.units.clone())
    } else {
        (first_cost, first_units)
    };
    Ok(TracedPlan {
        first_cost,
        final_cost,
        final_units,
        eval,
        train,
        master,
        wall: t_all.elapsed(),
        greedy,
        rl,
        env: env.busy,
        master_wall,
    })
}

fn traced(preset: TopologyPreset, inst: &Instance, args: &RunArgs, out: &mut Outcome) {
    let start = Instant::now();
    let (gen, _) = median_setup(SETUP_REPS, SETUP_MIN, || {
        preset_instance(preset, args.seed, 0)
    });
    out.set("topology.generate_ms", gen * 1e3);

    // The reference: the untraced program on the same instance. It
    // also warms the process up (the first plan of a process runs
    // ≈10% slower), so its time is not used.
    let plan = |out: &mut Outcome| {
        out.attempted += 1;
        let planner = NeuroPlan::new(inst.cfg.clone());
        let (d, planned) = timed(|| planner.try_plan(&inst.net));
        match planned {
            Ok(r) => {
                let fp = fingerprint(
                    &r.final_units,
                    r.final_cost,
                    r.first_stage_cost,
                    &r.eval_stats,
                    &r.master,
                    &r.train_report,
                );
                Some((d, fp, r))
            }
            Err(e) => {
                out.failed += 1;
                out.error(format!("try_plan failed: {e}"));
                None
            }
        }
    };
    let Some((_, ref_fp, reference)) = plan(out) else {
        return;
    };
    out.set(
        "supervisor.retries",
        f64::from(reference.supervision.total_retries()),
    );
    out.set(
        "supervisor.degrades",
        f64::from(reference.supervision.degrades),
    );

    // Then pairs of the untraced program and the traced replica, while
    // the window lasts and at least `MIN_PAIRS`. Times are medians,
    // ratios medians of per-pair ratios; every plan must be bit-equal
    // to the reference, and the replica's counters must repeat exactly.
    let mut untraced_walls = Vec::new();
    let mut runs: Vec<(TracedPlan, Telemetry)> = Vec::new();
    loop {
        let pair = Instant::now();
        let Some((d, fp, _)) = plan(out) else {
            return;
        };
        out.check(fp == ref_fp, || {
            format!(
                "nondeterminism: try_plan repeated differs in {}",
                first_difference(&ref_fp, &fp)
            )
        });
        untraced_walls.push(d.as_secs_f64());

        out.attempted += 1;
        let tel = Telemetry::memory();
        let traced = match traced_plan(&inst.net, &inst.cfg, &tel) {
            Ok(t) => t,
            Err(e) => {
                out.failed += 1;
                out.error(format!("traced plan failed: {e}"));
                return;
            }
        };
        let fp = fingerprint(
            &traced.final_units,
            traced.final_cost,
            traced.first_cost,
            &traced.eval,
            &traced.master,
            &traced.train,
        );
        out.check(fp == ref_fp, || {
            format!(
                "the traced plan is not bit-equal to try_plan: {}",
                first_difference(&ref_fp, &fp)
            )
        });
        if let Some((first, first_tel)) = runs.first() {
            for (sys, name) in EXACT_TEL_COUNTERS {
                let (a, b) = (first_tel.counter(sys, name), tel.counter(sys, name));
                out.check(a == b, || {
                    format!("nondeterminism: {sys}.{name} {a} vs {b} on a repeated traced plan")
                });
            }
            out.check(first.env.is_zero() == traced.env.is_zero(), || {
                "environment time appeared in one traced run only".to_string()
            });
        }
        println!(
            "pair {}: try_plan {:.3} s, traced replica {:.3} s",
            runs.len(),
            d.as_secs_f64(),
            traced.wall.as_secs_f64()
        );
        runs.push((traced, tel));
        if runs.len() >= MIN_PAIRS && start.elapsed() + pair.elapsed() > args.window() {
            break;
        }
    }
    let verify_ms = verify(&inst.net, &reference.final_units, "instance 0", out);
    if let Some(v) = stats::median(&verify_ms) {
        out.set("eval.validate_ms", v);
    }

    let med = |f: &dyn Fn(&TracedPlan) -> Duration| {
        let xs: Vec<f64> = runs.iter().map(|(t, _)| f(t).as_secs_f64()).collect();
        stats::median(&xs).unwrap_or(0.0)
    };
    let wall = med(&|t| t.wall);
    let greedy = med(&|t| t.greedy);
    let rl = med(&|t| t.rl);
    let env = med(&|t| t.env);
    let agent = med(&|t| t.rl.saturating_sub(t.env));
    let master = med(&|t| t.master_wall);
    let untraced = stats::median(&untraced_walls).expect("at least one pair ran");
    let per_pair = |f: &dyn Fn(&TracedPlan) -> Duration| {
        let xs: Vec<f64> = runs
            .iter()
            .zip(&untraced_walls)
            .map(|((t, _), u)| f(t).as_secs_f64() / u)
            .collect();
        stats::median(&xs).expect("at least one pair ran")
    };
    // Against the untraced program's own wall, an independent
    // measurement: the replica's wall is the sum of its timed blocks.
    let coverage = per_pair(&|t| t.greedy + t.rl + t.master_wall);
    out.set("greedy.reference_ms", greedy * 1e3);
    out.set("rl.train_s", rl);
    out.set("rl.env_s", env);
    out.set("rl.agent_s", agent);
    out.set("master.solve_s", master);
    out.set("bench.trace_overhead_frac", per_pair(&|t| t.wall) - 1.0);
    out.set("bench.layer_coverage", coverage);

    let (t, tel) = &runs[0];
    set_rl_counters(out, &t.train, tel);
    set_eval_counters(out, &t.eval);
    set_master_counters(out, |sys, name| tel.counter(sys, name));
    out.set("eval.cert_retained_ratio", 0.0);
    set_serve_zero(out);

    println!(
        "pairs: {}  untraced plan_s {untraced:.3}  traced plan_s {wall:.3}  \
         timed layers cover {:.1}% of the untraced plan_s",
        runs.len(),
        100.0 * coverage
    );
    println!("where the time goes (untraced plan_s = {untraced:.3} s):");
    for (layer, secs) in [
        ("greedy reference (np-core greedy_augment)", greedy),
        ("rl agent: policy forward, sampling, update", agent),
        ("rl env: features + np-eval checks", env),
        ("master + polish (np-lp, np-eval separation)", master),
        ("outside the timed layers", untraced - greedy - rl - master),
    ] {
        println!(
            "  {layer:<46} {secs:>9.3} s  {:>5.1}%",
            100.0 * secs / untraced
        );
    }
}

/// Program counters that must repeat exactly on the same instance.
pub const EXACT_TEL_COUNTERS: [(&str, &str); 6] = [
    ("rl", "env_steps"),
    ("master", "cuts_added"),
    ("master", "cut_rounds"),
    ("lp", "simplex_iterations"),
    ("lp", "bb_nodes"),
    ("lp", "refactorizations"),
];

pub fn set_rl_counters(out: &mut Outcome, train: &TrainReport, tel: &Telemetry) {
    let completed: usize = train.epochs.iter().map(|e| e.completed).sum();
    let truncated: usize = train.epochs.iter().map(|e| e.truncated).sum();
    out.set("rl.epochs", train.epochs_run() as f64);
    out.set("rl.env_steps", tel.counter("rl", "env_steps") as f64);
    out.set("rl.trajectories_completed", completed as f64);
    out.set("rl.trajectories_truncated", truncated as f64);
    out.set(
        "rl.completed_ratio",
        ratio(completed as f64, (completed + truncated) as f64),
    );
}

pub fn set_eval_counters(out: &mut Outcome, e: &EvalStats) {
    out.set("eval.scenario_checks", e.scenario_checks as f64);
    out.set("eval.stateful_skips", e.stateful_skips as f64);
    out.set("eval.mwu_calls", e.mwu_calls as f64);
    out.set("eval.lp_calls", e.lp_calls as f64);
    out.set("eval.cut_reuse_hits", e.cut_reuse_hits as f64);
    out.set("eval.witness_reuse_hits", e.witness_reuse_hits as f64);
    out.set(
        "eval.greedy_hit_ratio",
        ratio(e.greedy_hits as f64, e.greedy_attempts as f64),
    );
    out.set(
        "eval.solver_per_check",
        ratio((e.mwu_calls + e.lp_calls) as f64, e.scenario_checks as f64),
    );
}

/// Master and LP counters; `counter(sys, name)` reads one counter of
/// the measured phase.
pub fn set_master_counters(out: &mut Outcome, counter: impl Fn(&str, &str) -> u64) {
    for (metric, sys, name) in [
        ("master.cut_rounds", "master", "cut_rounds"),
        ("master.cuts_added", "master", "cuts_added"),
        ("lp.bb_nodes", "lp", "bb_nodes"),
        ("lp.simplex_iterations", "lp", "simplex_iterations"),
        ("lp.refactorizations", "lp", "refactorizations"),
        ("lp.warm_start_pivots", "lp", "warm_start_pivots"),
        ("lp.cold_solves", "lp", "cold_solves"),
    ] {
        out.set(metric, counter(sys, name) as f64);
    }
}

/// The daemon's layers on a workload without a daemon.
pub fn set_serve_zero(out: &mut Outcome) {
    for name in [
        "serve.submit_ack_ms",
        "serve.queue_wait_ms",
        "serve.cache_hit_ratio",
        "serve.cache_evictions",
        "serve.shed",
        "serve.journal_bytes_per_request",
        "serve.generator_late_ms",
    ] {
        out.set(name, 0.0);
    }
}
