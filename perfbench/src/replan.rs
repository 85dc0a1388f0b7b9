//! `replan_b`: incremental re-planning under churn on preset B.
//!
//! Set-up plans three instances from scratch (`try_plan`) and draws a
//! seeded, pre-validated, class-balanced set of two-event churn streams
//! (see [`churn_streams`]). The measured loop runs `replan_from` over
//! the whole set, each stream from one of the initial plans, in passes
//! while the measurement window lasts (at least one): no RL, only
//! certificate invalidation, warm master re-solves and the evaluator.

use crate::common::{derive, hex, ms, preset_instance, ratio, stream, timed, Instance, RunArgs};
use crate::metrics::Outcome;
use crate::plan::{set_eval_counters, set_master_counters, set_serve_zero};
use crate::stats;
use neuroplan::master::plan_cost_of;
use neuroplan::{validate_plan, NeuroPlan, ReplanConfig, ReplanReport};
use np_churn::{generate_stream, structurally_ok, ChurnEvent, FailureSpec};
use np_telemetry::Telemetry;
use np_topology::{Network, TopologyPreset};
use std::time::{Duration, Instant};

/// Set-up repetitions (one start each) whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Events of each class in the stream set.
const PER_CLASS: usize = 6;
/// Streams of the traced run: a fixed prefix of the set (two of each
/// class), so the counters it sums do not depend on the machine's speed.
const TRACED_STREAMS: usize = 10;
/// The event classes, as `ChurnEvent::class` names them.
const CLASSES: [&str; 5] = [
    "demand-scale",
    "link-add",
    "link-remove",
    "failure-add",
    "fiber-cost",
];

/// An instance and its plan from scratch: where streams start.
struct Start {
    inst: Instance,
    initial_units: Vec<u32>,
    initial_cost: f64,
}

/// One start per set-up repetition, and the streams; stream `j` runs
/// from start `j mod starts`. Several starts average out how costly one
/// seed's initial plan happens to make every event.
struct Setup {
    starts: Vec<Start>,
    streams: Vec<Vec<ChurnEvent>>,
}

/// Apply `ev` to `net` if it applies and keeps every scenario
/// structurally feasible (the generator's own validation rule).
fn applies(net: &mut Network, ev: &ChurnEvent) -> bool {
    let Ok(p) = ev.to_perturbation(net) else {
        return false;
    };
    let mut cand = net.clone();
    if cand.apply_perturbation(&p).is_err() || !structurally_ok(&cand) {
        return false;
    }
    *net = cand;
    true
}

/// The seeded stream set: `PER_CLASS` events of each of the five
/// classes, each preceded by a traffic re-estimate, as two-event streams
/// that all start from the initial plan.
///
/// Each stream's first event (a demand scale within ±2%) makes the
/// stream's fresh evaluator derive its certificates at a near-constant
/// cost; the second then exercises invalidation and the warm re-solve
/// for its class. The second events come from np-churn's own generator
/// (one-event streams, kept by class until each class has its share),
/// except site failures: the generator draws failure additions only as
/// cuts of fibers not yet protected, and preset B protects every fiber,
/// so those are the first seeded sites whose failure applies. A fixed
/// class mix keeps the per-event median from measuring the class mix a
/// seed happened to draw, and short streams from one start keep the
/// demand from drifting (along one long stream late events cost 10× the
/// early ones).
fn churn_streams(net: &Network, seed: u64) -> Result<Vec<Vec<ChurnEvent>>, String> {
    let r = |k: u64| derive(seed, stream::CHURN, k);
    let mut pool: Vec<Vec<ChurnEvent>> = vec![Vec::new(); CLASSES.len()];
    let site_failures = (0..net.sites().len() as u64)
        .map(|k| ChurnEvent::FailureAdd {
            spec: FailureSpec::SiteDown(((r(0) + k) % net.sites().len() as u64) as usize),
        })
        .filter(|ev| applies(&mut net.clone(), ev));
    pool[3].extend(site_failures.take(PER_CLASS));
    for k in 1..10_000 {
        if pool.iter().all(|p| p.len() >= PER_CLASS) {
            break;
        }
        for ev in generate_stream(net, r(k), 1) {
            let class = CLASSES
                .iter()
                .position(|c| *c == ev.class())
                .expect("a known class");
            if pool[class].len() < PER_CLASS {
                pool[class].push(ev);
            }
        }
    }
    if let Some(i) = pool.iter().position(|p| p.len() < PER_CLASS) {
        return Err(format!(
            "no {} events of class {} on this instance",
            PER_CLASS, CLASSES[i]
        ));
    }
    // Round-robin over the classes, so any prefix of the set is balanced.
    Ok((0..PER_CLASS * CLASSES.len())
        .map(|k| {
            let u = r(100_000 + k as u64);
            let traffic = ChurnEvent::DemandScale {
                factor: 0.98 + (u % 1001) as f64 / 1000.0 * 0.04,
            };
            vec![traffic, pool[k % CLASSES.len()][k / CLASSES.len()].clone()]
        })
        .collect())
}

/// Set-up repetition `i`: start `i`, its plan from scratch, and the
/// seed's stream set (which depends only on the topology, shared by
/// every start).
///
/// The starts are the same for every seed (the traffic of workload seed
/// 0): the seed draws the churn. With seeded traffic, even within ±1%,
/// the starts' plans from scratch made every event of a seed 30%
/// cheaper or dearer, and the per-event median measured the traffic
/// draw.
fn setup(seed: u64, i: u64) -> Result<(Start, Vec<Vec<ChurnEvent>>), String> {
    let inst = preset_instance(TopologyPreset::B, 0, i);
    let plan = NeuroPlan::new(inst.cfg.clone())
        .try_plan(&inst.net)
        .map_err(|e| format!("initial try_plan failed: {e}"))?;
    let streams = churn_streams(&inst.net, seed)?;
    let start = Start {
        inst,
        initial_units: plan.final_units,
        initial_cost: plan.final_cost,
    };
    Ok((start, streams))
}

/// The deterministic outputs of one stream.
fn fingerprint(r: &ReplanReport) -> Vec<String> {
    let mut fp = vec![hex(r.final_cost), format!("{:?}", r.final_units)];
    fp.extend(r.events.iter().map(|e| {
        format!(
            "{} {} {} retained {} dropped {} churn {}",
            e.index,
            e.event,
            hex(e.cost),
            e.certs_retained,
            e.certs_dropped,
            e.churn
        )
    }));
    fp.extend(
        r.eval_stats
            .counter_fields()
            .iter()
            .map(|(n, v)| format!("eval.{n} {v}")),
    );
    fp
}

/// Re-plan one stream; checks the report and returns it with its wall
/// time.
fn replan(
    s: &Setup,
    j: usize,
    tel: &Telemetry,
    out: &mut Outcome,
) -> Option<(Duration, ReplanReport)> {
    let events = &s.streams[j];
    let start = &s.starts[j % s.starts.len()];
    out.attempted += events.len() as u64;
    let planner = NeuroPlan::with_telemetry(start.inst.cfg.clone(), tel.clone());
    let (wall, report) = timed(|| {
        planner.replan_from(
            &start.inst.net,
            &start.initial_units,
            events,
            &ReplanConfig::default(),
        )
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.failed += events.len() as u64;
            out.error(format!("replan_from failed: {e}"));
            return None;
        }
    };
    for e in &report.events {
        if let Some(why) = &e.skipped {
            out.failed += 1;
            println!("event {} ({}) SKIPPED: {why}", e.index, e.event);
        }
    }
    out.check(report.events.len() == events.len(), || {
        format!(
            "{} events in, {} reported",
            events.len(),
            report.events.len()
        )
    });
    Some((wall, report))
}

/// Validate a stream's final plan on its final instance and check its
/// cost; returns the validation time in ms.
fn verify(r: &ReplanReport, what: &str, out: &mut Outcome) -> Option<f64> {
    let recomputed = plan_cost_of(&r.net, &r.final_units);
    out.check(
        (recomputed - r.final_cost).abs() <= 1e-9 * r.final_cost.abs().max(1.0),
        || {
            format!(
                "{what}: reported cost {} but the units cost {recomputed}",
                r.final_cost
            )
        },
    );
    let (d, verdict) = timed(|| validate_plan(&r.net, &r.final_units));
    match verdict {
        Ok(()) => Some(ms(d)),
        Err(e) => {
            out.error(format!(
                "{what}: the re-planned final plan fails validate_plan: {e}"
            ));
            None
        }
    }
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut starts = Vec::with_capacity(SETUP_REPS);
    let mut streams = Vec::new();
    for i in 0..SETUP_REPS {
        let (d, set) = timed(|| setup(args.seed, i as u64));
        match set {
            Ok((start, s)) => {
                println!(
                    "start {i}: {}, initial plan cost {:.3}",
                    start.inst.label, start.initial_cost
                );
                times.push(d.as_secs_f64());
                starts.push(start);
                streams = s;
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.error(e);
                return;
            }
        }
    }
    out.set("setup_s", stats::median(&times).expect("set-up ran"));
    let s = Setup { starts, streams };
    if args.trace {
        traced(&s, args, out);
    } else {
        untraced(&s, args, out);
    }
}

fn untraced(s: &Setup, args: &RunArgs, out: &mut Outcome) {
    let start = Instant::now();
    let mut event_ms: Vec<f64> = Vec::new();
    // First report of each stream, for the determinism check on repeats.
    let mut firsts: Vec<Option<(Vec<String>, ReplanReport)>> = vec![None; s.streams.len()];
    let mut runs = 0usize;
    let mut covered = 0.0;
    // Whole passes over the set, while the next fits the window (at
    // least one), so every stream and class weighs the same in the
    // median and the final cost is over every stream.
    'passes: loop {
        let pass = Instant::now();
        for (j, first) in firsts.iter_mut().enumerate() {
            let Some((wall, report)) = replan(s, j, &Telemetry::noop(), out) else {
                event_ms.extend(std::iter::repeat_n(f64::INFINITY, s.streams[j].len()));
                break 'passes;
            };
            runs += 1;
            event_ms.extend(report.events.iter().map(|e| e.millis));
            covered += report.events.iter().map(|e| e.millis).sum::<f64>() / ms(wall);
            let fp = fingerprint(&report);
            match first {
                None => {
                    let line: Vec<String> = report
                        .events
                        .iter()
                        .map(|e| format!("{} {:.1} ms", e.event, e.millis))
                        .collect();
                    println!("stream {j:>2}: {}", line.join("; "));
                    *first = Some((fp, report));
                }
                Some((first, _)) => {
                    if let Some((a, b)) = first.iter().zip(&fp).find(|(a, b)| a != b) {
                        out.error(format!(
                            "nondeterminism: stream {j} replayed differs: `{a}` vs `{b}`"
                        ));
                    }
                }
            }
        }
        if start.elapsed() + pass.elapsed() > args.window() {
            break;
        }
    }
    println!(
        "replan events: {} over {runs} streams; per-event times cover {:.1}% of replan_from wall",
        stats::describe(&event_ms),
        100.0 * covered / runs.max(1) as f64
    );
    stats::print_latency("replan_event", &event_ms);
    println!(
        "failed_frac: {:.4} ({} of {})",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    if let Some(p50) = stats::median(&event_ms) {
        out.set("op_p50_ms", p50);
    }
    let mut costs = Vec::new();
    for (j, first) in firsts.iter().enumerate() {
        let Some((_, r)) = first else { continue };
        verify(r, &format!("stream {j}"), out);
        costs.push(r.final_cost);
    }
    // A mean without the dearest and the cheapest fifth: one severe
    // event (a link removal that forces a reroute) can cost 3× the
    // rest, and would otherwise make the figure a draw of the seed.
    if costs.len() == s.streams.len() {
        println!("final cost per stream: {costs:.3?}");
        if let Some(cost) = stats::trimmed_mean(&costs, costs.len() / 5) {
            out.set("final_cost", cost);
        }
    }
}

fn traced(s: &Setup, args: &RunArgs, out: &mut Outcome) {
    let (gen, _) = crate::common::median_setup(15, Duration::from_millis(250), || {
        preset_instance(TopologyPreset::B, args.seed, 0)
    });
    out.set("topology.generate_ms", gen * 1e3);

    // The untraced reference streams, then the same streams traced:
    // bit-equal reports, exact counters.
    let mut reference = Vec::new();
    for j in 0..TRACED_STREAMS.min(s.streams.len()) {
        let Some((wall, report)) = replan(s, j, &Telemetry::noop(), out) else {
            return;
        };
        reference.push((wall, fingerprint(&report)));
    }
    let tel = Telemetry::memory();
    let mut traced_wall = Duration::ZERO;
    let mut events = 0usize;
    let mut eval = np_eval::EvalStats::default();
    let (mut retained, mut dropped) = (0u64, 0u64);
    let mut verify_ms = Vec::new();
    let mut supervisor = (0u32, 0u32);
    for (j, (_, ref_fp)) in reference.iter().enumerate() {
        let Some((wall, report)) = replan(s, j, &tel, out) else {
            return;
        };
        out.check(fingerprint(&report) == *ref_fp, || {
            format!("stream {j}: the traced re-plan is not bit-equal to the untraced one")
        });
        traced_wall += wall;
        events += report.events.len();
        eval.merge(&report.eval_stats);
        retained += report.events.iter().map(|e| e.certs_retained).sum::<u64>();
        dropped += report.events.iter().map(|e| e.certs_dropped).sum::<u64>();
        supervisor.0 += report.supervision.total_retries();
        supervisor.1 += report.supervision.degrades;
        verify_ms.extend(verify(&report, &format!("stream {j}"), out));
    }
    let untraced_wall: Duration = reference.iter().map(|(w, _)| *w).sum();

    // No RL outside set-up: the streams must not train or roll out.
    let rl_counts = tel.counter("rl", "epochs") + tel.counter("rl", "env_steps");
    let rl_us: u64 = tel
        .spans()
        .iter()
        .filter(|(sys, ..)| sys == "rl")
        .map(|(_, _, _, us)| *us)
        .sum();
    out.check(rl_counts == 0 && rl_us == 0, || {
        format!("RL ran during re-planning ({rl_counts} counts, {rl_us} us)")
    });
    for name in [
        "rl.train_s",
        "rl.agent_s",
        "rl.env_s",
        "rl.epochs",
        "rl.env_steps",
        "rl.trajectories_completed",
        "rl.trajectories_truncated",
        "rl.completed_ratio",
        "greedy.reference_ms",
    ] {
        out.set(name, 0.0);
    }

    // Master time per event: the program's own `master/solve_master`
    // span, which wraps exactly one public `solve_master_telemetry` call
    // (the re-plan loop gives no other place to time it from outside).
    let master_s: f64 = tel
        .spans()
        .iter()
        .filter(|(sys, name, ..)| sys == "master" && name == "solve_master")
        .map(|(_, _, _, us)| *us as f64 / 1e6)
        .sum();
    out.set("master.solve_s", master_s / events.max(1) as f64);
    out.set(
        "bench.trace_overhead_frac",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );
    out.set("bench.layer_coverage", master_s / traced_wall.as_secs_f64());
    set_eval_counters(out, &eval);
    set_master_counters(out, |sys, name| tel.counter(sys, name));
    out.set(
        "eval.cert_retained_ratio",
        ratio(retained as f64, (retained + dropped) as f64),
    );
    out.set("eval.validate_ms", stats::median(&verify_ms).unwrap_or(0.0));
    out.set("supervisor.retries", f64::from(supervisor.0));
    out.set("supervisor.degrades", f64::from(supervisor.1));
    set_serve_zero(out);

    let wall = traced_wall.as_secs_f64();
    println!(
        "traced streams: {} ({events} events)  untraced {:.3} s  traced {wall:.3} s",
        reference.len(),
        untraced_wall.as_secs_f64()
    );
    println!("certs retained {retained}, dropped {dropped}");
    println!("where the time goes (traced re-plan wall = {wall:.3} s over {events} events):");
    for (layer, secs) in [
        ("master solves (np-lp, np-eval separation)", master_s),
        ("perturbation, probe checks, bookkeeping", wall - master_s),
        ("rl (none outside set-up)", 0.0),
    ] {
        println!(
            "  {layer:<46} {secs:>9.3} s  {:>5.1}%",
            100.0 * ratio(secs, wall)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_cover_every_class_and_follow_the_seed() {
        let net = preset_instance(TopologyPreset::B, 1, 0).net;
        let a = churn_streams(&net, 1).unwrap();
        let b = churn_streams(&net, 2).unwrap();
        assert_eq!(a, churn_streams(&net, 1).unwrap());
        assert_ne!(a, b);
        for set in [&a, &b] {
            assert_eq!(set.len(), PER_CLASS * CLASSES.len());
            for class in CLASSES {
                let n = set.iter().filter(|s| s[1].class() == class).count();
                assert_eq!(n, PER_CLASS, "{class}");
            }
            // Every stream applies in order on the instance it starts from.
            for events in set.iter() {
                let mut scratch = net.clone();
                assert!(events.iter().all(|e| applies(&mut scratch, e)));
            }
        }
    }
}
