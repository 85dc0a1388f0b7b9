//! `serve_mix`: an in-process `np_serve::Server` hosting
//! `NeuroPlanService` with 2 workers, under open-loop load.
//!
//! Set-up starts the daemon on a fresh state directory and primes the
//! warm cache with a few preset-A fingerprints. The measured phase sends
//! seeded Poisson arrivals of three classes — cold (a never-seen seed),
//! warm (a primed fingerprint) and perturbed (a primed fingerprint plus
//! churn `events`, the cache-backed re-plan path) — over one submit
//! connection, and polls every outstanding request on a second,
//! dedicated connection at a fixed sub-millisecond interval. Latency is
//! timed from each request's due time, so a stalled generator or a
//! queue shows up in it.

use crate::common::{derive, hex, median_setup, ms, ratio, stream, timed, RunArgs};
use crate::metrics::Outcome;
use crate::plan::set_eval_counters;
use crate::stats;
use neuroplan::master::plan_cost_of;
use neuroplan::{validate_plan, NeuroPlanService};
use np_churn::ChurnSpec;
use np_eval::EvalStats;
use np_serve::{client::submit_id, Client, Server, ServerConfig};
use np_telemetry::Telemetry;
use np_topology::{GeneratorConfig, Network, TopologyPreset};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Daemon workers (the machine's 2 cores).
const WORKERS: usize = 2;
/// Admission bound: 20 s of arrivals at `RATE_PER_S`, so a burst of
/// cold solves that keeps both workers busy for a few seconds queues
/// instead of being shed (at the daemon's default 16, one such burst
/// shed 7 of 80 requests).
const QUEUE_CAPACITY: usize = 64;
/// Warm-cache size (the daemon's default).
const CACHE_CAPACITY: usize = 8;
/// Primed fingerprints: under the cache capacity, so a warm request
/// misses only if cold inserts evicted its entry.
const PRIMED: u64 = 4;
/// Set-up repetitions (daemon start + priming) whose median is
/// `setup_s`.
const SETUP_REPS: usize = 3;
/// Open-loop arrival rate, requests per second.
const RATE_PER_S: f64 = 3.0;
/// Class mix of every block of consecutive arrivals: 4% cold, 72% warm,
/// 24% perturbed. A cold preset-A solve keeps one worker busy 2–4 s, a
/// perturbed one ≈50–100 ms and a warm one ≈1 ms, so the 2 workers are
/// ≈15% busy: queueing behind cold solves shows in the warm tail, a
/// backlog does not grow. Drawing each class independently instead put
/// 0 to 7 cold solves in a run, and with 6 or 7 overlapping ones most
/// warm requests of the run queued.
const BLOCK: [(Class, usize); 3] = [(Class::Cold, 1), (Class::Warm, 18), (Class::Perturbed, 6)];
/// Events per perturbed request.
const PERTURB_EVENTS: u64 = 2;
/// Status polling interval of the dedicated poll connection.
const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// How long outstanding requests may run past the window before they
/// count as timed out.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Cold,
    Warm,
    Perturbed,
}

/// The instance of a preset-A request: a never-seen topology seed
/// (cold requests) or the preset's own topology at a seeded capacity
/// fill, in basis points (the primed fingerprints). Primed instances
/// share one topology so that the warm path validates similar plans on
/// every seed; `validate_plan`'s time swings with the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Inst {
    Seed(u64),
    FillBp(u64),
}

impl Inst {
    fn spec(self) -> Value {
        match self {
            Inst::Seed(s) => json!({"preset": "a", "seed": s}),
            Inst::FillBp(bp) => json!({"preset": "a", "fill": bp as f64 / 1e4}),
        }
    }

    /// The network the service builds for this spec.
    fn net(self) -> Network {
        let mut cfg = GeneratorConfig::preset(TopologyPreset::A);
        match self {
            Inst::Seed(s) => cfg.seed = s,
            Inst::FillBp(bp) => cfg.capacity_fill = bp as f64 / 1e4,
        }
        cfg.generate()
    }
}

/// One open-loop arrival.
struct Arrival {
    due: Duration,
    class: Class,
    inst: Inst,
    /// Churn spec of a perturbed request.
    events: Option<String>,
}

impl Arrival {
    fn spec(&self) -> Value {
        let mut spec = self.inst.spec();
        if let (Value::Object(fields), Some(ev)) = (&mut spec, &self.events) {
            fields.push(("events".to_string(), Value::Str(ev.clone())));
        }
        spec
    }
}

/// Primed fingerprint `p`: capacity fill in [0.47, 0.53].
fn primed_inst(seed: u64, p: u64) -> Inst {
    Inst::FillBp(4_700 + derive(seed, stream::SERVE_SEEDS, p) % 601)
}

/// The seeded arrival schedule over `window`: `RATE_PER_S × window`
/// arrivals at uniform random times (a Poisson process conditioned on
/// its count), their classes a seeded shuffle of [`BLOCK`] for every
/// block of consecutive arrivals.
fn schedule(seed: u64, window: Duration) -> Vec<Arrival> {
    let u = |i: u64| (derive(seed, stream::ARRIVALS, i) >> 11) as f64 / (1u64 << 53) as f64;
    let n = (RATE_PER_S * window.as_secs_f64()).round() as u64;
    let mut due: Vec<f64> = (0..n).map(|k| u(k) * window.as_secs_f64()).collect();
    due.sort_by(f64::total_cmp);
    let block: Vec<Class> = BLOCK
        .iter()
        .flat_map(|&(c, count)| std::iter::repeat_n(c, count))
        .collect();
    let mut classes = Vec::with_capacity(n as usize);
    for b in 0.. {
        if classes.len() >= n as usize {
            break;
        }
        let mut shuffled = block.clone();
        for i in (1..shuffled.len()).rev() {
            let j =
                derive(seed, stream::ARRIVALS, 1_000_000 + b * 64 + i as u64) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        classes.extend(shuffled);
    }
    due.into_iter()
        .zip(classes)
        .enumerate()
        .map(|(k, (t, class))| {
            let k = k as u64;
            let primed = primed_inst(seed, derive(seed, stream::SERVE_SEEDS, 2_000 + k) % PRIMED);
            let (inst, events) = match class {
                // Never seen: a fresh topology seed.
                Class::Cold => (
                    Inst::Seed(
                        1_000_000 + derive(seed, stream::SERVE_SEEDS, 1_000 + k) % 1_000_000,
                    ),
                    None,
                ),
                Class::Warm => (primed, None),
                Class::Perturbed => {
                    let ev_seed = derive(seed, stream::CHURN, k) % 1_000_000;
                    (primed, Some(format!("seed={ev_seed},n={PERTURB_EVENTS}")))
                }
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                class,
                inst,
                events,
            }
        })
        .collect()
}

/// A running daemon on its own state directory.
struct Daemon {
    server: Server<NeuroPlanService>,
    dir: PathBuf,
    addr: String,
}

impl Daemon {
    fn start(dir: PathBuf, tel: &Telemetry) -> Result<Daemon, String> {
        // Never replay an earlier run's journal or lock file.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: CACHE_CAPACITY,
            state_dir: dir.clone(),
            read_timeout: Duration::from_secs(120),
        };
        let service = NeuroPlanService::new(&dir, tel.clone());
        let server = Server::start_with_chaos(
            cfg,
            service,
            tel.clone(),
            np_chaos::CancelToken::new(),
            np_chaos::Chaos::disabled(),
        )
        .map_err(|e| format!("daemon start: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Daemon { server, dir, addr })
    }

    fn stop(self) {
        self.server.shutdown_and_wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join(np_serve::journal::JOURNAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    }
}

/// What a finished request returned.
#[derive(Clone, Debug)]
struct Plan {
    units: Vec<u32>,
    cost: f64,
    cost_hex: String,
    cache: String,
}

fn plan_of(result: &Value) -> Option<Plan> {
    let body = result.get("result")?;
    Some(Plan {
        units: body
            .get("units")?
            .as_array()?
            .iter()
            .map(|v| v.as_u64().map(|u| u as u32))
            .collect::<Option<Vec<u32>>>()?,
        cost: body.get("cost")?.as_f64()?,
        cost_hex: body.get("cost_hex")?.as_str()?.to_string(),
        cache: body.get("cache")?.as_str()?.to_string(),
    })
}

/// Per-request record of the measured phase.
#[derive(Default)]
struct Record {
    id: Option<u64>,
    submit_late: Option<Duration>,
    ack: Option<Duration>,
    first_running: Option<Duration>,
    done: Option<Duration>,
    plan: Option<Plan>,
    failure: Option<String>,
}

/// Submit everything in `arrivals` on schedule and poll until every
/// request ends (or the drain limit passes). All times are offsets from
/// the schedule's start.
fn drive(addr: &str, arrivals: &[Arrival], window: Duration) -> Result<Vec<Record>, String> {
    let mut submit = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut poll = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut recs: Vec<Record> = arrivals.iter().map(|_| Record::default()).collect();
    let mut next = 0;
    let mut outstanding: Vec<usize> = Vec::new();
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        while next < arrivals.len() && arrivals[next].due <= now {
            let rec = &mut recs[next];
            let sent = start.elapsed();
            rec.submit_late = Some(sent.saturating_sub(arrivals[next].due));
            match submit.submit(&arrivals[next].spec()) {
                Ok(reply) => {
                    rec.ack = Some(start.elapsed() - sent);
                    match submit_id(&reply) {
                        Some(id) => {
                            rec.id = Some(id);
                            outstanding.push(next);
                        }
                        None => {
                            rec.failure = Some(format!(
                                "refused: {}",
                                serde_json::to_string(&reply).unwrap_or_default()
                            ))
                        }
                    }
                }
                Err(e) => rec.failure = Some(format!("submit: {e}")),
            }
            next += 1;
        }
        let mut still = Vec::with_capacity(outstanding.len());
        for &i in &outstanding {
            let rec = &mut recs[i];
            let id = rec.id.expect("outstanding requests were admitted");
            let state = match poll.status(id) {
                Ok(s) => s
                    .get("state")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
                Err(e) => {
                    rec.failure = Some(format!("status: {e}"));
                    continue;
                }
            };
            let seen = start.elapsed();
            if state != "queued" && rec.first_running.is_none() {
                rec.first_running = Some(seen);
            }
            match state.as_str() {
                "queued" | "running" => still.push(i),
                "done" => {
                    rec.done = Some(seen);
                    match poll.result(id) {
                        Ok(r) => match plan_of(&r) {
                            Some(p) => rec.plan = Some(p),
                            None => rec.failure = Some("malformed result".to_string()),
                        },
                        Err(e) => rec.failure = Some(format!("result: {e}")),
                    }
                }
                other => rec.failure = Some(format!("request ended `{other}`")),
            }
        }
        outstanding = still;
        if next == arrivals.len() && outstanding.is_empty() {
            break;
        }
        if start.elapsed() > window + DRAIN_LIMIT {
            for &i in &outstanding {
                recs[i].failure = Some("timed out".to_string());
            }
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    Ok(recs)
}

/// Prime the warm set: one cold solve per primed fingerprint, all
/// submitted at once. Returns each fingerprint's plan.
fn prime(d: &Daemon, seed: u64) -> Result<BTreeMap<Inst, Plan>, String> {
    let arrivals: Vec<Arrival> = (0..PRIMED)
        .map(|p| Arrival {
            due: Duration::ZERO,
            class: Class::Cold,
            inst: primed_inst(seed, p),
            events: None,
        })
        .collect();
    let recs = drive(&d.addr, &arrivals, Duration::ZERO)?;
    arrivals
        .iter()
        .zip(recs)
        .map(|(a, r)| match (r.plan, r.failure) {
            (Some(p), None) => Ok((a.inst, p)),
            (_, f) => Err(format!("priming {:?} failed: {f:?}", a.inst)),
        })
        .collect()
}

/// Check a returned plan against the instance it was planned for;
/// returns the `validate_plan` time.
fn check_plan(net: &Network, plan: &Plan, what: &str, out: &mut Outcome) -> Option<f64> {
    let (d, verdict) = timed(|| validate_plan(net, &plan.units));
    if let Err(e) = verdict {
        out.error(format!("{what}: plan fails validate_plan: {e}"));
        return None;
    }
    let recomputed = plan_cost_of(net, &plan.units);
    out.check(
        (recomputed - plan.cost).abs() <= 1e-9 * plan.cost.abs().max(1.0)
            && hex(plan.cost) == plan.cost_hex,
        || {
            format!(
                "{what}: reported cost {} does not match its units ({recomputed})",
                plan.cost
            )
        },
    );
    Some(ms(d))
}

/// The instance a perturbed request ends on: the primed instance with
/// the churn spec's events applied in order.
fn perturbed_net(inst: Inst, events: &str) -> Result<Network, String> {
    let mut net = inst.net();
    let spec = ChurnSpec::parse(events).map_err(|e| e.to_string())?;
    for ev in spec.resolve(&net) {
        let p = ev.to_perturbation(&net).map_err(|e| e.to_string())?;
        net.apply_perturbation(&p).map_err(|e| e.to_string())?;
    }
    Ok(net)
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let base = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".perfbench-state");
    let tel = if args.trace {
        Telemetry::memory()
    } else {
        Telemetry::noop()
    };
    // Each repetition starts a fresh daemon on a fresh state directory
    // and primes it; the previous one is stopped outside the timing.
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<(Daemon, BTreeMap<Inst, Plan>)> = None;
    let mut prev_primed: Option<BTreeMap<Inst, Plan>> = None;
    for rep in 0..SETUP_REPS {
        if let Some((d, p)) = last.take() {
            d.stop();
            prev_primed = Some(p);
        }
        let dir = base.join(format!("serve-{}-{rep}", std::process::id()));
        let (t, started) = timed(|| {
            let d = Daemon::start(dir, &tel)?;
            match prime(&d, args.seed) {
                Ok(p) => Ok((d, p)),
                Err(e) => {
                    d.stop();
                    Err(e)
                }
            }
        });
        match started {
            Ok((d, primed)) => {
                times.push(t.as_secs_f64());
                if let Some(prev) = &prev_primed {
                    out.check(same_plans(prev, &primed), || {
                        "nondeterminism: primed plans differ across set-up repetitions".to_string()
                    });
                }
                last = Some((d, primed));
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.error(e);
                finish_dir(&base);
                return;
            }
        }
    }
    out.set("setup_s", stats::median(&times).expect("set-up ran"));
    let (daemon, primed) = last.expect("set-up ran");
    measure(&daemon, &primed, args, &tel, out);
    daemon.stop();
    finish_dir(&base);
}

fn same_plans(a: &BTreeMap<Inst, Plan>, b: &BTreeMap<Inst, Plan>) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((sa, pa), (sb, pb))| {
            sa == sb && pa.units == pb.units && pa.cost_hex == pb.cost_hex
        })
}

/// Remove the state root if no other run is using it.
fn finish_dir(base: &Path) {
    let _ = std::fs::remove_dir(base);
}

fn measure(
    d: &Daemon,
    primed: &BTreeMap<Inst, Plan>,
    args: &RunArgs,
    tel: &Telemetry,
    out: &mut Outcome,
) {
    let arrivals = schedule(args.seed, args.window());
    let stats_before = daemon_stats(d);
    let before = Totals::of(tel);
    let journal_before = d.journal_bytes();
    let recs = match drive(&d.addr, &arrivals, args.window()) {
        Ok(r) => r,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.error(e);
            return;
        }
    };
    let stats_after = daemon_stats(d);
    let journal_after = d.journal_bytes();

    let mut lat: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut service: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut queue_wait = Vec::new();
    let mut acks = Vec::new();
    let mut late = Vec::new();
    let mut shed = 0u64;
    let mut warm_misses = 0u64;
    let mut verify_ms = Vec::new();
    for (a, r) in arrivals.iter().zip(&recs) {
        out.attempted += 1;
        late.extend(r.submit_late.map(ms));
        acks.extend(r.ack.map(ms));
        let latency = match (&r.failure, r.done, &r.plan) {
            (None, Some(done), Some(plan)) => {
                let ok = match a.class {
                    Class::Cold => {
                        let what = format!("cold {:?}", a.inst);
                        out.check(plan.cache == "cold", || {
                            format!("{what} served `{}`", plan.cache)
                        });
                        check_plan(&a.inst.net(), plan, &what, out).is_some()
                    }
                    Class::Warm => {
                        if plan.cache != "warm" {
                            warm_misses += 1;
                        }
                        let want = &primed[&a.inst];
                        let equal = plan.units == want.units && plan.cost_hex == want.cost_hex;
                        out.check(equal, || {
                            format!(
                                "warm {:?}: result is not bit-equal to the primed plan",
                                a.inst
                            )
                        });
                        equal
                    }
                    Class::Perturbed => {
                        let events = a.events.as_deref().unwrap_or_default();
                        match perturbed_net(a.inst, events) {
                            Ok(net) => {
                                let what = format!("perturbed {:?} {events}", a.inst);
                                check_plan(&net, plan, &what, out).is_some()
                            }
                            Err(e) => {
                                out.error(format!("perturbed {:?}: {e}", a.inst));
                                false
                            }
                        }
                    }
                };
                if let (true, Some(run)) = (ok, r.first_running) {
                    queue_wait.push(ms(run.saturating_sub(a.due)));
                    service
                        .entry(a.class)
                        .or_default()
                        .push(ms(done.saturating_sub(run)));
                }
                if ok {
                    ms(done.saturating_sub(a.due))
                } else {
                    out.failed += 1;
                    f64::INFINITY
                }
            }
            (failure, ..) => {
                let why = failure.clone().unwrap_or_else(|| "no result".to_string());
                if why.contains("429") || why.contains("queue full") {
                    shed += 1;
                }
                println!(
                    "request due {:.3} s ({:?} {:?}) FAILED: {why}",
                    a.due.as_secs_f64(),
                    a.class,
                    a.inst
                );
                out.failed += 1;
                f64::INFINITY
            }
        };
        lat.entry(a.class).or_default().push(latency);
    }
    for (inst, plan) in primed {
        verify_ms.extend(check_plan(
            &inst.net(),
            plan,
            &format!("primed {inst:?}"),
            out,
        ));
    }

    let n = arrivals.len() as f64;
    for (class, xs) in &lat {
        stats::print_latency(&format!("{class:?}").to_lowercase(), xs);
    }
    for (class, xs) in &service {
        println!(
            "{:<9} service (first seen running → done): {}",
            format!("{class:?}"),
            stats::describe(xs)
        );
    }
    println!(
        "arrivals {} over {:.1} s ({} cold); warm served cold (evicted) {warm_misses}; shed {shed}",
        arrivals.len(),
        args.seconds,
        lat.get(&Class::Cold).map_or(0, Vec::len)
    );
    println!("submit ack: {}", stats::describe(&acks));
    println!(
        "queue wait (due → first seen running): {}",
        stats::describe(&queue_wait)
    );
    println!("generator late: {}", stats::describe(&late));
    println!(
        "failed_frac: {:.4} ({} of {})",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    let class_p50 = |c: Class| lat.get(&c).and_then(|xs| stats::median(xs));
    if args.trace {
        let hits = stats_after.0 - stats_before.0;
        let misses = stats_after.1 - stats_before.1;
        out.set("serve.submit_ack_ms", stats::median(&acks).unwrap_or(0.0));
        out.set(
            "serve.queue_wait_ms",
            stats::median(&queue_wait).unwrap_or(0.0),
        );
        out.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
        out.set("serve.cache_evictions", stats_after.2 - stats_before.2);
        out.set("serve.shed", shed as f64);
        out.set(
            "serve.journal_bytes_per_request",
            ratio((journal_after - journal_before) as f64, n),
        );
        out.set(
            "serve.generator_late_ms",
            stats::percentile(&late, 100.0).unwrap_or(0.0),
        );
        let busy_s = service.values().flatten().sum::<f64>() / 1e3;
        layer_counters(tel, &before, busy_s, out);
        out.set("eval.validate_ms", stats::median(&verify_ms).unwrap_or(0.0));
    } else {
        if let Some(v) = class_p50(Class::Warm) {
            out.set("op_p50_ms", v);
        }
        // The plans every warm request is served: one topology at
        // seeded fills, so the mean compares across seeds (cold requests
        // span topologies, and perturbed ones the events drawn).
        let costs: Vec<f64> = primed.values().map(|p| p.cost).collect();
        println!("primed plan costs: {costs:.3?}");
        out.set("final_cost", costs.iter().sum::<f64>() / costs.len() as f64);
    }
}

/// Cache (hits, misses, evictions) from the daemon's `stats` op.
fn daemon_stats(d: &Daemon) -> (f64, f64, f64) {
    let reply = Client::connect(&d.addr).and_then(|mut c| c.stats()).ok();
    let get = |k: &str| {
        reply
            .as_ref()
            .and_then(|r| r.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    (
        get("cache_hits"),
        get("cache_misses"),
        get("cache_evictions"),
    )
}

/// Counter and span totals of a telemetry sink at one moment, so the
/// measured phase can be told apart from set-up's priming.
#[derive(Default)]
struct Totals {
    counters: BTreeMap<(String, String), u64>,
    span_us: BTreeMap<(String, String), u64>,
}

impl Totals {
    fn of(tel: &Telemetry) -> Totals {
        Totals {
            counters: tel
                .counters()
                .into_iter()
                .map(|(s, n, v)| ((s, n), v))
                .collect(),
            span_us: tel
                .spans()
                .into_iter()
                .map(|(s, n, _, us)| ((s, n), us))
                .collect(),
        }
    }

    fn counter(&self, sys: &str, name: &str) -> u64 {
        let key = (sys.to_string(), name.to_string());
        self.counters.get(&key).copied().unwrap_or(0)
    }

    fn span_us(&self, sys: &str, name: &str) -> u64 {
        let key = (sys.to_string(), name.to_string());
        self.span_us.get(&key).copied().unwrap_or(0)
    }
}

/// Per-layer numbers of the measured phase from the telemetry sink the
/// daemon and service share, less the `before` totals of set-up. The
/// RL/environment split needs the timing adapter, which the service's
/// internal environment cannot take, so `rl.agent_s` and `rl.env_s`
/// stay 0 here; `rl.train_s` and `master.solve_s` are the program's own
/// `rl/train` and `master/solve_master` spans, each wrapping exactly one
/// public call (summed over both workers). Their share of `busy_s`, the
/// requests' summed service time, is the layer coverage; there is no
/// untraced replica to compare with, so the trace overhead is 0.
fn layer_counters(tel: &Telemetry, before: &Totals, busy_s: f64, out: &mut Outcome) {
    let now = Totals::of(tel);
    let span_s = |sys: &str, name: &str| {
        now.span_us(sys, name)
            .saturating_sub(before.span_us(sys, name)) as f64
            / 1e6
    };
    let (train_s, master_s) = (span_s("rl", "train"), span_s("master", "solve_master"));
    out.set("rl.train_s", train_s);
    out.set("rl.agent_s", 0.0);
    out.set("rl.env_s", 0.0);
    out.set("master.solve_s", master_s);
    let (gen, _) = median_setup(15, Duration::from_millis(50), || Inst::Seed(0).net());
    out.set("topology.generate_ms", gen * 1e3);
    out.set("greedy.reference_ms", 0.0);
    let c = |sys: &str, name: &str| tel.counter(sys, name) - before.counter(sys, name);
    let completed = c("rl", "trajectories_completed");
    let truncated = c("rl", "trajectories_truncated");
    out.set("rl.epochs", c("rl", "epochs") as f64);
    out.set("rl.env_steps", c("rl", "env_steps") as f64);
    out.set("rl.trajectories_completed", completed as f64);
    out.set("rl.trajectories_truncated", truncated as f64);
    out.set(
        "rl.completed_ratio",
        ratio(completed as f64, (completed + truncated) as f64),
    );
    let eval = EvalStats {
        scenario_checks: c("eval", "scenario_checks"),
        stateful_skips: c("eval", "stateful_skips"),
        cut_reuse_hits: c("eval", "cut_reuse_hits"),
        witness_reuse_hits: c("eval", "witness_reuse_hits"),
        greedy_attempts: c("eval", "greedy_attempts"),
        greedy_hits: c("eval", "greedy_hits"),
        mwu_calls: c("eval", "mwu_calls"),
        lp_calls: c("eval", "lp_calls"),
        ..EvalStats::default()
    };
    set_eval_counters(out, &eval);
    let retained = c("eval", "perturb_certs_retained");
    let dropped = c("eval", "perturb_certs_dropped");
    out.set(
        "eval.cert_retained_ratio",
        ratio(retained as f64, (retained + dropped) as f64),
    );
    crate::plan::set_master_counters(out, c);
    out.set("supervisor.retries", c("supervisor", "retries") as f64);
    out.set("supervisor.degrades", c("supervisor", "degrades") as f64);
    out.set("bench.trace_overhead_frac", 0.0);
    out.set("bench.layer_coverage", ratio(train_s + master_s, busy_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_follows_the_seed_with_a_fixed_class_mix() {
        let window = Duration::from_secs(20);
        let key = |s: &[Arrival]| {
            s.iter()
                .map(|a| (a.due, a.class, a.inst, a.events.clone()))
                .collect::<Vec<_>>()
        };
        let a = schedule(1, window);
        let b = schedule(2, window);
        assert_eq!(key(&a), key(&schedule(1, window)));
        assert_ne!(key(&a), key(&b));
        for s in [&a, &b] {
            assert_eq!(s.len(), 60);
            assert!(s.windows(2).all(|p| p[0].due <= p[1].due));
            let size: usize = BLOCK.iter().map(|&(_, n)| n).sum();
            for block in s.chunks(size).filter(|b| b.len() == size) {
                for &(class, n) in &BLOCK {
                    assert_eq!(block.iter().filter(|a| a.class == class).count(), n);
                }
            }
        }
    }
}
