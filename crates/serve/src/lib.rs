//! np-serve: the crash-safe planning-as-a-service substrate.
//!
//! This crate is the daemon machinery with the planner abstracted out:
//! a length-prefixed JSON-over-TCP protocol ([`proto`]), a journaled
//! request queue with admission control ([`journal`], [`Server`]), a
//! warm-result LRU ([`cache`]), and a blocking [`Client`]. The actual
//! planning is behind the [`PlanService`] trait, which the `neuroplan`
//! crate implements — keeping this layer free of the planner (and the
//! planner's tests free of sockets).
//!
//! Robustness contract, in order of importance:
//!
//! 1. **Crash safety.** Admission is durable before the client hears
//!    "queued" (journal-first), terminals are durable before they are
//!    observable, and a daemon killed with `kill -9` replays the
//!    journal on restart: finished requests stay retrievable, in-flight
//!    ones re-enqueue with `resume` set so the service continues them
//!    bit-identically from their own checkpoints.
//! 2. **Admission control.** The queue is bounded; beyond it, submits
//!    are shed with an explicit 429-style rejection instead of latency
//!    collapse.
//! 3. **Cancellation.** `cancel` flips the request's
//!    [`np_chaos::CancelToken`]; the planning stack polls it at stage
//!    and epoch boundaries, so the worker frees within one boundary.
//! 4. **Chaos.** The `client-disconnect`, `slow-client`, and
//!    `worker-death` fault classes fire inside the daemon's own code
//!    paths, and the recovery path of each is a pinned test.

pub mod cache;
pub mod client;
pub mod journal;
pub mod proto;

pub use cache::WarmCache;
pub use client::Client;

use journal::{Entry, Journal, JournalRecord};
use np_chaos::{CancelToken, DirLock, FaultClass};
use np_telemetry::{sys, Telemetry};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How a request run can end, as reported by the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceFailure {
    /// The run failed for keeps (infeasible, budget exhausted, ...).
    Failed(String),
    /// The run observed its cancel token and stopped.
    Cancelled,
}

/// Everything a service run needs from the daemon.
pub struct RequestCtx<'a> {
    /// The request id (stable across daemon restarts).
    pub id: u64,
    /// Set when this run is a journal-replay continuation — the service
    /// must resume from its checkpoints instead of starting fresh.
    pub resume: bool,
    /// Fires on client `cancel` or daemon shutdown; the service is
    /// expected to thread it into its planning stack.
    pub cancel: CancelToken,
    /// The warm-result LRU, shared across requests. Keyed by whatever
    /// fingerprint the service chooses.
    pub cache: &'a Mutex<WarmCache>,
}

/// The planning backend. One call per request; must be safe to invoke
/// from several worker threads at once.
pub trait PlanService: Send + Sync + 'static {
    /// Run the request to completion (or cancellation). The returned
    /// value is the result body handed verbatim to clients and the
    /// journal, so it must be self-contained JSON.
    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Result<Value, ServiceFailure>;
}

/// Shared services work unchanged (tests hold one side to observe).
impl<T: PlanService> PlanService for Arc<T> {
    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Result<Value, ServiceFailure> {
        self.as_ref().execute(spec, ctx)
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Worker threads executing plan requests.
    pub workers: usize,
    /// Admission bound: queued (not yet running) requests beyond this
    /// are shed with a 429.
    pub queue_capacity: usize,
    /// Warm-cache entries to keep.
    pub cache_capacity: usize,
    /// State directory: journal, directory lock, and (by service
    /// convention) per-request checkpoint chains live here.
    pub state_dir: PathBuf,
    /// Per-connection read timeout; a client that stalls longer is shed.
    pub read_timeout: Duration,
}

impl ServerConfig {
    /// Localhost daemon on an ephemeral port with small-test defaults.
    pub fn local(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 8,
            state_dir: state_dir.into(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Request lifecycle states, as reported on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl ReqState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            ReqState::Queued => "queued",
            ReqState::Running => "running",
            ReqState::Done => "done",
            ReqState::Failed => "failed",
            ReqState::Cancelled => "cancelled",
        }
    }

    /// Whether the request can no longer change state.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            ReqState::Done | ReqState::Failed | ReqState::Cancelled
        )
    }
}

struct Request {
    spec: Value,
    state: ReqState,
    /// Result body (Done) or error string (Failed).
    outcome: Option<Value>,
    /// Fired on cancel or shutdown; threaded into the service run.
    stop: CancelToken,
    /// Distinguishes a client cancel (terminal, journaled) from a
    /// shutdown interruption (left pending so the next start resumes).
    user_cancelled: bool,
    /// Replay/worker-death continuations set this.
    resume: bool,
    /// A worker-death retry has already been spent.
    requeued: bool,
}

impl Request {
    /// A freshly admitted (or replayed, with `resume`) request.
    fn queued(spec: Value, resume: bool) -> Request {
        Request {
            spec,
            state: ReqState::Queued,
            outcome: None,
            stop: CancelToken::new(),
            user_cancelled: false,
            resume,
            requeued: false,
        }
    }
}

struct State {
    queue: VecDeque<u64>,
    requests: HashMap<u64, Request>,
    next_id: u64,
    draining: bool,
    running: usize,
}

struct Inner<S: PlanService> {
    service: S,
    cfg: ServerConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    journal: Journal,
    cache: Mutex<WarmCache>,
    tel: Telemetry,
    chaos: np_chaos::Chaos,
    shutdown: CancelToken,
}

/// A running daemon: bound listener, worker pool, journal, lock.
pub struct Server<S: PlanService> {
    inner: Arc<Inner<S>>,
    addr: std::net::SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    _lock: DirLock,
}

impl<S: PlanService> Server<S> {
    /// Start the daemon: lock the state directory, replay the journal,
    /// bind, and spawn the worker pool and accept loop. `shutdown` is
    /// the daemon-wide stop token — wire a signal handler's token here
    /// for graceful SIGINT/SIGTERM.
    pub fn start(
        cfg: ServerConfig,
        service: S,
        tel: Telemetry,
        shutdown: CancelToken,
    ) -> std::io::Result<Server<S>> {
        Self::start_with_chaos(cfg, service, tel, shutdown, np_chaos::global().clone())
    }

    /// [`Server::start`] with an explicit fault plan instead of the
    /// process-global one — lets tests inject `worker-death` and friends
    /// per server instance.
    pub fn start_with_chaos(
        cfg: ServerConfig,
        service: S,
        tel: Telemetry,
        shutdown: CancelToken,
        chaos: np_chaos::Chaos,
    ) -> std::io::Result<Server<S>> {
        let lock = DirLock::acquire(&cfg.state_dir)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::AddrInUse, e.to_string()))?;
        let (journal, records) = Journal::open(&cfg.state_dir)?;
        let state = replay(records);
        let resumed = state.queue.len() as u64;
        if resumed > 0 {
            tel.incr(sys::SERVE, "journal_resumes", resumed);
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let cache = WarmCache::new(cfg.cache_capacity);
        let inner = Arc::new(Inner {
            service,
            cfg,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            journal,
            cache: Mutex::new(cache),
            tel,
            chaos,
            shutdown,
        });

        let mut threads = Vec::new();
        // Shutdown watcher: the daemon-wide token may be fired by a
        // signal handler (which can only set atomics), so someone has to
        // turn it into per-request interrupts and worker wakeups.
        {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("np-serve-shutdown".to_string())
                    .spawn(move || {
                        while !inn.shutdown.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        let st = inn.state.lock().unwrap();
                        for req in st.requests.values() {
                            if req.state == ReqState::Running {
                                req.stop.cancel();
                            }
                        }
                        drop(st);
                        inn.work_cv.notify_all();
                    })
                    .expect("spawn shutdown watcher"),
            );
        }
        for w in 0..inner.cfg.workers.max(1) {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("np-serve-worker-{w}"))
                    .spawn(move || worker_loop(&inn))
                    .expect("spawn worker"),
            );
        }
        {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("np-serve-accept".to_string())
                    .spawn(move || accept_loop(&inn, listener))
                    .expect("spawn accept loop"),
            );
            // handle_conn threads are detached: each holds its own Arc
            // clone and exits on EOF, timeout, or shutdown-induced
            // connection teardown.
        }
        Ok(Server {
            inner,
            addr,
            threads,
            _lock: lock,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Block until the daemon-wide shutdown token fires and every
    /// worker has wound down.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Trigger shutdown and wait for the pool to wind down. In-flight
    /// runs are interrupted at their next stage boundary and left
    /// *pending* in the journal, so the next start resumes them — a
    /// graceful shutdown is deliberately a flushed, resumable crash.
    pub fn shutdown_and_wait(self) {
        self.inner.shutdown.cancel();
        // Wake workers parked on the queue and interrupt running solves.
        {
            let st = self.inner.state.lock().unwrap();
            for req in st.requests.values() {
                if req.state == ReqState::Running {
                    req.stop.cancel();
                }
            }
        }
        self.inner.work_cv.notify_all();
        self.wait();
    }
}

fn worker_loop<S: PlanService>(inn: &Inner<S>) {
    let chaos = &inn.chaos;
    loop {
        let (id, spec, stop, resume) = {
            let mut st = inn.state.lock().unwrap();
            loop {
                if inn.shutdown.is_cancelled() {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let req = st.requests.get_mut(&id).expect("queued id exists");
                    // A cancel that raced the dequeue: already terminal.
                    if req.state != ReqState::Queued {
                        continue;
                    }
                    req.state = ReqState::Running;
                    st.running += 1;
                    let req = st.requests.get(&id).unwrap();
                    break (id, req.spec.clone(), req.stop.clone(), req.resume);
                }
                st = inn
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap()
                    .0;
            }
        };

        // The worker-death fault class: the worker dies right after
        // claiming a request. catch_unwind plays the role of a pool
        // respawn; the request gets exactly one resume retry.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if chaos.should_fire(FaultClass::WorkerDeath) {
                panic!("np-chaos: injected worker death");
            }
            let ctx = RequestCtx {
                id,
                resume,
                cancel: stop.clone(),
                cache: &inn.cache,
            };
            inn.service.execute(&spec, &ctx)
        }));

        let mut st = inn.state.lock().unwrap();
        st.running -= 1;
        let req = st.requests.get_mut(&id).expect("running id exists");
        match run {
            Ok(Ok(body)) => {
                // Journal-first: the terminal is durable before any
                // client can observe it.
                let _ = inn
                    .journal
                    .append(JournalRecord::Done, id, body.clone(), chaos);
                req.state = ReqState::Done;
                req.outcome = Some(body);
                inn.tel.incr(sys::SERVE, "completions", 1);
            }
            Ok(Err(ServiceFailure::Cancelled)) => {
                if req.user_cancelled {
                    let _ = inn
                        .journal
                        .append(JournalRecord::Cancelled, id, Value::Null, chaos);
                    req.state = ReqState::Cancelled;
                    inn.tel.incr(sys::SERVE, "cancels", 1);
                } else {
                    // Shutdown interruption: no terminal record, so the
                    // next start replays this request with resume set.
                    req.state = ReqState::Queued;
                    req.resume = true;
                    inn.tel.incr(sys::SERVE, "interrupted", 1);
                }
            }
            Ok(Err(ServiceFailure::Failed(msg))) => {
                let payload = Value::Str(msg);
                let _ = inn
                    .journal
                    .append(JournalRecord::Failed, id, payload.clone(), chaos);
                req.state = ReqState::Failed;
                req.outcome = Some(payload);
                inn.tel.incr(sys::SERVE, "failures", 1);
            }
            Err(_panic) => {
                inn.tel.incr(sys::SERVE, "worker_deaths", 1);
                if !req.requeued {
                    // One resume retry: the run continues from its own
                    // checkpoints, exactly like a daemon restart.
                    req.requeued = true;
                    req.resume = true;
                    req.state = ReqState::Queued;
                    st.queue.push_back(id);
                    inn.work_cv.notify_one();
                } else {
                    let payload = Value::Str("worker died twice; giving up".to_string());
                    let _ = inn
                        .journal
                        .append(JournalRecord::Failed, id, payload.clone(), chaos);
                    req.state = ReqState::Failed;
                    req.outcome = Some(payload);
                    inn.tel.incr(sys::SERVE, "failures", 1);
                }
            }
        }
    }
}

fn accept_loop<S: PlanService>(inn: &Arc<Inner<S>>, listener: TcpListener) {
    loop {
        if inn.shutdown.is_cancelled() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inn = Arc::clone(inn);
                let spawned = std::thread::Builder::new()
                    .name("np-serve-conn".to_string())
                    .spawn(move || handle_conn(&inn, stream));
                let _ = spawned;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return,
        }
    }
}

/// Rebuild the request table from the journal's records: finished
/// requests stay retrievable, in-flight ones re-enqueue with resume set,
/// in admission order. Ids never recycle: the next one is past every id
/// the journal holds.
fn replay(records: Vec<JournalRecord>) -> State {
    let mut state = State {
        queue: VecDeque::new(),
        requests: HashMap::new(),
        next_id: 1,
        draining: false,
        running: 0,
    };
    let mut admitted = Vec::new();
    for record in records {
        let (req_state, Entry { id, body }) = match record {
            JournalRecord::Submitted(Entry { id, body }) => {
                if state
                    .requests
                    .insert(id, Request::queued(body, true))
                    .is_none()
                {
                    admitted.push(id);
                }
                state.next_id = state.next_id.max(id.saturating_add(1));
                continue;
            }
            JournalRecord::Done(e) => (ReqState::Done, e),
            JournalRecord::Failed(e) => (ReqState::Failed, e),
            JournalRecord::Cancelled(e) => (ReqState::Cancelled, e),
        };
        if let Some(req) = state.requests.get_mut(&id) {
            req.state = req_state;
            req.outcome = (req_state != ReqState::Cancelled).then_some(body);
            req.resume = false;
        }
    }
    admitted.retain(|id| state.requests[id].state == ReqState::Queued);
    state.queue.extend(admitted);
    state
}

fn handle_conn<S: PlanService>(inn: &Inner<S>, mut stream: TcpStream) {
    let chaos = &inn.chaos;
    let _ = stream.set_read_timeout(Some(inn.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        // The slow-client fault class: the peer stalls mid-exchange.
        // Recovery path = the shed below, without waiting out the real
        // socket timeout (chaos makes the stall deterministic).
        if chaos.should_fire(FaultClass::SlowClient) {
            inn.tel.incr(sys::SERVE, "slow_clients_shed", 1);
            return;
        }
        let frame = match proto::read_frame(&mut stream) {
            Ok(f) => f,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A real stalled client: shed it to free the thread.
                inn.tel.incr(sys::SERVE, "slow_clients_shed", 1);
                return;
            }
            Err(_) => return, // EOF or a broken frame: connection over.
        };
        let (resp, hangup_after) = handle_op(inn, &frame);
        // The client-disconnect fault class: the peer vanished before
        // the response went out. The request (if any) keeps running;
        // the outcome stays retrievable through the journal-backed
        // request table on the next connection.
        if chaos.should_fire(FaultClass::ClientDisconnect) {
            inn.tel.incr(sys::SERVE, "client_disconnects", 1);
            return;
        }
        if proto::write_frame(&mut stream, &resp).is_err() {
            return;
        }
        if hangup_after {
            let _ = stream.flush();
            return;
        }
    }
}

/// Dispatch one request frame. Returns the response and whether the
/// connection should close after sending it (shutdown acks do).
fn handle_op<S: PlanService>(inn: &Inner<S>, frame: &Value) -> (Value, bool) {
    let op = frame.get("op").and_then(|v| v.as_str()).unwrap_or("");
    match op {
        "submit" => (op_submit(inn, frame), false),
        "status" => (op_status(inn, frame), false),
        "result" => (op_result(inn, frame), false),
        "cancel" => (op_cancel(inn, frame), false),
        "stats" => (op_stats(inn), false),
        "shutdown" => {
            inn.shutdown.cancel();
            {
                let st = inn.state.lock().unwrap();
                for req in st.requests.values() {
                    if req.state == ReqState::Running {
                        req.stop.cancel();
                    }
                }
            }
            inn.work_cv.notify_all();
            (proto::ok(vec![]), true)
        }
        _ => (
            proto::err(proto::code::BAD_REQUEST, &format!("unknown op `{op}`")),
            false,
        ),
    }
}

fn op_submit<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(spec) = frame.get("spec") else {
        return proto::err(proto::code::BAD_REQUEST, "submit requires a `spec`");
    };
    let chaos = &inn.chaos;
    let mut st = inn.state.lock().unwrap();
    if inn.shutdown.is_cancelled() || st.draining {
        return proto::err(proto::code::SHUTTING_DOWN, "daemon is shutting down");
    }
    // Admission control: bound the queue, shed the excess explicitly.
    if st.queue.len() >= inn.cfg.queue_capacity {
        inn.tel.incr(sys::SERVE, "sheds", 1);
        return proto::err(proto::code::OVERLOADED, "queue full; retry with backoff");
    }
    let id = st.next_id;
    st.next_id += 1;
    // Journal-first admission: if this append fails, the client hears
    // an error and the daemon keeps no ghost request.
    if let Err(e) = inn
        .journal
        .append(JournalRecord::Submitted, id, spec.clone(), chaos)
    {
        return proto::err(
            proto::code::BAD_REQUEST,
            &format!("journal write failed: {e}"),
        );
    }
    st.requests.insert(id, Request::queued(spec.clone(), false));
    st.queue.push_back(id);
    drop(st);
    inn.work_cv.notify_one();
    inn.tel.incr(sys::SERVE, "submits", 1);
    proto::ok(vec![
        ("id", Value::Num(id as f64)),
        ("state", Value::Str("queued".into())),
    ])
}

fn op_status<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "status requires an `id`");
    };
    let st = inn.state.lock().unwrap();
    match st.requests.get(&id) {
        Some(req) => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str(req.state.name().into())),
        ]),
        None => proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}")),
    }
}

fn op_result<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "result requires an `id`");
    };
    let st = inn.state.lock().unwrap();
    let Some(req) = st.requests.get(&id) else {
        return proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}"));
    };
    match req.state {
        ReqState::Done => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str("done".into())),
            ("result", req.outcome.clone().unwrap_or(Value::Null)),
        ]),
        ReqState::Failed => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str("failed".into())),
            ("error", req.outcome.clone().unwrap_or(Value::Null)),
        ]),
        ReqState::Cancelled => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str("cancelled".into())),
        ]),
        _ => proto::err(
            proto::code::NOT_READY,
            &format!("request {id} is {}", req.state.name()),
        ),
    }
}

fn op_cancel<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "cancel requires an `id`");
    };
    let chaos = &inn.chaos;
    let mut st = inn.state.lock().unwrap();
    let Some(req) = st.requests.get_mut(&id) else {
        return proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}"));
    };
    let state = match req.state {
        ReqState::Queued => {
            // Never ran: terminal immediately, drop it from the queue.
            req.state = ReqState::Cancelled;
            req.user_cancelled = true;
            let _ = inn
                .journal
                .append(JournalRecord::Cancelled, id, Value::Null, chaos);
            inn.tel.incr(sys::SERVE, "cancels", 1);
            let queue = &mut st.queue;
            queue.retain(|&q| q != id);
            ReqState::Cancelled
        }
        ReqState::Running => {
            // Cooperative: the worker observes the token at its next
            // stage/epoch boundary and writes the terminal itself.
            req.user_cancelled = true;
            req.stop.cancel();
            ReqState::Running
        }
        s => s, // already terminal: idempotent
    };
    proto::ok(vec![
        ("id", Value::Num(id as f64)),
        ("state", Value::Str(state.name().into())),
        ("cancelling", Value::Bool(state == ReqState::Running)),
    ])
}

fn op_stats<S: PlanService>(inn: &Inner<S>) -> Value {
    let st = inn.state.lock().unwrap();
    let (hits, misses, evictions) = inn.cache.lock().unwrap().stats();
    let count = |s: ReqState| st.requests.values().filter(|r| r.state == s).count() as f64;
    proto::ok(vec![
        ("queued", Value::Num(st.queue.len() as f64)),
        ("running", Value::Num(st.running as f64)),
        ("done", Value::Num(count(ReqState::Done))),
        ("failed", Value::Num(count(ReqState::Failed))),
        ("cancelled", Value::Num(count(ReqState::Cancelled))),
        ("queue_capacity", Value::Num(inn.cfg.queue_capacity as f64)),
        ("workers", Value::Num(inn.cfg.workers as f64)),
        ("cache_hits", Value::Num(hits as f64)),
        ("cache_misses", Value::Num(misses as f64)),
        ("cache_evictions", Value::Num(evictions as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, body: Value) -> Entry {
        Entry { id, body }
    }

    #[test]
    fn replay_classifies_pending_and_terminal() {
        let spec = |t: &str| serde_json::json!({ "preset": t });
        let state = replay(vec![
            JournalRecord::Submitted(entry(1, spec("a"))),
            JournalRecord::Submitted(entry(2, spec("b"))),
            JournalRecord::Submitted(entry(3, spec("c"))),
            JournalRecord::Submitted(entry(4, spec("d"))),
            JournalRecord::Done(entry(1, Value::Str("plan".into()))),
            JournalRecord::Cancelled(entry(3, Value::Null)),
            JournalRecord::Failed(entry(4, Value::Str("infeasible".into()))),
            JournalRecord::Done(entry(9, Value::Null)), // never admitted
        ]);
        assert_eq!(state.next_id, 5);
        assert_eq!(state.queue, [2], "only the in-flight request re-enqueues");
        let r = |id: u64| &state.requests[&id];
        assert_eq!((r(1).state, r(1).resume), (ReqState::Done, false));
        assert_eq!(
            r(1).outcome,
            Some(Value::Str("plan".into())),
            "result survives"
        );
        assert_eq!((r(2).state, r(2).resume), (ReqState::Queued, true));
        assert_eq!(r(2).spec, spec("b"));
        assert_eq!(
            (r(3).state, r(3).outcome.clone()),
            (ReqState::Cancelled, None)
        );
        assert_eq!(r(4).state, ReqState::Failed);
        assert!(!state.requests.contains_key(&9));
    }

    #[test]
    fn replay_keeps_ids_and_admission_order_across_generations() {
        let spec = serde_json::json!({ "preset": "x" });
        let state = replay(vec![
            JournalRecord::Submitted(entry(8, spec.clone())),
            JournalRecord::Submitted(entry(7, spec.clone())),
        ]);
        assert_eq!(state.queue, [8, 7]);
        assert_eq!(state.next_id, 9, "ids never recycle");
        assert_eq!(replay(Vec::new()).next_id, 1);
    }
}
