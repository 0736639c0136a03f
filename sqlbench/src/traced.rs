//! The traced run: per-layer numbers from benchmark-owned spans.
//!
//! Nothing inside the program is instrumented. The run has three passes
//! over one seeded request sequence per session, after a warm-up pass:
//!
//! 1. *untraced wire pass*: the sessions' requests against a real
//!    default-config `RheemServer`, timed only end to end (the baseline
//!    for the tracing overhead; it also fixes the sequence length);
//! 2. *traced wire pass*: the same requests on the same connections, with
//!    a span around each public protocol call the client makes
//!    (`Request::encode`, `write_frame`, `read_frame`, `Response::decode`);
//! 3. *server-side replay*: the same requests through the server's public
//!    building blocks, in the order `server.rs::handle_query` calls them
//!    (`Request::decode`, statement cache, `QueryCatalog::plan`,
//!    `JobService::submit_handle`, `RheemContext::optimize_logical` and
//!    `execute_plan` under a timed `WaveGate` around
//!    `FairShareScheduler::gate`, the result copy, `Response::encode`),
//!    sharing the server's `Observability` and `PlanCache`.
//!
//! Per statement, the wait in `read_frame` minus the replay's server-side
//! total is `server.unattributed_ms`: time the wire spends that no
//! server-side call accounts for.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rheem_core::query::{parse, PlannedQuery, QueryCatalog};
use rheem_core::{
    AtomStats, MetricsRegistry, Observability, PlanCache, Record, RheemContext, WaveGate,
};
use rheem_server::protocol::{encode_rows, read_frame, write_frame, Request, Response};
use rheem_server::{FairShareScheduler, JobGate, JobService, RheemServer, ServerConfig};

use crate::reference::Expected;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::wire::{judge, Outcome, ServerCounters, Tally};
use crate::workload::{Session, Step, Table, Workload};
use crate::{num, Metric, RunResult};

/// Layers in breakdown order (module names of the program).
const LAYERS: [&str; 9] = [
    "protocol",
    "server",
    "service",
    "scheduler",
    "query",
    "optimizer",
    "executor",
    "platforms",
    "kernels",
];

/// Platforms of `full_context()`, for the per-platform atom shares.
const PLATFORMS: [&str; 4] = ["java", "relational", "sparklike", "mapreduce"];

/// Operator families reported as `kernels.<family>_us`; anything else is
/// summed under `kernels.other_us`.
pub const KERNEL_FAMILIES: [&str; 14] = [
    "CollectionSource",
    "Filter",
    "Map",
    "Project",
    "ChunkPipeline",
    "HashGroupBy",
    "SortGroupBy",
    "ReduceByKey",
    "GlobalReduce",
    "HashJoin",
    "SortMergeJoin",
    "Sort",
    "Limit",
    "CollectSink",
];

/// A raw protocol connection: the client's public calls, one by one.
struct Conn {
    stream: TcpStream,
}

/// What the traced wire pass saw for one request.
struct WireCall {
    label: &'static str,
    request: u64,
    request_bytes: usize,
    response_bytes: usize,
    /// Canonical row encoding of a `Rows` reply, for the replay check.
    rows: Option<Vec<u8>>,
}

impl Conn {
    fn connect(addr: SocketAddr, tenant: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        let mut conn = Conn { stream };
        let hello = Request::Hello {
            tenant: tenant.to_string(),
        };
        match conn.call(&hello) {
            Ok(Response::Ok) => conn,
            other => panic!("HELLO refused: {other:?}"),
        }
    }

    /// Untraced call.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        write_frame(&mut self.stream, &request.encode()).map_err(|e| e.to_string())?;
        let body = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        Response::decode(&body).map_err(|e| e.to_string())
    }

    /// Traced call: a root span with one child per public protocol call.
    fn call_traced(
        &mut self,
        request: &Request,
        rec: &mut Recorder,
        id: u64,
    ) -> (Result<Response, String>, usize, usize) {
        let t0 = Instant::now();
        let body = request.encode();
        let t1 = Instant::now();
        let written = write_frame(&mut self.stream, &body);
        let t2 = Instant::now();
        let read = read_frame(&mut self.stream);
        let t3 = Instant::now();
        let reply_body = match (written, read) {
            (Err(e), _) | (_, Err(e)) => return (Err(e.to_string()), body.len(), 0),
            (_, Ok(None)) => return (Err("server closed the connection".into()), body.len(), 0),
            (_, Ok(Some(b))) => b,
        };
        let reply = Response::decode(&reply_body).map_err(|e| e.to_string());
        let t4 = Instant::now();
        let root = rec.record("protocol.client_call", None, id, t0, t4);
        rec.record("protocol.request_encode", Some(root), id, t0, t1);
        rec.record("protocol.write_frame", Some(root), id, t1, t2);
        rec.record("protocol.roundtrip_wait", Some(root), id, t2, t3);
        rec.record("protocol.response_decode", Some(root), id, t3, t4);
        (reply, body.len(), reply_body.len())
    }
}

/// Turn a step into its wire request plus the reference to check against.
fn to_request(step: Step) -> (&'static str, Request, Option<Arc<Expected>>) {
    match step {
        Step::Register { label, table } => (
            label,
            Request::Register {
                name: table.name.to_string(),
                schema: table.schema,
                rows: table.rows,
            },
            None,
        ),
        Step::Query {
            label,
            sql,
            expected,
        } => (
            label,
            Request::Query {
                sql,
                deadline_ms: None,
            },
            Some(expected),
        ),
    }
}

/// Judge a wire reply against the step's reference.
fn judge_reply(
    label: &str,
    reply: &Result<Response, String>,
    expected: Option<&Expected>,
) -> Outcome {
    match (reply, expected) {
        (Ok(Response::Ok), None) => Outcome::Ok,
        (Ok(Response::Rows { rows, .. }), Some(e)) => judge(label, Ok(Some((rows, e)))),
        (Ok(Response::Err { message }), _) => judge(label, Err(message.clone())),
        (Ok(other), _) => Outcome::Failed(format!("{label}: unexpected reply {other:?}")),
        (Err(e), _) => Outcome::Failed(format!("{label}: {e}")),
    }
}

/// Request id: session in the high bits, position in the sequence below.
fn request_id(session: usize, position: usize) -> u64 {
    ((session as u64 + 1) << 32) | position as u64
}

// ---------------------------------------------------------------------------
// Server-side replay
// ---------------------------------------------------------------------------

/// One wave as the timed gate saw it.
#[derive(Clone, Copy)]
struct WaveTiming {
    index: usize,
    wait_start: Instant,
    wait_end: Instant,
    end: Option<Instant>,
}

/// Benchmark `WaveGate` wrapper: times the wait in the fair-share gate's
/// `before_wave` and marks each wave's end.
struct TimedGate {
    inner: Arc<JobGate>,
    waves: Mutex<Vec<WaveTiming>>,
}

impl WaveGate for TimedGate {
    fn before_wave(&self, wave_index: usize, atoms: usize) {
        let wait_start = Instant::now();
        self.inner.before_wave(wave_index, atoms);
        let wait_end = Instant::now();
        self.waves.lock().expect("wave log lock").push(WaveTiming {
            index: wave_index,
            wait_start,
            wait_end,
            end: None,
        });
    }

    fn after_wave(&self, wave_index: usize) {
        let end = Instant::now();
        if let Some(w) = self
            .waves
            .lock()
            .expect("wave log lock")
            .iter_mut()
            .rev()
            .find(|w| w.index == wave_index && w.end.is_none())
        {
            w.end = Some(end);
        }
        self.inner.after_wave(wave_index);
    }
}

/// Clears the job's cancel token from the session gate on every exit, as
/// the server's own session does.
struct ClearGate(Arc<JobGate>);

impl Drop for ClearGate {
    fn drop(&mut self) {
        self.0.set_cancel(None);
    }
}

/// Timings a replayed job brings back from its worker thread.
struct JobTrace {
    started: Instant,
    optimize: (Instant, Instant),
    execute: (Instant, Instant),
    copy: Option<(Instant, Instant)>,
    waves: Vec<WaveTiming>,
    atoms: Vec<AtomStats>,
    waves_run: usize,
    retries: usize,
    rows: Result<Vec<Record>, String>,
}

/// What the replay measured for one request, beyond its spans.
#[derive(Default)]
struct ReplayCall {
    planned: bool,
    is_query: bool,
    queue_wait_ns: u64,
    wave_wait_ns: u64,
    rejected: bool,
    waves: usize,
    atoms: Vec<AtomStats>,
    retries: usize,
    platforms: Vec<String>,
    rows: Option<Vec<u8>>,
    error: Option<String>,
}

/// One replay session: the state `run_session` keeps per connection.
struct ReplaySession {
    tenant: String,
    ctx: RheemContext,
    gate: Arc<TimedGate>,
    job_gate: Arc<JobGate>,
    catalog: QueryCatalog,
    statements: HashMap<String, Arc<PlannedQuery>>,
}

/// Shared replay substrate: the server's hub and cache, plus a job service
/// and fair-share scheduler at their `ServerConfig` defaults.
struct Replay {
    base: RheemContext,
    plan_cache: Arc<PlanCache>,
    scheduler: Arc<FairShareScheduler>,
    service: JobService,
}

impl Replay {
    fn new(observability: Arc<Observability>, plan_cache: Arc<PlanCache>) -> Self {
        let config = ServerConfig::default();
        Replay {
            base: rheem_platforms::full_context().with_observability(observability),
            plan_cache,
            scheduler: FairShareScheduler::new(config.wave_slots),
            service: JobService::start(config.service, Arc::new(MetricsRegistry::new())),
        }
    }

    fn session(&self, tenant: &str, scope: u64, tables: Vec<Table>) -> ReplaySession {
        let job_gate = self.scheduler.gate(tenant);
        let gate = Arc::new(TimedGate {
            inner: job_gate.clone(),
            waves: Mutex::new(Vec::new()),
        });
        let ctx = self
            .base
            .clone()
            .with_plan_cache(self.plan_cache.clone())
            .with_cache_scope(scope)
            .with_wave_gate(gate.clone());
        let mut catalog = QueryCatalog::new();
        for t in tables {
            catalog.register(t.name, t.schema, t.rows);
        }
        ReplaySession {
            tenant: tenant.to_string(),
            ctx,
            gate,
            job_gate,
            catalog,
            statements: HashMap::new(),
        }
    }

    /// Serve one encoded request body the way the server's session does,
    /// recording spans under a `server.request` root.
    fn serve(&self, s: &mut ReplaySession, body: &[u8], rec: &mut Recorder, id: u64) -> ReplayCall {
        let mut call = ReplayCall::default();
        // `query::parse` is timed by a separate call on the same text
        // before the root opens, and placed inside `query.plan` below.
        let parse_ns = match Request::decode(body) {
            Ok(Request::Query { sql, .. }) if !s.statements.contains_key(&sql) => {
                let t = Instant::now();
                let _ = std::hint::black_box(parse(&sql));
                Some(t.elapsed().as_nanos() as u64)
            }
            _ => None,
        };
        let t_root = Instant::now();
        let t0 = Instant::now();
        let request = Request::decode(body);
        let mut children = vec![("protocol.request_decode", t0, Instant::now())];
        let mut job = None;
        let response = match request {
            Ok(Request::Register { name, schema, rows }) => {
                let t0 = Instant::now();
                s.catalog.register(name, schema, rows);
                // Cached statements captured the replaced table's data.
                s.statements.clear();
                children.push(("server.register", t0, Instant::now()));
                Response::Ok
            }
            Ok(Request::Query { sql, deadline_ms }) => {
                call.is_query = true;
                let (response, trace) = self.query(s, &sql, deadline_ms, &mut call, &mut children);
                job = trace;
                response
            }
            Ok(other) => Response::Err {
                message: format!("replay does not serve {other:?}"),
            },
            Err(e) => Response::Err {
                message: e.to_string(),
            },
        };
        let t0 = Instant::now();
        let encoded = std::hint::black_box(response.encode());
        let t1 = Instant::now();
        children.push(("protocol.response_encode", t0, t1));
        let root = rec.record("server.request", None, id, t_root, t1);
        drop(encoded);
        let mut job_span = None;
        for (name, a, b) in children {
            let sid = rec.record(name, Some(root), id, a, b);
            match (name, parse_ns) {
                ("query.plan", Some(p)) => {
                    let start = rec.at(a);
                    let end = (start + p).min(rec.at(b));
                    rec.push("query.parse".into(), Some(sid), id, start, end, true);
                }
                ("service.job", _) => job_span = Some(sid),
                _ => {}
            }
        }
        if let (Some(span), Some(trace)) = (job_span, job) {
            record_job(rec, id, span, trace, &mut call);
        }
        match response {
            Response::Rows { rows, .. } => call.rows = Some(encode_rows(&rows)),
            Response::Err { message } => {
                call.rejected = message.starts_with("rejected:");
                call.error = Some(message);
            }
            _ => {}
        }
        call
    }

    /// The query path of `handle_query`: statement cache, planning,
    /// admission, then optimize + execute + result copy on a worker.
    fn query(
        &self,
        s: &mut ReplaySession,
        sql: &str,
        deadline_ms: Option<u64>,
        call: &mut ReplayCall,
        children: &mut Vec<(&'static str, Instant, Instant)>,
    ) -> (Response, Option<JobTrace>) {
        let t0 = Instant::now();
        let cached = s.statements.get(sql).cloned();
        children.push(("server.statement_cache", t0, Instant::now()));
        let planned = match cached {
            Some(p) => p,
            None => {
                call.planned = true;
                let t0 = Instant::now();
                let planned = s.catalog.plan(sql);
                children.push(("query.plan", t0, Instant::now()));
                match planned {
                    Ok(p) => {
                        let p = Arc::new(p);
                        s.statements.insert(sql.to_string(), p.clone());
                        p
                    }
                    Err(e) => {
                        let message = format!("planning failed: {e}");
                        return (Response::Err { message }, None);
                    }
                }
            }
        };
        let job_ctx = s.ctx.clone();
        let job_planned = planned.clone();
        let job_gate = s.job_gate.clone();
        let gate = s.gate.clone();
        let t_submit = Instant::now();
        let submitted = self.service.submit_handle(
            &s.tenant,
            deadline_ms.map(Duration::from_millis),
            move |run| {
                let started = Instant::now();
                job_gate.set_cancel(Some(run.cancel.clone()));
                let _clear = ClearGate(job_gate.clone());
                let mut job_ctx = job_ctx.with_cancel_token(run.cancel.clone());
                if let Some(remaining) = run.remaining {
                    job_ctx = job_ctx.with_timeout(remaining);
                }
                gate.waves.lock().expect("wave log lock").clear();
                let o0 = Instant::now();
                let exec = job_ctx.optimize_logical(&job_planned.logical);
                let o1 = Instant::now();
                let mut trace = JobTrace {
                    started,
                    optimize: (o0, o1),
                    execute: (o1, o1),
                    copy: None,
                    waves: Vec::new(),
                    atoms: Vec::new(),
                    waves_run: 0,
                    retries: 0,
                    rows: Ok(Vec::new()),
                };
                let job = exec.and_then(|exec| {
                    let e0 = Instant::now();
                    let job = job_ctx.execute_plan(&exec);
                    trace.execute = (e0, Instant::now());
                    job
                });
                trace.waves = std::mem::take(&mut *gate.waves.lock().expect("wave log lock"));
                match job {
                    Err(e) => trace.rows = Err(format!("execution failed: {e}")),
                    Ok(job) => {
                        let c0 = Instant::now();
                        let rows = job
                            .outputs
                            .get(&job_planned.sink)
                            .map(|d| d.records().to_vec())
                            .unwrap_or_default();
                        trace.copy = Some((c0, Instant::now()));
                        trace.waves_run = job.stats.waves;
                        trace.retries = job.stats.retries;
                        trace.atoms = job.stats.atoms;
                        trace.rows = Ok(rows);
                    }
                }
                trace
            },
        );
        let handle = match submitted {
            Ok(handle) => handle,
            Err(admission) => {
                children.push(("service.job", t_submit, Instant::now()));
                let message = format!("rejected: {admission}");
                return (Response::Err { message }, None);
            }
        };
        // The session polls like the server's (which also peeks the
        // socket between polls); completion wakes the wait immediately.
        let result = loop {
            if let Some(r) = handle.wait_timeout(Duration::from_millis(25)) {
                break r;
            }
        };
        children.push(("service.job", t_submit, Instant::now()));
        match result {
            Err(admission) => {
                let message = format!("rejected: {admission}");
                (Response::Err { message }, None)
            }
            Ok(mut trace) => {
                call.queue_wait_ns = ns(t_submit, trace.started);
                let response = match std::mem::replace(&mut trace.rows, Ok(Vec::new())) {
                    Ok(rows) => Response::Rows {
                        schema: planned.schema.clone(),
                        rows,
                    },
                    Err(message) => Response::Err { message },
                };
                (response, Some(trace))
            }
        }
    }
}

/// Nanoseconds from `a` to `b` (0 when `b` is earlier).
fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Operator family of a kernel: its display name up to the first `(`.
pub fn family(op: &str) -> &str {
    op.split('(').next().unwrap_or(op)
}

/// Record a replayed job's worker-side spans under its `service.job` span:
/// optimize, execute (with wave waits, and atoms and kernels placed from
/// the durations the executor reported), and the result copy.
fn record_job(rec: &mut Recorder, id: u64, job_span: u64, trace: JobTrace, call: &mut ReplayCall) {
    rec.record(
        "optimizer.optimize",
        Some(job_span),
        id,
        trace.optimize.0,
        trace.optimize.1,
    );
    let exec = rec.record(
        "executor.execute",
        Some(job_span),
        id,
        trace.execute.0,
        trace.execute.1,
    );
    if let Some((a, b)) = trace.copy {
        rec.record("server.result_copy", Some(job_span), id, a, b);
    }
    for w in &trace.waves {
        rec.record(
            "scheduler.wave_wait",
            Some(exec),
            id,
            w.wait_start,
            w.wait_end,
        );
        call.wave_wait_ns += ns(w.wait_start, w.wait_end);
    }
    // Atoms are laid end to end from their wave's start (when its gate
    // opened), kernels end to end inside their atom, each clipped to the
    // interval that holds it. Laying a wave's parallel atoms end to end
    // keeps siblings from overlapping, so self times still partition the
    // request; whatever of a parallel wave does not fit is not attributed.
    let (exec_start, exec_end) = (rec.at(trace.execute.0), rec.at(trace.execute.1));
    let mut cursors: HashMap<usize, u64> = HashMap::new();
    for atom in &trace.atoms {
        let wave = trace.waves.iter().find(|w| w.index == atom.wave);
        let (wave_start, limit) = match wave {
            Some(w) => (rec.at(w.wait_end), w.end.map_or(exec_end, |e| rec.at(e))),
            None => (exec_start, exec_end),
        };
        let start = *cursors.entry(atom.wave).or_insert(wave_start);
        let end = (start + atom.wall.as_nanos() as u64).min(limit);
        cursors.insert(atom.wave, end);
        let name = format!("platforms.{}.atom", atom.platform);
        let atom_span = rec.push(name, Some(exec), id, start, end, true);
        let mut cursor = start;
        for obs in &atom.node_observations {
            let k_end = (cursor + (obs.elapsed_ms.max(0.0) * 1e6) as u64).min(end);
            let name = format!("kernels.{}", family(&obs.op));
            rec.push(name, Some(atom_span), id, cursor, k_end, true);
            cursor = k_end;
        }
    }
    let mut platforms: Vec<String> = trace.atoms.iter().map(|a| a.platform.clone()).collect();
    platforms.sort();
    platforms.dedup();
    call.platforms = platforms;
    call.waves = trace.waves_run;
    call.retries = trace.retries;
    call.atoms = trace.atoms;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Everything measured for one request of the traced sequence.
struct TracedRequest {
    wire: WireCall,
    replay: ReplayCall,
    /// Self time per layer over both sides, excluding the wire wait.
    layers: BTreeMap<&'static str, u64>,
    roundtrip: u64,
    wait: u64,
    unattributed: i64,
    /// Named span durations summed per request (`name -> ns`).
    durations: HashMap<String, u64>,
    executor_self: u64,
    glue: u64,
}

/// Per-session output of the traced wire pass.
type WirePass = (Vec<WireCall>, Vec<Span>, Tally);

/// Run the traced passes and derive the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let mut sessions: Vec<Session> = (0..workload.sessions())
        .map(|i| Session::new(workload, seed, i))
        .collect();
    let tenants: Vec<String> = sessions.iter().map(|s| s.tenant.clone()).collect();
    let tables: Vec<Vec<Table>> = sessions.iter().map(|s| s.tables.clone()).collect();
    let replay_sessions = sessions.clone();

    let mut server = RheemServer::start(ServerConfig::default()).expect("start the server");
    let addr = server.addr();
    let mut tally = Tally::default();
    let mut conns: Vec<Conn> = Vec::new();
    for s in sessions.iter_mut() {
        let mut conn = Conn::connect(addr, &s.tenant);
        let steps: Vec<Step> = std::mem::take(&mut s.tables)
            .into_iter()
            .map(|table| Step::Register {
                label: "register_setup",
                table,
            })
            .chain((0..workload.pass_len()).map(|_| s.next_step()))
            .collect();
        for step in steps {
            let (label, request, expected) = to_request(step);
            let reply = conn.call(&request);
            tally.add(judge_reply(label, &reply, expected.as_deref()));
        }
        conns.push(conn);
    }

    // Pass 1: untraced, for `seconds / 3`; fixes each session's length.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 3.0);
    let untraced: Vec<(Vec<f64>, Tally)> = std::thread::scope(|sc| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(sessions.iter().cloned())
            .map(|(conn, mut session)| {
                sc.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut t = Tally::default();
                    while Instant::now() < deadline {
                        let (label, request, expected) = to_request(session.next_step());
                        let t0 = Instant::now();
                        let reply = conn.call(&request);
                        latencies.push(t0.elapsed().as_nanos() as f64);
                        t.add(judge_reply(label, &reply, expected.as_deref()));
                    }
                    (latencies, t)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("untraced pass"))
            .collect()
    });
    let lengths: Vec<usize> = untraced.iter().map(|(l, _)| l.len()).collect();
    let untraced_ns: Vec<f64> = untraced.iter().flat_map(|(l, _)| l.clone()).collect();
    for (_, t) in untraced {
        tally.merge(t);
    }

    // Pass 2: the same requests, traced.
    let epoch = Instant::now();
    let before = ServerCounters::read(&server, &tenants);
    let grant_seq = server.scheduler().grant_log().last().map_or(0, |g| g.seq);
    let wire: Vec<WirePass> = std::thread::scope(|sc| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(sessions.iter().cloned())
            .enumerate()
            .map(|(i, (conn, mut session))| {
                let n = lengths[i];
                sc.spawn(move || {
                    let mut rec = Recorder::new(epoch, i as u64 + 1);
                    let mut calls = Vec::new();
                    let mut t = Tally::default();
                    for position in 0..n {
                        let id = request_id(i, position);
                        let (label, request, expected) = to_request(session.next_step());
                        let (reply, request_bytes, response_bytes) =
                            conn.call_traced(&request, &mut rec, id);
                        t.add(judge_reply(label, &reply, expected.as_deref()));
                        let rows = match &reply {
                            Ok(Response::Rows { rows, .. }) => Some(encode_rows(rows)),
                            _ => None,
                        };
                        calls.push(WireCall {
                            label,
                            request: id,
                            request_bytes,
                            response_bytes,
                            rows,
                        });
                    }
                    (calls, rec.spans, t)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("traced pass"))
            .collect()
    });
    let wire_counters = ServerCounters::read(&server, &tenants).since(&before);
    let grants: Vec<_> = server
        .scheduler()
        .grant_log()
        .into_iter()
        .filter(|g| g.seq > grant_seq)
        .collect();
    let switches = grants
        .windows(2)
        .filter(|p| p[0].tenant != p[1].tenant)
        .count();
    for conn in conns.iter_mut() {
        let _ = conn.call(&Request::Goodbye);
    }

    // Pass 3: the same requests through the server's building blocks.
    let replay = Replay::new(server.observability().clone(), server.plan_cache().clone());
    let before_replay = ServerCounters::read(&server, &tenants);
    let replayed: Vec<(Vec<ReplayCall>, Vec<Span>, usize)> = std::thread::scope(|sc| {
        let threads: Vec<_> = replay_sessions
            .into_iter()
            .zip(tables)
            .enumerate()
            .map(|(i, (mut session, tables))| {
                let n = lengths[i];
                let replay = &replay;
                sc.spawn(move || {
                    let mut state = replay.session(&session.tenant, (1 << 40) + i as u64, tables);
                    let mut scratch = Recorder::new(epoch, 0);
                    let warmup_jobs = (0..workload.pass_len())
                        .filter(|_| {
                            let (_, request, _) = to_request(session.next_step());
                            let body = request.encode();
                            replay.serve(&mut state, &body, &mut scratch, 0).is_query
                        })
                        .count();
                    let mut rec = Recorder::new(epoch, 64 + i as u64);
                    let calls = (0..n)
                        .map(|position| {
                            let (_, request, _) = to_request(session.next_step());
                            let body = request.encode();
                            replay.serve(&mut state, &body, &mut rec, request_id(i, position))
                        })
                        .collect();
                    (calls, rec.spans, warmup_jobs)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay"))
            .collect()
    });
    let replay_counters = ServerCounters::read(&server, &tenants).since(&before_replay);
    replay.service.shutdown();
    server.shutdown();

    // Join both sides per request.
    let mut wire_calls = Vec::new();
    let mut wire_spans = Vec::new();
    let mut rejected = 0;
    for (calls, spans, t) in wire {
        wire_calls.extend(calls);
        wire_spans.extend(spans);
        rejected += t.rejected;
        tally.merge(t);
    }
    let mut replay_calls = Vec::new();
    let mut server_spans = Vec::new();
    let mut warmup_jobs = 0;
    for (calls, spans, warmup) in replayed {
        replay_calls.extend(calls);
        server_spans.extend(spans);
        warmup_jobs += warmup;
    }
    // Cross-check on the server's own counters: the replay ran exactly the
    // wire pass's jobs plus its own warm-up pass.
    let jobs = "executor.jobs_completed";
    let jobs_consistent = replay_counters.get(jobs) == wire_counters.get(jobs) + warmup_jobs as u64;
    println!(
        "cross-check: {} jobs on the wire, {} in the replay ({warmup_jobs} of them warm-up)",
        wire_counters.get(jobs),
        replay_counters.get(jobs)
    );
    let requests = join_requests(wire_calls, replay_calls, &wire_spans, &server_spans);

    // Replay results must be byte-identical to the wire's.
    let mut mismatched = 0;
    let mut replay_tally = Tally::default();
    for r in &requests {
        let outcome = match (&r.replay.error, r.wire.rows == r.replay.rows) {
            (Some(e), _) if r.replay.rejected => Outcome::Rejected(format!("replay: {e}")),
            (Some(e), _) => Outcome::Failed(format!("replay {}: {e}", r.wire.label)),
            (None, true) => Outcome::Ok,
            (None, false) => {
                mismatched += 1;
                Outcome::Failed(format!(
                    "replay {}: rows differ from the wire",
                    r.wire.label
                ))
            }
        };
        replay_tally.add(outcome);
    }
    rejected += replay_tally.rejected;
    tally.merge(replay_tally);

    let labels: HashMap<u64, String> = requests
        .iter()
        .map(|r| (r.wire.request, r.wire.label.to_string()))
        .collect();
    let spans_path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let tagged: Vec<(String, &'static str, Span)> = wire_spans
        .into_iter()
        .map(|s| ("wire", s))
        .chain(server_spans.into_iter().map(|s| ("server", s)))
        .map(|(side, s)| (labels.get(&s.request).cloned().unwrap_or_default(), side, s))
        .collect();
    let spans_written =
        std::fs::create_dir_all(out_dir).and_then(|()| trace::write_jsonl(&spans_path, &tagged));
    match spans_written {
        Ok(()) => println!("spans: {} ({} spans)", spans_path.display(), tagged.len()),
        Err(e) => println!("spans: could not write {}: {e}", spans_path.display()),
    }

    let breakdown = print_breakdown(workload, &requests);
    let metrics = layer_metrics(
        &requests,
        &untraced_ns,
        &wire_counters,
        switches,
        grants.len(),
        rejected,
    );
    println!(
        "server counters (traced wire pass): {}",
        wire_counters.json()
    );
    println!(
        "server counters (replay):           {}",
        replay_counters.json()
    );
    for f in &tally.failures {
        println!("failure: {f}");
    }
    let adds_up = breakdown.iter().all(|(_, gap)| gap.abs() < 1e-6);
    let rows: Vec<&str> = breakdown.iter().map(|(json, _)| json.as_str()).collect();
    RunResult {
        correct: tally.failed == 0 && adds_up && jobs_consistent,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        details: vec![
            ("samples".into(), requests.len().to_string()),
            ("sessions_lengths".into(), format!("{lengths:?}")),
            ("rows_identical".into(), (mismatched == 0).to_string()),
            ("replay_row_mismatches".into(), mismatched.to_string()),
            ("breakdown_adds_up".into(), adds_up.to_string()),
            ("jobs_consistent".into(), jobs_consistent.to_string()),
            (
                "breakdown_ms".into(),
                format!("[\n    {}\n  ]", rows.join(",\n    ")),
            ),
            ("server_counters_wire".into(), wire_counters.json()),
            ("server_counters_replay".into(), replay_counters.json()),
            ("spans_file".into(), format!("\"{}\"", spans_path.display())),
        ],
    }
}

/// Pair each wire request with its replay and compute its layer split.
fn join_requests(
    wire: Vec<WireCall>,
    replay: Vec<ReplayCall>,
    wire_spans: &[Span],
    server_spans: &[Span],
) -> Vec<TracedRequest> {
    let mut by_request: HashMap<u64, (Vec<Span>, Vec<Span>)> = HashMap::new();
    for s in wire_spans {
        by_request.entry(s.request).or_default().0.push(s.clone());
    }
    for s in server_spans {
        by_request.entry(s.request).or_default().1.push(s.clone());
    }
    wire.into_iter()
        .zip(replay)
        .map(|(w, r)| {
            let (ws, ss) = by_request.remove(&w.request).unwrap_or_default();
            let find = |spans: &[Span], name: &str| {
                spans
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0, Span::duration)
            };
            let roundtrip = find(&ws, "protocol.client_call");
            let wait = find(&ws, "protocol.roundtrip_wait");
            let server_total = find(&ss, "server.request");
            let mut layers: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
            let mut durations: HashMap<String, u64> = HashMap::new();
            let wire_self = trace::self_times(&ws);
            let server_self = trace::self_times(&ss);
            let mut executor_self = 0;
            let mut glue = 0;
            for (s, own) in ws
                .iter()
                .map(|s| (s, wire_self[&s.id]))
                .chain(ss.iter().map(|s| (s, server_self[&s.id])))
            {
                *durations.entry(s.name.clone()).or_default() += s.duration();
                if s.name == "protocol.roundtrip_wait" {
                    continue;
                }
                if s.name == "executor.execute" {
                    executor_self += own;
                }
                if s.layer() == "platforms" {
                    glue += own;
                }
                if let Some(v) = LAYERS
                    .iter()
                    .find(|l| **l == s.layer())
                    .and_then(|l| layers.get_mut(l))
                {
                    *v += own;
                }
            }
            TracedRequest {
                wire: w,
                replay: r,
                layers,
                roundtrip,
                wait,
                unattributed: trace::unattributed_ns(wait, server_total),
                durations,
                executor_self,
                glue,
            }
        })
        .collect()
}

/// Print the per-statement breakdown (mean ms per request) and return,
/// per statement, a JSON row and the relative gap between the layer sum
/// and the measured round trip.
fn print_breakdown(workload: Workload, requests: &[TracedRequest]) -> Vec<(String, f64)> {
    let mut by_label: BTreeMap<&str, Vec<&TracedRequest>> = BTreeMap::new();
    for r in requests {
        by_label.entry(r.wire.label).or_default().push(r);
    }
    println!(
        "breakdown ({}): mean ms per request; layer self times + unattributed = round trip",
        workload.name()
    );
    let mut header = format!("{:<20} {:>5} {:>9}", "statement", "n", "roundtrip");
    for l in LAYERS {
        header.push_str(&format!(" {:>9}", l));
    }
    header.push_str(&format!(" {:>12} {:>9}", "unattributed", "sum"));
    println!("{header}");
    let mut out = Vec::new();
    for (label, rs) in by_label {
        let n = rs.len() as f64;
        let mean_ms =
            |f: &dyn Fn(&TracedRequest) -> f64| rs.iter().map(|r| f(r)).sum::<f64>() / n / 1e6;
        let roundtrip = mean_ms(&|r| r.roundtrip as f64);
        let unattributed = mean_ms(&|r| r.unattributed as f64);
        let layer_ms: Vec<f64> = LAYERS
            .iter()
            .map(|l| mean_ms(&|r| r.layers[l] as f64))
            .collect();
        let sum = layer_ms.iter().sum::<f64>() + unattributed;
        let mut line = format!("{label:<20} {:>5} {roundtrip:>9.3}", rs.len());
        for v in &layer_ms {
            line.push_str(&format!(" {v:>9.3}"));
        }
        line.push_str(&format!(" {unattributed:>12.3} {sum:>9.3}"));
        println!("{line}");
        let layer_json: Vec<String> = LAYERS
            .iter()
            .zip(&layer_ms)
            .map(|(l, v)| format!("\"{l}\": {}", num(*v)))
            .collect();
        let json = format!(
            "{{\"statement\": \"{label}\", \"requests\": {}, \"roundtrip_ms\": {}, {}, \
             \"unattributed_ms\": {}}}",
            rs.len(),
            num(roundtrip),
            layer_json.join(", "),
            num(unattributed)
        );
        out.push((json, (sum - roundtrip) / roundtrip.max(1e-9)));
    }
    out
}

/// The per-layer metrics of `BENCHMARK.json`, from the joined requests.
fn layer_metrics(
    requests: &[TracedRequest],
    untraced_ns: &[f64],
    wire_counters: &ServerCounters,
    grant_switches: usize,
    grants: usize,
    rejected: usize,
) -> Vec<Metric> {
    let n = requests.len().max(1) as f64;
    let mean = |f: &dyn Fn(&TracedRequest) -> f64| requests.iter().map(f).sum::<f64>() / n;
    let span_us = |name: &'static str| mean(&|r| *r.durations.get(name).unwrap_or(&0) as f64) / 1e3;
    let queries = requests.iter().filter(|r| r.replay.is_query).count().max(1) as f64;
    let planned = requests.iter().filter(|r| r.replay.planned).count() as f64;
    let parse_us = span_us("query.parse");
    let lookups = (wire_counters.get("plan_cache.hits") + wire_counters.get("plan_cache.misses"))
        .max(1) as f64;
    let traced_ns: Vec<f64> = requests.iter().map(|r| r.roundtrip as f64).collect();
    let overhead = {
        let base = stats::median(untraced_ns);
        (stats::median(&traced_ns) - base) / base.max(1.0) * 100.0
    };

    // Platform switches: a statement's executed platform set changing
    // between consecutive runs of it within a session.
    let mut last: HashMap<(u64, &str), &Vec<String>> = HashMap::new();
    let mut switches = 0;
    for r in requests.iter().filter(|r| !r.replay.platforms.is_empty()) {
        let key = (r.wire.request >> 32, r.wire.label);
        if last
            .insert(key, &r.replay.platforms)
            .is_some_and(|p| *p != r.replay.platforms)
        {
            switches += 1;
        }
    }

    let atoms: Vec<&AtomStats> = requests.iter().flat_map(|r| &r.replay.atoms).collect();
    let wall_total: f64 = atoms.iter().map(|a| a.wall.as_nanos() as f64).sum();
    let observations: Vec<_> = atoms.iter().flat_map(|a| &a.node_observations).collect();
    let kernel_ns: f64 = observations.iter().map(|o| o.elapsed_ms * 1e6).sum();
    let rows_out: f64 = observations.iter().map(|o| o.records_out as f64).sum();
    let morsels: f64 = observations.iter().map(|o| o.morsels as f64).sum();

    let mut m = vec![
        Metric::new(
            "protocol.request_encode_us",
            "us",
            span_us("protocol.request_encode"),
        ),
        Metric::new(
            "protocol.response_decode_us",
            "us",
            span_us("protocol.response_decode"),
        ),
        Metric::new(
            "protocol.request_decode_us",
            "us",
            span_us("protocol.request_decode"),
        ),
        Metric::new(
            "protocol.response_encode_us",
            "us",
            span_us("protocol.response_encode"),
        ),
        Metric::new(
            "protocol.request_bytes",
            "bytes",
            mean(&|r| r.wire.request_bytes as f64),
        ),
        Metric::new(
            "protocol.response_bytes",
            "bytes",
            mean(&|r| r.wire.response_bytes as f64),
        ),
        Metric::new(
            "protocol.roundtrip_wait_ms",
            "ms",
            mean(&|r| r.wait as f64) / 1e6,
        ),
        Metric::new(
            "server.unattributed_ms",
            "ms",
            mean(&|r| r.unattributed as f64) / 1e6,
        ),
        Metric::new("server.result_copy_us", "us", span_us("server.result_copy")),
        Metric::new("server.trace_overhead_pct", "%", overhead),
        Metric::new("query.parse_us", "us", parse_us),
        Metric::new("query.plan_us", "us", span_us("query.plan") - parse_us),
        Metric::new("query.plan_rate", "ratio", planned / queries),
        Metric::new("optimizer.optimize_us", "us", span_us("optimizer.optimize")),
        Metric::new(
            "optimizer.plan_cache_hit_rate",
            "ratio",
            wire_counters.get("plan_cache.hits") as f64 / lookups,
        ),
        Metric::new(
            "optimizer.plan_cache_invalidations",
            "per100",
            wire_counters.get("plan_cache.invalidations") as f64 / lookups * 100.0,
        ),
        Metric::new(
            "optimizer.plan_cache_entries",
            "count",
            wire_counters.get("plan_cache.entries") as f64,
        ),
        Metric::new("optimizer.platform_switches", "count", switches as f64),
        Metric::new(
            "service.queue_wait_us",
            "us",
            mean(&|r| r.replay.queue_wait_ns as f64) / 1e3,
        ),
        Metric::new(
            "service.rejected_rate",
            "ratio",
            rejected as f64 / (2.0 * queries),
        ),
        Metric::new(
            "scheduler.wave_wait_us",
            "us",
            mean(&|r| r.replay.wave_wait_ns as f64) / 1e3,
        ),
        Metric::new(
            "scheduler.grant_switches",
            "per100",
            grant_switches as f64 / grants.saturating_sub(1).max(1) as f64 * 100.0,
        ),
        Metric::new("executor.execute_us", "us", span_us("executor.execute")),
        Metric::new("executor.waves", "count", mean(&|r| r.replay.waves as f64)),
        Metric::new(
            "executor.atoms",
            "count",
            mean(&|r| r.replay.atoms.len() as f64),
        ),
        Metric::new(
            "executor.retries",
            "count",
            mean(&|r| r.replay.retries as f64),
        ),
        Metric::new(
            "executor.self_us",
            "us",
            mean(&|r| r.executor_self as f64) / 1e3,
        ),
        Metric::new("platforms.atom_wall_us", "us", wall_total / n / 1e3),
        Metric::new("platforms.glue_us", "us", mean(&|r| r.glue as f64) / 1e3),
    ];
    for p in PLATFORMS {
        let on_p: f64 = atoms
            .iter()
            .filter(|a| a.platform == p)
            .map(|a| a.wall.as_nanos() as f64)
            .sum();
        m.push(Metric::new(
            format!("platforms.{p}.atom_share"),
            "ratio",
            on_p / wall_total.max(1.0),
        ));
    }
    m.push(Metric::new("kernels.kernel_us", "us", kernel_ns / n / 1e3));
    m.push(Metric::new(
        "kernels.ns_per_row",
        "ns",
        kernel_ns / rows_out.max(1.0),
    ));
    m.push(Metric::new(
        "kernels.morsels_per_kernel",
        "count",
        morsels / observations.len().max(1) as f64,
    ));
    let mut other = 0.0;
    let mut per_family: BTreeMap<&str, f64> = KERNEL_FAMILIES.iter().map(|f| (*f, 0.0)).collect();
    for o in &observations {
        match per_family.get_mut(family(&o.op)) {
            Some(v) => *v += o.elapsed_ms * 1e6,
            None => other += o.elapsed_ms * 1e6,
        }
    }
    for f in KERNEL_FAMILIES {
        m.push(Metric::new(
            format!("kernels.{f}_us"),
            "us",
            per_family[f] / n / 1e3,
        ));
    }
    m.push(Metric::new("kernels.other_us", "us", other / n / 1e3));
    m
}
