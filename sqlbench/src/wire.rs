//! The untraced run: a real `RheemServer` with its default config, driven
//! over TCP by one public `Client` per session in a closed loop.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rheem_core::Record;
use rheem_server::{Client, RheemServer, ServerConfig, ServerHandle};

use crate::reference::check;
use crate::workload::{Session, Step, Workload};

/// Times the whole set-up (server start, connect, REGISTER, warm-up pass)
/// is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// How one request ended.
pub enum Outcome {
    /// Reply received and, for a query, rows equal to the reference.
    Ok,
    /// Admission control refused the request.
    Rejected(String),
    /// Error reply, transport error, or wrong rows.
    Failed(String),
}

/// Check a reply against the step's expectation.
pub fn judge(
    step_label: &str,
    reply: Result<Option<(&[Record], &crate::reference::Expected)>, String>,
) -> Outcome {
    match reply {
        Ok(None) => Outcome::Ok,
        Ok(Some((rows, expected))) => match check(expected, rows) {
            Ok(()) => Outcome::Ok,
            Err(why) => Outcome::Failed(format!("{step_label}: wrong result: {why}")),
        },
        Err(message) if message.contains("rejected:") => {
            Outcome::Rejected(format!("{step_label}: {message}"))
        }
        Err(message) => Outcome::Failed(format!("{step_label}: {message}")),
    }
}

/// Send one step through a public client; returns how it ended and its
/// latency in milliseconds (the reply check is not timed).
pub fn run_step(client: &mut Client, step: Step) -> (Outcome, f64) {
    let label = step.label();
    let t = Instant::now();
    match step {
        Step::Register { table, .. } => {
            let reply = client.register(table.name, table.schema, table.rows);
            let latency = ms(t);
            let reply = reply.map(|()| None).map_err(|e| e.to_string());
            (judge(label, reply), latency)
        }
        Step::Query { sql, expected, .. } => {
            let reply = client.query(&sql);
            let latency = ms(t);
            let outcome = match reply {
                Ok((_, rows)) => judge(label, Ok(Some((&rows, &expected)))),
                Err(e) => judge(label, Err(e.to_string())),
            };
            (outcome, latency)
        }
    }
}

/// Tally of requests in one phase.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Requests refused by admission control.
    pub rejected: usize,
    /// Requests failed or answered wrongly (rejections included).
    pub failed: usize,
    /// First few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        let message = match outcome {
            Outcome::Ok => return,
            Outcome::Rejected(m) => {
                self.rejected += 1;
                m
            }
            Outcome::Failed(m) => m,
        };
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }
}

/// The server's own counters, read through its public handle after a
/// phase so the wire run and the traced run can be checked against each
/// other.
#[derive(Clone, Debug, Default)]
pub struct ServerCounters {
    /// `(name, value)` pairs in a fixed order.
    pub values: Vec<(String, u64)>,
}

impl ServerCounters {
    /// Read the plan cache, the scheduler's grant log, and the metrics
    /// registry's job, executor, and kernel counters.
    pub fn read(handle: &ServerHandle, tenants: &[String]) -> Self {
        let cache = handle.plan_cache().stats();
        let log = handle.scheduler().grant_log();
        let switches = log
            .windows(2)
            .filter(|p| p[0].tenant != p[1].tenant)
            .count();
        let metrics = handle.observability().metrics();
        let mut values = vec![
            ("plan_cache.hits".to_string(), cache.hits),
            ("plan_cache.misses".to_string(), cache.misses),
            ("plan_cache.invalidations".to_string(), cache.invalidations),
            ("plan_cache.entries".to_string(), cache.entries as u64),
            (
                "scheduler.total_grants".to_string(),
                handle.scheduler().total_grants(),
            ),
            ("scheduler.grant_log_len".to_string(), log.len() as u64),
            ("scheduler.grant_switches".to_string(), switches as u64),
        ];
        let mut names: Vec<String> = [
            "server.jobs.shed_deadline",
            "server.jobs.cancelled",
            "executor.jobs_completed",
            "executor.atoms_completed",
            "executor.atom_retries",
            "executor.atom_failures",
            "executor.records_in",
            "executor.records_out",
            "executor.cancelled",
            "executor.panics_caught",
            "kernel.parallel.invocations",
            "kernel.parallel.morsels",
            "kernel.parallel.sequential",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for t in tenants {
            for what in ["submitted", "completed", "rejected"] {
                names.push(format!("server.tenant.{t}.{what}"));
            }
        }
        for name in names {
            let v = metrics.counter_value(&name);
            values.push((name, v));
        }
        ServerCounters { values }
    }

    /// One counter's value (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Per-counter difference `self - before`; gauges (cache entries, grant
    /// log length) keep their current value.
    pub fn since(&self, before: &ServerCounters) -> ServerCounters {
        const GAUGES: [&str; 2] = ["plan_cache.entries", "scheduler.grant_log_len"];
        ServerCounters {
            values: self
                .values
                .iter()
                .map(|(n, v)| match GAUGES.contains(&n.as_str()) {
                    true => (n.clone(), *v),
                    false => (n.clone(), v.saturating_sub(before.get(n))),
                })
                .collect(),
        }
    }

    /// As a JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Connect, register the session's tables, and run one warm-up pass.
fn open_session(addr: SocketAddr, session: &mut Session, tally: &mut Tally) -> Client {
    let mut client = Client::connect(addr, &session.tenant).expect("connect to the server");
    for table in std::mem::take(&mut session.tables) {
        let step = Step::Register {
            label: "register_setup",
            table,
        };
        tally.add(run_step(&mut client, step).0);
    }
    for _ in 0..session.workload().pass_len() {
        tally.add(run_step(&mut client, session.next_step()).0);
    }
    client
}

/// A started server with one warmed-up client per session.
pub struct Setup {
    /// The server.
    pub handle: ServerHandle,
    /// One client per session, in session order.
    pub clients: Vec<Client>,
    /// Wall time of the whole set-up.
    pub seconds: f64,
}

/// Start a default-config server and open every session concurrently.
pub fn setup(sessions: &mut [Session], tally: &mut Tally) -> Setup {
    let t0 = Instant::now();
    let handle = RheemServer::start(ServerConfig::default()).expect("start the server");
    let addr = handle.addr();
    let opened: Vec<(Client, Tally)> = std::thread::scope(|s| {
        let threads: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    let c = open_session(addr, session, &mut t);
                    (c, t)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("set-up thread panicked"))
            .collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let mut clients = Vec::new();
    for (c, t) in opened {
        clients.push(c);
        tally.merge(t);
    }
    Setup {
        handle,
        clients,
        seconds,
    }
}

/// Close every client and stop the server.
pub fn teardown(mut setup: Setup) {
    for client in setup.clients {
        let _ = client.goodbye();
    }
    setup.handle.shutdown();
}

/// Everything the untraced run measured.
pub struct WireReport {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every request in the timed phase, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub elapsed_s: f64,
    /// Requests of the timed phase.
    pub tally: Tally,
    /// Requests of the set-up warm-up passes.
    pub setup_tally: Tally,
    /// Server counters over the timed phase.
    pub counters: ServerCounters,
    /// Process high-water RSS at the end.
    pub peak_rss_mb: f64,
}

/// Run `workload` untraced: set up [`SETUP_REPS`] times, then drive the
/// last set-up's sessions in a closed loop for `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> WireReport {
    let pristine: Vec<Session> = (0..workload.sessions())
        .map(|i| Session::new(workload, seed, i))
        .collect();
    let tenants: Vec<String> = pristine.iter().map(|s| s.tenant.clone()).collect();
    let mut setup_tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let mut sessions = pristine.clone();
        let s = setup(&mut sessions, &mut setup_tally);
        setup_s.push(s.seconds);
        if rep + 1 == SETUP_REPS {
            kept = Some((s, sessions));
        } else {
            teardown(s);
        }
    }
    drop(pristine);
    let (mut live, mut sessions) = kept.expect("at least one set-up");
    let before = ServerCounters::read(&live.handle, &tenants);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_session: Vec<(Vec<f64>, Tally)> = std::thread::scope(|s| {
        let threads: Vec<_> = live
            .clients
            .iter_mut()
            .zip(sessions.iter_mut())
            .map(|(client, session)| {
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let (outcome, latency) = run_step(client, session.next_step());
                        latencies.push(latency);
                        tally.add(outcome);
                    }
                    (latencies, tally)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let counters = ServerCounters::read(&live.handle, &tenants).since(&before);
    teardown(live);

    let mut latencies_ms = Vec::new();
    let mut tally = Tally::default();
    for (l, t) in per_session {
        latencies_ms.extend(l);
        tally.merge(t);
    }
    WireReport {
        setup_s,
        latencies_ms,
        elapsed_s,
        tally,
        setup_tally,
        counters,
        peak_rss_mb: crate::host::peak_rss_mb().unwrap_or(0.0),
    }
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
