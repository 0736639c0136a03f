//! End-to-end smoke test: start a server, run two concurrent tenant
//! sessions against it over real sockets, and shut it down cleanly.

use std::time::{Duration, Instant};

use rheem_core::query::QueryCatalog;
use rheem_core::{DataType, KernelParallelism, PlanCacheConfig, Record, Schema, Value};
use rheem_server::protocol::encode_rows;
use rheem_server::{Client, RheemServer, ServerConfig};

fn sales_schema() -> Schema {
    Schema::new(vec![("region", DataType::Str), ("amount", DataType::Int)])
}

fn sales_rows(seed: i64) -> Vec<Record> {
    (0..40)
        .map(|i| {
            Record::new(vec![
                Value::str(if i % 2 == 0 { "east" } else { "west" }),
                Value::Int(seed + i),
            ])
        })
        .collect()
}

#[test]
fn two_concurrent_sessions_query_independently_and_shutdown_is_clean() {
    // A huge drift threshold keeps early cost-calibration swings from
    // invalidating entries mid-test: this test pins down the caching and
    // fairness mechanics; drift invalidation has its own tests.
    let config = ServerConfig {
        cache: PlanCacheConfig {
            drift_threshold: 1e12,
            ..PlanCacheConfig::default()
        },
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let addr = handle.addr();

    let worker = |tenant: &'static str, seed: i64| {
        move || {
            let mut client = Client::connect(addr, tenant).expect("connect");
            client
                .register("sales", sales_schema(), sales_rows(seed))
                .expect("register");
            let sql = "SELECT region, SUM(amount) AS total FROM sales \
                       GROUP BY region ORDER BY region";
            let mut first: Option<Vec<Record>> = None;
            for _ in 0..3 {
                let (schema, rows) = client.query(sql).expect("query");
                assert_eq!(schema.width(), 2);
                assert_eq!(rows.len(), 2, "east and west groups");
                assert_eq!(rows[0].str(0).unwrap(), "east");
                assert_eq!(rows[1].str(0).unwrap(), "west");
                match &first {
                    None => first = Some(rows),
                    // Repeated executions of the same statement (which may
                    // be plan-cache hits) must return identical rows.
                    Some(expected) => assert_eq!(&rows, expected),
                }
            }
            let stats = client.stats().expect("stats");
            assert!(
                stats.contains(&format!("server.tenant.{tenant}.completed 3")),
                "missing tenant counter in:\n{stats}"
            );
            client.goodbye().expect("goodbye");
            first.unwrap()
        }
    };

    let (alpha_rows, beta_rows) = std::thread::scope(|s| {
        let alpha = s.spawn(worker("alpha", 0));
        let beta = s.spawn(worker("beta", 1000));
        (alpha.join().unwrap(), beta.join().unwrap())
    });
    // Same query shape, different data per session: results must differ
    // (no cross-session leakage through the plan cache).
    assert_ne!(alpha_rows, beta_rows);

    // Fair-share evidence: both tenants were granted waves.
    let granted = handle.scheduler().granted_waves();
    assert!(granted.get("alpha").copied().unwrap_or(0) > 0);
    assert!(granted.get("beta").copied().unwrap_or(0) > 0);

    // The repeated statements hit the shared plan cache.
    let cache = handle.plan_cache().stats();
    assert!(
        cache.hits >= 4,
        "expected >= 4 plan-cache hits (2 per session), got {cache:?}"
    );

    handle.shutdown();
    // Idempotent and clean: a second shutdown is a no-op, and new
    // connections are refused or dropped without a session.
    handle.shutdown();
    assert!(Client::connect(addr, "late").is_err());
}

#[test]
fn malformed_and_unadmitted_requests_get_clean_errors() {
    let mut handle = RheemServer::start(ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    // Querying an unregistered table is a planning error, not a hangup.
    let mut client = Client::connect(addr, "gamma").expect("connect");
    let err = client.query("SELECT x FROM nowhere").unwrap_err();
    assert!(err.to_string().contains("unknown table"), "{err}");

    // The session survives the error and still serves valid requests.
    client
        .register(
            "t",
            Schema::new(vec![("x", DataType::Int)]),
            vec![Record::new(vec![Value::Int(5)])],
        )
        .expect("register");
    let (_, rows) = client.query("SELECT x FROM t").expect("query");
    assert_eq!(rows, vec![Record::new(vec![Value::Int(5)])]);
    client.goodbye().expect("goodbye");

    handle.shutdown();
}

#[test]
fn back_to_back_round_trips_do_not_stall_on_the_transport() {
    // A Nagle/delayed-ACK stall costs >= 40 ms per round trip; a healthy
    // loopback STATS round trip is well under a millisecond.
    let mut handle = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr(), "delta").expect("connect");
    let mut samples: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            client.stats().expect("stats");
            t.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median STATS round trip {median:?} (transport stall?)"
    );
    client.goodbye().expect("goodbye");
    handle.shutdown();
}

#[test]
fn concurrent_wave_slots_share_the_kernel_thread_budget() {
    // With one wave slot per kernel thread, every job's share of the
    // budget is a single thread: kernels that would go morsel-parallel
    // at the default budget run sequentially, with identical rows.
    let host_threads = KernelParallelism::default().threads;
    let config = ServerConfig {
        wave_slots: host_threads,
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let schema = Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
    let rows: Vec<Record> = (0..20_000)
        .map(|i| Record::new(vec![Value::Int(i % 97), Value::Int(i)]))
        .collect();
    let sql = "SELECT k, v FROM big WHERE v > 10";

    let mut client = Client::connect(handle.addr(), "epsilon").expect("connect");
    client
        .register("big", schema.clone(), rows.clone())
        .expect("register");
    let metrics = handle.observability().metrics().clone();
    let parallel_before = metrics.counter_value("kernel.parallel.invocations");
    let sequential_before = metrics.counter_value("kernel.parallel.sequential");
    let (_, served) = client.query(sql).expect("query");
    assert_eq!(
        metrics.counter_value("kernel.parallel.invocations"),
        parallel_before,
        "a kernel ran morsel-parallel inside a 1-thread share"
    );
    assert!(metrics.counter_value("kernel.parallel.sequential") > sequential_before);
    client.goodbye().expect("goodbye");
    handle.shutdown();

    let mut catalog = QueryCatalog::new();
    catalog.register("big", schema, rows);
    let planned = catalog.plan(sql).expect("plan");
    let mut job = rheem_platforms::full_context()
        .execute_logical(&planned.logical)
        .expect("direct run");
    let direct = job
        .outputs
        .remove(&planned.sink)
        .expect("sink output")
        .into_records();
    assert_eq!(served.len(), 19_989);
    assert_eq!(encode_rows(&served), encode_rows(&direct));
}
