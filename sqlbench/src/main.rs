//! SQL-over-the-wire benchmark for the RHEEM job server.
//!
//! ```text
//! sqlbench --workload <interactive|analytic|refresh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives a real in-process `RheemServer` (default
//! `ServerConfig`) over TCP with the public `Client`, closed loop, and
//! prints the end-to-end metrics. `--trace 1` replays the same seeded
//! request sequence with benchmark-owned spans around the wire calls and
//! around the server's public building blocks, and prints the per-layer
//! metrics. Every result is checked against a reference computed from the
//! generated rows. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; a run record with host
//! metadata goes to `sqlbench/out/`, and the traced run's spans to a
//! JSON-lines file beside it.

mod host;
mod reference;
mod stats;
mod trace;
mod traced;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use workload::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A finished run: what the last stdout line reports, plus details for
/// the run record.
pub struct RunResult {
    /// Every output matched its reference and nothing failed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed, refused, or answered wrongly.
    pub failed: usize,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Extra JSON fields (`"key": value` pairs) for the run record.
    pub details: Vec<(String, String)>,
}

/// Format a float as JSON (non-finite values and `-0` become `0`).
pub fn num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Directory the run records and span files go to.
fn out_dir() -> PathBuf {
    PathBuf::from("sqlbench").join("out")
}

fn write_record(args: &Args, result: &RunResult) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let mut record = String::from("{\n");
    let _ = writeln!(record, "  \"workload\": \"{}\",", args.workload.name());
    let _ = writeln!(record, "  \"seed\": {},", args.seed);
    let _ = writeln!(record, "  \"trace\": {},", args.trace);
    let _ = writeln!(record, "  \"run_seconds\": {},", num(args.seconds));
    let _ = writeln!(record, "  \"git_commit\": \"{}\",", host::git_commit());
    let _ = writeln!(record, "  \"host\": {},", host::json());
    for (k, v) in &result.details {
        let _ = writeln!(record, "  \"{k}\": {v},");
    }
    let _ = writeln!(record, "  \"correct\": {},", result.correct);
    let _ = writeln!(record, "  \"attempted\": {},", result.attempted);
    let _ = writeln!(record, "  \"failed\": {},", result.failed);
    let _ = writeln!(record, "  \"metrics\": {}", metrics_json(&result.metrics));
    record.push_str("}\n");
    std::fs::write(&path, record)?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqlbench: {e}");
            eprintln!(
                "usage: sqlbench --workload <interactive|analytic|refresh> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "sqlbench workload={} seed={} seconds={} trace={} cpus={} os={} arch={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cpus(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        host::git_commit()
    );
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &out_dir())
    } else {
        wire_result(args.workload, args.seed, args.seconds)
    };
    for m in &result.metrics {
        println!("metric {} = {} {}", m.name, num(m.value), m.unit);
    }
    match write_record(&args, &result) {
        Ok(path) => println!("run record: {}", path.display()),
        Err(e) => eprintln!("sqlbench: could not write the run record: {e}"),
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics_json(&result.metrics)
    );
}

/// The untraced run's end-to-end metrics.
fn wire_result(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let r = wire::run(workload, seed, seconds);
    let sorted = stats::sorted(r.latencies_ms.clone());
    let n = sorted.len();
    let completed = r.tally.attempted - r.tally.failed;
    let attempted = r.tally.attempted + r.setup_tally.attempted;
    let failed = r.tally.failed + r.setup_tally.failed;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let beyond = stats::samples_beyond(n, 0.9);
    println!(
        "timed phase: {n} requests ({completed} ok) in {:.2} s; {beyond} samples beyond p90; \
         set-up {:?} s; error_rate {error_rate}",
        r.elapsed_s, r.setup_s
    );
    if beyond < 10 {
        println!("warning: fewer than 10 samples beyond p90; lengthen --seconds");
    }
    for f in r.tally.failures.iter().chain(&r.setup_tally.failures) {
        println!("failure: {f}");
    }
    println!("server counters (timed phase): {}", r.counters.json());
    let metrics = vec![
        Metric::new(
            "throughput_rps",
            "1/s",
            completed as f64 / r.elapsed_s.max(1e-9),
        ),
        Metric::new("latency_p50_ms", "ms", stats::percentile(&sorted, 0.5)),
        Metric::new("latency_p90_ms", "ms", stats::percentile(&sorted, 0.9)),
        Metric::new("success_rate", "ratio", 1.0 - error_rate),
        Metric::new("setup_s", "s", stats::median(&r.setup_s)),
        Metric::new("peak_rss_mb", "MiB", r.peak_rss_mb),
    ];
    let setup_list: Vec<String> = r.setup_s.iter().map(|s| num(*s)).collect();
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        details: vec![
            ("samples".into(), n.to_string()),
            ("samples_beyond_p90".into(), beyond.to_string()),
            ("error_rate".into(), num(error_rate)),
            (
                "rejected".into(),
                (r.tally.rejected + r.setup_tally.rejected).to_string(),
            ),
            ("timed_phase_s".into(), num(r.elapsed_s)),
            (
                "setup_reps_s".into(),
                format!("[{}]", setup_list.join(", ")),
            ),
            ("server_counters".into(), r.counters.json()),
        ],
    }
}
