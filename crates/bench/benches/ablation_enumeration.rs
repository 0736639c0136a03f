//! Ablation (self-timed): exhaustive-exponential vs. lattice-v2 plan
//! enumeration, emitting `BENCH_enumeration.json` at the repo root.
//!
//! Two claims are measured and *asserted*, not just reported:
//!
//! 1. On every small plan (≤ 10 nodes here; the oracle caps at 12) the v2
//!    enumerator's chosen cost equals the exhaustive optimum exactly
//!    (`costs_match` per entry), while visiting polynomially many states
//!    where the oracle visits `platforms^nodes`.
//! 2. A 120-operator plan enumerates exactly, never reaching the frontier
//!    cap (`within_budget` on the `large` entry) — the shape that
//!    motivates chain contraction in the first place.
//!
//! `ENUM_BENCH_QUICK=1` trims the sweep and iteration count for CI.

use std::sync::Arc;
use std::time::Instant;

use rheem_core::data::Record;
use rheem_core::optimizer::enumerate_v2;
use rheem_core::plan::{NodeId, PhysicalPlan, PlanBuilder};
use rheem_core::rec;
use rheem_core::udf::{FilterUdf, GroupMapUdf, KeyUdf, MapUdf};
use rheem_core::{enumerate_exhaustive, EnumerationConfig, EnumerationPath};
use rheem_platforms::test_context;

/// Time `f` over `iters` runs; return best milliseconds.
fn time_best<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 1..iters {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    if iters == 1 {
        best = 0.0;
    }
    (best.max(0.0), out)
}

fn map_inc(b: &mut PlanBuilder, input: NodeId) -> NodeId {
    b.map(
        input,
        MapUdf::new("inc", |r| {
            rec![r.int(0).unwrap() + 1, r.int(1).unwrap_or(1)]
        }),
    )
}

/// A linear chain of `nodes` operators: source → maps/filter → sink.
fn chain_plan(nodes: usize) -> PhysicalPlan {
    assert!(nodes >= 2);
    let mut b = PlanBuilder::new();
    let mut cur = b.collection("s", (0..60i64).map(|i| rec![i % 7, 1i64]).collect());
    for i in 0..nodes - 2 {
        cur = if i % 3 == 2 {
            b.filter(cur, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0))
        } else {
            map_inc(&mut b, cur)
        };
    }
    b.collect(cur);
    b.build().unwrap()
}

/// `width` two-node branches merged by a union tree: 3·width nodes total.
fn bushy_plan(width: usize) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut branches = Vec::new();
    for br in 0..width {
        let src = b.collection(
            format!("s{br}"),
            (0..40i64).map(|i| rec![i % 5, 1i64]).collect(),
        );
        branches.push(map_inc(&mut b, src));
    }
    while branches.len() > 1 {
        let l = branches.remove(0);
        let r = branches.remove(0);
        branches.push(b.union(l, r));
    }
    b.collect(branches[0]);
    b.build().unwrap()
}

/// The scale showcase: `branches` long map chains (ending in a group-by)
/// merged into one sink — 120+ operators.
fn large_plan(branches: usize, chain_len: usize) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut tips = Vec::new();
    for br in 0..branches {
        let mut cur = b.collection(
            format!("s{br}"),
            (0..50i64).map(|i| rec![i % 9, 1i64]).collect(),
        );
        for _ in 0..chain_len {
            cur = map_inc(&mut b, cur);
        }
        cur = b.group_by(
            cur,
            KeyUdf::field(0),
            GroupMapUdf::new("tally", |k, members| {
                vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
            }),
        );
        tips.push(cur);
    }
    while tips.len() > 1 {
        let l = tips.remove(0);
        let r = tips.remove(0);
        tips.push(b.union(l, r));
    }
    b.collect(tips[0]);
    b.build().unwrap()
}

struct Entry {
    shape: &'static str,
    nodes: usize,
    oracle_ms: f64,
    v2_ms: f64,
    oracle_cost: f64,
    v2_cost: f64,
    costs_match: bool,
    expansions: usize,
    within_budget: bool,
}

impl Entry {
    fn json(&self) -> String {
        format!(
            "{{\"shape\":\"{}\",\"nodes\":{},\"oracle_ms\":{:.3},\"v2_ms\":{:.3},\
             \"oracle_cost\":{:.6},\"v2_cost\":{:.6},\"costs_match\":{},\
             \"expansions\":{},\"within_budget\":{}}}",
            self.shape,
            self.nodes,
            self.oracle_ms,
            self.v2_ms,
            self.oracle_cost,
            self.v2_cost,
            self.costs_match,
            self.expansions,
            self.within_budget
        )
    }
}

fn main() {
    let quick = std::env::var_os("ENUM_BENCH_QUICK").is_some();
    let iters = if quick { 1 } else { 5 };
    let ctx = test_context();
    let opt = ctx.optimizer();
    let movement = opt.movement.channelized(ctx.platforms());
    let config = EnumerationConfig::default();

    let mut entries: Vec<Entry> = Vec::new();

    // Depth sweep (chains) and width sweep (bushy union trees), all under
    // the oracle's 12-node cap so both sides enumerate the same space.
    let mut small: Vec<(&'static str, PhysicalPlan)> = Vec::new();
    let depths: &[usize] = if quick { &[8] } else { &[4, 8, 10] };
    for &d in depths {
        small.push(("chain", chain_plan(d)));
    }
    let widths: &[usize] = if quick { &[3] } else { &[2, 3] };
    for &w in widths {
        small.push(("bushy", bushy_plan(w)));
    }

    for (shape, plan) in small {
        let nodes = plan.len();
        let (oracle_ms, (_, oracle_cost)) = time_best(iters.max(2), || {
            enumerate_exhaustive(
                &plan,
                ctx.platforms(),
                &opt.estimator,
                &movement,
                &config,
                &opt.calibration,
            )
            .expect("oracle enumerates")
        });
        let arc = Arc::new(plan);
        let (v2_ms, exec) = time_best(iters.max(2), || {
            enumerate_v2(
                arc.clone(),
                ctx.platforms(),
                &opt.estimator,
                &movement,
                &config,
                &opt.calibration,
            )
            .expect("v2 enumerates")
        });
        assert_eq!(exec.enumeration.path, EnumerationPath::Lattice);
        let tol = 1e-9 * oracle_cost.max(1.0);
        let costs_match = (exec.estimated_cost - oracle_cost).abs() <= tol;
        assert!(
            costs_match,
            "{shape}/{nodes}: v2 {} != oracle {oracle_cost}",
            exec.estimated_cost
        );
        eprintln!(
            "{shape} nodes={nodes}: oracle {oracle_ms:.3} ms, v2 {v2_ms:.3} ms \
             ({} expansions), costs match",
            exec.enumeration.expansions
        );
        entries.push(Entry {
            shape,
            nodes,
            oracle_ms,
            v2_ms,
            oracle_cost,
            v2_cost: exec.estimated_cost,
            costs_match,
            expansions: exec.enumeration.expansions,
            within_budget: exec.enumeration.path == EnumerationPath::Lattice,
        });
    }

    // The 120-operator plan: far past the oracle, must stay exact (its
    // frontier never reaches the cap).
    let plan = large_plan(10, 10);
    let nodes = plan.len();
    assert!(nodes >= 120, "large plan has {nodes} nodes");
    let arc = Arc::new(plan);
    let (v2_ms, exec) = time_best(iters.max(2), || {
        enumerate_v2(
            arc.clone(),
            ctx.platforms(),
            &opt.estimator,
            &movement,
            &config,
            &opt.calibration,
        )
        .expect("v2 enumerates the large plan")
    });
    let within_budget = exec.enumeration.path == EnumerationPath::Lattice;
    assert!(
        within_budget,
        "large plan hit the frontier cap: {:?} after {} expansions",
        exec.enumeration.path, exec.enumeration.expansions
    );
    eprintln!(
        "large nodes={nodes}: v2 {v2_ms:.3} ms, {} expansions, never capped",
        exec.enumeration.expansions
    );
    entries.push(Entry {
        shape: "large",
        nodes,
        oracle_ms: -1.0, // exponential — not run
        v2_ms,
        oracle_cost: -1.0,
        v2_cost: exec.estimated_cost,
        costs_match: true,
        expansions: exec.enumeration.expansions,
        within_budget,
    });

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let body: Vec<String> = entries
        .iter()
        .map(|e| format!("    {}", e.json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_enumeration\",\n  \"unix_time\": {stamp},\n  \
         \"host\": {{\"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\"}},\n  \"note\": \
         \"oracle_ms/oracle_cost are -1 on the large entry (the exhaustive sweep is \
         exponential and not run past 12 nodes); costs_match asserts the v2 optimum \
         equals the oracle optimum on every small plan; within_budget asserts the \
         search was never frontier-capped (exact), which the 120-op plan must meet\",\
         \n  \"entries\": [\n{}\n  ]\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        body.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_enumeration.json");
    std::fs::write(path, &json).expect("write BENCH_enumeration.json");
    eprintln!("wrote {path} ({} entries)", entries.len());
}
