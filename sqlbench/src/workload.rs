//! The three workloads: tables, statements, literals, and reference answers.
//!
//! Every session produces a deterministic sequence of [`Step`]s from the
//! command-line seed. `interactive` and `analytic` register their tables
//! once and then cycle over a fixed statement list; `refresh` registers a
//! freshly generated `orders` table at the start of every cycle and runs
//! that cycle's statements against it.

use std::sync::Arc;

use rheem_core::{DataType, Record, Schema, Value};
use rheem_datagen::relational::{customers, orders};

use crate::reference::{count_avg, sum_count_by, Expected, Order};

/// Which traffic mix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two tenants, small tables, short cached statements.
    Interactive,
    /// One tenant, large tables, heavy statements.
    Analytic,
    /// Two tenants re-registering `orders` every cycle.
    Refresh,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Interactive, Workload::Analytic, Workload::Refresh];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Analytic => "analytic",
            Workload::Refresh => "refresh",
        }
    }

    /// Concurrent sessions (one generator thread and connection each).
    pub fn sessions(self) -> usize {
        match self {
            Workload::Analytic => 1,
            Workload::Interactive | Workload::Refresh => 2,
        }
    }

    /// Steps in one pass over the workload's statements (the warm-up).
    pub fn pass_len(self) -> usize {
        match self {
            Workload::Interactive => 6,
            Workload::Analytic => 4,
            Workload::Refresh => 1 + REFRESH_QUERIES,
        }
    }

    /// Table sizes: `(orders, customers, regions)`.
    fn sizes(self) -> (usize, usize, usize) {
        match self {
            Workload::Interactive => (2_000, 500, 8),
            Workload::Analytic => (200_000, 5_000, 20),
            Workload::Refresh => (20_000, 1_000, 10),
        }
    }
}

/// Queries per `refresh` cycle (after the cycle's REGISTER).
const REFRESH_QUERIES: usize = 4;

/// A table as the client registers it.
#[derive(Clone)]
pub struct Table {
    /// Name referenced from SQL.
    pub name: &'static str,
    /// Column names and types.
    pub schema: Schema,
    /// Rows.
    pub rows: Vec<Record>,
}

/// One request of a session's sequence.
pub enum Step {
    /// Register (or replace) a table.
    Register {
        /// Statement label for the per-statement breakdown.
        label: &'static str,
        /// The table.
        table: Table,
    },
    /// Run a query and check its rows.
    Query {
        /// Statement label for the per-statement breakdown.
        label: &'static str,
        /// SQL text, literals filled in.
        sql: String,
        /// The reference answer.
        expected: Arc<Expected>,
    },
}

impl Step {
    /// The step's statement label.
    pub fn label(&self) -> &'static str {
        match self {
            Step::Register { label, .. } | Step::Query { label, .. } => label,
        }
    }
}

/// `[order_id(Int), customer_id(Int), amount(Float)]`.
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        ("order_id", DataType::Int),
        ("customer_id", DataType::Int),
        ("amount", DataType::Float),
    ])
}

/// `[customer_id(Int), name(Str), region(Str)]`.
pub fn customers_schema() -> Schema {
    Schema::new(vec![
        ("customer_id", DataType::Int),
        ("name", DataType::Str),
        ("region", DataType::Str),
    ])
}

/// splitmix64: the benchmark's only source of literals and table seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic literal stream.
struct Literals(u64);

impl Literals {
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = mix(self.0);
        lo + (self.0 % (hi - lo + 1) as u64) as i64
    }
}

fn amount(r: &Record) -> f64 {
    r.float(2).expect("orders.amount is a float")
}

fn cust(r: &Record) -> i64 {
    r.int(1).expect("orders.customer_id is an int")
}

fn order_id(r: &Record) -> i64 {
    r.int(0).expect("orders.order_id is an int")
}

fn query(
    label: &'static str,
    sql: String,
    expected: Expected,
) -> (&'static str, String, Arc<Expected>) {
    (label, sql, Arc::new(expected))
}

/// `SELECT order_id, customer_id, amount FROM orders WHERE <pred> ORDER BY
/// amount [DESC] LIMIT k`.
fn filter_top(o: &[Record], keep: impl Fn(f64) -> bool, descending: bool, k: usize) -> Expected {
    let rows = o
        .iter()
        .filter(|r| keep(amount(r)))
        .map(|r| {
            vec![
                Value::Int(order_id(r)),
                Value::Int(cust(r)),
                Value::Float(amount(r)),
            ]
        })
        .collect();
    Expected::ordered(
        rows,
        Order {
            column: 2,
            descending,
        },
        Some(k),
    )
}

/// `SELECT COUNT(*), AVG(amount) FROM orders WHERE customer_id >= c`.
fn count_avg_from(o: &[Record], c: i64) -> Expected {
    let (n, avg) = count_avg(o.iter().filter(|r| cust(r) >= c).map(amount));
    Expected::unordered(vec![vec![Value::Int(n), Value::Float(avg)]])
}

/// `SELECT customer_id, SUM(amount) AS total FROM orders [WHERE amount < b]
/// GROUP BY customer_id ORDER BY total DESC LIMIT k`, optionally with
/// `COUNT(*)` as a third column.
fn group_top(o: &[Record], below: f64, with_count: bool, k: usize) -> Expected {
    let groups = sum_count_by(
        o.iter()
            .filter(|r| amount(r) < below)
            .map(|r| (cust(r), amount(r))),
    );
    let rows = groups
        .into_iter()
        .map(|(c, (s, n))| {
            let mut row = vec![Value::Int(c), Value::Float(s)];
            if with_count {
                row.push(Value::Int(n));
            }
            row
        })
        .collect();
    Expected::ordered(
        rows,
        Order {
            column: 1,
            descending: true,
        },
        Some(k),
    )
}

/// `SELECT customers.region, COUNT(*), SUM(orders.amount) FROM orders JOIN
/// customers ON ... WHERE orders.amount > a GROUP BY customers.region`.
fn region_totals(o: &[Record], c: &[Record], above: f64) -> Expected {
    let region: std::collections::HashMap<i64, &str> = c
        .iter()
        .map(|r| (r.int(0).expect("customer_id"), r.str(2).expect("region")))
        .collect();
    let groups = sum_count_by(
        o.iter()
            .filter(|r| amount(r) > above)
            .filter_map(|r| region.get(&cust(r)).map(|g| (g.to_string(), amount(r)))),
    );
    Expected::unordered(
        groups
            .into_iter()
            .map(|(g, (s, n))| vec![Value::str(g), Value::Int(n), Value::Float(s)])
            .collect(),
    )
}

const JOIN: &str = "FROM orders JOIN customers ON orders.customer_id = customers.customer_id";

/// Fixed statements of an `interactive` session.
fn interactive_queries(
    o: &[Record],
    c: &[Record],
    lit: &mut Literals,
) -> Vec<(&'static str, String, Arc<Expected>)> {
    let below = lit.int(20, 40);
    let above = lit.int(1_000, 3_000) as f64;
    let from = lit.int(0, 250);
    let point = lit.int(0, 499);
    let groups = sum_count_by(
        o.iter()
            .filter(|r| cust(r) < below)
            .map(|r| (cust(r), amount(r))),
    );
    vec![
        query(
            "group_by",
            format!(
                "SELECT customer_id, COUNT(*) AS n, SUM(amount) AS total FROM orders \
                 WHERE customer_id < {below} GROUP BY customer_id"
            ),
            Expected::unordered(
                groups
                    .into_iter()
                    .map(|(k, (s, n))| vec![Value::Int(k), Value::Int(n), Value::Float(s)])
                    .collect(),
            ),
        ),
        query(
            "filter_order_limit",
            format!(
                "SELECT order_id, customer_id, amount FROM orders WHERE amount > {above:.1} \
                 ORDER BY amount DESC LIMIT 10"
            ),
            filter_top(o, |a| a > above, true, 10),
        ),
        query(
            "count_avg",
            format!(
                "SELECT COUNT(*) AS n, AVG(amount) AS avg_amount FROM orders \
                 WHERE customer_id >= {from}"
            ),
            count_avg_from(o, from),
        ),
        query(
            "join_group",
            format!(
                "SELECT customers.region, COUNT(*) AS n, SUM(orders.amount) AS total {JOIN} \
                 GROUP BY customers.region"
            ),
            region_totals(o, c, f64::NEG_INFINITY),
        ),
        point_filter(o, point),
        query(
            "group_top_k",
            "SELECT customer_id, SUM(amount) AS total FROM orders GROUP BY customer_id \
             ORDER BY total DESC LIMIT 5"
                .to_string(),
            group_top(o, f64::INFINITY, false, 5),
        ),
    ]
}

/// Fixed statements of the `analytic` session.
fn analytic_queries(
    o: &[Record],
    c: &[Record],
    lit: &mut Literals,
) -> Vec<(&'static str, String, Arc<Expected>)> {
    let above = lit.int(500, 1_500) as f64;
    let below = lit.int(50, 200) as f64;
    vec![
        query(
            "group_top_k",
            "SELECT customer_id, SUM(amount) AS total, COUNT(*) AS n FROM orders \
             GROUP BY customer_id ORDER BY total DESC LIMIT 10"
                .to_string(),
            group_top(o, f64::INFINITY, true, 10),
        ),
        query(
            "join_filter_group",
            format!(
                "SELECT customers.region, COUNT(*) AS n, SUM(orders.amount) AS total {JOIN} \
                 WHERE orders.amount > {above:.1} GROUP BY customers.region"
            ),
            region_totals(o, c, above),
        ),
        query(
            "count_avg",
            "SELECT COUNT(*) AS n, AVG(amount) AS avg_amount FROM orders".to_string(),
            count_avg_from(o, 0),
        ),
        query(
            "filter_order_limit",
            format!(
                "SELECT order_id, customer_id, amount FROM orders WHERE amount < {below:.1} \
                 ORDER BY amount LIMIT 20"
            ),
            filter_top(o, |a| a < below, false, 20),
        ),
    ]
}

/// One `refresh` cycle's statements over that cycle's `orders`.
fn refresh_queries(o: &[Record], lit: &mut Literals) -> Vec<(&'static str, String, Arc<Expected>)> {
    let above = lit.int(2_400, 2_600) as f64;
    let below = lit.int(1_000, 4_000) as f64;
    let from = lit.int(0, 500);
    let point = lit.int(0, 999);
    let scan = o
        .iter()
        .filter(|r| amount(r) > above)
        .map(|r| {
            vec![
                Value::Int(order_id(r)),
                Value::Int(cust(r)),
                Value::Float(amount(r)),
            ]
        })
        .collect();
    vec![
        query(
            "scan_half",
            format!("SELECT order_id, customer_id, amount FROM orders WHERE amount > {above:.1}"),
            Expected::unordered(scan),
        ),
        query(
            "group_top_k",
            format!(
                "SELECT customer_id, SUM(amount) AS total FROM orders WHERE amount < {below:.1} \
                 GROUP BY customer_id ORDER BY total DESC LIMIT 10"
            ),
            group_top(o, below, false, 10),
        ),
        query(
            "count_avg",
            format!(
                "SELECT COUNT(*) AS n, AVG(amount) AS avg_amount FROM orders \
                 WHERE customer_id >= {from}"
            ),
            count_avg_from(o, from),
        ),
        point_filter(o, point),
    ]
}

/// `SELECT order_id, amount FROM orders WHERE customer_id = c`.
fn point_filter(o: &[Record], c: i64) -> (&'static str, String, Arc<Expected>) {
    let rows = o
        .iter()
        .filter(|r| cust(r) == c)
        .map(|r| vec![Value::Int(order_id(r)), Value::Float(amount(r))])
        .collect();
    query(
        "point_filter",
        format!("SELECT order_id, amount FROM orders WHERE customer_id = {c}"),
        Expected::unordered(rows),
    )
}

/// One session's deterministic request sequence.
#[derive(Clone)]
pub struct Session {
    /// Tenant the session says HELLO as.
    pub tenant: String,
    /// Tables registered once, before the sequence starts.
    pub tables: Vec<Table>,
    workload: Workload,
    seed: u64,
    queries: Vec<(&'static str, String, Arc<Expected>)>,
    step: usize,
}

impl Session {
    /// Build session `index` of `workload` for `seed`: generate its tables
    /// and compute every fixed statement's reference answer.
    pub fn new(workload: Workload, seed: u64, index: usize) -> Self {
        let seed = mix(seed ^ mix(index as u64 + 1));
        let (n_orders, n_customers, regions) = workload.sizes();
        let mut lit = Literals(seed);
        let (tables, queries) = match workload {
            Workload::Refresh => (Vec::new(), Vec::new()),
            _ => {
                let c = customers(n_customers, regions, mix(seed ^ 1));
                let o = orders(n_orders, n_customers, mix(seed ^ 2));
                let queries = if workload == Workload::Interactive {
                    interactive_queries(&o, &c, &mut lit)
                } else {
                    analytic_queries(&o, &c, &mut lit)
                };
                let tables = vec![
                    Table {
                        name: "orders",
                        schema: orders_schema(),
                        rows: o,
                    },
                    Table {
                        name: "customers",
                        schema: customers_schema(),
                        rows: c,
                    },
                ];
                (tables, queries)
            }
        };
        Session {
            tenant: format!("tenant_{index}"),
            tables,
            workload,
            seed,
            queries,
            step: 0,
        }
    }

    /// The workload the session belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The next request of the sequence.
    pub fn next_step(&mut self) -> Step {
        let i = self.step;
        self.step += 1;
        if self.workload != Workload::Refresh {
            let (label, sql, expected) = &self.queries[i % self.queries.len()];
            return Step::Query {
                label,
                sql: sql.clone(),
                expected: expected.clone(),
            };
        }
        let cycle = (i / self.workload.pass_len()) as u64;
        match i % self.workload.pass_len() {
            0 => {
                let (n_orders, n_customers, _) = self.workload.sizes();
                let cycle_seed = mix(self.seed ^ mix(cycle + 0x5EED));
                let o = orders(n_orders, n_customers, cycle_seed);
                self.queries = refresh_queries(&o, &mut Literals(cycle_seed));
                Step::Register {
                    label: "register_orders",
                    table: Table {
                        name: "orders",
                        schema: orders_schema(),
                        rows: o,
                    },
                }
            }
            k => {
                let (label, sql, expected) = &self.queries[k - 1];
                Step::Query {
                    label,
                    sql: sql.clone(),
                    expected: expected.clone(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_for_a_seed_and_differ_across_seeds() {
        let labels = |seed| {
            let mut s = Session::new(Workload::Refresh, seed, 0);
            (0..8)
                .map(|_| match s.next_step() {
                    Step::Query { sql, .. } => sql,
                    Step::Register { table, .. } => format!("{:?}", table.rows[0]),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(7), labels(7));
        assert_ne!(labels(7), labels(8));
    }

    #[test]
    fn refresh_cycles_start_with_a_register() {
        let mut s = Session::new(Workload::Refresh, 1, 1);
        let kinds: Vec<&str> = (0..10).map(|_| s.next_step().label()).collect();
        assert_eq!(kinds[0], "register_orders");
        assert_eq!(kinds[5], "register_orders");
        assert_eq!(kinds[1], "scan_half");
        assert_eq!(Workload::Refresh.pass_len(), 5);
    }
}
