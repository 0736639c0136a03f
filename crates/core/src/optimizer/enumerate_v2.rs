//! Subplan-lattice enumeration with lossless pruning — the optimizer's
//! platform-assignment search (§4.2).
//!
//! A RHEEMix-style enumerator that is exact on arbitrary DAGs (shared
//! producers are priced once, not once per consumer) while staying
//! polynomial on the plans we care about:
//!
//! 1. **Chain contraction** — maximal linear operator chains (single
//!    consumer feeding a single-input node) are contracted into
//!    super-nodes before the search ([`super::fuse::contract_chains`]).
//!    Each chain gets an exact `T[q][p]` cost table (cheapest way to run
//!    the whole chain with the upstream producer on `q` and the chain's
//!    exit on `p`, platform switches inside the chain allowed) computed by
//!    an `O(len · P²)` inner DP.
//! 2. **Frontier lattice** — super-nodes are processed in topological
//!    order; a search state maps the currently *open* super-nodes (those
//!    with unpriced consumer edges) to their exit platforms. Two states
//!    with the same open-node→platform map are interchangeable for every
//!    possible completion, so keeping only the cheaper one is **lossless**
//!    pruning: the reachable frontier is the set of non-dominated
//!    assignments per boundary-platform combination.
//! 3. **Channel-aware movement** — every cross-platform edge is priced by
//!    [`MovementCostModel::cost`], which routes through the channel
//!    conversion graph when platform channel specs are declared (see
//!    [`MovementCostModel::channelized`]); the chosen conversion routes
//!    are recorded on the resulting plan's
//!    [`EnumerationInfo::conversions`]. Each edge's price matrix is
//!    computed once per plan, never inside the frontier loop.
//! 4. **Frontier cap** — a frontier wider than [`MAX_FRONTIER`] keeps only
//!    its cheapest states (ties broken by boundary key), so the search
//!    does at most `super-nodes × MAX_FRONTIER × platforms` expansions on
//!    any plan shape. A capped search is still deterministic but may miss
//!    the optimum; it is recorded as [`EnumerationPath::FrontierCapped`].
//!
//! The objective both this enumerator and the exhaustive oracle minimize
//! is [`assignment_cost`]:
//!
//! ```text
//! Σ_nodes [ opCost(n, pₙ) + (n is source ? startup(pₙ) : 0) ]
//! + Σ_edges(u→v) [ move(pᵤ → pᵥ, |u|) + (pᵤ ≠ pᵥ ? startup(pᵥ) : 0) ]
//! ```
//!
//! which prices each node once and each edge once.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cost::{CardinalityEstimator, MovementCostModel};
use crate::error::{Result, RheemError};
use crate::observe::CostCalibration;
use crate::plan::{
    ChannelConversion, EnumerationInfo, EnumerationPath, ExecutionPlan, NodeEstimate, NodeId,
    PhysicalPlan,
};
use crate::platform::{Platform, PlatformRegistry};

use super::enumerate::{node_cost, split_into_atoms, supports_deep, EnumerationConfig};
use super::fuse::contract_chains;

const INF: f64 = f64::INFINITY;

/// Most lattice states kept after any search step, which bounds a search at
/// `super-nodes × MAX_FRONTIER × platforms` expansions. A wider frontier is
/// cut to its cheapest states (ties broken by boundary key) and the plan is
/// marked [`EnumerationPath::FrontierCapped`]. The widest frontier of any
/// test or bench plan is 256 states, so those plans stay exact.
pub const MAX_FRONTIER: usize = 4096;

/// Assign a platform to every node and split the plan into task atoms.
///
/// See the module docs for the algorithm. `calibration` scales each
/// platform's static operator cost by the EMA of previously observed /
/// estimated ratios (1.0 when nothing was observed), closing the feedback
/// loop described in `observe::calibrate`.
pub fn enumerate_v2(
    plan: Arc<PhysicalPlan>,
    registry: &PlatformRegistry,
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    config: &EnumerationConfig,
    calibration: &CostCalibration,
) -> Result<ExecutionPlan> {
    let platforms = considered_platforms(registry, config)?;
    let free_movement = MovementCostModel::free();
    let movement = if config.consider_movement_costs {
        movement
    } else {
        &free_movement
    };
    let cards = estimator.estimate(&plan)?;

    // `supported[node][p]`. Surface stranded operators as NoPlatformFor
    // before searching: an exclusion set that leaves some operator
    // unmappable must be a clean error, not a panic deep in the lattice.
    let supported: Vec<Vec<bool>> = plan
        .nodes()
        .iter()
        .map(|node| {
            platforms
                .iter()
                .map(|p| supports_deep(p.as_ref(), &node.op))
                .collect()
        })
        .collect();
    for node in plan.nodes() {
        if !supported[node.id.0].contains(&true) {
            return Err(RheemError::NoPlatformFor {
                op: node.op.name(),
                node: node.id,
            });
        }
    }

    let outcome = lattice_search(
        &plan,
        &platforms,
        &cards,
        &supported,
        estimator,
        movement,
        calibration,
    )?;
    finish_v2(
        plan,
        &platforms,
        &cards,
        outcome,
        movement,
        estimator,
        calibration,
    )
}

/// The platform list the enumerator (and the exhaustive oracle) searches
/// over, after the forced/excluded knobs.
fn considered_platforms(
    registry: &PlatformRegistry,
    config: &EnumerationConfig,
) -> Result<Vec<Arc<dyn Platform>>> {
    if registry.is_empty() {
        return Err(RheemError::Optimizer("no platforms registered".into()));
    }
    let mut platforms: Vec<_> = match &config.forced_platform {
        Some(name) => vec![registry.get(name)?],
        None => registry.all().to_vec(),
    };
    platforms.retain(|p| !config.excluded_platforms.iter().any(|x| x == p.name()));
    if platforms.is_empty() {
        return Err(RheemError::Optimizer(
            "every registered platform is excluded from enumeration".into(),
        ));
    }
    Ok(platforms)
}

/// One contracted super-node of the search graph.
struct SuperNode {
    /// Member nodes in dataflow order (a single element unless contracted).
    nodes: Vec<NodeId>,
    /// Super-node index feeding each head input slot.
    producers: Vec<usize>,
    /// Chains (≤ 1 head input) carry the exact `T[q][p]` table;
    /// multi-input heads are priced per slot in the frontier loop.
    table: Option<ChainTable>,
    /// `opCost[p]` of the head for multi-input supers (INF when
    /// unsupported).
    op_cost: Vec<f64>,
    /// Movement into the head for multi-input supers: `edge_in[slot][q][h]`
    /// prices the slot's producer on `q` feeding the head on `h`.
    edge_in: Vec<Vec<Vec<f64>>>,
    /// For multi-input heads dragging a linear tail (`nodes.len() > 1`):
    /// the exact table over `nodes[1..]`, rows keyed by the *head*
    /// platform. The head platform is minimized out inside each frontier
    /// step (it only touches the producer edges and the tail entry, both
    /// priced there), so the boundary key still needs only the exit
    /// platform — pruning stays lossless.
    tail: Option<ChainTable>,
}

/// `cost[q][p]`: cheapest full-chain cost with the upstream producer on
/// platform `q` (index `P` = "no producer", source chains) and the tail on
/// `p`. `back[q][j][p]` is the platform of node `j-1` on that cheapest
/// path when node `j` runs on `p`.
struct ChainTable {
    cost: Vec<Vec<f64>>,
    back: Vec<Vec<Vec<usize>>>,
}

/// What the lattice search hands to plan construction.
struct LatticeOutcome {
    supers: Vec<SuperNode>,
    /// Platform index per original node.
    assignment: Vec<usize>,
    total_cost: f64,
    /// `(state, platform)` evaluations performed.
    expansions: usize,
    /// Whether some step's frontier was cut to [`MAX_FRONTIER`].
    capped: bool,
}

/// `m[q][h]`: movement price of `records` records from platform `q` to `h`.
/// Pairs where the producer cannot run on `q` (`from[q]` false) or the
/// consumer cannot run on `h` are never read; they stay `INF` unpriced,
/// because routing is the dominant cost of enumeration.
fn movement_matrix(
    names: &[&str],
    records: f64,
    movement: &MovementCostModel,
    from: &[bool],
    to: &[bool],
) -> Vec<Vec<f64>> {
    names
        .iter()
        .zip(from)
        .map(|(q, &from_ok)| {
            names
                .iter()
                .zip(to)
                .map(|(h, &to_ok)| {
                    if from_ok && to_ok {
                        movement.cost(q, h, records)
                    } else {
                        INF
                    }
                })
                .collect()
        })
        .collect()
}

/// Run the frontier DP over the contracted plan.
fn lattice_search(
    plan: &PhysicalPlan,
    platforms: &[Arc<dyn Platform>],
    cards: &[f64],
    supported: &[Vec<bool>],
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    calibration: &CostCalibration,
) -> Result<LatticeOutcome> {
    let n_plats = platforms.len();
    let startup: Vec<f64> = platforms
        .iter()
        .map(|p| p.cost_model().atom_startup_cost())
        .collect();
    let names: Vec<&str> = platforms.iter().map(|p| p.name()).collect();

    // Contract chains and build the super-node graph.
    let chains = contract_chains(plan);
    let mut super_of = vec![usize::MAX; plan.len()];
    for (si, chain) in chains.iter().enumerate() {
        for n in chain {
            super_of[n.0] = si;
        }
    }
    let mut supers: Vec<SuperNode> = Vec::with_capacity(chains.len());
    for chain in &chains {
        let head = plan.node(chain[0]);
        let producers: Vec<usize> = head.inputs.iter().map(|i| super_of[i.0]).collect();
        let mut s = SuperNode {
            nodes: chain.clone(),
            producers,
            table: None,
            op_cost: Vec::new(),
            edge_in: Vec::new(),
            tail: None,
        };
        if head.inputs.len() <= 1 {
            s.table = Some(chain_table(
                plan,
                chain,
                platforms,
                cards,
                supported,
                estimator,
                calibration,
                &startup,
                movement,
            )?);
        } else {
            let ins: Vec<f64> = head.inputs.iter().map(|i| cards[i.0]).collect();
            let out = cards[head.id.0];
            s.op_cost = vec![INF; n_plats];
            for (pi, p) in platforms.iter().enumerate() {
                if supported[head.id.0][pi] {
                    s.op_cost[pi] =
                        node_cost(&head.op, &ins, out, p.as_ref(), estimator, calibration)?;
                }
            }
            s.edge_in = head
                .inputs
                .iter()
                .map(|i| {
                    movement_matrix(
                        &names,
                        cards[i.0],
                        movement,
                        &supported[i.0],
                        &supported[head.id.0],
                    )
                })
                .collect();
            if chain.len() > 1 {
                s.tail = Some(chain_table(
                    plan,
                    &chain[1..],
                    platforms,
                    cards,
                    supported,
                    estimator,
                    calibration,
                    &startup,
                    movement,
                )?);
            }
        }
        supers.push(s);
    }

    // Unpriced consumer-edge count per super-node: a super-node closes
    // (leaves the frontier key) once every outgoing edge has been priced.
    let m = supers.len();
    let mut remaining = vec![0usize; m];
    for node in plan.nodes() {
        for input in &node.inputs {
            if super_of[input.0] != super_of[node.id.0] {
                remaining[super_of[input.0]] += 1;
            }
        }
    }

    // Visit order. Any topological order of the contracted DAG is valid —
    // producer edges are priced at the consumer's step, so producers just
    // have to come first — but the order decides the frontier width: the
    // key holds one platform per *open* super-node, so states multiply by
    // `n_plats` per open node. Index order is pathological for bushy plans
    // (every branch's chain opens before the first combiner closes any),
    // so schedule greedily: among ready super-nodes take the one closing
    // the most producers, tie-break fewest newly-opened, then smallest
    // index — deterministic, and keeps wide union/join trees near-linear.
    let order = schedule_supers(&supers, &remaining);

    // Frontier: platforms of the open super-nodes (in `open` order) → the
    // cheapest cost reaching that boundary, plus a backpointer into the
    // arena for plan extraction. The open set evolves identically across
    // states, so the key is just the platform vector. A BTreeMap keeps
    // iteration — and therefore equal-cost tie-breaking — deterministic.
    let mut open: Vec<usize> = Vec::new();
    let mut frontier: BTreeMap<Vec<u8>, (f64, u32)> = BTreeMap::new();
    frontier.insert(Vec::new(), (0.0, u32::MAX));
    let mut arena: Vec<(u32, u8)> = Vec::new();
    let mut expansions = 0usize;
    let mut capped = false;

    for &si in &order {
        let s = &supers[si];
        let producer_pos: Vec<usize> = s
            .producers
            .iter()
            .map(|prod| {
                open.iter()
                    .position(|&o| o == *prod)
                    .expect("producer super-node is open until its edges are priced")
            })
            .collect();

        // The open set after this step: drop producers whose last consumer
        // edge we just priced, append `si` when it has outgoing edges.
        for prod in &s.producers {
            remaining[*prod] -= 1;
        }
        let mut next_open = Vec::with_capacity(open.len() + 1);
        let mut keep_pos = Vec::with_capacity(open.len());
        for (pos, &o) in open.iter().enumerate() {
            if remaining[o] > 0 {
                keep_pos.push(pos);
                next_open.push(o);
            }
        }
        let self_open = remaining[si] > 0;
        if self_open {
            next_open.push(si);
        }

        let mut next: BTreeMap<Vec<u8>, (f64, u32)> = BTreeMap::new();
        let mut plats: Vec<usize> = Vec::with_capacity(producer_pos.len());
        let mut new_key: Vec<u8> = Vec::with_capacity(next_open.len());
        for (key, &(cost, bp)) in &frontier {
            plats.clear();
            plats.extend(producer_pos.iter().map(|&pos| key[pos] as usize));
            new_key.clear();
            new_key.extend(keep_pos.iter().map(|&pos| key[pos]));
            for p in 0..n_plats {
                expansions += 1;
                let added = match &s.table {
                    // A chain's single producer (or the "no producer" row
                    // of a source chain).
                    Some(t) => t.cost[plats.first().copied().unwrap_or(n_plats)][p],
                    None => multi_head_cost(s, &plats, p, &startup).0,
                };
                if !added.is_finite() {
                    continue;
                }
                let total = cost + added;
                if self_open {
                    new_key.truncate(keep_pos.len());
                    new_key.push(p as u8);
                }
                // Lossless pruning: identical boundary keys are
                // interchangeable for every completion, keep only the
                // cheapest (first wins on exact ties — deterministic
                // because states are visited in key order).
                match next.get_mut(new_key.as_slice()) {
                    Some(state) if total >= state.0 => {}
                    Some(state) => {
                        arena.push((bp, p as u8));
                        *state = (total, (arena.len() - 1) as u32);
                    }
                    None => {
                        arena.push((bp, p as u8));
                        next.insert(new_key.clone(), (total, (arena.len() - 1) as u32));
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(RheemError::Optimizer(
                "lattice enumeration found no feasible assignment".into(),
            ));
        }
        if next.len() > MAX_FRONTIER {
            // Lossy but deterministic: keep the cheapest states, ties by
            // key. Any kept state still completes, since every operator
            // has a supporting platform and movement is always finite.
            capped = true;
            let mut states: Vec<_> = next.into_iter().collect();
            states.sort_by(|(ka, (ca, _)), (kb, (cb, _))| ca.total_cmp(cb).then(ka.cmp(kb)));
            states.truncate(MAX_FRONTIER);
            next = states.into_iter().collect();
        }
        frontier = next;
        open = next_open;
    }

    debug_assert!(open.is_empty(), "all super-nodes close at the end");
    let (total_cost, mut bp) = *frontier
        .values()
        .next()
        .expect("frontier is non-empty after every step");

    // Walk the backpointer arena: one entry per processed super-node,
    // newest last — i.e. in reverse *visit* order.
    let mut super_platform = vec![0usize; m];
    for &si in order.iter().rev() {
        let (prev, p) = arena[bp as usize];
        super_platform[si] = p as usize;
        bp = prev;
    }

    // Expand chains to per-node platforms through the chain back tables.
    let mut assignment = vec![0usize; plan.len()];
    for (si, s) in supers.iter().enumerate() {
        let exit = super_platform[si];
        match &s.table {
            Some(t) => {
                let q = match s.producers.first() {
                    Some(&prod) => super_platform[prod],
                    None => n_plats,
                };
                let k = s.nodes.len();
                let mut cur = exit;
                assignment[s.nodes[k - 1].0] = cur;
                for j in (1..k).rev() {
                    cur = t.back[q][j][cur];
                    assignment[s.nodes[j - 1].0] = cur;
                }
            }
            None => {
                // Recompute the head-platform argmin with the producers'
                // chosen platforms — same iteration order and strict `<`
                // as the search, so the reconstruction is exact.
                let plats: Vec<usize> = s.producers.iter().map(|&pr| super_platform[pr]).collect();
                let (_, h) = multi_head_cost(s, &plats, exit, &startup);
                assignment[s.nodes[0].0] = h;
                if let Some(t) = &s.tail {
                    let kt = s.nodes.len() - 1;
                    let mut cur = exit;
                    assignment[s.nodes[kt].0] = cur;
                    for j in (1..kt).rev() {
                        cur = t.back[h][j][cur];
                        assignment[s.nodes[j].0] = cur;
                    }
                }
            }
        }
    }

    Ok(LatticeOutcome {
        supers,
        assignment,
        total_cost,
        expansions,
        capped,
    })
}

/// Pick a topological visit order over the contracted DAG that keeps the
/// set of simultaneously-open super-nodes small (see the call site for
/// why width matters). Greedy: among ready nodes, maximize producers
/// closed by this step, then minimize whether the node itself opens,
/// then smallest index. `remaining` is the initial unpriced consumer-edge
/// count per super-node (not mutated — a local copy is simulated).
fn schedule_supers(supers: &[SuperNode], remaining: &[usize]) -> Vec<usize> {
    let m = supers.len();
    let mut remaining = remaining.to_vec();
    // Unprocessed-producer count per super (slots, duplicates included).
    let mut deps: Vec<usize> = supers.iter().map(|s| s.producers.len()).collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (si, s) in supers.iter().enumerate() {
        for &prod in &s.producers {
            consumers[prod].push(si);
        }
    }
    let mut done = vec![false; m];
    let mut order = Vec::with_capacity(m);
    for _ in 0..m {
        let mut best: Option<(i64, usize)> = None;
        for si in 0..m {
            if done[si] || deps[si] > 0 {
                continue;
            }
            let closes = {
                // A producer closes here iff all its still-unpriced edges
                // point at this very step.
                let s = &supers[si];
                let mut c = 0i64;
                for (slot, &prod) in s.producers.iter().enumerate() {
                    let dups = s.producers.iter().filter(|&&x| x == prod).count();
                    let first = s.producers.iter().position(|&x| x == prod) == Some(slot);
                    if first && remaining[prod] == dups {
                        c += 1;
                    }
                }
                c
            };
            let opens = (remaining[si] > 0) as i64;
            let score = closes - opens;
            if best.is_none_or(|(bs, _)| score > bs) {
                best = Some((score, si));
            }
        }
        let (_, si) = best.expect("contracted DAG is acyclic, a ready node exists");
        done[si] = true;
        order.push(si);
        for &prod in &supers[si].producers {
            remaining[prod] -= 1;
        }
        for &c in &consumers[si] {
            deps[c] -= 1;
        }
    }
    order
}

/// Price a multi-input super-node exiting on platform `p`, given its
/// producers' platforms: minimize over the head platform `h` the head's
/// operator cost, the producer edges into `h`, and (when the super-node
/// drags a linear tail) the tail table entry `tail[h][p]`. Without a tail
/// the head *is* the exit, so `h` must equal `p`. Returns `(cost, h)`;
/// cost is `INF` when no feasible head platform exists. First-wins on
/// exact ties keeps search and reconstruction in lockstep.
fn multi_head_cost(
    s: &SuperNode,
    producer_plats: &[usize],
    p: usize,
    startup: &[f64],
) -> (f64, usize) {
    let mut best = INF;
    let mut best_h = p;
    for (h, &head_cost) in s.op_cost.iter().enumerate() {
        if !head_cost.is_finite() {
            continue;
        }
        let mut c = head_cost;
        for (edge, &q) in s.edge_in.iter().zip(producer_plats) {
            c += edge[q][h];
            if q != h {
                c += startup[h];
            }
        }
        match &s.tail {
            Some(t) => c += t.cost[h][p],
            None if h != p => continue,
            None => {}
        }
        if c < best {
            best = c;
            best_h = h;
        }
    }
    (best, best_h)
}

/// Exact DP over one contracted chain: `cost[q][p]` = cheapest way to run
/// the whole chain when the upstream producer sits on `q` (row `P` means
/// "no producer" — source chains pay startup instead of an entry edge) and
/// the chain exits on `p`. Platform switches inside the chain pay movement
/// plus the consumer-side startup, exactly like boundary edges.
#[allow(clippy::too_many_arguments)]
fn chain_table(
    plan: &PhysicalPlan,
    chain: &[NodeId],
    platforms: &[Arc<dyn Platform>],
    cards: &[f64],
    supported: &[Vec<bool>],
    estimator: &CardinalityEstimator,
    calibration: &CostCalibration,
    startup: &[f64],
    movement: &MovementCostModel,
) -> Result<ChainTable> {
    let n_plats = platforms.len();
    let names: Vec<&str> = platforms.iter().map(|p| p.name()).collect();
    let k = chain.len();

    // Per-node operator costs (INF when the platform lacks support).
    let mut op_costs = vec![vec![INF; n_plats]; k];
    for (j, nid) in chain.iter().enumerate() {
        let node = plan.node(*nid);
        let ins: Vec<f64> = node.inputs.iter().map(|i| cards[i.0]).collect();
        let out = cards[node.id.0];
        for (pi, p) in platforms.iter().enumerate() {
            if supported[nid.0][pi] {
                op_costs[j][pi] =
                    node_cost(&node.op, &ins, out, p.as_ref(), estimator, calibration)?;
            }
        }
    }

    // Entry-edge movement and, per internal edge `j-1 → j`, the full
    // switch price `[t][r]` (movement plus the consumer-side startup):
    // both are independent of the entry row, so price them once.
    let head = plan.node(chain[0]);
    let entry = head.inputs.first().map(|i| {
        movement_matrix(
            &names,
            cards[i.0],
            movement,
            &supported[i.0],
            &supported[head.id.0],
        )
    });
    let internal: Vec<Vec<Vec<f64>>> = chain
        .windows(2)
        .map(|w| {
            let mut m = movement_matrix(
                &names,
                cards[w[0].0],
                movement,
                &supported[w[0].0],
                &supported[w[1].0],
            );
            for (t, row) in m.iter_mut().enumerate() {
                for (r, edge) in row.iter_mut().enumerate() {
                    if t != r {
                        *edge += startup[r];
                    }
                }
            }
            m
        })
        .collect();

    let mut cost = vec![vec![INF; n_plats]; n_plats + 1];
    let mut back = vec![vec![vec![0usize; n_plats]; k]; n_plats + 1];
    for q in 0..=n_plats {
        // Row P without a source head (or a producer row for a source
        // head) is never queried; skip the waste.
        match entry {
            Some(_) if q == n_plats => continue,
            None if q < n_plats => continue,
            _ => {}
        }
        let mut dp = vec![INF; n_plats];
        for (r, slot) in dp.iter_mut().enumerate() {
            if !op_costs[0][r].is_finite() {
                continue;
            }
            let mut c = op_costs[0][r];
            match &entry {
                Some(entry) => {
                    c += entry[q][r];
                    if q != r {
                        c += startup[r];
                    }
                }
                None => c += startup[r], // a source opens an atom
            }
            *slot = c;
        }
        for (j, edges) in (1..k).zip(&internal) {
            let mut nxt = vec![INF; n_plats];
            for (r, slot) in nxt.iter_mut().enumerate() {
                if !op_costs[j][r].is_finite() {
                    continue;
                }
                let mut best = INF;
                let mut best_t = 0;
                for (t, &prev) in dp.iter().enumerate() {
                    if !prev.is_finite() {
                        continue;
                    }
                    let edge = edges[t][r];
                    if prev + edge < best {
                        best = prev + edge;
                        best_t = t;
                    }
                }
                if best.is_finite() {
                    *slot = op_costs[j][r] + best;
                    back[q][j][r] = best_t;
                }
            }
            dp = nxt;
        }
        cost[q] = dp;
    }
    Ok(ChainTable { cost, back })
}

/// Turn a lattice outcome into an [`ExecutionPlan`]: string assignments,
/// per-node estimates, task atoms with channel-annotated boundaries, and
/// the [`EnumerationInfo`] record (contraction groups + conversion routes).
fn finish_v2(
    plan: Arc<PhysicalPlan>,
    platforms: &[Arc<dyn Platform>],
    cards: &[f64],
    outcome: LatticeOutcome,
    movement: &MovementCostModel,
    estimator: &CardinalityEstimator,
    calibration: &CostCalibration,
) -> Result<ExecutionPlan> {
    let assignments: Vec<String> = outcome
        .assignment
        .iter()
        .map(|&pi| platforms[pi].name().to_string())
        .collect();

    let mut estimates = Vec::with_capacity(plan.len());
    for node in plan.nodes() {
        let p = &platforms[outcome.assignment[node.id.0]];
        let ins: Vec<f64> = node.inputs.iter().map(|i| cards[i.0]).collect();
        let cost_ms = node_cost(
            &node.op,
            &ins,
            cards[node.id.0],
            p.as_ref(),
            estimator,
            calibration,
        )?;
        estimates.push(NodeEstimate {
            cost_ms,
            card: cards[node.id.0],
        });
    }

    // Record every cross-platform edge's conversion route.
    let mut conversions = Vec::new();
    for node in plan.nodes() {
        for (slot, input) in node.inputs.iter().enumerate() {
            let from = &assignments[input.0];
            let to = &assignments[node.id.0];
            if from != to {
                let route = movement.route(from, to, cards[input.0]);
                conversions.push(ChannelConversion {
                    producer: *input,
                    consumer: node.id,
                    slot,
                    from: from.clone(),
                    to: to.clone(),
                    path: route.path.clone(),
                    cost_ms: route.total_ms(),
                });
            }
        }
    }

    let mut atoms = split_into_atoms(&plan, &assignments);
    for atom in &mut atoms {
        for input in &mut atom.inputs {
            if let Some(conv) = conversions.iter().find(|c| {
                c.producer == input.producer && c.consumer == input.consumer && c.slot == input.slot
            }) {
                input.channel = conv.path.last().copied().unwrap_or_default();
            }
        }
    }

    let groups: Vec<Vec<NodeId>> = outcome
        .supers
        .iter()
        .filter(|s| s.nodes.len() > 1)
        .map(|s| s.nodes.clone())
        .collect();

    Ok(ExecutionPlan {
        physical: plan,
        assignments,
        atoms,
        estimated_cost: outcome.total_cost,
        estimates,
        enumeration: EnumerationInfo {
            path: if outcome.capped {
                EnumerationPath::FrontierCapped
            } else {
                EnumerationPath::Lattice
            },
            expansions: outcome.expansions,
            groups,
            conversions,
        },
    })
}

/// The canonical objective every exact enumerator minimizes: each node
/// priced once on its assigned platform (sources pay startup), each edge
/// priced once (movement plus the consumer-side startup on a platform
/// switch).
pub fn assignment_cost(
    plan: &PhysicalPlan,
    assignments: &[String],
    registry: &PlatformRegistry,
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    calibration: &CostCalibration,
) -> Result<f64> {
    if assignments.len() != plan.len() {
        return Err(RheemError::Optimizer(format!(
            "assignment vector has {} entries for a {}-node plan",
            assignments.len(),
            plan.len()
        )));
    }
    let cards = estimator.estimate(plan)?;
    let mut total = 0.0;
    for node in plan.nodes() {
        let p = registry.get(&assignments[node.id.0])?;
        let ins: Vec<f64> = node.inputs.iter().map(|i| cards[i.0]).collect();
        total += node_cost(
            &node.op,
            &ins,
            cards[node.id.0],
            p.as_ref(),
            estimator,
            calibration,
        )?;
        if node.inputs.is_empty() {
            total += p.cost_model().atom_startup_cost();
        }
        for input in &node.inputs {
            let q = &assignments[input.0];
            total += movement.cost(q, p.name(), cards[input.0]);
            if q != p.name() {
                total += p.cost_model().atom_startup_cost();
            }
        }
    }
    Ok(total)
}

/// Exhaustive reference enumerator: tries **every** feasible platform
/// assignment and returns the cheapest one under [`assignment_cost`]
/// (lexicographically-first on ties — deterministic). Exponential by
/// construction, so plans are capped at 12 nodes; this is the oracle the
/// v2 proptests and the `ablation_enumeration` sweep compare against.
pub fn enumerate_exhaustive(
    plan: &PhysicalPlan,
    registry: &PlatformRegistry,
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    config: &EnumerationConfig,
    calibration: &CostCalibration,
) -> Result<(Vec<String>, f64)> {
    let n = plan.len();
    if n > 12 {
        return Err(RheemError::Optimizer(format!(
            "exhaustive oracle is capped at 12 nodes (got {n})"
        )));
    }
    let platforms = considered_platforms(registry, config)?;
    let free_movement = MovementCostModel::free();
    let movement = if config.consider_movement_costs {
        movement
    } else {
        &free_movement
    };
    let n_plats = platforms.len();
    let cards = estimator.estimate(plan)?;
    let startup: Vec<f64> = platforms
        .iter()
        .map(|p| p.cost_model().atom_startup_cost())
        .collect();
    let names: Vec<&str> = platforms.iter().map(|p| p.name()).collect();

    // Per-node supported platform lists (and their operator costs).
    let mut supported: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut op_costs = vec![vec![INF; n_plats]; n];
    for node in plan.nodes() {
        let ins: Vec<f64> = node.inputs.iter().map(|i| cards[i.0]).collect();
        let mut s = Vec::new();
        for (pi, p) in platforms.iter().enumerate() {
            if supports_deep(p.as_ref(), &node.op) {
                op_costs[node.id.0][pi] = node_cost(
                    &node.op,
                    &ins,
                    cards[node.id.0],
                    p.as_ref(),
                    estimator,
                    calibration,
                )?;
                s.push(pi);
            }
        }
        if s.is_empty() {
            return Err(RheemError::NoPlatformFor {
                op: node.op.name(),
                node: node.id,
            });
        }
        supported.push(s);
    }

    // Odometer over per-node supported lists, node 0 most significant, so
    // the first assignment visited (and kept on ties) is lexicographically
    // smallest in platform-index order.
    let mut idx = vec![0usize; n];
    let mut best_cost = INF;
    let mut best: Vec<usize> = Vec::new();
    loop {
        let mut total = 0.0;
        for node in plan.nodes() {
            let pi = supported[node.id.0][idx[node.id.0]];
            total += op_costs[node.id.0][pi];
            if node.inputs.is_empty() {
                total += startup[pi];
            }
            for input in &node.inputs {
                let qi = supported[input.0][idx[input.0]];
                total += movement.cost(names[qi], names[pi], cards[input.0]);
                if qi != pi {
                    total += startup[pi];
                }
            }
        }
        if total < best_cost {
            best_cost = total;
            best = (0..n).map(|i| supported[i][idx[i]]).collect();
        }
        // Advance the odometer (least significant digit = last node).
        let mut d = n;
        loop {
            if d == 0 {
                let assignments = best
                    .iter()
                    .map(|&pi| names[pi].to_string())
                    .collect::<Vec<_>>();
                return Ok((assignments, best_cost));
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < supported[d].len() {
                break;
            }
            idx[d] = 0;
        }
    }
}
