//! Shared pieces of platform assignment (§4.2): the enumeration knobs,
//! per-operator costing, and task-atom splitting.
//!
//! The search itself lives in [`mod@super::enumerate_v2`]; this module holds
//! what it, the exhaustive test oracle, and hand-built plans share:
//! [`EnumerationConfig`], `node_cost` (loops are costed as
//! `expected_iterations × body-cost-on-p`, with the whole body pinned to one
//! platform — matching how the paper's Figure 2 runs an entire SVM loop
//! either "as a Spark job" or "as a plain Java program"), and
//! [`split_into_atoms`].

use std::collections::HashSet;

use crate::cost::{calibrated_op_cost, CardinalityEstimator};
use crate::error::Result;
use crate::observe::CostCalibration;
use crate::physical::PhysicalOp;
use crate::plan::{AtomInput, NodeId, PhysicalPlan, TaskAtom};

/// Tuning knobs for the enumerator (several exist purely so the paper's
/// ablation benchmarks can switch behaviours off).
#[derive(Clone, Debug)]
pub struct EnumerationConfig {
    /// Restrict the search to one platform (platform-independence ablation;
    /// also how an end user pins a job to an engine).
    pub forced_platform: Option<String>,
    /// When `false`, data movement is priced at zero during enumeration —
    /// the optimizer becomes movement-oblivious (ablation B).
    pub consider_movement_costs: bool,
    /// Platforms removed from the search entirely. Failover re-planning
    /// excludes failed platforms this way; an exclusion that leaves some
    /// operator unmappable surfaces as
    /// [`RheemError::NoPlatformFor`](crate::error::RheemError::NoPlatformFor).
    pub excluded_platforms: Vec<String>,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig {
            forced_platform: None,
            consider_movement_costs: true,
            excluded_platforms: Vec::new(),
        }
    }
}

/// Cost of one operator on one platform; loops recurse into the body.
/// Static model costs are scaled by the calibration factor learned for
/// the `(operator, platform)` pair.
pub(crate) fn node_cost(
    op: &PhysicalOp,
    ins: &[f64],
    out: f64,
    platform: &dyn crate::platform::Platform,
    estimator: &CardinalityEstimator,
    calibration: &CostCalibration,
) -> Result<f64> {
    let model = platform.cost_model();
    match op {
        PhysicalOp::Loop {
            body,
            expected_iterations,
            ..
        } => {
            let loop_card = ins.first().copied().unwrap_or(0.0);
            let body_cards = estimator.estimate_with_loop_input(body, loop_card)?;
            let mut body_cost = 0.0;
            for bn in body.nodes() {
                let bins: Vec<f64> = bn.inputs.iter().map(|i| body_cards[i.0]).collect();
                body_cost += node_cost(
                    &bn.op,
                    &bins,
                    body_cards[bn.id.0],
                    platform,
                    estimator,
                    calibration,
                )?;
            }
            // Each iteration re-dispatches the body: platforms with high
            // scheduling overhead pay it per iteration. This is precisely
            // the mechanism behind Figure 2's "gap gets bigger with the
            // number of iterations".
            let per_iter = body_cost + model.atom_startup_cost() * 0.1;
            let raw = *expected_iterations * per_iter;
            // The Loop node itself is also a calibratable kernel: its
            // observation covers all iterations.
            Ok(raw * calibration.cost_factor(&op.name(), platform.name()))
        }
        _ => Ok(calibrated_op_cost(
            model.as_ref(),
            op,
            ins,
            out,
            platform.name(),
            calibration,
        )),
    }
}

/// `supports` extended through loop bodies.
pub(crate) fn supports_deep(platform: &dyn crate::platform::Platform, op: &PhysicalOp) -> bool {
    match op {
        PhysicalOp::Loop { body, .. } => {
            platform.supports(op) && body.nodes().iter().all(|n| supports_deep(platform, &n.op))
        }
        _ => platform.supports(op),
    }
}

/// Group same-platform nodes into maximal acyclic task atoms.
///
/// Nodes are visited in topological order; a node joins the atom of one of
/// its same-platform producers unless doing so would create a cycle in the
/// atom dependency graph, in which case a fresh atom is opened.
pub fn split_into_atoms(plan: &PhysicalPlan, assignments: &[String]) -> Vec<TaskAtom> {
    struct ProtoAtom {
        platform: String,
        nodes: Vec<NodeId>,
        deps: HashSet<usize>, // direct upstream atoms
    }

    let mut atoms: Vec<ProtoAtom> = Vec::new();
    let mut atom_of: Vec<usize> = vec![usize::MAX; plan.len()];

    // Does atom `from` transitively depend on atom `target`?
    fn depends_on(atoms: &[ProtoAtom], from: usize, target: usize) -> bool {
        if from == target {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(a) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            for &d in &atoms[a].deps {
                if d == target {
                    return true;
                }
                stack.push(d);
            }
        }
        false
    }

    for node in plan.nodes() {
        let platform = &assignments[node.id.0];
        let producer_atoms: Vec<usize> = node.inputs.iter().map(|i| atom_of[i.0]).collect();

        // Candidate atoms: atoms of same-platform producers.
        let mut chosen: Option<usize> = None;
        for (&input_atom, input) in producer_atoms.iter().zip(&node.inputs) {
            if assignments[input.0] != *platform {
                continue;
            }
            // Joining `input_atom` is safe iff no *other* producer atom
            // transitively depends on it.
            let safe = producer_atoms
                .iter()
                .filter(|&&a| a != input_atom)
                .all(|&a| !depends_on(&atoms, a, input_atom));
            if safe {
                chosen = Some(input_atom);
                break;
            }
        }

        let atom_id = match chosen {
            Some(a) => a,
            None => {
                atoms.push(ProtoAtom {
                    platform: platform.clone(),
                    nodes: Vec::new(),
                    deps: HashSet::new(),
                });
                atoms.len() - 1
            }
        };
        atoms[atom_id].nodes.push(node.id);
        atom_of[node.id.0] = atom_id;
        for &pa in &producer_atoms {
            if pa != atom_id {
                atoms[atom_id].deps.insert(pa);
            }
        }
    }

    // Topologically order the atoms.
    let mut order: Vec<usize> = Vec::with_capacity(atoms.len());
    let mut placed = vec![false; atoms.len()];
    while order.len() < atoms.len() {
        let before = order.len();
        for i in 0..atoms.len() {
            if placed[i] {
                continue;
            }
            if atoms[i].deps.iter().all(|&d| placed[d]) {
                placed[i] = true;
                order.push(i);
            }
        }
        assert!(order.len() > before, "atom graph must be acyclic");
    }

    // Materialize TaskAtoms with boundary inputs/outputs.
    let consumers = plan.consumers();
    let mut out = Vec::with_capacity(atoms.len());
    for (new_id, &old_id) in order.iter().enumerate() {
        let proto = &atoms[old_id];
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for &n in &proto.nodes {
            for (slot, producer) in plan.node(n).inputs.iter().enumerate() {
                if atom_of[producer.0] != old_id {
                    inputs.push(AtomInput {
                        consumer: n,
                        slot,
                        producer: *producer,
                        channel: Default::default(),
                    });
                }
            }
            let crosses = consumers[n.0].iter().any(|c| atom_of[c.0] != old_id);
            if crosses || plan.node(n).op.is_sink() {
                outputs.push(n);
            }
        }
        out.push(TaskAtom {
            id: new_id,
            platform: proto.platform.clone(),
            nodes: proto.nodes.clone(),
            inputs,
            outputs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::rec;

    fn assignments(plan: &PhysicalPlan, names: &[&str]) -> Vec<String> {
        assert_eq!(plan.len(), names.len());
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_platform_yields_single_atom() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, crate::udf::MapUdf::new("id", |r| r.clone()));
        b.collect(m);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(&plan, &assignments(&plan, &["java", "java", "java"]));
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].nodes.len(), 3);
        assert!(atoms[0].inputs.is_empty());
        assert_eq!(atoms[0].outputs.len(), 1); // the sink
    }

    #[test]
    fn platform_switch_creates_boundary() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, crate::udf::MapUdf::new("id", |r| r.clone()));
        b.collect(m);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(&plan, &assignments(&plan, &["java", "spark", "spark"]));
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].platform, "java");
        assert_eq!(atoms[1].platform, "spark");
        assert_eq!(atoms[1].inputs.len(), 1);
        assert_eq!(atoms[0].outputs.len(), 1); // crossed edge
    }

    #[test]
    fn sandwich_pattern_does_not_create_cyclic_atoms() {
        // n0(java) -> n1(spark) -> n2(java), plus n0 -> n2 directly.
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, crate::udf::MapUdf::new("a", |r| r.clone()));
        let u = b.union(src, m);
        b.collect(u);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(
            &plan,
            &assignments(&plan, &["java", "spark", "java", "java"]),
        );
        // The union cannot join the source's atom (would make java-atom
        // depend on spark-atom depend on java-atom)... unless checked; we
        // verify the atom graph is acyclic by construction (no panic) and
        // the schedule order respects dependencies.
        for atom in &atoms {
            for input in &atom.inputs {
                let producer_atom = atoms
                    .iter()
                    .find(|a| a.nodes.contains(&input.producer))
                    .unwrap();
                assert!(
                    producer_atom.id < atom.id,
                    "producer atom must be scheduled earlier"
                );
            }
        }
    }

    #[test]
    fn diamond_same_platform_is_one_atom() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let f1 = b.filter(src, crate::udf::FilterUdf::new("a", |_| true));
        let f2 = b.filter(src, crate::udf::FilterUdf::new("b", |_| true));
        let u = b.union(f1, f2);
        b.collect(u);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(
            &plan,
            &assignments(&plan, &["java", "java", "java", "java", "java"]),
        );
        assert_eq!(atoms.len(), 1);
    }
}
