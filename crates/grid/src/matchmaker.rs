//! Matching stage requirements against the resource directory
//! ("automatic … matching between the resources and the requirements",
//! paper §3.1).

use std::collections::HashMap;

use gates_core::{StageId, Topology};

use crate::registry::ResourceRegistry;

/// Why a stage could not be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The directory is empty.
    NoNodes,
    /// Every candidate node is at capacity.
    NoCapacity {
        /// The stage that failed to place.
        stage: String,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoNodes => write!(f, "resource directory is empty"),
            PlacementError::NoCapacity { stage } => {
                write!(f, "no node has capacity for stage {stage:?}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Greedy site-affinity matchmaker.
///
/// Policy, per stage in id order:
/// 1. prefer a node whose site equals the stage's site label and that has
///    free capacity (fewest same-group replicas first, then least-loaded,
///    then fastest);
/// 2. otherwise any node with free capacity (same ordering) — "computing
///    resources close to the source … can be used for initial processing"
///    is a preference, not a hard constraint.
///
/// The same-group ordering is replica anti-affinity: members of one
/// [`gates_core::ReplicaGroup`] spread across distinct nodes whenever
/// capacity allows, so a sharded stage actually gains parallel hardware
/// (and a node failure strands at most one replica's key range).
#[derive(Debug, Default)]
pub struct Matchmaker;

impl Matchmaker {
    /// Compute a placement for every stage. Returns stage-id → node name.
    pub fn place(
        &self,
        topology: &Topology,
        registry: &ResourceRegistry,
    ) -> Result<HashMap<StageId, String>, PlacementError> {
        if registry.is_empty() {
            return Err(PlacementError::NoNodes);
        }
        let mut load: HashMap<&str, usize> = HashMap::new();
        let mut placement: HashMap<StageId, String> = HashMap::new();

        for (idx, stage) in topology.stages().iter().enumerate() {
            let id = topology.stage_by_name(&stage.name).expect("stage exists");
            debug_assert_eq!(id.index(), idx);

            // Nodes already hosting a sibling from this stage's replica
            // group, weighted by how many.
            let mut siblings: HashMap<&str, usize> = HashMap::new();
            if let Some((gi, _)) = topology.replica_of(id) {
                for m in &topology.groups()[gi].members {
                    if let Some(node) = placement.get(m) {
                        *siblings.entry(registry.node(node).unwrap().name.as_str()).or_insert(0) +=
                            1;
                    }
                }
            }

            let pick = |candidates: &mut dyn Iterator<Item = &crate::node::NodeSpec>,
                        load: &HashMap<&str, usize>,
                        siblings: &HashMap<&str, usize>| {
                candidates
                    .filter(|n| load.get(n.name.as_str()).copied().unwrap_or(0) < n.max_stages)
                    .min_by(|a, b| {
                        let sa = siblings.get(a.name.as_str()).copied().unwrap_or(0);
                        let sb = siblings.get(b.name.as_str()).copied().unwrap_or(0);
                        let la = load.get(a.name.as_str()).copied().unwrap_or(0);
                        let lb = load.get(b.name.as_str()).copied().unwrap_or(0);
                        sa.cmp(&sb)
                            .then(la.cmp(&lb))
                            .then(b.cpu_speed.partial_cmp(&a.cpu_speed).unwrap())
                            .then(a.name.cmp(&b.name))
                    })
                    .map(|n| n.name.clone())
            };

            let site_match = pick(&mut registry.at_site(&stage.site), &load, &siblings);
            let chosen = match site_match {
                Some(name) => name,
                None => pick(&mut registry.nodes().iter(), &load, &siblings)
                    .ok_or_else(|| PlacementError::NoCapacity { stage: stage.name.clone() })?,
            };
            *load.entry(registry.node(&chosen).unwrap().name.as_str()).or_insert(0) += 1;
            // Borrow gymnastics: re-key by the owned name.
            let owned = chosen.clone();
            placement.insert(id, owned);
        }
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use gates_core::{CostModel, Packet, StageApi, StageBuilder, StreamProcessor};
    use gates_net::{Bandwidth, LinkSpec};

    struct Nop;
    impl StreamProcessor for Nop {
        fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
    }

    fn stage(name: &str, site: &str) -> StageBuilder {
        StageBuilder::new(name).site(site).cost(CostModel::zero()).processor(|| Nop)
    }

    fn link() -> LinkSpec {
        LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(100.0))
    }

    #[test]
    fn site_affinity_wins() {
        let mut t = Topology::new();
        let a = t.add_stage(stage("src", "edge-0")).unwrap();
        let b = t.add_stage(stage("sink", "central")).unwrap();
        t.connect(a, b, link());

        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::new("e0", "edge-0"));
        r.register(NodeSpec::new("c0", "central"));

        let placement = Matchmaker.place(&t, &r).unwrap();
        assert_eq!(placement[&a], "e0");
        assert_eq!(placement[&b], "c0");
    }

    #[test]
    fn falls_back_to_any_node_when_site_missing() {
        let mut t = Topology::new();
        let a = t.add_stage(stage("src", "mars")).unwrap();
        let _ = a;
        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::new("c0", "central"));
        let placement = Matchmaker.place(&t, &r).unwrap();
        assert_eq!(placement[&a], "c0");
    }

    #[test]
    fn prefers_least_loaded_then_fastest() {
        let mut t = Topology::new();
        let s1 = t.add_stage(stage("s1", "pool")).unwrap();
        let s2 = t.add_stage(stage("s2", "pool")).unwrap();
        let s3 = t.add_stage(stage("s3", "pool")).unwrap();
        t.connect(s1, s2, link());
        t.connect(s2, s3, link());
        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::new("slow", "pool").speed(1.0).capacity(10));
        r.register(NodeSpec::new("fast", "pool").speed(2.0).capacity(10));
        let placement = Matchmaker.place(&t, &r).unwrap();
        // First goes to fastest; second to the other (less loaded); third
        // back to fastest.
        assert_eq!(placement[&s1], "fast");
        assert_eq!(placement[&s2], "slow");
        assert_eq!(placement[&s3], "fast");
    }

    #[test]
    fn capacity_limits_are_respected() {
        let mut t = Topology::new();
        let a = t.add_stage(stage("a", "pool")).unwrap();
        let b = t.add_stage(stage("b", "pool")).unwrap();
        t.connect(a, b, link());
        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::new("tiny", "pool").capacity(1));
        let err = Matchmaker.place(&t, &r).unwrap_err();
        assert_eq!(err, PlacementError::NoCapacity { stage: "b".into() });
    }

    #[test]
    fn empty_registry_is_an_error() {
        let mut t = Topology::new();
        t.add_stage(stage("a", "x")).unwrap();
        assert_eq!(
            Matchmaker.place(&t, &ResourceRegistry::new()).unwrap_err(),
            PlacementError::NoNodes
        );
    }

    #[test]
    fn replicas_spread_across_nodes() {
        let mut t = Topology::new();
        let src = t.add_stage(stage("src", "pool")).unwrap();
        let agg = t.add_stage(stage("agg", "pool")).unwrap();
        let snk = t.add_stage(stage("snk", "pool")).unwrap();
        t.connect(src, agg, link());
        t.connect(agg, snk, link());
        t.replicate("agg", 3).unwrap();

        let mut r = ResourceRegistry::new();
        // One node is much faster — without anti-affinity every replica
        // would pile onto it (capacity allows).
        r.register(NodeSpec::new("fast", "pool").speed(4.0).capacity(10));
        r.register(NodeSpec::new("n1", "pool").speed(1.0).capacity(10));
        r.register(NodeSpec::new("n2", "pool").speed(1.0).capacity(10));

        let placement = Matchmaker.place(&t, &r).unwrap();
        let g = &t.groups()[0];
        let hosts: std::collections::HashSet<&String> =
            g.members.iter().map(|m| &placement[m]).collect();
        assert_eq!(hosts.len(), 3, "three replicas on three distinct nodes: {placement:?}");
    }

    #[test]
    fn replicas_share_nodes_only_when_forced() {
        let mut t = Topology::new();
        let agg = t.add_stage(stage("agg", "pool")).unwrap();
        let snk = t.add_stage(stage("snk", "pool")).unwrap();
        t.connect(agg, snk, link());
        t.replicate("agg", 4).unwrap();

        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::new("n1", "pool").capacity(10));
        r.register(NodeSpec::new("n2", "pool").capacity(10));

        let placement = Matchmaker.place(&t, &r).unwrap();
        let g = &t.groups()[0];
        let mut per_node: HashMap<&str, usize> = HashMap::new();
        for m in &g.members {
            *per_node.entry(placement[m].as_str()).or_insert(0) += 1;
        }
        // Four replicas over two nodes: anti-affinity balances 2/2
        // rather than stacking.
        assert_eq!(per_node.values().copied().collect::<Vec<_>>(), vec![2, 2]);
    }

    #[test]
    fn placement_is_deterministic() {
        let build = || {
            let mut t = Topology::new();
            let a = t.add_stage(stage("a", "pool")).unwrap();
            let b = t.add_stage(stage("b", "pool")).unwrap();
            t.connect(a, b, link());
            t
        };
        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::new("n1", "pool").capacity(4));
        r.register(NodeSpec::new("n2", "pool").capacity(4));
        let p1 = Matchmaker.place(&build(), &r).unwrap();
        let p2 = Matchmaker.place(&build(), &r).unwrap();
        assert_eq!(p1, p2);
    }
}
