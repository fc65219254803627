//! Plan-level topology checks (FSV050–FSV053).
//!
//! `fs_core::lint_config` lints the topology *description*; this
//! module checks a realized [`TopologyPlan`] — the concrete tier assignment a
//! course will actually route over. The builder constructs well-formed plans,
//! but plans also mutate at runtime (failover re-homes subtrees) and can be
//! hand-built in tests, so runners re-verify before starting.

use crate::diag::{Code, Diagnostic, VerifyReport};
use fs_net::{Topology, TopologyPlan, SERVER_ID};

/// Verifies a realized topology plan: every participant reaches the root,
/// every edge aggregator has at least one client beneath it, and gossip
/// degrees leave room for distinct neighbors.
pub fn verify_topology_plan(plan: &TopologyPlan) -> VerifyReport {
    let mut report = VerifyReport::new();
    match plan.topology {
        Topology::Gossip { degree, .. } => {
            if degree == 0 {
                report.push(Diagnostic::new(
                    Code::TopologyInvalid,
                    "topology.degree",
                    "gossip degree of zero exchanges nothing",
                ));
            } else if degree >= plan.num_clients {
                report.push(
                    Diagnostic::new(
                        Code::GossipDegreeTooLarge,
                        "topology.degree",
                        format!(
                            "gossip degree ({degree}) must be smaller than the peer \
                             population ({})",
                            plan.num_clients
                        ),
                    )
                    .with_suggestion("keep degree <= n - 1"),
                );
            }
        }
        Topology::Star | Topology::Hierarchical { .. } => {
            // reachability: every client and edge must walk to the root in
            // finitely many hops (cycles or missing parents both fail this)
            let bound = plan.parent.len() + 1;
            for &id in plan.parent.keys() {
                let mut cur = id;
                let mut hops = 0usize;
                let reached = loop {
                    if cur == SERVER_ID {
                        break true;
                    }
                    if hops > bound {
                        break false;
                    }
                    match plan.parent.get(&cur) {
                        Some(&p) => {
                            cur = p;
                            hops += 1;
                        }
                        None => break false,
                    }
                };
                if !reached {
                    let what = if plan.is_edge(id) { "edge" } else { "client" };
                    report.push(
                        Diagnostic::new(
                            Code::TierUnreachable,
                            format!("{what} {id}"),
                            "parent chain never reaches the root server; its updates \
                             are undeliverable",
                        )
                        .with_suggestion("re-home the participant to a live aggregator"),
                    );
                }
            }
            // clients missing from the plan entirely are also unreachable
            for c in 1..=plan.num_clients as u32 {
                if !plan.parent.contains_key(&c) {
                    report.push(Diagnostic::new(
                        Code::TierUnreachable,
                        format!("client {c}"),
                        "client has no upstream parent in the plan",
                    ));
                }
            }
            // orphan subtrees: an edge with no client anywhere beneath it
            for &e in &plan.edges {
                if plan.subtree_clients(e).is_empty() {
                    report.push(
                        Diagnostic::new(
                            Code::OrphanSubtree,
                            format!("edge {e}"),
                            "edge aggregator has no clients beneath it and can never \
                             produce an update",
                        )
                        .with_suggestion("remove the edge or assign clients to it"),
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_plans_verify_clean() {
        for topo in [
            Topology::Star,
            Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            },
            Topology::Hierarchical {
                tiers: 3,
                fanout: 3,
            },
            Topology::Gossip {
                degree: 3,
                rounds: 5,
            },
        ] {
            let plan = TopologyPlan::build(topo, 12, 42).unwrap();
            let report = verify_topology_plan(&plan);
            assert!(report.is_clean(), "{topo:?}: {report}");
        }
    }

    #[test]
    fn severed_parent_chain_is_unreachable() {
        let mut plan = TopologyPlan::build(
            Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            },
            8,
            42,
        )
        .unwrap();
        let edge = plan.edges[0];
        plan.parent.remove(&edge);
        let report = verify_topology_plan(&plan);
        assert!(report.has_code(Code::TierUnreachable));
    }

    #[test]
    fn parent_cycle_is_unreachable() {
        let mut plan = TopologyPlan::build(
            Topology::Hierarchical {
                tiers: 3,
                fanout: 2,
            },
            4,
            7,
        )
        .unwrap();
        // loop the top edge back onto a deeper one
        let top = *plan.children_of(SERVER_ID).first().unwrap();
        let deep = plan.edges.iter().copied().find(|&e| e != top).unwrap();
        plan.parent.insert(top, deep);
        plan.parent.insert(deep, top);
        let report = verify_topology_plan(&plan);
        assert!(report.has_code(Code::TierUnreachable));
    }

    #[test]
    fn emptied_edge_is_an_orphan() {
        let mut plan = TopologyPlan::build(
            Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            },
            8,
            42,
        )
        .unwrap();
        let edge = plan.edges[0];
        let orphaned = plan.children.insert(edge, Vec::new()).unwrap();
        // re-home its clients so only the orphan fires
        let other = plan.edges[1];
        for c in orphaned {
            plan.parent.insert(c, other);
            plan.children.get_mut(&other).unwrap().push(c);
        }
        let report = verify_topology_plan(&plan);
        assert!(report.has_code(Code::OrphanSubtree));
        assert!(!report.has_code(Code::TierUnreachable));
    }

    #[test]
    fn missing_client_is_flagged() {
        let mut plan = TopologyPlan::build(Topology::Star, 4, 1).unwrap();
        plan.parent.remove(&3);
        let report = verify_topology_plan(&plan);
        assert!(report.has_code(Code::TierUnreachable));
    }
}
