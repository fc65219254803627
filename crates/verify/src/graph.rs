//! The message-flow graph of Appendix E.
//!
//! Nodes are [`Event`]s; an edge `a -> b` means "some handler registered for
//! `a` declares it emits `b`". The verifier builds the *union* graph over the
//! server and every client group, so reachability holds even when only a
//! subset of clients carries a custom handler.

use fs_net::Event;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A directed graph over events.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    nodes: BTreeSet<Event>,
    edges: BTreeMap<Event, BTreeSet<Event>>,
}

impl FlowGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node without edges.
    pub fn add_node(&mut self, e: Event) {
        self.nodes.insert(e);
    }

    /// Adds an edge (and both endpoints).
    pub fn add_edge(&mut self, from: Event, to: Event) {
        self.nodes.insert(from);
        self.nodes.insert(to);
        self.edges.entry(from).or_default().insert(to);
    }

    /// All nodes, ordered.
    pub fn nodes(&self) -> impl Iterator<Item = Event> + '_ {
        self.nodes.iter().copied()
    }

    /// Successors of a node.
    pub fn successors(&self, e: Event) -> impl Iterator<Item = Event> + '_ {
        self.edges.get(&e).into_iter().flatten().copied()
    }

    /// Whether the node has at least one outgoing edge.
    pub fn has_out_edges(&self, e: Event) -> bool {
        self.edges.get(&e).is_some_and(|s| !s.is_empty())
    }

    /// Every node reachable from `start` (including `start` itself, if it is
    /// a node of the graph).
    pub fn reachable_from(&self, start: Event) -> BTreeSet<Event> {
        let mut seen = BTreeSet::new();
        if !self.nodes.contains(&start) {
            return seen;
        }
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(n) = queue.pop_front() {
            for next in self.successors(n) {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        seen
    }

    /// Every node from which `target` is reachable (including `target`).
    pub fn can_reach(&self, target: Event) -> BTreeSet<Event> {
        let mut seen = BTreeSet::new();
        if !self.nodes.contains(&target) {
            return seen;
        }
        // reverse adjacency
        let mut rev: BTreeMap<Event, BTreeSet<Event>> = BTreeMap::new();
        for (from, tos) in &self.edges {
            for to in tos {
                rev.entry(*to).or_default().insert(*from);
            }
        }
        let mut queue = VecDeque::from([target]);
        seen.insert(target);
        while let Some(n) = queue.pop_front() {
            if let Some(preds) = rev.get(&n) {
                for p in preds {
                    if seen.insert(*p) {
                        queue.push_back(*p);
                    }
                }
            }
        }
        seen
    }

    /// Nodes that lie on a directed cycle (a non-empty path back to
    /// themselves).
    pub fn on_cycle(&self) -> BTreeSet<Event> {
        let mut cyclic = BTreeSet::new();
        for &n in &self.nodes {
            // BFS from n's successors; if we come back to n, it cycles.
            let mut seen = BTreeSet::new();
            let mut queue: VecDeque<Event> = self.successors(n).collect();
            for s in &queue {
                seen.insert(*s);
            }
            let mut found = queue.contains(&n);
            while let Some(m) = queue.pop_front() {
                if found {
                    break;
                }
                for next in self.successors(m) {
                    if next == n {
                        found = true;
                        break;
                    }
                    if seen.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
            if found {
                cyclic.insert(n);
            }
        }
        cyclic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_net::{Condition, MessageKind};

    fn m(k: MessageKind) -> Event {
        Event::Message(k)
    }
    fn c(cond: Condition) -> Event {
        Event::Condition(cond)
    }

    #[test]
    fn reachability_follows_edges() {
        let mut g = FlowGraph::new();
        g.add_edge(m(MessageKind::JoinIn), m(MessageKind::ModelParams));
        g.add_edge(m(MessageKind::ModelParams), m(MessageKind::Updates));
        g.add_node(m(MessageKind::EvalRequest));
        let r = g.reachable_from(m(MessageKind::JoinIn));
        assert!(r.contains(&m(MessageKind::Updates)));
        assert!(!r.contains(&m(MessageKind::EvalRequest)));
        assert_eq!(g.nodes().count(), 4);
    }

    #[test]
    fn reverse_reachability() {
        let mut g = FlowGraph::new();
        g.add_edge(m(MessageKind::JoinIn), c(Condition::AllJoinedIn));
        g.add_edge(c(Condition::AllJoinedIn), m(MessageKind::Finish));
        g.add_node(m(MessageKind::EvalRequest));
        let r = g.can_reach(m(MessageKind::Finish));
        assert!(r.contains(&m(MessageKind::JoinIn)));
        assert!(!r.contains(&m(MessageKind::EvalRequest)));
    }

    #[test]
    fn cycle_detection_finds_only_cycle_members() {
        let mut g = FlowGraph::new();
        g.add_edge(m(MessageKind::JoinIn), m(MessageKind::ModelParams));
        g.add_edge(m(MessageKind::ModelParams), m(MessageKind::Updates));
        g.add_edge(m(MessageKind::Updates), m(MessageKind::ModelParams));
        g.add_edge(m(MessageKind::Updates), m(MessageKind::Finish));
        let cyc = g.on_cycle();
        assert!(cyc.contains(&m(MessageKind::ModelParams)));
        assert!(cyc.contains(&m(MessageKind::Updates)));
        assert!(!cyc.contains(&m(MessageKind::JoinIn)));
        assert!(!cyc.contains(&m(MessageKind::Finish)));
    }
}
