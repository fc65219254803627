//! Topology-aware course assembly.
//!
//! `fs_core::CourseBuilder` assembles the participants; this module routes
//! them over whatever `FlConfig::topology` names. The star path hands back
//! the untouched `StandaloneRunner`, a hierarchy is the same runner with a
//! [`crate::router::TreeRouter`] installed, and a (serverless) gossip course
//! gets its own round-synchronous runner.

use crate::gossip::GossipRunner;
use crate::router::{route, run_routed, TopoReport, TopoRunError, TopoRunner};
use fs_core::runner::{CourseReport, StandaloneRunner};
use fs_monitor::MonitorHandle;
use fs_net::Topology;

/// An assembled course, routed per its configured topology.
pub enum TopoCourse {
    /// Plain star: the unchanged `fs-core` virtual-time runner.
    Star(Box<StandaloneRunner>),
    /// The same runner, routed over a tree of edge aggregators.
    Hierarchical(Box<TopoRunner>),
    /// Serverless peer-to-peer averaging.
    Gossip(Box<GossipRunner>),
}

impl TopoCourse {
    /// Routes an assembled star course over its configured topology.
    pub fn assemble(runner: StandaloneRunner) -> Result<Self, TopoRunError> {
        match runner.server.state.cfg.topology {
            Topology::Star => Ok(TopoCourse::Star(Box::new(runner))),
            Topology::Hierarchical { .. } => Ok(TopoCourse::Hierarchical(Box::new(route(runner)?))),
            Topology::Gossip { .. } => Ok(TopoCourse::Gossip(Box::new(
                GossipRunner::from_standalone(runner)?,
            ))),
        }
    }

    /// Attaches an observability sink to whichever runner is inside.
    pub fn with_monitor(self, monitor: MonitorHandle) -> Self {
        match self {
            TopoCourse::Star(r) => TopoCourse::Star(Box::new(r.with_monitor(monitor))),
            TopoCourse::Hierarchical(r) => {
                TopoCourse::Hierarchical(Box::new(r.with_monitor(monitor)))
            }
            TopoCourse::Gossip(r) => TopoCourse::Gossip(Box::new(r.with_monitor(monitor))),
        }
    }

    /// Runs the course and returns its report plus per-tier traffic (absent
    /// for the star, whose single tier already *is* the report's byte pair).
    pub fn run(&mut self) -> Result<(CourseReport, Option<TopoReport>), TopoRunError> {
        match self {
            TopoCourse::Star(r) => r
                .try_run()
                .map(|report| (report, None))
                .map_err(TopoRunError::Verification),
            TopoCourse::Hierarchical(r) => run_routed(r).map(|(report, topo)| (report, Some(topo))),
            TopoCourse::Gossip(r) => {
                let outcome = r.run()?;
                Ok((outcome.report, Some(outcome.topo)))
            }
        }
    }
}

/// One-shot convenience: route and run an assembled course in a single call.
pub fn run_course_auto(
    runner: StandaloneRunner,
) -> Result<(CourseReport, Option<TopoReport>), TopoRunError> {
    TopoCourse::assemble(runner)?.run()
}
