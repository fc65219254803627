//! Topology-aware course assembly.
//!
//! `fs_core::CourseBuilder` assembles the participants; [`run_course_auto`]
//! routes them over whatever `FlConfig::topology` names and runs them. The
//! star path runs the untouched `StandaloneRunner`, a hierarchy is the same
//! runner with a [`crate::router::TreeRouter`] installed, and a (serverless)
//! gossip course gets its own round-synchronous runner. A monitor attached
//! with `runner.with_monitor(..)` beforehand is carried through routing; a
//! gossip course that needs one is `GossipRunner::from_standalone(runner)?
//! .with_monitor(..).run()`.

use crate::gossip::GossipRunner;
use crate::router::{route, run_routed, TopoReport, TopoRunError};
use fs_core::runner::{CourseReport, StandaloneRunner};
use fs_net::Topology;

/// Routes an assembled course over its configured topology and runs it,
/// returning its report plus per-tier traffic (absent for the star, whose
/// single tier already *is* the report's byte pair).
pub fn run_course_auto(
    mut runner: StandaloneRunner,
) -> Result<(CourseReport, Option<TopoReport>), TopoRunError> {
    match runner.server.state.cfg.topology {
        Topology::Star => runner
            .try_run()
            .map(|report| (report, None))
            .map_err(TopoRunError::Verification),
        Topology::Hierarchical { .. } => {
            run_routed(&mut route(runner)?).map(|(report, topo)| (report, Some(topo)))
        }
        Topology::Gossip { .. } => {
            let outcome = GossipRunner::from_standalone(runner)?.run()?;
            Ok((outcome.report, Some(outcome.topo)))
        }
    }
}
