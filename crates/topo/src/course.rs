//! Topology-aware course running.
//!
//! `fs_core::CourseBuilder` assembles the participants and its runner
//! realizes a star or a hierarchy itself; [`run_course_auto`] adds the one
//! shape a server runner cannot run — a (serverless) gossip course, which
//! gets its own round-synchronous runner. A monitor attached with
//! `runner.with_monitor(..)` beforehand records a star or hierarchical
//! course; a gossip course that needs one is
//! `GossipRunner::from_standalone(runner)?.with_monitor(..).run()`.

use crate::gossip::GossipRunner;
use fs_core::runner::{CourseReport, StandaloneRunner, TopoReport};
use fs_net::{ParticipantId, Topology, TopologyError};
use fs_verify::VerifyReport;
use std::fmt;

/// Why a topology course could not run (or stopped mid-run).
#[derive(Debug)]
pub enum TopoRunError {
    /// The topology description itself is invalid for this course.
    Topology(TopologyError),
    /// The course was refused before it started: its preflight report holds
    /// an Error.
    Verification(Box<VerifyReport>),
    /// A gossip peer's shared update failed to decode.
    Decode {
        /// The peer whose update failed.
        peer: ParticipantId,
        /// Decoder detail.
        detail: String,
    },
    /// A distributed (threaded / socketed) topology course failed.
    Distributed(fs_core::distributed::DistributedError),
}

impl fmt::Display for TopoRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoRunError::Topology(e) => write!(f, "invalid topology: {e}"),
            TopoRunError::Verification(report) => {
                write!(f, "course rejected by static verification:\n{report}")
            }
            TopoRunError::Decode { peer, detail } => {
                write!(f, "peer {peer}'s shared update failed to decode: {detail}")
            }
            TopoRunError::Distributed(e) => write!(f, "distributed topology course failed: {e}"),
        }
    }
}

impl std::error::Error for TopoRunError {}

impl From<TopologyError> for TopoRunError {
    fn from(e: TopologyError) -> Self {
        TopoRunError::Topology(e)
    }
}

impl From<fs_core::distributed::DistributedError> for TopoRunError {
    fn from(e: fs_core::distributed::DistributedError) -> Self {
        TopoRunError::Distributed(e)
    }
}

/// Runs an assembled course over its configured topology, returning its
/// report plus per-tier traffic (absent for the star, whose single tier
/// already *is* the report's byte pair). Unlike `Runner::run` this never
/// panics: a refusal comes back as a typed error.
pub fn run_course_auto(
    mut runner: StandaloneRunner,
) -> Result<(CourseReport, Option<TopoReport>), TopoRunError> {
    if let Topology::Gossip { .. } = runner.server.state.cfg.topology {
        let outcome = GossipRunner::from_standalone(runner)?.run()?;
        return Ok((outcome.report, Some(outcome.topo)));
    }
    let report = runner.try_run().map_err(TopoRunError::Verification)?;
    Ok((report, runner.topo_report()))
}
