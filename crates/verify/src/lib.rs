//! # fs-verify — static course verification
//!
//! FederatedScope (§3.6, Appendix E) checks an FL course *before* running
//! it: the framework builds a message-flow graph from the registered
//! `<event, handler>` pairs and their declared emissions, verifies that a
//! path exists from the course start to its termination, and prints the
//! handlers that take effect. This crate is that checker — the flow graph
//! and the diagnostics every analysis reports in:
//!
//! * **protocol checks** ([`course::verify_course`]) — completeness
//!   (join-in → Finish), unreachable handlers, dead-end events, reachable
//!   cycles with no exit to termination, and cross-participant send/receive
//!   matching;
//! * **topology checks** ([`topo::verify_topology_plan`]) over a realized
//!   tier assignment;
//! * **declaration conformance** — the engine records what handlers *actually*
//!   emit during dispatch and reports [`Code::UndeclaredEmit`] mismatches, so
//!   the static graph provably matches runtime behaviour.
//!
//! Every finding is a [`Diagnostic`] with a stable `FSVnnn` [`Code`], a
//! [`Severity`], a subject, and a suggested fix; a [`VerifyReport`] renders
//! them as the diagnostic table the CLI prints. The crate depends only on
//! `fs-net` (the event vocabulary): the engine lowers its courses into the
//! [`course::CourseIr`] defined here. The config lints (`FSV02x`–`FSV03x`,
//! `FSV06x`) read `FlConfig` itself and so live beside it, in
//! `fs_core::lint`; they report in this crate's codes.
//!
//! There is one gate and it is always on: `fs_core::verify::preflight`
//! merges every finding about a course into one report and refuses the
//! course when that report holds an Error. Nothing switches it off, and
//! building a course refuses nothing.

// Library code must surface malformed input as typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod course;
pub mod diag;
pub mod graph;
pub mod topo;

pub use course::{union_graph, verify_course, CourseIr, HandlerSpec, ParticipantSpec};
pub use diag::{Code, Diagnostic, Severity, VerifyReport};
pub use graph::FlowGraph;
pub use topo::verify_topology_plan;
