//! Course IR and the protocol checks of §3.6 / Appendix E.
//!
//! The engine lowers an assembled course into a [`CourseIr`]: the server's
//! handler table, one [`ParticipantSpec`] per *distinct* client handler set
//! (most courses have exactly one) and the registry's overwrite log.
//! [`verify_course`] then runs the protocol checks and returns a
//! [`VerifyReport`]; the engine appends its config lints to it.

use crate::diag::{Code, Diagnostic, VerifyReport};
use crate::graph::FlowGraph;
use fs_net::{Condition, Event, MessageKind};
use std::collections::BTreeSet;

/// One registered `<event, handler>` pair, as declared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandlerSpec {
    /// The event the handler is registered for.
    pub event: Event,
    /// The handler's name (printed in the effective-handler log).
    pub name: String,
    /// The events the handler declares it may emit.
    pub emits: Vec<Event>,
    /// Auxiliary handlers answer externally driven events (e.g. an operator
    /// issuing `EvalRequest`); they are exempt from reachability checks.
    pub aux: bool,
}

/// A participant's (or participant group's) full handler table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParticipantSpec {
    /// Display label ("server", "clients 1–120", "client 7").
    pub label: String,
    /// The handlers, in registration order.
    pub handlers: Vec<HandlerSpec>,
}

impl ParticipantSpec {
    /// Whether any handler (aux included) is registered for `event`.
    pub fn handles(&self, event: Event) -> bool {
        self.handlers.iter().any(|h| h.event == event)
    }
}

/// The verifier's input: a whole course, lowered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CourseIr {
    /// The server's handlers.
    pub server: ParticipantSpec,
    /// One spec per distinct client handler table.
    pub client_groups: Vec<ParticipantSpec>,
    /// Registry overwrite warnings collected while assembling the course.
    pub registry_warnings: Vec<String>,
}

/// The event an FL course starts from: a client asking to join.
pub const START: Event = Event::Message(MessageKind::JoinIn);
/// The event that terminates an FL course.
pub const TERMINAL: Event = Event::Message(MessageKind::Finish);

/// Builds the union flow graph over every participant of the course.
pub fn union_graph(ir: &CourseIr) -> FlowGraph {
    let mut g = FlowGraph::new();
    for spec in std::iter::once(&ir.server).chain(ir.client_groups.iter()) {
        for h in &spec.handlers {
            g.add_node(h.event);
            for &e in &h.emits {
                g.add_edge(h.event, e);
            }
        }
    }
    g
}

fn subject(spec: &ParticipantSpec, h: &HandlerSpec) -> String {
    format!("{} handler '{}' ({})", spec.label, h.name, h.event)
}

/// Runs all protocol checks over the lowered course.
pub fn verify_course(ir: &CourseIr) -> VerifyReport {
    let mut report = VerifyReport::new();
    let graph = union_graph(ir);

    // ---- completeness (FSV001) -------------------------------------------
    let reachable = graph.reachable_from(START);
    let complete = reachable.contains(&TERMINAL);
    if !complete {
        let detail = if ir.server.handles(START) {
            format!("no path from {START} to {TERMINAL} in the flow graph")
        } else {
            format!("the server has no handler for the start event {START}")
        };
        report.push(
            Diagnostic::new(Code::Incomplete, "course", detail).with_suggestion(
                "ensure a handler chain leads from join-in to a handler emitting Finish",
            ),
        );
    }

    // ---- unreachable handlers (FSV002) -----------------------------------
    for spec in std::iter::once(&ir.server).chain(ir.client_groups.iter()) {
        for h in &spec.handlers {
            if h.aux || reachable.contains(&h.event) {
                continue;
            }
            report.push(
                Diagnostic::new(
                    Code::UnreachableHandler,
                    subject(spec, h),
                    format!("no reachable handler ever emits {}", h.event),
                )
                .with_suggestion("remove the handler, or register it with register_aux"),
            );
        }
    }

    // ---- dead ends (FSV003) ----------------------------------------------
    for &node in &reachable {
        if node == TERMINAL || graph.has_out_edges(node) {
            continue;
        }
        report.push(Diagnostic::new(
            Code::DeadEndEvent,
            node.to_string(),
            "reachable event whose handlers emit nothing (a sink); fine for \
             record-keeping events, a bug if the protocol should continue here",
        ));
    }

    // ---- cycles without exit (FSV004) ------------------------------------
    // Skipped when the course is already incomplete: every cycle would be
    // flagged, drowning the real finding. Also skipped when a reachable
    // `time_up` timer has a path to termination: in time-driven courses
    // (§3.3's `time_up` rule) the training loop deliberately has no graph
    // edge to Finish — the armed timer interrupts it from outside, which is
    // a valid exit the edge set cannot express.
    let timer = Event::Condition(Condition::TimeUp);
    let timer_escape = reachable.contains(&timer) && graph.can_reach(TERMINAL).contains(&timer);
    if complete && !timer_escape {
        let to_terminal = graph.can_reach(TERMINAL);
        let trapped: Vec<Event> = graph
            .on_cycle()
            .into_iter()
            .filter(|n| reachable.contains(n) && !to_terminal.contains(n))
            .collect();
        if !trapped.is_empty() {
            let names: Vec<String> = trapped.iter().map(|e| e.to_string()).collect();
            report.push(
                Diagnostic::new(
                    Code::CycleWithoutExit,
                    names.join(", "),
                    "these events form a reachable cycle from which termination \
                     cannot be reached",
                )
                .with_suggestion("give one handler on the cycle a path toward Finish"),
            );
        }
    }

    // ---- cross-participant send/receive matching (FSV005/6/7) ------------
    let any_client_handles = |k: MessageKind| {
        ir.client_groups
            .iter()
            .any(|c| c.handles(Event::Message(k)))
    };

    for h in &ir.server.handlers {
        for &e in &h.emits {
            match e {
                Event::Message(k) => {
                    if !ir.client_groups.is_empty() && !any_client_handles(k) {
                        report.push(
                            Diagnostic::new(
                                Code::ServerSendUnhandled,
                                subject(&ir.server, h),
                                format!("emits {e} but no client registers a handler for it"),
                            )
                            .with_suggestion("register a client handler for the message kind"),
                        );
                    }
                }
                Event::Condition(_) => {
                    if !ir.server.handles(e) {
                        report.push(
                            Diagnostic::new(
                                Code::ConditionUnhandled,
                                subject(&ir.server, h),
                                format!(
                                    "raises {e} but the server has no handler for it \
                                     (conditions are participant-local)"
                                ),
                            )
                            .with_suggestion("register a server handler for the condition"),
                        );
                    }
                }
            }
        }
    }

    for spec in &ir.client_groups {
        for h in &spec.handlers {
            for &e in &h.emits {
                match e {
                    Event::Message(k) => {
                        // a client may address a peer, so the kind is only
                        // unhandled when nobody handles it (as for FSV005)
                        if !ir.server.handles(e) && !any_client_handles(k) {
                            report.push(
                                Diagnostic::new(
                                    Code::ClientSendUnhandled,
                                    subject(spec, h),
                                    format!("emits {e} but no participant has a handler for it"),
                                )
                                .with_suggestion(
                                    "register a handler for the message kind on its receiver",
                                ),
                            );
                        }
                    }
                    Event::Condition(_) => {
                        if !spec.handles(e) {
                            report.push(
                                Diagnostic::new(
                                    Code::ConditionUnhandled,
                                    subject(spec, h),
                                    format!(
                                        "raises {e} but this client has no handler for it \
                                         (conditions are participant-local)"
                                    ),
                                )
                                .with_suggestion("register the condition handler on this client"),
                            );
                        }
                    }
                }
            }
        }
    }

    // ---- registry overwrite log (FSV009) ---------------------------------
    let mut seen = BTreeSet::new();
    for w in &ir.registry_warnings {
        if seen.insert(w.clone()) {
            report.push(Diagnostic::new(
                Code::RegistryOverwrite,
                "registry",
                w.clone(),
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(event: Event, name: &str, emits: &[Event]) -> HandlerSpec {
        HandlerSpec {
            event,
            name: name.to_string(),
            emits: emits.to_vec(),
            aux: false,
        }
    }

    fn m(k: MessageKind) -> Event {
        Event::Message(k)
    }
    fn c(cond: Condition) -> Event {
        Event::Condition(cond)
    }

    /// The default FedAvg shape, minus evaluation niceties.
    fn vanilla_ir() -> CourseIr {
        CourseIr {
            server: ParticipantSpec {
                label: "server".into(),
                handlers: vec![
                    h(
                        m(MessageKind::JoinIn),
                        "register_client",
                        &[m(MessageKind::IdAssignment), c(Condition::AllJoinedIn)],
                    ),
                    h(
                        c(Condition::AllJoinedIn),
                        "start_training",
                        &[m(MessageKind::ModelParams)],
                    ),
                    h(
                        m(MessageKind::Updates),
                        "save_update_check_condition",
                        &[m(MessageKind::ModelParams), c(Condition::AllReceived)],
                    ),
                    h(
                        c(Condition::AllReceived),
                        "federated_aggregation",
                        &[m(MessageKind::ModelParams), c(Condition::EarlyStop)],
                    ),
                    h(
                        c(Condition::EarlyStop),
                        "terminate",
                        &[m(MessageKind::Finish)],
                    ),
                    h(m(MessageKind::MetricsReport), "record_metrics", &[]),
                ],
            },
            client_groups: vec![ParticipantSpec {
                label: "clients".into(),
                handlers: vec![
                    h(m(MessageKind::IdAssignment), "confirm_id", &[]),
                    h(
                        m(MessageKind::ModelParams),
                        "local_training",
                        &[m(MessageKind::Updates), c(Condition::PerformanceDrop)],
                    ),
                    h(c(Condition::PerformanceDrop), "count_performance_drop", &[]),
                    h(
                        m(MessageKind::Finish),
                        "finalize",
                        &[m(MessageKind::MetricsReport)],
                    ),
                ],
            }],
            registry_warnings: vec![],
        }
    }

    #[test]
    fn vanilla_course_is_clean() {
        let report = verify_course(&vanilla_ir());
        assert!(report.is_clean(), "{report}");
        // sinks are noted, not warned
        assert!(report.has_code(Code::DeadEndEvent));
    }

    #[test]
    fn missing_aggregation_handler_is_incomplete() {
        let mut ir = vanilla_ir();
        ir.server
            .handlers
            .retain(|h| h.event != c(Condition::AllReceived));
        let report = verify_course(&ir);
        assert!(report.has_code(Code::Incomplete), "{report}");
        // the orphaned EarlyStop handler is now unreachable too
        assert!(report.has_code(Code::UnreachableHandler));
    }

    #[test]
    fn cycle_with_no_exit_is_flagged() {
        let mut ir = vanilla_ir();
        // terminate still exists (course complete via AllReceived→EarlyStop),
        // but add a two-event custom cycle nothing escapes from.
        ir.server.handlers.push(h(
            m(MessageKind::Custom(1)),
            "ping",
            &[m(MessageKind::Custom(2))],
        ));
        ir.client_groups[0].handlers.push(h(
            m(MessageKind::Custom(2)),
            "pong",
            &[m(MessageKind::Custom(1))],
        ));
        // make the cycle reachable
        ir.server.handlers[1].emits.push(m(MessageKind::Custom(2)));
        let report = verify_course(&ir);
        assert!(report.has_code(Code::CycleWithoutExit), "{report}");
    }

    #[test]
    fn send_receive_mismatches_are_errors() {
        // server emits EvalRequest no client handles
        let mut ir = vanilla_ir();
        ir.server.handlers[1]
            .emits
            .push(m(MessageKind::EvalRequest));
        let report = verify_course(&ir);
        assert!(report.has_code(Code::ServerSendUnhandled), "{report}");

        // client emits Gradients the server does not handle
        let mut ir = vanilla_ir();
        ir.client_groups[0].handlers[1]
            .emits
            .push(m(MessageKind::Gradients));
        let report = verify_course(&ir);
        assert!(report.has_code(Code::ClientSendUnhandled), "{report}");

        // client raises a condition it has no handler for
        let mut ir = vanilla_ir();
        ir.client_groups[0].handlers[1]
            .emits
            .push(c(Condition::Custom(9)));
        let report = verify_course(&ir);
        assert!(report.has_code(Code::ConditionUnhandled), "{report}");
    }

    /// A client may message a peer: a kind only another client group
    /// handles is delivered, not unhandled.
    #[test]
    fn a_kind_a_peer_handles_is_not_unhandled() {
        let mut ir = vanilla_ir();
        ir.client_groups[0].handlers[3]
            .emits
            .push(m(MessageKind::Custom(8)));
        ir.client_groups.push(ParticipantSpec {
            label: "client 2".into(),
            handlers: vec![h(m(MessageKind::Custom(8)), "take_relay", &[])],
        });
        let report = verify_course(&ir);
        assert!(!report.has_code(Code::ClientSendUnhandled), "{report}");
    }

    #[test]
    fn aux_handlers_are_exempt_from_reachability() {
        let mut ir = vanilla_ir();
        ir.client_groups[0].handlers.push(HandlerSpec {
            event: m(MessageKind::EvalRequest),
            name: "evaluate_and_report".into(),
            emits: vec![m(MessageKind::MetricsReport)],
            aux: true,
        });
        let report = verify_course(&ir);
        assert!(report.is_clean(), "{report}");
        // ...but the same handler without aux draws FSV002
        if let Some(h) = ir.client_groups[0].handlers.last_mut() {
            h.aux = false;
        }
        let report = verify_course(&ir);
        assert!(report.has_code(Code::UnreachableHandler), "{report}");
    }

    #[test]
    fn overwrites_become_notes() {
        let mut ir = vanilla_ir();
        ir.registry_warnings.push(
            "handler for receiving_MetricsReport overwritten: record_metrics -> ignore_metrics"
                .into(),
        );
        let report = verify_course(&ir);
        assert!(report.has_code(Code::RegistryOverwrite));
        assert!(report.is_clean(), "overwrites are notes: {report}");
    }
}
