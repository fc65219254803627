//! The `<event, handler>` registry with the paper's conflict semantics.
//!
//! §3.2: *"each event is only permitted to be linked with one handler directly
//! during the execution process. If an event is linked with more than one
//! handler … a warning would be raised … and the latest linked handler would
//! overwrite the older ones. Finally, the handlers that take effect in an FL
//! course would be printed out and recorded in the experimental logs."*
//!
//! Registration also declares which events the handler may *emit*; the
//! completeness checker (Appendix E, `fs-verify`) builds the message-flow
//! graph from these declarations. To keep the static graph honest, dispatch
//! compares the events a handler *actually* put into the [`Ctx`] against its
//! declaration and records any undeclared emission as a conformance
//! violation (`FSV040`).

use crate::ctx::Ctx;
use crate::event::Event;
use fs_net::Message;
use std::collections::{BTreeMap, BTreeSet};

/// A handler: mutates worker state `S`, reads the triggering message, and
/// records intents in the [`Ctx`].
pub type Handler<S> = Box<dyn FnMut(&mut S, &Message, &mut Ctx) + Send>;

struct Entry<S> {
    name: String,
    emits: Vec<Event>,
    aux: bool,
    handler: Handler<S>,
}

/// Maps events to handlers for one participant.
pub struct Registry<S> {
    entries: BTreeMap<Event, Entry<S>>,
    warnings: Vec<String>,
    violation_keys: BTreeSet<(Event, Event)>,
    violations: Vec<String>,
}

impl<S> Default for Registry<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Registry<S> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
            warnings: Vec::new(),
            violation_keys: BTreeSet::new(),
            violations: Vec::new(),
        }
    }

    fn insert(
        &mut self,
        event: Event,
        name: String,
        emits: Vec<Event>,
        aux: bool,
        handler: Handler<S>,
    ) {
        if let Some(old) = self.entries.get(&event) {
            self.warnings.push(format!(
                "event {event} was linked to handler {:?}; overwritten by {:?}",
                old.name, name
            ));
        }
        self.entries.insert(
            event,
            Entry {
                name,
                emits,
                aux,
                handler,
            },
        );
    }

    /// Links `handler` (named `name`, declaring the events it may emit) to
    /// `event`. Re-linking an event overwrites the previous handler and
    /// records a warning, per the paper's "overwriting" principle.
    pub fn register(
        &mut self,
        event: Event,
        name: impl Into<String>,
        emits: Vec<Event>,
        handler: Handler<S>,
    ) {
        self.insert(event, name.into(), emits, false, handler);
    }

    /// Like [`Registry::register`], but marks the handler *auxiliary*: it
    /// answers an externally driven event (e.g. an operator issuing
    /// `EvalRequest`) that no in-course handler emits, so the verifier
    /// exempts it from reachability checks.
    pub fn register_aux(
        &mut self,
        event: Event,
        name: impl Into<String>,
        emits: Vec<Event>,
        handler: Handler<S>,
    ) {
        self.insert(event, name.into(), emits, true, handler);
    }

    /// Removes the handler for `event`, if any (the paper: "users can remove
    /// some handlers … to make sure the intended handlers take effect").
    pub fn unregister(&mut self, event: Event) -> bool {
        self.entries.remove(&event).is_some()
    }

    /// Invokes the handler linked to `event`, if any. Returns `true` when a
    /// handler ran. Any event the handler emits that is missing from its
    /// declared `emits` list is recorded as a conformance violation.
    pub fn dispatch(&mut self, state: &mut S, event: Event, msg: &Message, ctx: &mut Ctx) -> bool {
        if let Some(e) = self.entries.get_mut(&event) {
            let emitted_before = ctx.emitted.len();
            (e.handler)(state, msg, ctx);
            for i in emitted_before..ctx.emitted.len() {
                let em = ctx.emitted[i];
                if !e.emits.contains(&em) && self.violation_keys.insert((event, em)) {
                    self.violations.push(format!(
                        "handler '{}' for {event} emitted undeclared {em}",
                        e.name
                    ));
                }
            }
            true
        } else {
            false
        }
    }

    /// `true` when a handler is linked to `event`.
    pub fn has(&self, event: Event) -> bool {
        self.entries.contains_key(&event)
    }

    /// Warnings accumulated from conflicting registrations.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Conformance violations observed during dispatch: handlers that
    /// emitted events absent from their declared `emits` list (deduplicated
    /// per `(event, emission)` pair).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Captures the dispatch-log state (violation dedup keys + violation
    /// count) so a speculatively executed dispatch can be rolled back.
    /// Warnings only change at registration time and need no snapshot.
    pub(crate) fn log_snapshot(&self) -> (BTreeSet<(Event, Event)>, usize) {
        (self.violation_keys.clone(), self.violations.len())
    }

    /// Restores a dispatch-log state captured by [`Registry::log_snapshot`].
    pub(crate) fn log_restore(&mut self, snap: (BTreeSet<(Event, Event)>, usize)) {
        self.violation_keys = snap.0;
        self.violations.truncate(snap.1);
    }

    /// The effective `<event, handler-name>` pairs — what the paper prints
    /// into the experimental logs.
    pub fn effective_handlers(&self) -> Vec<(Event, &str)> {
        self.entries
            .iter()
            .map(|(e, en)| (*e, en.name.as_str()))
            .collect()
    }

    /// Lowers the registry into the verifier's handler specs.
    pub fn specs(&self) -> Vec<fs_verify::HandlerSpec> {
        self.entries
            .iter()
            .map(|(e, en)| fs_verify::HandlerSpec {
                event: *e,
                name: en.name.clone(),
                emits: en.emits.clone(),
                aux: en.aux,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Condition;
    use fs_net::{MessageKind, Payload};
    use fs_sim::VirtualTime;

    fn msg() -> Message {
        Message::new(1, 0, MessageKind::JoinIn, 0, Payload::Empty)
    }

    #[test]
    fn dispatch_runs_linked_handler() {
        let mut reg: Registry<u32> = Registry::new();
        reg.register(
            Event::Message(MessageKind::JoinIn),
            "count",
            vec![],
            Box::new(|s, _, _| *s += 1),
        );
        let mut state = 0u32;
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        assert!(reg.dispatch(
            &mut state,
            Event::Message(MessageKind::JoinIn),
            &msg(),
            &mut ctx
        ));
        assert_eq!(state, 1);
        assert!(!reg.dispatch(
            &mut state,
            Event::Condition(Condition::TimeUp),
            &msg(),
            &mut ctx
        ));
    }

    #[test]
    fn overwrite_warns_and_latest_wins() {
        let mut reg: Registry<u32> = Registry::new();
        let ev = Event::Message(MessageKind::JoinIn);
        reg.register(ev, "first", vec![], Box::new(|s, _, _| *s = 1));
        reg.register(ev, "second", vec![], Box::new(|s, _, _| *s = 2));
        assert_eq!(reg.warnings().len(), 1);
        assert!(reg.warnings()[0].contains("first"));
        let mut state = 0u32;
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        reg.dispatch(&mut state, ev, &msg(), &mut ctx);
        assert_eq!(state, 2);
        let eff = reg.effective_handlers();
        assert_eq!(eff, vec![(ev, "second")]);
    }

    #[test]
    fn unregister_removes_handler() {
        let mut reg: Registry<u32> = Registry::new();
        let ev = Event::Condition(Condition::GoalAchieved);
        reg.register(ev, "h", vec![], Box::new(|_, _, _| {}));
        assert!(reg.has(ev));
        assert!(reg.unregister(ev));
        assert!(!reg.has(ev));
        assert!(!reg.unregister(ev));
    }

    #[test]
    fn specs_carry_aux_flag() {
        let mut reg: Registry<u32> = Registry::new();
        reg.register(
            Event::Message(MessageKind::Updates),
            "save",
            vec![Event::Condition(Condition::AllReceived)],
            Box::new(|_, _, _| {}),
        );
        reg.register_aux(
            Event::Message(MessageKind::EvalRequest),
            "evaluate",
            vec![Event::Message(MessageKind::MetricsReport)],
            Box::new(|_, _, _| {}),
        );
        let specs = reg.specs();
        assert_eq!(specs.len(), 2);
        let eval = specs
            .iter()
            .find(|s| s.event == Event::Message(MessageKind::EvalRequest))
            .expect("eval spec");
        assert!(eval.aux);
        assert_eq!(eval.emits, vec![Event::Message(MessageKind::MetricsReport)]);
        assert!(
            !specs
                .iter()
                .find(|s| s.event == Event::Message(MessageKind::Updates))
                .expect("save spec")
                .aux
        );
    }

    #[test]
    fn undeclared_emission_is_a_violation() {
        let mut reg: Registry<u32> = Registry::new();
        let ev = Event::Message(MessageKind::JoinIn);
        reg.register(
            ev,
            "sneaky",
            vec![], // declares nothing...
            Box::new(|_, _, ctx| {
                // ...but raises a condition anyway
                ctx.raise(Condition::AllJoinedIn);
            }),
        );
        let mut state = 0u32;
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        reg.dispatch(&mut state, ev, &msg(), &mut ctx);
        reg.dispatch(&mut state, ev, &msg(), &mut ctx);
        assert_eq!(reg.violations().len(), 1, "violations are deduplicated");
        assert!(reg.violations()[0].contains("sneaky"));
        assert!(reg.violations()[0].contains("all_joined_in"));
    }

    #[test]
    fn declared_emission_is_not_a_violation() {
        let mut reg: Registry<u32> = Registry::new();
        let ev = Event::Message(MessageKind::JoinIn);
        reg.register(
            ev,
            "honest",
            vec![Event::Condition(Condition::AllJoinedIn)],
            Box::new(|_, _, ctx| ctx.raise(Condition::AllJoinedIn)),
        );
        let mut state = 0u32;
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        reg.dispatch(&mut state, ev, &msg(), &mut ctx);
        assert!(reg.violations().is_empty());
    }
}
