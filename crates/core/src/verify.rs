//! Verifying an assembled course: the `fs-verify` protocol checks over its
//! lowered handler tables, plus the config lints.
//!
//! The protocol checks live in the `fs-verify` crate and know nothing about
//! `Server`/`Client`; this module bridges the gap: it collects handler specs
//! from every participant (collapsing clients with identical handler tables
//! into one group, so a 10k-client course lowers to a couple of specs),
//! gathers registry overwrite warnings, hands the result to
//! [`fs_verify::verify_course`] and, when the caller has a config, appends
//! [`lint_config`]'s findings.
//!
//! [`preflight`] is the one verification gate. Every runner — virtual-time,
//! bus, TCP, star or routed — calls it before starting a course, with the
//! findings only it can make (a realized plan's, a crash-prone fleet's); a
//! report that holds an Error refuses the course. Nothing switches the gate
//! off.

use crate::client::Client;
use crate::config::FlConfig;
use crate::lint::lint_config;
use crate::server::Server;
use fs_net::{ParticipantId, Topology, TopologyPlan};
use fs_verify::{Code, CourseIr, Diagnostic, HandlerSpec, ParticipantSpec, VerifyReport};

/// Lowers a course, given as representative clients plus the id sets they
/// stand for, into the verifier's IR. A store whose clients are built on
/// demand verifies a million-client course through one representative
/// without building the other 999,999; the result is
/// identical to the lowering of fully materialized clients with the same
/// handler tables. A runner's store hands over its groups itself
/// ([`crate::ClientStore::groups`]).
pub fn course_ir(server: &Server, reps: &[(&Client, Vec<ParticipantId>)]) -> CourseIr {
    let mut groups: Vec<(Vec<HandlerSpec>, Vec<ParticipantId>)> = Vec::new();
    for (c, ids) in reps {
        let specs = c.specs();
        match groups.iter_mut().find(|(s, _)| *s == specs) {
            Some((_, all)) => all.extend(ids.iter().copied()),
            None => groups.push((specs, ids.clone())),
        }
    }
    let mut registry_warnings: Vec<String> = server.warnings().to_vec();
    for (c, _) in reps {
        registry_warnings.extend(c.warnings().iter().cloned());
    }
    let client_groups = groups
        .into_iter()
        .map(|(handlers, ids)| {
            let label = match (ids.first(), ids.last()) {
                (Some(first), Some(last)) if ids.len() > 1 => {
                    format!("clients {first}–{last} ({} of them)", ids.len())
                }
                (Some(only), _) => format!("client {only}"),
                _ => "clients".to_string(),
            };
            ParticipantSpec { label, handlers }
        })
        .collect();

    CourseIr {
        server: ParticipantSpec {
            label: "server".to_string(),
            handlers: server.specs(),
        },
        client_groups,
        registry_warnings,
    }
}

/// Runs the full static analysis over an assembled course (see
/// [`course_ir`] for `reps`). `config` is optional so callers can verify a
/// hand-assembled server/client set without a full `FlConfig`.
pub fn verify_assembled(
    server: &Server,
    reps: &[(&Client, Vec<ParticipantId>)],
    config: Option<&FlConfig>,
) -> VerifyReport {
    let mut report = fs_verify::verify_course(&course_ir(server, reps));
    if let Some(cfg) = config {
        let total = reps.iter().map(|(_, ids)| ids.len()).sum();
        report.extend(lint_config(cfg, Some(total)));
    }
    report
}

/// Verifies an assembled course before it starts: static analysis over
/// `clients` (representatives plus the ids they stand for) merged with
/// `extra` findings the caller already holds (a realized topology plan's,
/// a runner's own), through [`gate`].
pub fn preflight(
    server: &Server,
    clients: &[(&Client, Vec<ParticipantId>)],
    extra: Vec<Diagnostic>,
) -> Result<(), Box<VerifyReport>> {
    let mut report = verify_assembled(server, clients, Some(&server.state.cfg));
    report.extend(extra);
    gate(report)
}

/// Where every preflight ends: prints the table when the report holds a
/// warning or an error, and returns the report as the error when it holds
/// an Error.
pub fn gate(report: VerifyReport) -> Result<(), Box<VerifyReport>> {
    if !report.is_clean() {
        eprint!("{}", report.render_table());
    }
    if report.has_errors() {
        return Err(Box::new(report));
    }
    Ok(())
}

/// A refusal made where nothing else can be verified (a course this driver
/// cannot run at all, a topology plan that fails to build): the one
/// finding, boxed the way [`preflight`] reports its own.
pub fn refusal(finding: Diagnostic) -> Box<VerifyReport> {
    Box::new(VerifyReport {
        diagnostics: vec![finding],
    })
}

/// The plan a server runs a course by: `cfg.topology` realized over `n`
/// clients from the course seed, or the finding that refuses the course —
/// `FSV057` for a serverless (gossip) course, `FSV050` for a topology that
/// does not fit it. The virtual-time runner and the threaded driver both
/// route by this.
pub(crate) fn server_plan(cfg: &FlConfig, n: usize) -> Result<TopologyPlan, Diagnostic> {
    if let Topology::Gossip { .. } = cfg.topology {
        let unrouted = Diagnostic::new(
            Code::TopologyUnrouted,
            "topology",
            format!("{} is serverless; this runner runs a server", cfg.topology),
        );
        return Err(unrouted.with_suggestion(
            "run the course through fs_topo::run_course_auto (virtual time) or \
             fs_topo::run_gossip_distributed (threads)",
        ));
    }
    TopologyPlan::build(cfg.topology, n, cfg.seed)
        .map_err(|e| Diagnostic::new(Code::TopologyInvalid, "topology", e.to_string()))
}

/// One singleton group per client — the shape the analyses take when every
/// client is materialized.
pub(crate) fn singleton_groups<'a>(
    clients: impl IntoIterator<Item = &'a Client>,
) -> Vec<(&'a Client, Vec<ParticipantId>)> {
    clients.into_iter().map(|c| (c, vec![c.state.id])).collect()
}

/// The effective-handler log the paper prints: one line per participant
/// group, `<event> -> <handler>` pairs in registration-table order (see
/// [`course_ir`] for `reps`).
pub fn effective_handler_log(
    server: &Server,
    reps: &[(&Client, Vec<ParticipantId>)],
) -> Vec<String> {
    let ir = course_ir(server, reps);
    let mut lines = Vec::new();
    for spec in std::iter::once(&ir.server).chain(ir.client_groups.iter()) {
        for h in &spec.handlers {
            lines.push(format!("{}: {} -> {}", spec.label, h.event, h.name));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::course::CourseBuilder;
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_tensor::model::logistic_regression;

    fn tiny_course() -> crate::runner::StandaloneRunner {
        let data = twitter_like(&TwitterConfig {
            num_clients: 6,
            seed: 3,
            ..Default::default()
        });
        let dim = data.input_dim();
        let cfg = FlConfig {
            total_rounds: 2,
            concurrency: 3,
            ..Default::default()
        };
        CourseBuilder::new(
            data,
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            cfg,
        )
        .build()
    }

    #[test]
    fn default_course_verifies_clean() {
        let runner = tiny_course();
        let report = verify_assembled(&runner.server, &runner.clients.groups(), None);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn identical_clients_collapse_to_one_group() {
        let runner = tiny_course();
        let ir = course_ir(&runner.server, &runner.clients.groups());
        assert_eq!(ir.client_groups.len(), 1);
        assert!(ir.client_groups[0].label.contains("6 of them"));
    }

    #[test]
    fn handler_log_covers_both_sides() {
        let runner = tiny_course();
        let log = effective_handler_log(&runner.server, &runner.clients.groups());
        assert!(log.iter().any(|l| l.starts_with("server:")));
        assert!(log.iter().any(|l| l.contains("local_training")));
    }
}
