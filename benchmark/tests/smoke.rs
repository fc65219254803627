//! Every workload, untraced and traced, at a twentieth of its rounds: the
//! whole path from set-up to result file, with the correctness gate on.

use fedscope_benchmark::result::RunResult;
use fedscope_benchmark::run::{run_workload, RunOptions};
use fedscope_benchmark::spec::{END_TO_END, PER_LAYER};
use fedscope_benchmark::workloads::WORKLOADS;
use serde::Value;

fn smoke(traced: bool) -> RunOptions {
    RunOptions {
        seed: 11,
        seconds: 0.05,
        traced,
        smoke: true,
    }
}

fn metric(r: &RunResult, name: &str) -> f64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("{}: {name} missing", r.workload))
        .value
}

/// One test, so the courses run one after another like in a real run.
#[test]
fn all_workloads_pass_their_checks_untraced_and_traced() {
    let mut fingerprints = Vec::new();
    for w in &WORKLOADS {
        let r = run_workload(w, smoke(false));
        assert!(r.correct, "{}: {:?}", w.name, r.failures);
        assert_eq!(r.ops_failed, 0, "{}", w.name);
        assert!(r.ops_attempted >= 1 && r.repeats >= 2, "{}", w.name);
        let names: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        for m in &r.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name,
                m.name,
                m.value
            );
        }
        assert_eq!(RunResult::from_json(&r.to_json()).expect("round trip"), r);
        fingerprints.push((w.name, r.fingerprint.clone()));

        let t = run_workload(w, smoke(true));
        assert!(t.correct, "{} traced: {:?}", w.name, t.failures);
        assert_eq!(
            t.fingerprint, r.fingerprint,
            "{}: same seed, same course",
            w.name
        );
        let names: Vec<&str> = t.per_layer.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        for m in &t.per_layer {
            assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
        }
        let shares = metric(&t, "course.client_dispatch_share")
            + metric(&t, "course.server_dispatch_share")
            + metric(&t, "course.runner_self_share");
        if matches!(w.name, "bus_femnist" | "tcp_femnist") {
            assert!(metric(&t, "wire.frames_out") > 0.0 || w.name == "bus_femnist");
        } else {
            assert!(
                (shares - 1.0).abs() < 0.01,
                "{}: shares sum to {shares}",
                w.name
            );
            assert!(metric(&t, "course.events") > 0.0, "{}", w.name);
        }
        assert_eq!(
            metric(&t, "course.aggregations"),
            w.smoke().rounds as f64,
            "{}",
            w.name
        );
        assert!(metric(&t, "tensor.loss_grad_ns") > 0.0);
        assert!(
            metric(&t, "compress.ratio") > 0.9,
            "block framing costs a few percent at most"
        );

        let trace = fedscope_benchmark::out_dir().join(format!("{}.smoke.trace.json", w.name));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let json: Value = serde_json::from_str(&text).expect("trace is JSON");
        assert!(json
            .get("traceEvents")
            .and_then(Value::as_array)
            .is_some_and(|e| !e.is_empty()));
    }
    let fp = |name: &str| {
        &fingerprints
            .iter()
            .find(|(n, _)| *n == name)
            .expect("ran")
            .1
    };
    assert_eq!(fp("femnist_par"), fp("femnist_sync"), "parallel == serial");
    assert_ne!(
        fp("femnist_topk"),
        fp("femnist_sync"),
        "the codec changes the course"
    );
}
