//! The metric names this benchmark defines. Later issues cite them verbatim;
//! `BENCHMARK.json` lists the same names, units, directions and bounds (a
//! test keeps the two in step).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may get worse before a change regresses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// `compare` also tolerates this absolute worsening, so that a 2 ms
    /// set-up or a 9 MiB process is not failed over scheduler noise.
    pub abs_floor: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.05,
        what: "dataset generation + course build(), at reference host speed; median over the repeats",
    },
    EndToEnd {
        name: "course_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        what: "wall seconds of one whole course, run() call to return, at reference host speed",
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
        what: "client updates the server received per course_wall_s",
    },
    EndToEnd {
        name: "course_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        what: "process user+system CPU seconds across one course, all threads, at reference host speed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        abs_floor: 2.0,
        what: "VmHWM when the run ends",
    },
    EndToEnd {
        name: "wire_bytes_per_update",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        abs_floor: 0.0,
        what: "payload bytes moved both ways per received update; a count, not a timing",
    },
];

/// A per-layer metric (traced run only; no bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 53] = [
    // the host while the traced course ran, relative to the reference host
    hi("host.speed", "ratio"),
    // fs-data
    lo("data.gen_s", "s"),
    lo("data.sample_batch_ns", "ns"),
    // fs-tensor
    lo("tensor.forward_ns", "ns"),
    lo("tensor.loss_grad_ns", "ns"),
    lo("tensor.backward_ns", "ns"),
    lo("tensor.sgd_step_ns", "ns"),
    lo("tensor.params_roundtrip_ns", "ns"),
    hi("tensor.train_samples_per_s", "1/s"),
    lo("tensor.matmul_128x256x128_ns", "ns"),
    // fs-core trainer
    lo("trainer.local_train_ns", "ns"),
    lo("trainer.step_overhead_share", "share"),
    // fs-core aggregator / evaluator / sampler
    lo("agg.aggregate_ns", "ns"),
    hi("agg.gbytes_per_s", "GB/s"),
    lo("eval.global_ns", "ns"),
    lo("sampler.sample_ns", "ns"),
    // fs-compress
    lo("compress.encode_ns", "ns"),
    lo("compress.decode_ns", "ns"),
    hi("compress.ratio", "ratio"),
    // fs-net
    lo("wire.encode_msg_ns", "ns"),
    lo("wire.decode_view_ns", "ns"),
    lo("wire.bytes_per_model_msg", "bytes"),
    lo("bus.send_recv_ns", "ns"),
    lo("tcp.frame_rtt_us_p50", "us"),
    lo("tcp.frame_rtt_us_p95", "us"),
    hi("tcp.frame_mbytes_per_s", "MB/s"),
    // fs-sim
    lo("sim.queue_push_pop_ns", "ns"),
    lo("sim.queue_push_pop_100k_ns", "ns"),
    // fs-exec
    lo("exec.run_ordered_ns_per_job", "ns"),
    hi("exec.par_speedup", "ratio"),
    lo("exec.cpu_inflation", "ratio"),
    // fs-monitor
    lo("monitor.record_span_ns", "ns"),
    lo("monitor.counter_add_ns", "ns"),
    lo("monitor.recording_overhead_share", "share"),
    // fs-scale
    hi("scale.clients_per_s", "1/s"),
    hi("scale.events_per_s", "1/s"),
    // the traced course
    hi("course.client_dispatch_share", "share"),
    lo("course.server_dispatch_share", "share"),
    lo("course.runner_self_share", "share"),
    lo("course.round_wall_ms_p50", "ms"),
    lo("course.round_wall_ms_p95", "ms"),
    lo("course.server_updates_dispatch_us_p50", "us"),
    lo("course.server_updates_dispatch_us_p95", "us"),
    hi("course.cpu_over_wall", "ratio"),
    hi("course.probe_coverage", "share"),
    lo("course.events", "count"),
    lo("course.messages_delivered", "count"),
    lo("course.aggregations", "count"),
    hi("course.updates_aggregated", "count"),
    lo("course.updates_dropped", "count"),
    lo("wire.bytes_out", "bytes"),
    lo("wire.frames_out", "count"),
    lo("trace.overhead_share", "share"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
