//! The message envelope exchanged by FL participants.

use fs_compress::{decompress, CompressedBlock, Compressor, DecompressError};
use fs_tensor::model::Metrics;
use fs_tensor::ParamMap;

/// Identifies a participant. The server is always [`SERVER_ID`] (0); clients
/// are numbered from 1.
pub type ParticipantId = u32;

/// The server's participant id.
pub const SERVER_ID: ParticipantId = 0;

/// The type of a message — receiving a message of some kind *is* the
/// message-passing event that triggers a handler (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageKind {
    /// A client asks to join the FL course.
    JoinIn,
    /// The server assigns an id to a joined client.
    IdAssignment,
    /// The server broadcasts (a part of) the global model.
    ModelParams,
    /// A client returns its model update.
    Updates,
    /// Raw gradients (some algorithms exchange gradients instead of weights).
    Gradients,
    /// The server asks clients to evaluate the current model.
    EvalRequest,
    /// A client reports evaluation metrics.
    MetricsReport,
    /// The server announces course termination.
    Finish,
    /// A reconnecting client re-identifies itself to the transport hub
    /// (the rejoin handshake; consumed by the hub, not the server workers).
    Rejoin,
    /// A user-defined message type (heterogeneous information exchange:
    /// embeddings, public keys, generators, HPO feedback, ...).
    Custom(u16),
}

impl MessageKind {
    /// Largest user-definable custom tag (the wire reserves `256 + c`).
    pub const MAX_CUSTOM: u16 = u16::MAX - 256;

    /// Stable numeric tag used by the wire codec.
    ///
    /// # Panics
    /// Panics when a `Custom` tag exceeds [`MessageKind::MAX_CUSTOM`].
    pub fn tag(self) -> u16 {
        match self {
            MessageKind::JoinIn => 0,
            MessageKind::IdAssignment => 1,
            MessageKind::ModelParams => 2,
            MessageKind::Updates => 3,
            MessageKind::Gradients => 4,
            MessageKind::EvalRequest => 5,
            MessageKind::MetricsReport => 6,
            MessageKind::Finish => 7,
            MessageKind::Rejoin => 8,
            MessageKind::Custom(c) => {
                assert!(
                    c <= Self::MAX_CUSTOM,
                    "custom message tag {c} exceeds {}",
                    Self::MAX_CUSTOM
                );
                256 + c
            }
        }
    }

    /// Stable lowercase name, matching the paper's event vocabulary. Custom
    /// kinds share one label (span/counter names must be `'static`).
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::JoinIn => "join_in",
            MessageKind::IdAssignment => "id_assignment",
            MessageKind::ModelParams => "model_para",
            MessageKind::Updates => "updates",
            MessageKind::Gradients => "gradients",
            MessageKind::EvalRequest => "eval_request",
            MessageKind::MetricsReport => "metrics_report",
            MessageKind::Finish => "finish",
            MessageKind::Rejoin => "rejoin",
            MessageKind::Custom(_) => "custom",
        }
    }

    /// Inverse of [`MessageKind::tag`].
    pub fn from_tag(tag: u16) -> Option<Self> {
        Some(match tag {
            0 => MessageKind::JoinIn,
            1 => MessageKind::IdAssignment,
            2 => MessageKind::ModelParams,
            3 => MessageKind::Updates,
            4 => MessageKind::Gradients,
            5 => MessageKind::EvalRequest,
            6 => MessageKind::MetricsReport,
            7 => MessageKind::Finish,
            8 => MessageKind::Rejoin,
            t if t >= 256 => MessageKind::Custom(t - 256),
            _ => return None,
        })
    }
}

/// The content of a message.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// No content (join-in, finish, eval requests, ...).
    Empty,
    /// Model parameters stamped with the global model version they represent.
    Model {
        /// Named parameters.
        params: ParamMap,
        /// Global model version (server round counter at broadcast time).
        version: u64,
    },
    /// A client's update after local training.
    Update {
        /// Updated named parameters (or deltas, depending on the consensus).
        params: ParamMap,
        /// The global model version the client *started from* — the server
        /// derives staleness from this (§3.3.1).
        start_version: u64,
        /// Number of local training examples (FedAvg weighting).
        n_samples: u64,
        /// Number of local SGD steps actually taken (FedNova weighting).
        n_steps: u64,
    },
    /// Evaluation metrics from a client.
    Report {
        /// Metrics on the client's held-out split.
        metrics: Metrics,
    },
    /// Opaque bytes for custom protocols (encrypted frames, HPO feedback, ...).
    Bytes(Vec<u8>),
    /// A compressed model broadcast (quantized / sparsified / delta-encoded).
    CompressedModel {
        /// Encoded parameters; the receiver decompresses with `fs-compress`.
        block: CompressedBlock,
        /// Global model version, as in [`Payload::Model`].
        version: u64,
    },
    /// A compressed client update.
    CompressedUpdate {
        /// Encoded parameters (possibly a delta against `block.ref_version`).
        block: CompressedBlock,
        /// Global model version the client started from.
        start_version: u64,
        /// Number of local training examples (FedAvg weighting).
        n_samples: u64,
        /// Number of local SGD steps actually taken (FedNova weighting).
        n_steps: u64,
    },
    /// An edge aggregator's partial aggregate of several client updates
    /// (hierarchical topologies). Rides [`MessageKind::Updates`] like a plain
    /// update; `constituents` lists the clients whose work it folds in so the
    /// upstream tier can keep per-client bookkeeping.
    PartialUpdate {
        /// Sample-weighted merge of the constituent updates.
        params: ParamMap,
        /// Oldest `start_version` among the constituents (staleness bound).
        start_version: u64,
        /// Total training examples across constituents (FedAvg weighting).
        n_samples: u64,
        /// Largest per-constituent local step count.
        n_steps: u64,
        /// Client ids folded into this partial aggregate, ascending.
        constituents: Vec<ParticipantId>,
    },
    /// A compressed partial aggregate — the per-hop re-encoded form of
    /// [`Payload::PartialUpdate`] when an upload codec is configured.
    CompressedPartialUpdate {
        /// Encoded merged parameters.
        block: CompressedBlock,
        /// Oldest `start_version` among the constituents.
        start_version: u64,
        /// Total training examples across constituents.
        n_samples: u64,
        /// Largest per-constituent local step count.
        n_steps: u64,
        /// Client ids folded into this partial aggregate, ascending.
        constituents: Vec<ParticipantId>,
    },
}

/// The parameters an update carries: dense values or a compressed block.
/// Generic over how each is held — borrowed from a [`Payload`]
/// ([`UpdateRef`]), owned on the way into one, or a wire view.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateBody<P, B> {
    /// Named parameters, one `f32` per value.
    Dense(P),
    /// An `fs-compress` block (possibly a delta against `ref_version`).
    Compressed(B),
}

/// The one shape behind [`Payload::Update`], [`Payload::CompressedUpdate`],
/// [`Payload::PartialUpdate`] and [`Payload::CompressedPartialUpdate`]:
/// *(dense params | compressed block)*, *(start_version, n_samples,
/// n_steps)* and *optional constituents*. Consumers read any of the four
/// through [`Payload::as_update`]; producers build the right one with
/// [`Payload::update`].
#[derive(Clone, Debug)]
pub struct UpdateRef<'a> {
    /// The parameters, as shipped.
    pub body: UpdateBody<&'a ParamMap, &'a CompressedBlock>,
    /// The global model version the work started from.
    pub start_version: u64,
    /// Training examples behind the update (FedAvg weighting).
    pub n_samples: u64,
    /// Local SGD steps taken (FedNova weighting).
    pub n_steps: u64,
    /// The clients an edge aggregator merged into this update; `None` for a
    /// plain single-client update.
    pub constituents: Option<&'a [ParticipantId]>,
}

impl UpdateRef<'_> {
    /// The update's dense parameters: a copy of the dense body, or the
    /// decompressed block. `reference` looks up the model a delta block was
    /// encoded against, by version.
    pub fn to_params<'r>(
        &self,
        reference: impl FnOnce(u64) -> Option<&'r ParamMap>,
    ) -> Result<ParamMap, DecompressError> {
        match self.body {
            UpdateBody::Dense(params) => Ok(params.clone()),
            UpdateBody::Compressed(block) => decompress(block, reference(block.ref_version)),
        }
    }

    /// The clients whose work this update from `sender` carries: the merged
    /// constituents of a partial update; a plain update is its own single
    /// constituent.
    pub fn contributors<'s>(&'s self, sender: &'s ParticipantId) -> &'s [ParticipantId] {
        self.constituents
            .unwrap_or_else(|| std::slice::from_ref(sender))
    }
}

impl Payload {
    /// Reads any of the four update variants as the one shape they share;
    /// `None` for every other payload.
    pub fn as_update(&self) -> Option<UpdateRef<'_>> {
        let (body, constituents) = match self {
            Payload::Update { params, .. } => (UpdateBody::Dense(params), None),
            Payload::CompressedUpdate { block, .. } => (UpdateBody::Compressed(block), None),
            Payload::PartialUpdate {
                params,
                constituents,
                ..
            } => (UpdateBody::Dense(params), Some(&constituents[..])),
            Payload::CompressedPartialUpdate {
                block,
                constituents,
                ..
            } => (UpdateBody::Compressed(block), Some(&constituents[..])),
            _ => return None,
        };
        let (Payload::Update {
            start_version,
            n_samples,
            n_steps,
            ..
        }
        | Payload::CompressedUpdate {
            start_version,
            n_samples,
            n_steps,
            ..
        }
        | Payload::PartialUpdate {
            start_version,
            n_samples,
            n_steps,
            ..
        }
        | Payload::CompressedPartialUpdate {
            start_version,
            n_samples,
            n_steps,
            ..
        }) = self
        else {
            return None;
        };
        Some(UpdateRef {
            body,
            start_version: *start_version,
            n_samples: *n_samples,
            n_steps: *n_steps,
            constituents,
        })
    }

    /// Builds the update payload for `params`: compressed by the sender's
    /// upload `codec` when it has one, partial when `constituents` lists the
    /// clients merged into it.
    pub fn update(
        params: ParamMap,
        codec: Option<&mut (dyn Compressor + 'static)>,
        start_version: u64,
        n_samples: u64,
        n_steps: u64,
        constituents: Option<Vec<ParticipantId>>,
    ) -> Payload {
        let body = match codec {
            Some(codec) => UpdateBody::Compressed(codec.compress(&params)),
            None => UpdateBody::Dense(params),
        };
        Payload::from_update_body(body, start_version, n_samples, n_steps, constituents)
    }

    /// The variant that holds an already-encoded `body`.
    pub(crate) fn from_update_body(
        body: UpdateBody<ParamMap, CompressedBlock>,
        start_version: u64,
        n_samples: u64,
        n_steps: u64,
        constituents: Option<Vec<ParticipantId>>,
    ) -> Payload {
        match (body, constituents) {
            (UpdateBody::Dense(params), None) => Payload::Update {
                params,
                start_version,
                n_samples,
                n_steps,
            },
            (UpdateBody::Compressed(block), None) => Payload::CompressedUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
            },
            (UpdateBody::Dense(params), Some(constituents)) => Payload::PartialUpdate {
                params,
                start_version,
                n_samples,
                n_steps,
                constituents,
            },
            (UpdateBody::Compressed(block), Some(constituents)) => {
                Payload::CompressedPartialUpdate {
                    block,
                    start_version,
                    n_samples,
                    n_steps,
                    constituents,
                }
            }
        }
    }
}

/// A message in flight between participants.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Sending participant.
    pub sender: ParticipantId,
    /// Receiving participant.
    pub receiver: ParticipantId,
    /// Message type (the event it raises on receipt).
    pub kind: MessageKind,
    /// Training round the message belongs to.
    pub round: u64,
    /// Virtual timestamp (seconds) at which the message arrives.
    pub timestamp: f64,
    /// Content.
    pub payload: Payload,
}

impl Message {
    /// Creates a message with timestamp 0 (the runner restamps on send).
    pub fn new(
        sender: ParticipantId,
        receiver: ParticipantId,
        kind: MessageKind,
        round: u64,
        payload: Payload,
    ) -> Self {
        Self {
            sender,
            receiver,
            kind,
            round,
            timestamp: 0.0,
            payload,
        }
    }

    /// Exact serialized payload size in bytes (tag byte + body), as produced
    /// by the wire codec. The simulator's cost model charges this, so the
    /// virtual clock reflects what actually crosses the network — compressed
    /// payloads are charged their compressed size, not `4 × numel`.
    pub fn payload_bytes(&self) -> usize {
        crate::wire::payload_wire_len(&self.payload)
    }

    /// Exact serialized size of the whole message (header + payload).
    pub fn wire_bytes(&self) -> usize {
        crate::wire::HEADER_LEN + self.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_tensor::Tensor;

    #[test]
    fn kind_tag_roundtrip() {
        let kinds = [
            MessageKind::JoinIn,
            MessageKind::IdAssignment,
            MessageKind::ModelParams,
            MessageKind::Updates,
            MessageKind::Gradients,
            MessageKind::EvalRequest,
            MessageKind::MetricsReport,
            MessageKind::Finish,
            MessageKind::Rejoin,
            MessageKind::Custom(0),
            MessageKind::Custom(999),
        ];
        for k in kinds {
            assert_eq!(MessageKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(MessageKind::from_tag(100), None);
    }

    #[test]
    fn payload_bytes_scales_with_params() {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::zeros(&[100]));
        let m = Message::new(
            1,
            0,
            MessageKind::Updates,
            0,
            Payload::Update {
                params: p,
                start_version: 0,
                n_samples: 10,
                n_steps: 4,
            },
        );
        assert!(m.payload_bytes() >= 400);
        let e = Message::new(1, 0, MessageKind::JoinIn, 0, Payload::Empty);
        assert!(e.payload_bytes() < 64);
    }
}
