//! `fs-attack` — attack simulation as a participant plug-in (§4.2).
//!
//! FederatedScope lets users flip selected participants into *malicious
//! clients* to verify the availability and privacy-protection strength of an
//! FL course. This crate reproduces that component:
//!
//! **Privacy attacks**
//! * [`dlg`] — gradient inversion (DLG/iDLG): reconstructs training inputs
//!   and infers labels from a client's shared gradients. For the linear
//!   models used in the paper's Figure 13 experiment the inversion is exact
//!   (closed form); DP noise on the update destroys it.
//! * [`membership`] — loss-threshold membership inference.
//!
//! **Performance attacks (backdoors)**
//! * [`backdoor`] — data poisoning: BadNets-style pixel triggers, label
//!   flipping, and DBA's distributed trigger split across colluding clients.
//! * [`malicious`] — the participant plug-in: a trainer wrapper that applies
//!   a data-poisoning backdoor or model replacement (update scaling) during
//!   an FL course (the `MaliciousClient` of the paper's Figure 7).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backdoor;
pub mod dlg;
pub mod malicious;
pub mod membership;
