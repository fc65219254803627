//! `fs-privacy` — privacy-protection plug-ins (§4.1).
//!
//! FederatedScope treats privacy protection as *behavior plug-ins*: operators
//! applied to messages before they are shared. Provided here:
//!
//! * [`dp`] — differential privacy: clipping, the Gaussian and Laplace
//!   mechanisms over [`fs_tensor::ParamMap`]s, `(epsilon, delta)` calibration,
//!   and a composition accountant;
//! * [`paillier`] — the Paillier additively homomorphic cryptosystem for
//!   cross-silo FL, on top of
//! * [`bignum`] — a from-scratch arbitrary-precision integer implementation
//!   (no external bignum crates), with modular exponentiation, inverses, and
//!   Miller–Rabin primality testing;
//! * [`secret_sharing`] — additive secret sharing over `Z_{2^64}` and the
//!   secure-aggregation flow for FedAvg.
//!
//! None of this is hardened cryptography (the bignum is not constant-time and
//! test key sizes are small); it reproduces the paper's functionality for
//! research use.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bignum;
pub mod dp;
pub mod paillier;
pub mod secret_sharing;

pub use bignum::BigUint;
pub use dp::{gaussian_mechanism, laplace_mechanism, DpConfig, PrivacyAccountant};
