//! # fs-scale — the names of million-client courses
//!
//! A million-client course is an ordinary `fs_core` course whose clients
//! are built on demand: assembled with [`fs_core::CourseBuilder::synthetic`]
//! (a client-index closure, the only form a million-client dataset can
//! take) or [`fs_core::CourseBuilder::from_dataset`], its
//! [`fs_core::ClientStore`] keeps each idle client as a 16-byte slot and
//! builds the sampled cohort from a shared blueprint, bit-identically to
//! resident clients (`tests/scale_equivalence.rs`). This crate only names
//! that builder and its runner.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

/// The builder of courses whose clients are built on demand.
pub type ScaleCourseBuilder = fs_core::CourseBuilder<fs_core::course::OnDemand>;

/// The virtual-time runner such a builder returns: the one [`fs_core::Runner`].
pub type ScaleRunner = fs_core::Runner;
