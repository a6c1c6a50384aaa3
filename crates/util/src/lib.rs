#![forbid(unsafe_code)]
//! # teccl-util
//!
//! Small dependency-free utilities shared across the workspace. The offline
//! build environment has no third-party crates, so the pieces the seed design
//! would normally pull from `serde_json` and `rand` live here instead:
//!
//! * [`json`] — a minimal JSON document model ([`json::Value`]) with a writer
//!   (compact and pretty) and a parser, used for schedule export and the
//!   machine-readable benchmark output; document types describe themselves
//!   once ([`json::Emit`]) and get both the text and the `Value` form.
//! * [`rng`] — a tiny deterministic PRNG (splitmix64 seeded xorshift) for the
//!   randomized baselines and property-style tests.
//! * [`hash`] — a stable (cross-run, cross-machine) FNV-1a 64-bit hasher with
//!   quantized-float encodings, used for content-addressed schedule-cache
//!   keys and topology fingerprints.
//! * [`budget`] — a shared cooperative [`budget::SolveBudget`] (deadline +
//!   iteration cap + cancel flag) threaded from the schedule service down
//!   into the simplex pivot loops.

pub mod budget;
pub mod hash;
pub mod json;
pub mod rng;

pub use budget::{BudgetExceeded, ChargeBatcher, SolveBudget};
pub use hash::{fnv1a64, size_bucket, StableHasher};
pub use json::Value;
pub use rng::Rng64;
