//! The rule catalog. Each rule is a function from the scanned workspace to
//! findings; scoping (which files/functions a rule audits) lives inside the
//! rule, grounded in a real past or near-miss bug documented in its module.

pub mod budget_coverage;
pub mod forbid_unsafe;
pub mod hash_stability;
pub mod lock_discipline;
pub mod lock_order;
pub mod no_env_knobs;
pub mod one_reader;
pub mod panic_hygiene;

use crate::report::Finding;
use crate::scan::SourceFile;

/// Every rule name, for `lint:allow` validation and the report header.
/// `lint-allow` is the meta-rule for malformed escapes; it is listed so the
/// report names it, but it cannot be allowed.
pub const RULE_NAMES: &[&str] = &[
    "lock-discipline",
    "lock-order",
    "budget-coverage",
    "panic-hygiene",
    "hash-stability",
    "forbid-unsafe",
    "no-env-knobs",
    "one-reader",
    "lint-allow",
];

/// Runs every rule over the scanned files.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(lock_discipline::check(files));
    out.extend(lock_order::check(files));
    out.extend(budget_coverage::check(files));
    out.extend(panic_hygiene::check(files));
    out.extend(hash_stability::check(files));
    out.extend(forbid_unsafe::check(files));
    out.extend(no_env_knobs::check(files));
    out.extend(one_reader::check(files));
    out
}
