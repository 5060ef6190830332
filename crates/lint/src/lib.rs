//! `ped-lint` — a static race detector and whole-program lint pass.
//!
//! PED's interactive discipline ("power steering") lets a user mark a
//! loop parallel only after every inhibiting dependence is proven away or
//! explicitly overridden. This crate makes that safety argument
//! *checkable*: it re-derives, for every loop marked (or proposed)
//! parallel, the loop-carried dependences that survive privatization,
//! reduction recognition, and user deletion, and reports each survivor
//! as a race finding with a concrete witness — a pair of iteration
//! vectors the runtime interpreter can replay to a real conflict.
//!
//! On top of the race core sits a rule registry ([`rules::RuleCode`],
//! codes `PED001`…): unclassified shared variables, deletions taken on
//! faith, COMMON aliasing through calls, assertions contradicted by
//! known facts, and missed parallelism. Findings flow through the front
//! end's diagnostic type and sort deterministically, so reports are
//! byte-identical across thread counts.

pub mod engine;
pub mod rules;
pub mod serial;
pub mod witness;

pub use engine::{
    findings_fingerprint, lint_program, lint_program_with, lint_unit, sort_findings, tally,
    AssertedFact, Finding, LintContext, LintOptions, UserContext,
};
pub use rules::RuleCode;
pub use serial::{decode_findings, encode_findings};
pub use witness::{witness_for, Witness};
