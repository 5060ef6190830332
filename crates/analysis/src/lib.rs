//! # ped-analysis — scalar and structural program analysis for PED
//!
//! The "supporting analysis" layer of the ParaScope Editor (paper §4.1):
//! control flow graphs, dominators and control dependence, def-use
//! chains and liveness, constant propagation, symbolic (affine) analysis
//! with relation facts, scalar privatization ("scalar kills"), array
//! kill analysis via bounded regular sections, reduction recognition,
//! and auxiliary induction variables.
//!
//! The dependence analyzer (`ped-dependence`) and the editor session
//! (`ped`) are built on these results.

pub mod array_kill;
pub mod bitset;
pub mod cfg;
pub mod constprop;
pub mod control_dep;
pub mod defuse;
pub mod dom;
pub mod facts;
pub mod fanout;
pub mod global;
pub mod induction;
pub mod loops;
pub mod privatize;
pub mod reductions;
pub mod refs;
pub mod section;
pub mod symbolic;

pub use cfg::Cfg;
pub use control_dep::ControlDeps;
pub use defuse::DefUse;
pub use dom::DomTree;
pub use facts::ScalarFacts;
pub use loops::{LoopId, LoopInfo, LoopNest};
pub use refs::{RefId, RefTable, VarRef};
pub use symbolic::{LinExpr, SymbolicEnv};
