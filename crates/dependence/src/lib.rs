//! # ped-dependence — data dependence analysis for PED
//!
//! The hierarchical dependence test suite (ZIV / SIV / MIV, GCD,
//! Banerjee) of Goff, Kennedy & Tseng as used by the ParaScope Editor,
//! with symbolic distances, index-array facts, direction vectors,
//! dependence levels, and the proven/pending/accepted/rejected marking
//! discipline of §3.1.
//!
//! ```
//! use ped_fortran::parser::parse_ok;
//! use ped_fortran::symbols::SymbolTable;
//! use ped_analysis::{loops::LoopNest, refs::RefTable, symbolic::SymbolicEnv};
//! use ped_dependence::graph::{BuildOptions, DependenceGraph};
//!
//! let p = parse_ok(
//!     "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n",
//! );
//! let unit = &p.units[0];
//! let sym = SymbolTable::build(unit);
//! let refs = RefTable::build(unit, &sym);
//! let nest = LoopNest::build(unit);
//! let g = DependenceGraph::build(unit, &sym, &refs, &nest, &SymbolicEnv::new(),
//!                                &BuildOptions::default());
//! // The recurrence carries a proven true dependence at level 1.
//! assert!(g.parallelism_inhibitors(nest.roots[0]).any(|d| d.exact));
//! ```

pub mod cache;
pub mod canon;
pub mod dir;
pub mod graph;
pub mod marking;
pub mod subscript;
pub mod suite;
pub mod summary;

pub use cache::{PairCache, PairKey};
pub use canon::CanonStore;
pub use dir::{Dir, DirSet, DirVector};
pub use graph::{BuildOptions, DepId, DepKind, Dependence, DependenceGraph};
pub use marking::{Mark, MarkError, Marking};
pub use suite::{DepInfo, LoopCtx, TestKindCounts, TestResult};
pub use summary::DepSummary;
