//! # bepi-core
//!
//! **BePI: Fast and Memory-Efficient Method for Billion-Scale Random Walk
//! with Restart** — a from-scratch Rust reproduction of Jung, Park, Sael &
//! Kang (SIGMOD 2017).
//!
//! Random walk with restart (RWR) scores the proximity of every node to a
//! seed node `s` as the solution of `H r = c q` with
//! `H = I − (1−c)Ã^T` (Equation 2 of the paper). BePI answers such
//! queries quickly *and* scales to huge graphs by combining:
//!
//! 1. deadend + hub-and-spoke (SlashBurn) node reordering ([`hmatrix`]),
//! 2. block elimination through the Schur complement of the block-diagonal
//!    `H11` ([`schur`]),
//! 3. an iterative (GMRES) inner solver instead of inverting the Schur
//!    complement ([`bepi`], variant `BePI-B`),
//! 4. a hub ratio chosen to *sparsify* the Schur complement (`BePI-S`),
//! 5. an ILU(0) preconditioner on the Schur system (full `BePI`).
//!
//! GMRES is the one Schur solver and ILU(0) the one preconditioner; a
//! query whose solve stops short of the tolerance returns an error.
//!
//! The crate also implements every baseline of the paper's evaluation:
//! [`bear`] (block elimination with explicit `S^{-1}`), [`lu_method`]
//! (Fujiwara-style inverted sparse LU factors), [`iterative`] (power
//! iteration and plain GMRES on `H`), and [`exact`] (dense `H^{-1}`,
//! small graphs). [`accuracy`] evaluates the Theorem 4 error bound.
//!
//! ## Quickstart
//!
//! ```
//! use bepi_core::prelude::*;
//! use bepi_graph::generators;
//!
//! let graph = generators::example_graph(); // Figure 2 of the paper
//! let solver = BePi::preprocess(&graph, &BePiConfig::default()).unwrap();
//! let scores = solver.query(0).unwrap();
//! let ranking = bepi_sparse::vecops::top_k_indices(&scores.scores, 3);
//! assert_eq!(ranking[0], 0); // the seed ranks first
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops over multiple parallel arrays are the clearest (and
// often fastest) idiom in the numerical kernels here; the iterator
// rewrites clippy suggests obscure the subscript structure of the math.
#![allow(clippy::needless_range_loop)]

pub mod accuracy;
pub mod batch;
pub mod bear;
pub mod bepi;
pub mod community;
pub mod dynamic;
pub mod exact;
pub mod hmatrix;
pub mod iterative;
pub mod lu_method;
pub mod persist;
pub mod rwr;
pub mod schur;

pub use bear::Bear;
pub use bepi::{BePi, BePiConfig, BePiVariant, InnerSolver, MemorySection};
pub use bepi_incr::{classify, Classification, SymbolicPlan};
pub use dynamic::{EdgeUpdate, RebuildKind, Rebuilt};
pub use exact::DenseExact;
pub use hmatrix::HPartition;
pub use iterative::{GmresSolver, PowerSolver};
pub use lu_method::{LuDecomp, LuOrdering};
pub use rwr::{RwrScores, RwrSolver};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bear::Bear;
    pub use crate::bepi::{BePi, BePiConfig, BePiVariant, InnerSolver};
    pub use crate::exact::DenseExact;
    pub use crate::iterative::{GmresSolver, PowerSolver};
    pub use crate::lu_method::LuDecomp;
    pub use crate::rwr::{RwrScores, RwrSolver};
}

/// The paper's default restart probability (`c = 0.05`, Section 4.1).
pub const DEFAULT_RESTART_PROB: f64 = 0.05;

/// The paper's default error tolerance (`ε = 10^{-9}`, Section 4.1).
pub const DEFAULT_TOLERANCE: f64 = 1e-9;
