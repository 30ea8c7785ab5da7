//! # bepi-solver
//!
//! The numerical solver substrate of the BePI reproduction (Jung et al.,
//! SIGMOD 2017). Everything here is implemented from scratch on top of
//! `bepi-sparse`:
//!
//! * [`dense_lu`] — dense LU with and without pivoting, triangular
//!   inversion, exact inverse (used by the Bear baseline's `S^{-1}` and
//!   the exact-solution reference of Appendix I).
//! * [`sparse_lu`] — no-pivot left-looking (Gilbert–Peierls) sparse LU and
//!   sparse triangular-factor inversion (the paper inverts `L1`, `U1`
//!   explicitly; safe without pivoting because `H` is strictly diagonally
//!   dominant for `0 < c < 1`).
//! * [`block_lu`] — per-block factorization/inversion of the block-diagonal
//!   `H11` produced by SlashBurn.
//! * [`ilu0`] — incomplete LU with zero fill, the preconditioner of
//!   Section 3.5 and the only one here.
//! * [`mod@gmres`] — restarted GMRES with modified Gram–Schmidt and Givens
//!   rotations, with optional left preconditioning (Appendix B): the one
//!   Krylov solver.
//! * [`power`] — power iteration for RWR (Section 2.2).
//! * [`arnoldi`] / [`eig`] — Arnoldi process and Hessenberg-QR eigensolver
//!   for the Ritz-value experiment of Figure 7.
//! * [`norm_est`] — power-method estimates of `‖A‖₂` and `σ_min`, plus a
//!   Hager 1-norm condition estimator (Theorem 4's accuracy bound).
//!
//! ```
//! use bepi_solver::{gmres, GmresConfig, Ilu0, Preconditioner};
//! use bepi_sparse::Coo;
//!
//! // A small strictly diagonally dominant system.
//! let mut coo = Coo::new(3, 3)?;
//! for i in 0..3 {
//!     coo.push(i, i, 2.0)?;
//!     coo.push(i, (i + 1) % 3, -0.5)?;
//! }
//! let a = coo.to_csr();
//! let b = vec![1.0, 2.0, 3.0];
//! let ilu = Ilu0::factor(&a)?;
//! let sol = gmres(&a, &b, None, Some(&ilu as &dyn Preconditioner), &GmresConfig::default())?;
//! assert!(sol.converged);
//! let residual: f64 = a.mul_vec(&sol.x)?.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
//! assert!(residual < 1e-7);
//! # Ok::<(), bepi_sparse::SparseError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Index-based loops over multiple parallel arrays are the clearest (and
// often fastest) idiom in the numerical kernels here; the iterator
// rewrites clippy suggests obscure the subscript structure of the math.
#![allow(clippy::needless_range_loop)]

pub mod arnoldi;
pub mod block_lu;
pub mod dense_lu;
pub mod eig;
pub mod gmres;
pub mod ilu0;
pub mod linop;
pub mod norm_est;
pub mod power;
pub mod sparse_lu;
pub mod triangular;

pub use block_lu::BlockLu;
pub use dense_lu::DenseLu;
pub use gmres::{gmres, GmresConfig, GmresResult};
pub use ilu0::Ilu0;
pub use linop::{LinOp, Preconditioner};
pub use sparse_lu::SparseLu;
