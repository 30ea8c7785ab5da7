//! # bepi-sparse
//!
//! Sparse and dense matrix substrate for the BePI random-walk-with-restart
//! library (reproduction of Jung et al., *BePI*, SIGMOD 2017).
//!
//! The BePI paper stores every matrix "in a sparse matrix format such as
//! compressed column storage which stores only non-zero entries and their
//! locations" (Section 3.1). This crate provides those formats and the
//! kernels every phase of BePI needs:
//!
//! * [`Coo`] — coordinate (triplet) format, the assembly format.
//! * [`Csr`] — compressed sparse row, the workhorse for SpMV and SpGEMM.
//! * [`CodedCsr`] — a read-only CSR that stores each distinct value once
//!   plus a `u16` code per non-zero, on a [`Pattern`] narrowed to `u32`
//!   row pointers and `u16` column indices when it has at most 2¹⁶
//!   columns; BePI's stored Schur complement.
//! * [`Csc`] — compressed sparse column, used by the LU/triangular kernels.
//! * [`Dense`] — row-major dense matrix, used for exact small-graph solves
//!   and for the Bear baseline's explicit `S^{-1}`.
//! * [`Permutation`] — bijective node relabelings with composition, the
//!   output of the reordering methods.
//! * SpMV ([`Csr::mul_vec`], [`Csr::mul_vec_transposed`]), Gustavson SpGEMM
//!   ([`mod@spgemm`]), element-wise ops ([`ops`]), edge-list IO
//!   ([`io`]).
//!
//! All column indices use `u32` (graphs up to 4.29 B nodes would need
//! more, but every dataset in the paper has `n < 2^32`); this halves index
//! memory relative to `usize` on 64-bit targets, which matters because the
//! paper's headline metric is memory for preprocessed data. A narrow
//! [`Pattern`] halves it again, to `u16`, for a matrix with at most 2¹⁶
//! columns. Exact logical memory of every structure is reported through
//! [`MemBytes`].
//!
//! ```
//! use bepi_sparse::{Coo, MemBytes};
//!
//! let mut coo = Coo::new(3, 3)?;
//! coo.push(0, 1, 2.0)?;
//! coo.push(1, 2, 3.0)?;
//! coo.push(0, 1, 1.0)?; // duplicate: summed on compression
//! let csr = coo.to_csr();
//! assert_eq!(csr.get(0, 1), 3.0);
//! assert_eq!(csr.mul_vec(&[1.0, 1.0, 1.0])?, vec![3.0, 3.0, 0.0]);
//! assert!(csr.mem_bytes() > 0);
//! # Ok::<(), bepi_sparse::SparseError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Index-based loops over multiple parallel arrays are the clearest (and
// often fastest) idiom in the numerical kernels here; the iterator
// rewrites clippy suggests obscure the subscript structure of the math.
#![allow(clippy::needless_range_loop)]

pub mod coded;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod mem;
pub mod ops;
pub mod pattern;
pub mod permute;
pub mod spgemm;
pub mod storage;
pub mod vecops;

pub use coded::{CodedCsr, CodedValues, MatrixValues, ValueReader};
pub use coo::Coo;
pub use csc::Csc;
pub use csr::{Csr, BLOCK_WIDTH};
pub use dense::Dense;
pub use error::SparseError;
pub use mem::{Bytes, MemBytes};
pub use pattern::Pattern;
pub use permute::Permutation;
pub use spgemm::{spgemm, sub_spgemm};
pub use storage::Storage;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
