//! Erasure-coding substrate for the EAR reproduction: GF(2⁸) arithmetic and
//! systematic Reed–Solomon codes.
//!
//! The paper's encoding operation (Section II-A) transforms `k` replicated
//! data blocks into an `(n, k)` stripe with `n - k` parity blocks so that any
//! `k` of the `n` blocks reconstruct the originals. Facebook's HDFS prototype
//! used the Reed–Solomon codes of HDFS-RAID; this crate provides a
//! from-scratch equivalent with one provably MDS generator construction
//! (systematic Vandermonde).
//!
//! # Example
//!
//! ```
//! use ear_erasure::ReedSolomon;
//! use ear_types::ErasureParams;
//!
//! // (10, 8) as in the paper's testbed experiments.
//! let rs = ReedSolomon::new(ErasureParams::new(10, 8).unwrap());
//! let data: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 1024]).collect();
//! let parity = rs.encode(&data)?;
//! assert_eq!(parity.len(), 2);
//! # Ok::<(), ear_types::Error>(())
//! ```

// `deny` rather than `forbid`: the SIMD kernels in `kernels::x86` carry a
// scoped `#[allow(unsafe_code)]` for `target_feature` intrinsics; everything
// else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::iter_over_hash_type)]

pub mod gf256;
pub mod kernels;
mod matrix;
mod rs;
mod stream;

pub use kernels::{Kernel, KernelTier};
pub use matrix::Matrix;
pub use rs::ReedSolomon;
pub use stream::StripeEncoder;
