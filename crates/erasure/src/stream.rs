//! Streaming shard interface: incremental GF(2⁸) partial folding.
//!
//! Reed–Solomon parity rows are linear combinations of the data shards, so
//! they can be folded in one source at a time instead of requiring all `k`
//! shards resident at one node. `ParityAccum` is the single-output fold
//! (`Σ coeffᵢ · chunkᵢ`, the primitive of RapidRAID-style pipelined
//! encoding and rack-aware repair); [`StripeEncoder`] stacks `r` of them
//! under `r` coefficient rows — the generator's `n − k` parity rows for an
//! encode, the one row of recovery coefficients for a rebuild — so either
//! can stream source-by-source, hop-by-hop.
//!
//! Because GF(2⁸) addition is XOR (commutative and associative), sources
//! absorbed in any order finish to bytes identical to the one-shot
//! [`ReedSolomon::encode`](crate::ReedSolomon::encode) pass. The tests at
//! the bottom of this module pin that bit-identity across kernel tiers.

use crate::{Kernel, Matrix, ReedSolomon};
use ear_types::{Error, Result};

/// A running single-output GF(2⁸) linear combination `Σ coeffᵢ · chunkᵢ`.
///
/// Init with [`ParityAccum::new`], fold sources in with
/// [`ParityAccum::absorb`], and close with [`ParityAccum::finish`] once the
/// expected number of sources has been absorbed.
#[derive(Debug, Clone)]
pub(crate) struct ParityAccum {
    acc: Vec<u8>,
    absorbed: usize,
    kernel: Kernel,
}

impl ParityAccum {
    /// A fresh accumulator of `len` zero bytes (the GF additive identity).
    pub fn new(kernel: Kernel, len: usize) -> Self {
        ParityAccum {
            acc: vec![0u8; len],
            absorbed: 0,
            kernel,
        }
    }

    /// The partial bytes accumulated so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.acc
    }

    /// Folds one source in: `acc ⊕= coeff · chunk`.
    ///
    /// # Errors
    ///
    /// [`Error::ShardLengthMismatch`] if `chunk` is not the accumulator's
    /// length.
    pub fn absorb(&mut self, coeff: u8, chunk: &[u8]) -> Result<()> {
        if chunk.len() != self.acc.len() {
            return Err(Error::ShardLengthMismatch);
        }
        self.kernel.mul_acc(&mut self.acc, chunk, coeff);
        self.absorbed += 1;
        Ok(())
    }

    /// Closes the fold, checking that exactly `expected` sources were
    /// absorbed.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if the absorbed count is wrong — a pipeline
    /// that lost or double-counted a hop must fail loudly, not emit wrong
    /// parity.
    pub fn finish(self, expected: usize) -> Result<Vec<u8>> {
        if self.absorbed != expected {
            return Err(Error::Invariant(format!(
                "partial fold absorbed {} of {expected} sources",
                self.absorbed
            )));
        }
        Ok(self.acc)
    }
}

/// A streaming fold of `r` output rows: the running rows plus a record of
/// which source columns have been folded in.
///
/// Built from a codec with [`StripeEncoder::new`] (its `n − k` parity rows)
/// or from explicit coefficients with [`StripeEncoder::with_rows`] (one row
/// of [`recovery_coefficients`](crate::ReedSolomon::recovery_coefficients)
/// rebuilds a lost shard); each source shard is folded with
/// [`StripeEncoder::absorb_source`] (any order, exactly once each); and
/// [`StripeEncoder::finish`] yields, for the codec's rows, parity bytes
/// identical to [`ReedSolomon::encode`](crate::ReedSolomon::encode).
#[derive(Debug, Clone)]
pub struct StripeEncoder {
    coeffs: Matrix,
    rows: Vec<ParityAccum>,
    absorbed: Vec<bool>,
}

impl StripeEncoder {
    /// A fresh encoder for one stripe of `shard_len`-byte shards under
    /// `rs`'s generator.
    pub fn new(rs: &ReedSolomon, shard_len: usize) -> Self {
        Self::with_rows(rs.kernel(), rs.parity_matrix(), shard_len)
    }

    /// A fresh fold of `coeffs.rows()` outputs over `coeffs.cols()` sources:
    /// output `i` finishes as `Σⱼ coeffs[i][j] · sourceⱼ`.
    pub fn with_rows(kernel: Kernel, coeffs: Matrix, shard_len: usize) -> Self {
        StripeEncoder {
            rows: (0..coeffs.rows())
                .map(|_| ParityAccum::new(kernel, shard_len))
                .collect(),
            absorbed: vec![false; coeffs.cols()],
            coeffs,
        }
    }

    /// Whether every source shard has been folded in.
    pub fn is_complete(&self) -> bool {
        self.absorbed.iter().all(|&a| a)
    }

    /// The running partial parity rows (for shipping to the next hop; the
    /// byte volume of the wire transfer is `rows().len() · shard_len`).
    pub fn partial_rows(&self) -> impl Iterator<Item = &[u8]> {
        self.rows.iter().map(ParityAccum::as_slice)
    }

    /// Folds source shard `index` into every output row.
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if `index` is out of range or already folded.
    /// * [`Error::ShardLengthMismatch`] on length disagreement.
    pub fn absorb_source(&mut self, index: usize, chunk: &[u8]) -> Result<()> {
        let slot = self
            .absorbed
            .get_mut(index)
            .ok_or_else(|| Error::Invariant(format!("source index {index} out of range")))?;
        if *slot {
            return Err(Error::Invariant(format!(
                "source index {index} folded twice"
            )));
        }
        for (row, acc) in self.rows.iter_mut().enumerate() {
            acc.absorb(self.coeffs.get(row, index), chunk)?;
        }
        *slot = true;
        Ok(())
    }

    /// Closes the fold, returning the output rows.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] unless every source shard was folded in.
    pub fn finish(self) -> Result<Vec<Vec<u8>>> {
        if !self.is_complete() {
            let missing: Vec<usize> = self
                .absorbed
                .iter()
                .enumerate()
                .filter(|(_, &a)| !a)
                .map(|(i, _)| i)
                .collect();
            return Err(Error::Invariant(format!(
                "stripe encode missing sources {missing:?}"
            )));
        }
        let k = self.absorbed.len();
        self.rows.into_iter().map(|acc| acc.finish(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::ErasureParams;

    fn shards(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|j| {
                (0..len)
                    .map(|i| {
                        (i as u8)
                            .wrapping_mul(31)
                            .wrapping_add(j as u8)
                            .wrapping_mul(17)
                            .wrapping_add(seed)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streaming_encode_matches_one_shot_in_any_order() {
        for (n, k) in [(5usize, 4usize), (6, 4), (9, 6), (14, 10)] {
            let rs = ReedSolomon::new(ErasureParams::new(n, k).unwrap());
            let data = shards(k, 512, n as u8);
            let expected = rs.encode(&data).unwrap();

            // Forward, reverse, and an interleaved order all land on the
            // same bytes.
            let orders: Vec<Vec<usize>> = vec![
                (0..k).collect(),
                (0..k).rev().collect(),
                (0..k).map(|i| (i * 3 + 1) % k).collect::<Vec<_>>(),
            ];
            for order in orders {
                let mut unique = order.clone();
                unique.sort_unstable();
                unique.dedup();
                if unique.len() != k {
                    continue;
                }
                let mut enc = StripeEncoder::new(&rs, 512);
                for &j in &order {
                    enc.absorb_source(j, &data[j]).unwrap();
                }
                assert_eq!(enc.finish().unwrap(), expected, "(n,k)=({n},{k})");
            }
        }
    }

    #[test]
    fn overlap_and_double_fold_are_rejected() {
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let data = shards(4, 64, 6);
        let mut enc = StripeEncoder::new(&rs, 64);
        enc.absorb_source(1, &data[1]).unwrap();
        assert!(enc.absorb_source(1, &data[1]).is_err());
        assert!(enc.finish().is_err());
    }

    #[test]
    fn accum_finish_checks_source_count_and_lengths() {
        let mut acc = ParityAccum::new(Kernel::detect(), 32);
        assert!(acc.absorb(3, &[0u8; 16]).is_err());
        acc.absorb(3, &[7u8; 32]).unwrap();
        assert!(acc.clone().finish(2).is_err());
        assert_eq!(acc.absorbed, 1);
        let bytes = acc.finish(1).unwrap();
        // 3 · 7 in GF(2⁸) — mul_acc against a zeroed accumulator is a plain
        // scalar multiply.
        assert!(bytes.iter().all(|&b| b == crate::gf256::mul(3, 7)));
    }

    #[test]
    fn rack_folded_repair_rebuilds_every_shard() {
        let rs = ReedSolomon::new(ErasureParams::new(9, 6).unwrap());
        let data = shards(6, 512, 3);
        let parity = rs.encode(&data).unwrap();
        let all: Vec<&[u8]> = data
            .iter()
            .chain(parity.iter())
            .map(Vec::as_slice)
            .collect();

        // Rebuild every shard index from an arbitrary choice of 6 sources as
        // a one-row fold that travels rack to rack: the second rack's
        // sources go in first, as a chain visiting it first would.
        for lost in 0..9usize {
            let rows: Vec<usize> = (0..9).filter(|&i| i != lost).take(6).collect();
            let w = rs.recovery_coefficients(&rows, lost).unwrap();
            let mut fold = StripeEncoder::with_rows(rs.kernel(), Matrix::from_rows(1, 6, w), 512);
            for column in (2..6).chain(0..2) {
                fold.absorb_source(column, all[rows[column]]).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), [all[lost].to_vec()], "lost index {lost}");
        }
    }

    #[test]
    fn streaming_encode_matches_across_kernel_tiers() {
        let params = ErasureParams::new(6, 4).unwrap();
        let data = shards(4, 1024, 77);
        let reference = ReedSolomon::new(params).encode(&data).unwrap();
        for kernel in Kernel::available() {
            let rs = ReedSolomon::with_kernel(params, kernel);
            let mut enc = StripeEncoder::new(&rs, 1024);
            for (j, d) in data.iter().enumerate() {
                enc.absorb_source(j, d).unwrap();
            }
            assert_eq!(enc.finish().unwrap(), reference, "kernel {}", kernel.name());
        }
    }
}
