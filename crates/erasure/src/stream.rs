//! Streaming shard interface: incremental GF(2⁸) partial folding.
//!
//! Reed–Solomon parity rows are linear combinations of the data shards, so
//! they can be folded in one source at a time instead of requiring all `k`
//! shards resident at one node — the primitive of RapidRAID-style pipelined
//! encoding and rack-aware repair. [`StripeEncoder`] folds sources into `r`
//! running rows under `r` coefficient rows — the generator's `n − k` parity
//! rows for an encode, the one row of recovery coefficients for a rebuild —
//! so either can stream source-by-source, hop-by-hop, or take all of its
//! sources in one tiled pass ([`StripeEncoder::absorb_all`]).
//!
//! Because GF(2⁸) addition is XOR (commutative and associative), sources
//! absorbed in any order finish to bytes identical to the one-shot
//! [`ReedSolomon::encode`](crate::ReedSolomon::encode) pass. The tests at
//! the bottom of this module pin that bit-identity across kernel tiers.

use crate::{Kernel, Matrix, ReedSolomon};
use ear_types::{Block, Error, Result};

/// A streaming fold of `r` output rows: the running rows plus a record of
/// which source columns have been folded in.
///
/// Built from a codec with [`StripeEncoder::new`] (its `n − k` parity rows)
/// or from explicit coefficients with [`StripeEncoder::with_rows`] (one row
/// of [`recovery_coefficients`](crate::ReedSolomon::recovery_coefficients)
/// rebuilds a lost shard); each source shard is folded with
/// [`StripeEncoder::absorb_source`] or, all at once,
/// [`StripeEncoder::absorb_all`] (any order, exactly once each); and
/// [`StripeEncoder::finish`] yields, for the codec's rows, parity bytes
/// identical to [`ReedSolomon::encode`](crate::ReedSolomon::encode).
///
/// The rows are accumulated in the vectors that [`StripeEncoder::finish`]
/// returns and [`StripeEncoder::finish_blocks`] hands to [`Block`]s, so a
/// fold's output is never copied on its way to a store.
#[derive(Debug, Clone)]
pub struct StripeEncoder {
    kernel: Kernel,
    coeffs: Matrix,
    rows: Vec<Vec<u8>>,
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
            kernel,
            // Zero bytes are the GF additive identity.
            rows: (0..coeffs.rows()).map(|_| vec![0; shard_len]).collect(),
            absorbed: vec![false; coeffs.cols()],
            coeffs,
        }
    }

    /// The number of source columns, each to be folded in exactly once.
    pub fn sources(&self) -> usize {
        self.absorbed.len()
    }

    /// Whether every source shard has been folded in.
    pub fn is_complete(&self) -> bool {
        self.absorbed.iter().all(|&a| a)
    }

    /// The running partial parity rows (for shipping to the next hop; the
    /// byte volume of the wire transfer is `rows().len() · shard_len`).
    pub fn partial_rows(&self) -> impl Iterator<Item = &[u8]> {
        self.rows.iter().map(|row| &row[..])
    }

    /// Folds source shard `index` into every output row.
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if `index` is out of range or already folded.
    /// * [`Error::ShardLengthMismatch`] on length disagreement.
    pub fn absorb_source(&mut self, index: usize, chunk: &[u8]) -> Result<()> {
        self.absorb_all(&[(index, chunk)], |_, _| ())
    }

    /// Folds every `(index, shard)` of `sources` into every output row in
    /// one tiled pass ([`Kernel::mul_acc_many`]): each shard is read once,
    /// and before each piece of it is absorbed, `piece(position in
    /// sources, bytes)` sees it — pieces of one shard arrive in order and
    /// cover it exactly. Nothing is folded unless every source is valid.
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if an index is out of range, already folded,
    ///   or listed twice.
    /// * [`Error::ShardLengthMismatch`] on length disagreement.
    pub fn absorb_all(
        &mut self,
        sources: &[(usize, &[u8])],
        piece: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        let mut taken = self.absorbed.clone();
        for &(index, chunk) in sources {
            let slot = taken
                .get_mut(index)
                .ok_or_else(|| Error::Invariant(format!("source index {index} out of range")))?;
            if std::mem::replace(slot, true) {
                return Err(Error::Invariant(format!("source index {index} folded twice")));
            }
            if self.rows.first().is_some_and(|row| row.len() != chunk.len()) {
                return Err(Error::ShardLengthMismatch);
            }
        }
        self.apply(sources, piece);
        self.absorbed = taken;
        Ok(())
    }

    /// Takes source `index` back out: folds `chunk` in a second time, which
    /// cancels it (GF(2⁸) addition is XOR), and marks the column open again.
    /// `chunk` must be the bytes that were absorbed — a fold that finds a
    /// source's bytes bad after absorbing them retracts exactly those.
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if `index` is out of range or not folded.
    /// * [`Error::ShardLengthMismatch`] on length disagreement.
    pub fn retract_source(&mut self, index: usize, chunk: &[u8]) -> Result<()> {
        if !self.absorbed.get(index).copied().unwrap_or(false) {
            return Err(Error::Invariant(format!("source index {index} is not folded")));
        }
        if self.rows.first().is_some_and(|row| row.len() != chunk.len()) {
            return Err(Error::ShardLengthMismatch);
        }
        self.apply(&[(index, chunk)], |_, _| ());
        if let Some(slot) = self.absorbed.get_mut(index) {
            *slot = false;
        }
        Ok(())
    }

    /// `rows[r] ⊕= Σ coeffs[r][index] · shard` over `sources`, validated.
    fn apply(&mut self, sources: &[(usize, &[u8])], mut piece: impl FnMut(usize, &[u8])) {
        let coeffs = &self.coeffs;
        let coefs: Vec<u8> = (0..coeffs.rows())
            .flat_map(|r| sources.iter().map(move |&(index, _)| coeffs.get(r, index)))
            .collect();
        let srcs: Vec<&[u8]> = sources.iter().map(|&(_, chunk)| chunk).collect();
        let mut rows: Vec<&mut [u8]> = self.rows.iter_mut().map(Vec::as_mut_slice).collect();
        self.kernel.mul_acc_many(&mut rows, &srcs, &coefs, &mut piece);
    }

    /// The columns still to fold, as the error that names them.
    fn incomplete(&self) -> Result<()> {
        if self.is_complete() {
            return Ok(());
        }
        let missing: Vec<usize> = self
            .absorbed
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(i, _)| i)
            .collect();
        Err(Error::Invariant(format!("stripe encode missing sources {missing:?}")))
    }

    /// Closes the fold, returning the output rows in the vectors they were
    /// accumulated in.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] unless every source shard was folded in.
    pub fn finish(self) -> Result<Vec<Vec<u8>>> {
        self.incomplete()?;
        Ok(self.rows)
    }

    /// Closes the fold, returning the output rows as [`Block`]s over the
    /// buffers they were accumulated in (no byte is copied; the blocks carry
    /// no stamp).
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] unless every source shard was folded in.
    pub fn finish_blocks(self) -> Result<Vec<Block>> {
        self.incomplete()?;
        Ok(self.rows.into_iter().map(Block::from).collect())
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
        let one_row = |cols| Matrix::from_rows(1, cols, vec![3; cols]);
        let mut acc = StripeEncoder::with_rows(Kernel::detect(), one_row(2), 32);
        assert!(matches!(acc.absorb_source(0, &[0u8; 16]), Err(Error::ShardLengthMismatch)));
        acc.absorb_source(0, &[7u8; 32]).unwrap();
        assert!(acc.clone().finish().is_err(), "one of two sources is in");
        let mut acc = StripeEncoder::with_rows(Kernel::detect(), one_row(1), 32);
        acc.absorb_source(0, &[7u8; 32]).unwrap();
        let bytes = acc.clone().finish().unwrap().remove(0);
        // 3 · 7 in GF(2⁸) — mul_acc against a zeroed accumulator is a plain
        // scalar multiply.
        assert!(bytes.iter().all(|&b| b == crate::gf256::mul(3, 7)));
        assert_eq!(acc.finish_blocks().unwrap(), [Block::from(bytes)]);
    }

    #[test]
    fn absorb_all_checks_every_source_before_folding_any() {
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let data = shards(4, 64, 9);
        let mut enc = StripeEncoder::new(&rs, 64);
        let twice = [(0, &data[0][..]), (2, &data[2][..]), (0, &data[0][..])];
        assert!(matches!(enc.absorb_all(&twice, |_, _| ()), Err(Error::Invariant(_))));
        let short = [(1, &data[1][..]), (3, &data[3][..32])];
        assert!(matches!(enc.absorb_all(&short, |_, _| ()), Err(Error::ShardLengthMismatch)));
        enc.absorb_all(&[], |_, _| ()).unwrap();
        assert!(enc.partial_rows().all(|row| row.iter().all(|&b| b == 0)), "nothing folded");
        let all: Vec<(usize, &[u8])> = [2, 0, 3, 1].map(|j| (j, &data[j][..])).to_vec();
        let mut seen = vec![Vec::new(); 4];
        enc.absorb_all(&all, |pos, piece| seen[pos].extend_from_slice(piece)).unwrap();
        assert_eq!(seen, all.iter().map(|&(_, d)| d.to_vec()).collect::<Vec<_>>());
        let at: Vec<*const u8> = enc.partial_rows().map(<[u8]>::as_ptr).collect();
        let rows = enc.finish().unwrap();
        assert_eq!(rows.iter().map(|r| r.as_ptr()).collect::<Vec<_>>(), at, "rows are not copied");
        assert_eq!(rows, rs.encode(&data).unwrap());
    }

    #[test]
    fn a_retracted_source_leaves_no_trace() {
        let rs = ReedSolomon::new(ErasureParams::new(9, 6).unwrap());
        let data = shards(6, 256, 4);
        let rotten = vec![0xA5u8; 256];
        let mut enc = StripeEncoder::new(&rs, 256);
        let mut all: Vec<(usize, &[u8])> = data.iter().map(Vec::as_slice).enumerate().collect();
        all[4].1 = &rotten;
        enc.absorb_all(&all, |_, _| ()).unwrap();
        enc.retract_source(4, &rotten).unwrap();
        assert!(enc.retract_source(4, &rotten).is_err(), "a column is retracted once");
        assert!(enc.clone().finish().is_err(), "and is open until absorbed again");
        enc.absorb_source(4, &data[4]).unwrap();
        let at: Vec<*const u8> = enc.partial_rows().map(<[u8]>::as_ptr).collect();
        let blocks = enc.finish_blocks().unwrap();
        assert_eq!(blocks.iter().map(|b| b.as_ptr()).collect::<Vec<_>>(), at, "rows are not copied");
        let want = rs.encode(&data).unwrap();
        assert_eq!(blocks.iter().map(Block::to_vec).collect::<Vec<_>>(), want);
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
