//! Systematic Reed–Solomon coding over GF(2⁸).
//!
//! A stripe of `k` data shards is expanded with `n - k` parity shards such
//! that any `k` of the `n` shards reconstruct the originals — the erasure
//! model of Section II-A of the paper.

use crate::gf256;
use crate::kernels::Kernel;
use crate::matrix::Matrix;
use ear_types::{ErasureParams, Error, Result};

/// A systematic `(n, k)` Reed–Solomon codec.
///
/// ```
/// use ear_erasure::ReedSolomon;
/// use ear_types::ErasureParams;
///
/// let rs = ReedSolomon::new(ErasureParams::new(5, 3).unwrap());
/// let data = vec![b"abcd".to_vec(), b"efgh".to_vec(), b"ijkl".to_vec()];
/// let parity = rs.encode(&data).unwrap();
/// assert_eq!(parity.len(), 2);
///
/// // Lose any two shards; reconstruction recovers them.
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().cloned().map(Some).chain(parity.iter().cloned().map(Some)).collect();
/// shards[0] = None;
/// shards[4] = None;
/// rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(shards[0].as_deref(), Some(b"abcd".as_slice()));
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: ErasureParams,
    /// The full `n × k` generator; rows `0..k` form the identity.
    generator: Matrix,
    /// The GF(2⁸) bulk kernel driving every encode/decode/repair hot loop.
    kernel: Kernel,
}

impl ReedSolomon {
    /// Creates a codec with the process-wide [`Kernel::active`] GF(2⁸)
    /// kernel (best supported tier, honoring the `EAR_GF_KERNEL` override).
    pub fn new(params: ErasureParams) -> Self {
        Self::with_kernel(params, Kernel::active())
    }

    /// Creates a codec pinned to a specific GF(2⁸) kernel — used by tests
    /// and benchmarks that compare tiers; production code should prefer the
    /// auto-selected [`ReedSolomon::new`].
    ///
    /// The generator is `G = V · V_top⁻¹` where `V` is the `n × k`
    /// Vandermonde matrix; the top `k × k` block becomes the identity
    /// (classic systematic RS, the HDFS-RAID default).
    pub fn with_kernel(params: ErasureParams, kernel: Kernel) -> Self {
        let n = params.n();
        let k = params.k();
        let v = Matrix::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverted()
            .expect("top rows of a Vandermonde matrix are invertible");
        let generator = v.multiply(&top_inv);
        debug_assert_eq!(
            generator.select_rows(&(0..k).collect::<Vec<_>>()),
            Matrix::identity(k),
            "generator must be systematic"
        );
        ReedSolomon {
            params,
            generator,
            kernel,
        }
    }

    /// The `(n, k)` parameters of this codec.
    #[inline]
    pub fn params(&self) -> ErasureParams {
        self.params
    }

    /// The GF(2⁸) kernel this codec dispatches to.
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The parity rows of the generator (an `(n-k) × k` matrix).
    pub(crate) fn parity_matrix(&self) -> Matrix {
        self.generator
            .select_rows(&(self.params.k()..self.params.n()).collect::<Vec<_>>())
    }

    /// Encodes `k` equally-sized data shards into `n - k` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the number of shards is not `k`, or
    /// [`Error::ShardLengthMismatch`] if shard lengths differ.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>> {
        let k = self.params.k();
        if data.len() != k {
            return Err(Error::Invariant(format!(
                "encode expects {k} data shards, got {}",
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(Error::ShardLengthMismatch);
        }
        let m = self.params.parity();
        let mut parity = vec![vec![0u8; len]; m];
        // One tiled pass folds every source into all m rows.
        let srcs: Vec<&[u8]> = data.iter().map(AsRef::as_ref).collect();
        let coefs: Vec<u8> = (k..k + m).flat_map(|r| self.generator.row(r).to_vec()).collect();
        let mut rows: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        self.kernel.mul_acc_many(&mut rows, &srcs, &coefs, &mut |_, _| ());
        Ok(parity)
    }

    /// Checks that `parity` is consistent with `data` (a test oracle: no
    /// caller outside this crate's tests).
    ///
    /// # Errors
    ///
    /// Propagates the same validation errors as [`ReedSolomon::encode`], and
    /// additionally checks the parity shard count.
    #[cfg(test)]
    pub fn verify<T: AsRef<[u8]>, U: AsRef<[u8]>>(&self, data: &[T], parity: &[U]) -> Result<bool> {
        if parity.len() != self.params.parity() {
            return Err(Error::Invariant(format!(
                "verify expects {} parity shards, got {}",
                self.params.parity(),
                parity.len()
            )));
        }
        let expected = self.encode(data)?;
        Ok(expected
            .iter()
            .zip(parity)
            .all(|(e, p)| e.as_slice() == p.as_ref()))
    }

    /// Reconstructs all missing shards in place.
    ///
    /// `shards` must have length `n`; present shards are `Some`, erased
    /// shards `None`. On success every slot is `Some` and holds the original
    /// contents.
    ///
    /// # Errors
    ///
    /// * [`Error::NotEnoughShards`] if fewer than `k` shards are present.
    /// * [`Error::ShardLengthMismatch`] if present shards differ in length.
    /// * [`Error::Invariant`] if `shards.len() != n`.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<()> {
        let n = self.params.n();
        let k = self.params.k();
        if shards.len() != n {
            return Err(Error::Invariant(format!(
                "reconstruct expects {n} shard slots, got {}",
                shards.len()
            )));
        }
        let present: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < k {
            return Err(Error::NotEnoughShards {
                available: present.len(),
                required: k,
            });
        }
        let len = shards[present[0]].as_ref().expect("present").len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().expect("present").len() != len)
        {
            return Err(Error::ShardLengthMismatch);
        }
        if present.len() == n {
            return Ok(());
        }

        // Decode: pick the first k present shards, invert the corresponding
        // generator rows, and multiply to recover the k data shards.
        let rows: Vec<usize> = present.iter().copied().take(k).collect();
        let sub = self.generator.select_rows(&rows);
        let dec = sub.inverted().map_err(|_| {
            Error::Invariant("selected generator rows are singular (non-MDS generator?)".into())
        })?;

        // The missing data shards, in one pass over the k sources.
        let need_data: Vec<usize> = (0..k).filter(|&i| shards[i].is_none()).collect();
        let mut data = vec![vec![0u8; len]; need_data.len()];
        {
            let srcs: Vec<&[u8]> = rows.iter().filter_map(|&r| shards[r].as_deref()).collect();
            let mut outs: Vec<&mut [u8]> = data.iter_mut().map(Vec::as_mut_slice).collect();
            let coefs: Vec<u8> = need_data.iter().flat_map(|&i| dec.row(i).to_vec()).collect();
            self.kernel.mul_acc_many(&mut outs, &srcs, &coefs, &mut |_, _| ());
        }
        for (i, shard) in need_data.into_iter().zip(data) {
            shards[i] = Some(shard);
        }
        // Then the missing parity shards, in one pass over the now complete
        // data.
        let need_parity: Vec<usize> = (k..n).filter(|&i| shards[i].is_none()).collect();
        let mut parity = vec![vec![0u8; len]; need_parity.len()];
        {
            let srcs: Vec<&[u8]> = shards[..k].iter().filter_map(Option::as_deref).collect();
            let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            let coefs: Vec<u8> =
                need_parity.iter().flat_map(|&p| self.generator.row(p).to_vec()).collect();
            self.kernel.mul_acc_many(&mut outs, &srcs, &coefs, &mut |_, _| ());
        }
        for (p, shard) in need_parity.into_iter().zip(parity) {
            shards[p] = Some(shard);
        }
        Ok(())
    }

    /// The per-source GF(2⁸) weights of a single-shard repair: with `rows`
    /// naming the `k` surviving shard indices that will feed the rebuild,
    /// returns `w` such that
    ///
    /// ```text
    /// shard[lost] = Σⱼ w[j] · shard[rows[j]]
    /// ```
    ///
    /// Because the fold is a plain linear combination, it can be computed
    /// incrementally — e.g. a source rack folds its local survivors into
    /// the travelling one-row
    /// [`StripeEncoder::with_rows`](crate::StripeEncoder::with_rows) and
    /// only that partial crosses the rack boundary (rack-aware repair).
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if `rows` is not `k` distinct in-range indices,
    /// if `lost` is out of range or listed in `rows`, or if the selected
    /// generator rows are singular.
    pub fn recovery_coefficients(&self, rows: &[usize], lost: usize) -> Result<Vec<u8>> {
        let n = self.params.n();
        let k = self.params.k();
        if rows.len() != k {
            return Err(Error::Invariant(format!(
                "repair needs {k} source rows, got {}",
                rows.len()
            )));
        }
        if lost >= n {
            return Err(Error::Invariant(format!(
                "lost shard index {lost} out of range for n = {n}"
            )));
        }
        let mut seen = vec![false; n];
        for &r in rows {
            let slot = seen
                .get_mut(r)
                .ok_or_else(|| Error::Invariant(format!("source row {r} out of range")))?;
            if *slot {
                return Err(Error::Invariant(format!("source row {r} listed twice")));
            }
            *slot = true;
        }
        if seen.get(lost).copied().unwrap_or(false) {
            return Err(Error::Invariant(format!(
                "lost shard {lost} cannot be its own repair source"
            )));
        }
        let sub = self.generator.select_rows(rows);
        let dec = sub.inverted().map_err(|_| {
            Error::Invariant("selected generator rows are singular (non-MDS generator?)".into())
        })?;
        if lost < k {
            // A data shard is row `lost` of the decode matrix directly.
            return Ok((0..k).map(|j| dec.get(lost, j)).collect());
        }
        // A parity shard is generator row `lost` applied to the decoded
        // data: w[j] = Σᵢ g[lost][i] · dec[i][j].
        Ok((0..k)
            .map(|j| {
                (0..k).fold(0u8, |acc, i| {
                    acc ^ gf256::mul(self.generator.get(lost, i), dec.get(i, j))
                })
            })
            .collect())
    }

    /// Convenience wrapper: reconstructs and returns only the `k` data
    /// shards (test-only, like [`ReedSolomon::verify`]).
    ///
    /// # Errors
    ///
    /// Same as [`ReedSolomon::reconstruct`].
    #[cfg(test)]
    pub fn reconstruct_data(&self, shards: &mut [Option<Vec<u8>>]) -> Result<Vec<Vec<u8>>> {
        self.reconstruct(shards)?;
        Ok(shards
            .iter()
            .take(self.params.k())
            .map(|s| s.clone().expect("reconstructed"))
            .collect())
    }

    /// Updates the parity shards in place after data shard `index` changed
    /// from `old` to `new`, without touching the other `k - 1` data shards.
    ///
    /// Reed–Solomon encoding is linear, so each parity shard changes by
    /// `g[row][index] · (old ⊕ new)`; this is the parity-delta technique
    /// used by update-efficient erasure-coded stores. Nothing in the
    /// workspace updates a sealed stripe, so it is test-only.
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if `index >= k` or the parity count is wrong.
    /// * [`Error::ShardLengthMismatch`] if lengths disagree.
    #[cfg(test)]
    pub fn update_parity(
        &self,
        index: usize,
        old: &[u8],
        new: &[u8],
        parity: &mut [Vec<u8>],
    ) -> Result<()> {
        let k = self.params.k();
        if index >= k {
            return Err(Error::Invariant(format!(
                "data shard index {index} out of range (k = {k})"
            )));
        }
        if parity.len() != self.params.parity() {
            return Err(Error::Invariant(format!(
                "expected {} parity shards, got {}",
                self.params.parity(),
                parity.len()
            )));
        }
        if old.len() != new.len() || parity.iter().any(|p| p.len() != old.len()) {
            return Err(Error::ShardLengthMismatch);
        }
        let delta: Vec<u8> = old.iter().zip(new).map(|(a, b)| a ^ b).collect();
        for (row, p) in parity.iter_mut().enumerate() {
            let coef = self.generator.get(k + row, index);
            self.kernel.mul_acc(p, &delta, coef);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 7 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_and_reconstruct_bit_identical_across_kernel_tiers() {
        use crate::kernels::{Kernel, KernelTier};
        let params = ErasureParams::new(10, 8).unwrap();
        // Long enough to cross mul_acc_many's blocking tile, odd so every
        // vector tier exercises its scalar tail.
        let data = sample_data(8, 40 * 1024 + 7);
        let scalar = Kernel::select(KernelTier::Scalar).expect("scalar always available");
        let reference = ReedSolomon::with_kernel(params, scalar)
            .encode(&data)
            .unwrap();
        for kernel in Kernel::available() {
            let rs = ReedSolomon::with_kernel(params, kernel);
            let parity = rs.encode(&data).unwrap();
            assert_eq!(parity, reference, "{} parity differs", kernel.name());
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
            shards[0] = None;
            shards[9] = None;
            rs.reconstruct(&mut shards).unwrap();
            assert_eq!(shards[0].as_ref().unwrap(), &data[0], "{}", kernel.name());
            assert_eq!(shards[9].as_ref().unwrap(), &reference[1], "{}", kernel.name());
        }
    }

    #[test]
    fn encode_produces_expected_counts() {
        let rs = ReedSolomon::new(ErasureParams::new(14, 10).unwrap());
        let data = sample_data(10, 64);
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity.len(), 4);
        assert!(parity.iter().all(|p| p.len() == 64));
        assert!(rs.verify(&data, &parity).unwrap());
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let data = sample_data(4, 32);
        let mut parity = rs.encode(&data).unwrap();
        parity[1][5] ^= 0xFF;
        assert!(!rs.verify(&data, &parity).unwrap());
    }

    #[test]
    fn reconstruct_any_k_of_n() {
        // Exhaustively erase every (n-k)-subset for a small code.
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let data = sample_data(4, 16);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_ref().unwrap(), &full[i], "erased ({a},{b}) slot {i}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_rejects_too_many_erasures() {
        let rs = ReedSolomon::new(ErasureParams::new(5, 3).unwrap());
        let data = sample_data(3, 8);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        let err = rs.reconstruct(&mut shards).unwrap_err();
        assert!(matches!(
            err,
            Error::NotEnoughShards {
                available: 2,
                required: 3
            }
        ));
    }

    #[test]
    fn encode_validates_inputs() {
        let rs = ReedSolomon::new(ErasureParams::new(5, 3).unwrap());
        assert!(rs.encode(&sample_data(2, 8)).is_err());
        let uneven = vec![vec![0u8; 8], vec![0u8; 8], vec![0u8; 9]];
        assert!(matches!(
            rs.encode(&uneven).unwrap_err(),
            Error::ShardLengthMismatch
        ));
    }

    #[test]
    fn reconstruct_noop_when_complete() {
        let rs = ReedSolomon::new(ErasureParams::new(4, 2).unwrap());
        let data = sample_data(2, 8);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn reconstruct_data_returns_k_shards() {
        let rs = ReedSolomon::new(ErasureParams::new(5, 3).unwrap());
        let data = sample_data(3, 8);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = vec![None, Some(data[1].clone()), None]
            .into_iter()
            .chain(parity.into_iter().map(Some))
            .collect();
        let rec = rs.reconstruct_data(&mut shards).unwrap();
        assert_eq!(rec, data);
    }

    #[test]
    fn zero_length_shards_are_fine() {
        let rs = ReedSolomon::new(ErasureParams::new(4, 2).unwrap());
        let data = vec![Vec::new(), Vec::new()];
        let parity = rs.encode(&data).unwrap();
        assert!(parity.iter().all(Vec::is_empty));
    }

    #[test]
    fn update_parity_matches_full_reencode() {
        let rs = ReedSolomon::new(ErasureParams::new(9, 6).unwrap());
        let mut data = sample_data(6, 32);
        let mut parity = rs.encode(&data).unwrap();
        for (idx, block) in data.iter_mut().enumerate() {
            let old = block.clone();
            for b in block.iter_mut() {
                *b = b.wrapping_add(idx as u8 + 1);
            }
            rs.update_parity(idx, &old, block, &mut parity).unwrap();
        }
        let full = rs.encode(&data).unwrap();
        assert_eq!(parity, full, "deltas must equal re-encode");
    }

    #[test]
    fn update_parity_validates_inputs() {
        let rs = ReedSolomon::new(ErasureParams::new(5, 3).unwrap());
        let data = sample_data(3, 8);
        let mut parity = rs.encode(&data).unwrap();
        // Out-of-range index.
        assert!(rs
            .update_parity(3, &data[0], &data[0], &mut parity)
            .is_err());
        // Length mismatch.
        assert!(matches!(
            rs.update_parity(0, &data[0], &[0u8; 4], &mut parity)
                .unwrap_err(),
            Error::ShardLengthMismatch
        ));
        // Wrong parity count.
        let mut short = parity[..1].to_vec();
        assert!(rs.update_parity(0, &data[0], &data[0], &mut short).is_err());
    }

    #[test]
    fn noop_update_leaves_parity_unchanged() {
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let data = sample_data(4, 16);
        let mut parity = rs.encode(&data).unwrap();
        let before = parity.clone();
        rs.update_parity(2, &data[2], &data[2], &mut parity)
            .unwrap();
        assert_eq!(parity, before);
    }
}
