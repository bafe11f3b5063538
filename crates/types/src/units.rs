//! Physical units: data sizes and link bandwidths.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A size in bytes.
///
/// ```
/// use ear_types::ByteSize;
/// let block = ByteSize::mib(64); // HDFS default block size
/// assert_eq!(block.as_u64(), 64 * 1024 * 1024);
/// assert_eq!((block + ByteSize::mib(64)).as_u64(), 128 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from raw bytes.
    #[inline]
    pub const fn bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Creates a size from kibibytes.
    #[inline]
    pub const fn kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Creates a size from mebibytes.
    #[inline]
    pub const fn mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// Creates a size from gibibytes.
    #[inline]
    pub const fn gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as `f64`, for rate arithmetic.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        if self.0 >= GIB && self.0.is_multiple_of(GIB) {
            write!(f, "{}GiB", self.0 / GIB)
        } else if self.0 >= MIB && self.0.is_multiple_of(MIB) {
            write!(f, "{}MiB", self.0 / MIB)
        } else if self.0 >= KIB && self.0.is_multiple_of(KIB) {
            write!(f, "{}KiB", self.0 / KIB)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A link bandwidth in bytes per second.
///
/// The paper quotes link speeds in Gb/s (bits); [`Bandwidth::gbit`] performs
/// the bits→bytes conversion so callers can mirror the paper's parameters
/// directly.
///
/// ```
/// use ear_types::Bandwidth;
/// let link = Bandwidth::gbit(1.0); // 1 Gb/s Ethernet
/// assert_eq!(link.as_bytes_per_sec(), 125e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be finite and positive"
        );
        Bandwidth(bytes_per_sec)
    }

    /// Creates a bandwidth from gigabits per second (decimal, as quoted for
    /// Ethernet links: 1 Gb/s = 125,000,000 bytes/s).
    pub fn gbit(gbps: f64) -> Self {
        Self::bytes_per_sec(gbps * 1e9 / 8.0)
    }

    /// Creates a bandwidth from megabits per second.
    pub fn mbit(mbps: f64) -> Self {
        Self::bytes_per_sec(mbps * 1e6 / 8.0)
    }

    /// Bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Scales the bandwidth by a factor (e.g. to model over-subscription).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(self, factor: f64) -> Self {
        Self::bytes_per_sec(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gbps = self.0 * 8.0 / 1e9;
        if gbps >= 0.1 {
            write!(f, "{gbps:.2}Gb/s")
        } else {
            write!(f, "{:.1}Mb/s", self.0 * 8.0 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::kib(2).as_u64(), 2048);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
        assert_eq!(ByteSize::ZERO.as_u64(), 0);
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::mib(3);
        let b = ByteSize::mib(1);
        assert_eq!((a - b).as_u64(), ByteSize::mib(2).as_u64());
        // Subtraction saturates rather than underflowing.
        assert_eq!((b - a).as_u64(), 0);
        let mut c = ByteSize::ZERO;
        c += ByteSize::bytes(10);
        assert_eq!(c.as_u64(), 10);
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(ByteSize::bytes(512).to_string(), "512B");
        assert_eq!(ByteSize::kib(4).to_string(), "4KiB");
        assert_eq!(ByteSize::mib(64).to_string(), "64MiB");
        assert_eq!(ByteSize::gib(2).to_string(), "2GiB");
    }

    #[test]
    fn bandwidth_conversions() {
        let g = Bandwidth::gbit(1.0);
        assert!((g.as_bytes_per_sec() - 1.25e8).abs() < 1.0);
        let m = Bandwidth::mbit(800.0);
        assert!((m.as_bytes_per_sec() - 1e8).abs() < 1.0);
        assert!((g.scaled(0.5).as_bytes_per_sec() - 6.25e7).abs() < 1.0);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::gbit(1.0).to_string(), "1.00Gb/s");
        assert_eq!(Bandwidth::mbit(50.0).to_string(), "50.0Mb/s");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::bytes_per_sec(0.0);
    }
}
