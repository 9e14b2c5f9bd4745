//! The benchmark's own statistics: percentiles, failure accounting and
//! the output digest.

/// A tail percentile must have at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A tail percentile of a sample, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, in percent.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of an ascending sample, up to `cap` (in
/// `(0, 1]`), with at least [`TAIL_BEYOND`] samples beyond it (`None`
/// when the sample is too small to have one). With `cap` 0.99, 1000
/// samples or more give the p99.
pub fn tail(sorted: &[f64], cap: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let supported = (n - TAIL_BEYOND) as f64 / n as f64;
    let q = supported.min(cap);
    Some(Tail {
        percentile: 100.0 * q,
        value: percentile(sorted, q),
        samples: n,
    })
}

/// Operations attempted and failed in one run. Each failed operation
/// counts once, whatever went wrong with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Ticks, fired scale actions and retrain rounds attempted.
    pub attempted: u64,
    /// Ticks or rounds that returned an error.
    pub errors: u64,
    /// Ticks that took longer than the 1 s monitoring interval.
    pub overruns: u64,
    /// Scale actions that fired as a failure or a refused removal.
    pub scale_failed: u64,
}

/// A tick may take at most one monitoring interval.
pub const TICK_LIMIT_S: f64 = 1.0;

impl Failures {
    /// One monitored second: failed when it errored or overran.
    pub fn tick(&mut self, ok: bool, seconds: f64) {
        self.attempted += 1;
        if !ok {
            self.errors += 1;
        } else if seconds > TICK_LIMIT_S {
            self.overruns += 1;
        }
    }

    /// One scale action, when it fires.
    pub fn scale(&mut self, ok: bool) {
        self.attempted += 1;
        self.scale_failed += u64::from(!ok);
    }

    /// One retrain round.
    pub fn round(&mut self, ok: bool) {
        self.attempted += 1;
        self.errors += u64::from(!ok);
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.errors + self.overruns + self.scale_failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Adds another run's tallies.
    pub fn add(&mut self, other: &Failures) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.overruns += other.overruns;
        self.scale_failed += other.scale_failed;
    }
}

/// FNV-1a over the words fed to it: a digest of a run's outputs that is
/// stable across builds and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds one word.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds the bits of a float.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Feeds a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&sorted, 0.99).expect("1000 samples have a tail");
        assert_eq!(t.samples, 1000);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, percentile(&sorted, 0.99));
        assert_eq!(sorted.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        // More samples than the cap needs: still the p99, more beyond it.
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&many, 0.99).expect("5000 samples have a tail");
        assert_eq!((t.percentile, t.value), (99.0, 4950.0));

        // Fewer: the highest percentile with exactly ten beyond it.
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&small, 0.99).expect("40 samples have a tail");
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 30.0, 40));
        assert_eq!(small.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        assert_eq!(tail(&sorted[..TAIL_BEYOND], 0.99), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.51), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fail_ratio_counts_each_failure_once() {
        let mut f = Failures::default();
        f.tick(true, 0.2);
        f.tick(false, 0.2); // error
        f.tick(true, 1.5); // overrun
        f.tick(false, 2.0); // error and overrun: one failed tick
        f.scale(true);
        f.scale(false); // failed scale action
        f.round(true);
        f.round(false); // failed round
        assert_eq!(f.attempted, 8);
        assert_eq!((f.errors, f.overruns, f.scale_failed), (3, 1, 1));
        assert_eq!(f.failed(), 5);
        assert_eq!(f.ratio(), 5.0 / 8.0);
        assert_eq!(Failures::default().ratio(), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.float(0.5);
        b.float(0.5);
        assert_eq!(a, b);
        b.float(f64::from_bits(0.5f64.to_bits() ^ 1));
        a.float(0.5);
        assert_ne!(a, b);
        let mut c = Digest::default();
        let mut d = Digest::default();
        c.bytes(b"ab");
        d.bytes(b"ab\0");
        assert_ne!(c, d);
    }
}
