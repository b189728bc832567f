//! Measurement helpers: exact percentiles over the benchmark's own sample
//! vectors, medians of host measurements, peak resident memory, the
//! host settings a run makes and the statistics digest.

use secbus_crypto::Sha256;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`, an exact
/// sample value. `sorted` must be ascending and non-empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of host measurements (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restrict this process to the lowest-numbered CPU it may run on and
/// return that CPU. Call it before any thread starts: threads started
/// later inherit the one-CPU mask, and the program's own thread-count
/// choices (`available_parallelism`) see one CPU, so the whole run is one
/// thread on one CPU. `None` where the mask cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is read-only here.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is only implemented on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Make the allocator keep the memory an episode frees for the next one:
/// no trimming of the heap top, and blocks up to 32 MiB (the largest
/// `mallopt` allows) from the heap rather than from fresh `mmap`s. Each
/// episode then builds on pages the process already holds, and set-up
/// time stops including the kernel's page faults and zeroing, whose cost
/// moves with the host's memory pressure: a case-study build took about
/// 830 minor faults per episode before, and none after the first.
/// Returns whether both settings took.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only adjusts glibc allocator parameters; both are
    // documented options with in-range values, set before any thread
    // starts.
    unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 }
}

/// Only glibc has `mallopt`.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() -> bool {
    false
}

/// Running SHA-256 over every simulated statistic of an episode. Two
/// episodes of one seed must produce the same hex string.
pub struct Digest(Sha256);

impl Default for Digest {
    fn default() -> Self {
        Digest(Sha256::new())
    }
}

impl Digest {
    /// Absorb a labelled byte string.
    pub fn bytes(&mut self, label: &str, data: &[u8]) {
        self.0.update(label.as_bytes());
        self.0.update(&(data.len() as u64).to_le_bytes());
        self.0.update(data);
    }

    /// Absorb a labelled integer.
    pub fn num(&mut self, label: &str, v: u64) {
        self.bytes(label, &v.to_le_bytes());
    }

    /// Absorb a labelled sequence of integers.
    pub fn nums(&mut self, label: &str, vs: &[u64]) {
        let raw: Vec<u8> = vs.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.bytes(label, &raw);
    }

    /// The hex digest.
    pub fn finish(self) -> String {
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[20, 20, 20], 0.5), 20);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
