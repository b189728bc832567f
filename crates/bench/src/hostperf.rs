//! S-22: host-side crypto throughput across backends — the measurement
//! logic behind `perf_soak`'s `host` section.
//!
//! The paper's Cryptographic Core and Integrity Core are hardware
//! blocks; this module prices how close the software model's hot paths
//! get to "as fast as the hardware allows" on the *host*:
//!
//! * **CTR ciphering** — the per-16-byte software reference loop vs the
//!   batched keystream on the soft backend vs the batched keystream on
//!   the accel (AES-NI multi-lane) backend, in GB/s;
//! * **SHA-256** — bulk hashing on the soft vs accel (SHA-NI) backend;
//! * **Merkle** — serial vs parallel tree build, and bulk leaf
//!   verification throughput (verifies/s).
//!
//! Every optimized path is also checked byte-identical against its
//! reference inside the measurement ([`HostPerf::outputs_match`]), so a
//! fast-but-wrong backend can never post a number.
//!
//! Timing discipline follows [`crate::perf::compare_cc`]: process CPU
//! time where available (immune to preemption), wall clock as the
//! fallback, all paths timed back-to-back in paired rounds with the
//! median round (by the headline accel-vs-per-block ratio) reported, so
//! slow frequency drift cancels out of every ratio. Each path gets its
//! own rep count so that even the multi-GB/s windows stay long enough
//! for the 100 Hz CPU clock.

use std::time::Instant;

use secbus_crypto::merkle::leaf_digest;
use secbus_crypto::{host_caps, sha256_with, Aes128, CryptoBackend, MemoryCipher, MerkleTree};

use crate::perf::per_block_ctr;

/// Shape of the host-throughput workload.
#[derive(Debug, Clone, Copy)]
pub struct HostWorkload {
    /// Bytes per cipher/hash burst (the working buffer size).
    pub burst_bytes: usize,
    /// Total bytes through the per-block soft CTR reference.
    pub ctr_per_block_bytes: usize,
    /// Total bytes through the batched soft CTR path.
    pub ctr_soft_bytes: usize,
    /// Total bytes through the batched accel CTR path.
    pub ctr_accel_bytes: usize,
    /// Total bytes through soft SHA-256.
    pub sha_soft_bytes: usize,
    /// Total bytes through accel SHA-256.
    pub sha_accel_bytes: usize,
    /// Leaves in the Merkle build/verify comparison.
    pub merkle_leaves: usize,
    /// Consecutive builds per timed window — a single build is shorter
    /// than the 100 Hz CPU-clock tick, so windows are stretched and the
    /// per-build time divided back out.
    pub merkle_build_reps: usize,
    /// Paired timing rounds (the median round is reported).
    pub rounds: usize,
}

impl HostWorkload {
    /// Baseline-recording sizes: every window comfortably past the CPU
    /// clock granularity even at multi-GB/s.
    pub fn full() -> Self {
        HostWorkload {
            burst_bytes: 64 * 1024,
            ctr_per_block_bytes: 48 << 20,
            ctr_soft_bytes: 96 << 20,
            ctr_accel_bytes: 768 << 20,
            sha_soft_bytes: 96 << 20,
            sha_accel_bytes: 512 << 20,
            merkle_leaves: 1 << 15,
            merkle_build_reps: 16,
            rounds: 5,
        }
    }

    /// CI sizes. The windows shrink but stay tens of milliseconds —
    /// ratios (which is all the gates compare) survive; absolute GB/s
    /// get noisier, which the trajectory consumers know.
    pub fn smoke() -> Self {
        HostWorkload {
            burst_bytes: 64 * 1024,
            ctr_per_block_bytes: 16 << 20,
            ctr_soft_bytes: 32 << 20,
            ctr_accel_bytes: 256 << 20,
            sha_soft_bytes: 32 << 20,
            sha_accel_bytes: 192 << 20,
            merkle_leaves: 1 << 14,
            merkle_build_reps: 16,
            rounds: 3,
        }
    }
}

/// One timed path: total bytes moved in total nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Payload bytes processed.
    pub bytes: u64,
    /// Host (CPU-time preferred) nanoseconds.
    pub ns: u64,
}

impl Throughput {
    /// Gigabytes (1e9) per second.
    pub fn gbps(&self) -> f64 {
        self.bytes as f64 / self.ns.max(1) as f64
    }
}

/// The measured host-throughput comparison.
#[derive(Debug, Clone, Copy)]
pub struct HostPerf {
    /// Host has AES-NI.
    pub aesni: bool,
    /// Host has the SHA extensions.
    pub shani: bool,
    /// Per-16-byte-block CTR on the software backend (the reference
    /// the ≥10x acceptance gate is measured against).
    pub ctr_per_block_soft: Throughput,
    /// Batched CTR on the software backend.
    pub ctr_batched_soft: Throughput,
    /// Batched CTR on the accel backend (AES-NI multi-lane; identical
    /// to soft when the host lacks it).
    pub ctr_batched_accel: Throughput,
    /// Bulk SHA-256 on the software backend.
    pub sha_soft: Throughput,
    /// Bulk SHA-256 on the accel backend.
    pub sha_accel: Throughput,
    /// Leaves in the Merkle comparison.
    pub merkle_leaves: usize,
    /// Worker threads the parallel build used.
    pub merkle_threads: usize,
    /// Single-threaded tree build, nanoseconds.
    pub merkle_build_serial_ns: u64,
    /// Parallel tree build, nanoseconds.
    pub merkle_build_parallel_ns: u64,
    /// Bulk leaf verifications per second ([`MerkleTree::verify_all`]).
    pub merkle_verifies_per_sec: f64,
    /// Every optimized path matched its reference byte-for-byte:
    /// soft/accel ciphertext, soft/accel digests, serial/parallel roots.
    pub outputs_match: bool,
}

impl HostPerf {
    /// The headline ratio: batched accel CTR over the per-block soft
    /// reference — the "≥10x on AES-NI hosts" acceptance number.
    pub fn ctr_accel_vs_per_block(&self) -> f64 {
        self.ctr_batched_accel.gbps() / self.ctr_per_block_soft.gbps().max(f64::MIN_POSITIVE)
    }

    /// Batched soft CTR over the per-block soft reference (what
    /// batching alone buys, no hardware involved).
    pub fn ctr_batched_vs_per_block(&self) -> f64 {
        self.ctr_batched_soft.gbps() / self.ctr_per_block_soft.gbps().max(f64::MIN_POSITIVE)
    }

    /// Accel SHA-256 over soft SHA-256.
    pub fn sha_speedup(&self) -> f64 {
        self.sha_accel.gbps() / self.sha_soft.gbps().max(f64::MIN_POSITIVE)
    }

    /// Serial Merkle build over parallel build.
    pub fn merkle_build_speedup(&self) -> f64 {
        self.merkle_build_serial_ns as f64 / self.merkle_build_parallel_ns.max(1) as f64
    }
}

/// Process CPU time preferred, wall clock fallback (same contract as
/// `perf::compare_cc`).
fn timed(work: &mut dyn FnMut()) -> u64 {
    let cpu_ns = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some((utime + stime) * 10_000_000)
    };
    let wall = Instant::now();
    let cpu = cpu_ns();
    work();
    match (cpu, cpu_ns()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => wall.elapsed().as_nanos() as u64,
    }
}

/// Measure the host-throughput comparison.
pub fn measure_host(w: &HostWorkload) -> HostPerf {
    let caps = host_caps();
    let key = b"s22-host-perfkey";
    let soft = MemoryCipher::with_backend(key, CryptoBackend::Soft);
    let accel = MemoryCipher::with_backend(key, CryptoBackend::Accel);
    let reference = Aes128::with_backend(key, CryptoBackend::Soft);
    let addr = 0x4000_0000u64;

    // Correctness witnesses first — a fast-but-wrong path must never
    // post a number.
    let mut outputs_match = true;
    {
        let mut a = vec![0x5au8; w.burst_bytes];
        let mut b = a.clone();
        soft.apply(addr, 7, &mut a);
        accel.apply(addr, 7, &mut b);
        let mut per_block = vec![0x5au8; w.burst_bytes];
        per_block_ctr(&reference, addr, 7, &mut per_block);
        outputs_match &= a == b && a == per_block;
        let data = vec![0xc3u8; w.burst_bytes + 13]; // straddle a block edge
        outputs_match &=
            sha256_with(&data, CryptoBackend::Soft) == sha256_with(&data, CryptoBackend::Accel);
    }

    let leaves: Vec<_> = (0..w.merkle_leaves)
        .map(|i| leaf_digest(i as u64, 0, &(i as u64).to_le_bytes()))
        .collect();
    let threads = crate::sweep_threads();

    let reps = |total: usize| (total / w.burst_bytes).max(1) as u32;
    let mut buf = vec![0xa5u8; w.burst_bytes];

    // Paired rounds: every path timed back-to-back, median round by the
    // headline ratio.
    struct Round {
        per_block_ns: u64,
        soft_ns: u64,
        accel_ns: u64,
        sha_soft_ns: u64,
        sha_accel_ns: u64,
        build_serial_ns: u64,
        build_parallel_ns: u64,
        verify_ns: u64,
    }
    let mut rounds: Vec<Round> = (0..w.rounds.max(1))
        .map(|_| {
            let per_block_ns = timed(&mut || {
                for _ in 0..reps(w.ctr_per_block_bytes) {
                    per_block_ctr(&reference, addr, 3, &mut buf);
                }
            });
            let soft_ns = timed(&mut || {
                for _ in 0..reps(w.ctr_soft_bytes) {
                    soft.apply(addr, 3, &mut buf);
                }
            });
            let accel_ns = timed(&mut || {
                for _ in 0..reps(w.ctr_accel_bytes) {
                    accel.apply(addr, 3, &mut buf);
                }
            });
            let sha_soft_ns = timed(&mut || {
                for _ in 0..reps(w.sha_soft_bytes) {
                    std::hint::black_box(sha256_with(&buf, CryptoBackend::Soft));
                }
            });
            let sha_accel_ns = timed(&mut || {
                for _ in 0..reps(w.sha_accel_bytes) {
                    std::hint::black_box(sha256_with(&buf, CryptoBackend::Accel));
                }
            });
            let build_reps = w.merkle_build_reps.max(1) as u64;
            let mut serial_root = None;
            let build_serial_ns = timed(&mut || {
                for _ in 0..build_reps {
                    serial_root = Some(MerkleTree::build_with_threads(&leaves, 1).root());
                }
            }) / build_reps;
            let mut parallel_tree = None;
            let build_parallel_ns = timed(&mut || {
                for _ in 0..build_reps {
                    parallel_tree = Some(MerkleTree::build_with_threads(&leaves, threads));
                }
            }) / build_reps;
            let tree = parallel_tree.expect("parallel build ran");
            outputs_match &= serial_root == Some(tree.root());
            let mut verdicts = Vec::new();
            let verify_ns = timed(&mut || {
                verdicts = tree.verify_all(&leaves);
            });
            outputs_match &= verdicts.iter().all(|&v| v);
            Round {
                per_block_ns,
                soft_ns,
                accel_ns,
                sha_soft_ns,
                sha_accel_ns,
                build_serial_ns,
                build_parallel_ns,
                verify_ns,
            }
        })
        .collect();
    // Median by (per-block ns/byte) / (accel ns/byte), cross-multiplied
    // in integers. Tie-break by accel window length for determinism.
    let pb_bytes = u64::from(reps(w.ctr_per_block_bytes)) * w.burst_bytes as u64;
    let ac_bytes = u64::from(reps(w.ctr_accel_bytes)) * w.burst_bytes as u64;
    rounds.sort_by(|a, b| {
        (u128::from(a.per_block_ns) * u128::from(b.accel_ns))
            .cmp(&(u128::from(b.per_block_ns) * u128::from(a.accel_ns)))
            .then(a.accel_ns.cmp(&b.accel_ns))
    });
    let r = &rounds[rounds.len() / 2];

    HostPerf {
        aesni: caps.aesni,
        shani: caps.shani,
        ctr_per_block_soft: Throughput {
            bytes: pb_bytes,
            ns: r.per_block_ns,
        },
        ctr_batched_soft: Throughput {
            bytes: u64::from(reps(w.ctr_soft_bytes)) * w.burst_bytes as u64,
            ns: r.soft_ns,
        },
        ctr_batched_accel: Throughput {
            bytes: ac_bytes,
            ns: r.accel_ns,
        },
        sha_soft: Throughput {
            bytes: u64::from(reps(w.sha_soft_bytes)) * w.burst_bytes as u64,
            ns: r.sha_soft_ns,
        },
        sha_accel: Throughput {
            bytes: u64::from(reps(w.sha_accel_bytes)) * w.burst_bytes as u64,
            ns: r.sha_accel_ns,
        },
        merkle_leaves: w.merkle_leaves,
        merkle_threads: threads,
        merkle_build_serial_ns: r.build_serial_ns,
        merkle_build_parallel_ns: r.build_parallel_ns,
        merkle_verifies_per_sec: w.merkle_leaves as f64 / (r.verify_ns.max(1) as f64 / 1e9),
        outputs_match,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny workload end-to-end: outputs match, every window is
    /// nonzero, and the speedup accessors are finite.
    #[test]
    fn tiny_workload_measures_and_matches() {
        let w = HostWorkload {
            burst_bytes: 4096,
            ctr_per_block_bytes: 64 * 1024,
            ctr_soft_bytes: 64 * 1024,
            ctr_accel_bytes: 64 * 1024,
            sha_soft_bytes: 64 * 1024,
            sha_accel_bytes: 64 * 1024,
            merkle_leaves: 256,
            merkle_build_reps: 2,
            rounds: 1,
        };
        let p = measure_host(&w);
        assert!(p.outputs_match, "cross-backend outputs diverged");
        assert!(p.ctr_per_block_soft.ns > 0 && p.ctr_batched_accel.ns > 0);
        assert!(p.ctr_accel_vs_per_block().is_finite());
        assert!(p.sha_speedup().is_finite());
        assert!(p.merkle_build_speedup().is_finite());
        assert!(p.merkle_verifies_per_sec > 0.0);
        // Capability flags agree with the crypto crate's probe.
        let caps = host_caps();
        assert_eq!(p.aesni, caps.aesni);
        assert_eq!(p.shani, caps.shani);
    }

    #[test]
    fn throughput_gbps_is_bytes_per_ns() {
        let t = Throughput {
            bytes: 2_000_000_000,
            ns: 1_000_000_000,
        };
        assert!((t.gbps() - 2.0).abs() < 1e-9);
    }
}
