//! End-to-end benchmark of the secbus workspace.
//!
//! Four workloads separate the layers whose cost dominates: the paper's
//! case study (MB32 interpreter, event-core skipping, LCF writes), a read
//! flood of the protected DDR (LCF verify-and-decrypt, crypto), a 64-master
//! fabric with no crypto (bus, firewalls, per-cycle simulator path) and an
//! open-loop 16x16 mesh (NoC and arrival generation only). See `README.md`
//! in this directory for the metrics and what each should move.

pub mod bench;
pub mod measure;
pub mod nocwl;
pub mod replay;
pub mod socwl;
pub mod span;
pub mod stamp;
