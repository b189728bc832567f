//! The NoC comparator in action: a 3×3 mesh with Address Protection Units
//! at the network interfaces (the related-work placement of the paper's
//! distributed-firewall idea) and monitoring probes read out at the end.
//!
//! ```sh
//! cargo run -p secbus-examples --bin noc_demo
//! ```

use secbus_bus::{AddrRange, MasterId, Op, Transaction, TxnId, Width};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_fault::FaultPlan;
use secbus_noc::{
    run_noc_soak, Mesh, NetworkInterface, NocConfig, NocSoakConfig, NodeId, Packet, Topology,
};
use secbus_sim::Cycle;

fn main() {
    // 1. The workload comparison: a hot-spot read pattern, with and
    //    without NI protection.
    println!("hot-spot workload on the mesh (6 initiators, 10k cycles):\n");
    let workload = |protected| {
        let cfg = NocSoakConfig {
            initiators: 6,
            period: 8,
            cycles: 10_000,
            drain_cycles: 0,
            protected,
        };
        run_noc_soak(&cfg, FaultPlan::empty())
    };
    let (plain, protected) = (workload(false), workload(true));
    println!(
        "  unprotected : {:>5} round trips, mean latency {:>6.1} cycles",
        plain.completed,
        plain.mean_latency.unwrap_or(0.0)
    );
    println!(
        "  protected   : {:>5} round trips, mean latency {:>6.1} cycles",
        protected.completed,
        protected.mean_latency.unwrap_or(0.0)
    );
    println!(
        "  APU cost    : {:+.1} cycles per round trip (the same 12-cycle check\n                the bus firewalls charge — placement changed, mechanism didn't)\n",
        protected.mean_latency.unwrap_or(0.0) - plain.mean_latency.unwrap_or(0.0)
    );

    // 2. A rogue endpoint: its APU drops everything before the mesh.
    let mut mesh = Mesh::new(Topology::new(3, 3), NocConfig::default());
    let mut ni = NetworkInterface::new(
        NodeId::new(0, 0),
        ConfigMemory::with_policies(vec![SecurityPolicy::internal(
            1,
            AddrRange::new(0x1000, 0x100),
            Rwa::ReadOnly,
            AdfSet::WORD_ONLY,
        )])
        .unwrap(),
    );
    let attempts = [
        (Op::Read, 0x1000u32, Width::Word),
        (Op::Write, 0x1000, Width::Word),
        (Op::Read, 0x1000, Width::Byte),
        (Op::Read, 0xDEAD_0000, Width::Word),
    ];
    for (i, &(op, addr, width)) in attempts.iter().enumerate() {
        let txn = Transaction {
            id: TxnId(i as u64),
            master: MasterId(0),
            op,
            addr,
            width,
            data: 0,
            burst: 1,
            issued_at: Cycle(0),
        };
        match ni.check(&txn, Cycle(0)) {
            Ok(latency) => {
                println!("  {op} {addr:#010x} {width}: admitted after {latency} cycles");
                let id = mesh.alloc_id();
                mesh.inject(
                    Packet {
                        id,
                        src: NodeId::new(0, 0),
                        dst: NodeId::new(2, 2),
                        op,
                        addr,
                        width,
                        data: 0,
                        flits: 2,
                        injected_at: Cycle(0),
                    },
                    Cycle(0),
                );
            }
            Err((v, _)) => println!("  {op} {addr:#010x} {width}: DROPPED at the NI ({v})"),
        }
    }
    let probe = ni.probe();
    println!(
        "\nprobe read-out (Fiorin-style monitoring): {} checked, {} rejected",
        probe.checked, probe.rejected
    );
    for (kind, n) in &probe.by_kind {
        println!("  {kind}: {n}");
    }
    println!(
        "packets that entered the mesh: {}",
        mesh.stats().counter("noc.injected")
    );
    assert_eq!(mesh.stats().counter("noc.injected"), 1);
    println!("\nnoc_demo OK.");
}
