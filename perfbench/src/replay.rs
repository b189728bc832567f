//! Per-layer host times for the bus workloads, measured by replaying the
//! exact transaction stream of a traced episode into fresh instances of
//! each layer, fed with the workload's own policies and DDR image.
//!
//! The stream comes from the trace spine: `TxnIssued` gives each
//! transaction, `BusHop` the order the bus granted them, which is the
//! order the LCF served them. Write data and returned read data come
//! from the [`Stamped`](crate::stamp::Stamped) ports where the masters
//! are wrapped, so every replayed read is checked against what the SoC
//! returned. Calls of a microsecond or more get one span each; calls far
//! shorter than the clock read (firewall checks, single crypto blocks)
//! are timed as one span per batch and divided by the call count.

use std::collections::HashMap;

use secbus_bus::{MasterId, Op, Transaction, TxnId, Width};
use secbus_core::{FirewallId, LocalCipheringFirewall, LocalFirewall, Protection};
use secbus_cpu::master::InstantMem;
use secbus_cpu::{assemble, BusMaster, MasterAccess, Mb32Core, StreamIp, SyntheticMaster};
use secbus_crypto::merkle::leaf_digest;
use secbus_crypto::{MemoryCipher, MerkleTree};
use secbus_mem::ExternalDdr;
use secbus_sim::{Cycle, SimRng, TraceEvent};
use secbus_soc::casestudy::{CIPHER_KEY, DDR_LEN, DDR_PRIVATE_LEN, PRIVATE_KEY, SHARED_BRAM_LEN};
use secbus_soc::{Soc, DDR_BASE, DDR_PRIVATE_BASE, IP_FIFO_ADDR, SHARED_BRAM_BASE};

use crate::socwl::{stamped_records, SocInputs};
use crate::span::Spans;

/// Call counts of the replays (host times live in the spans).
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    /// `LocalFirewall::check` calls.
    pub lf_checks: u64,
    /// LCF `handle` calls per span name.
    pub lcf_calls: HashMap<&'static str, u64>,
    /// Crypto calls per span name.
    pub crypto_calls: HashMap<&'static str, u64>,
    /// Instructions the standalone cores retired.
    pub cpu_instructions: u64,
    /// Ticks of the standalone traffic master.
    pub traffic_ticks: u64,
    /// Failed replay checks.
    pub errors: Vec<String>,
}

/// One transaction rebuilt from the trace.
#[derive(Debug, Clone, Copy)]
struct Txn {
    id: u64,
    master: u8,
    addr: u32,
    write: bool,
    issued: u64,
    data: u32,
    read_data: Option<u32>,
}

impl Txn {
    fn transaction(&self) -> Transaction {
        Transaction {
            id: TxnId(self.id),
            master: MasterId(self.master),
            op: if self.write { Op::Write } else { Op::Read },
            addr: self.addr,
            width: Width::Word,
            data: self.data,
            burst: 1,
            issued_at: Cycle(self.issued),
        }
    }
}

/// The stream of a traced episode: every issued transaction, in issue
/// order, and the ids in bus grant order.
fn stream(soc: &Soc) -> (Vec<Txn>, Vec<u64>) {
    let stamped: HashMap<u64, _> = stamped_records(soc)
        .into_iter()
        .flatten()
        .map(|r| (r.txn.0, *r))
        .collect();
    let mut issued = Vec::new();
    let mut grants = Vec::new();
    for (at, e) in soc.tracer().expect("traced episode").snapshot() {
        match e {
            TraceEvent::TxnIssued {
                txn,
                master,
                addr,
                write,
            } => {
                let rec = stamped.get(&txn);
                issued.push(Txn {
                    id: txn,
                    master,
                    addr,
                    write,
                    issued: at.get(),
                    // The case-study cores are not wrapped: their write
                    // data is not on the trace, and the LCF's cost does
                    // not depend on it.
                    data: rec.map_or(txn as u32 ^ addr, |r| r.data),
                    read_data: rec.filter(|r| r.op == Op::Read).map(|r| r.read_data),
                });
            }
            TraceEvent::BusHop { txn, .. } => grants.push(txn),
            _ => {}
        }
    }
    (issued, grants)
}

/// Replay a traced episode into every layer. `soc` must have been built
/// from `inputs` with tracing armed and run to completion.
pub fn replay(inputs: &SocInputs, soc: &Soc, spans: &mut Spans) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let (issued, grants) = stream(soc);

    // Local Firewalls: one fresh firewall per master, one batch each.
    let lf_root = spans.open("replay.lf", None, 0);
    let mut checked_in_soc = 0;
    for m in 0..soc.master_count() {
        let Some(fw) = soc.master_firewall(m) else {
            continue;
        };
        checked_in_soc += fw.stats().counter("fw.checked");
        let txns: Vec<Transaction> = issued
            .iter()
            .filter(|t| usize::from(t.master) == m)
            .map(Txn::transaction)
            .collect();
        let mut lf =
            LocalFirewall::new(fw.id(), fw.label(), fw.config().clone()).with_timing(fw.timing());
        let span = spans.open("lf.check", Some(lf_root), m as u64);
        let mut denied = 0;
        for t in &txns {
            if !lf.check(t, t.issued_at).allowed {
                denied += 1;
            }
        }
        spans.close(span);
        counts.lf_checks += txns.len() as u64;
        if denied != 0 {
            counts.errors.push(format!(
                "replayed LF {} denied {denied} accesses",
                fw.label()
            ));
        }
    }
    spans.close(lf_root);
    if counts.lf_checks != checked_in_soc {
        counts.errors.push(format!(
            "LF replay checked {} transactions, the SoC's firewalls {checked_in_soc}",
            counts.lf_checks
        ));
    }

    // The LCF: sealed fresh over the workload's DDR image, then fed the
    // DDR-bound transactions in grant order.
    let live = soc.lcf().expect("every bus workload has an LCF");
    let lcf_root = spans.open("replay.lcf", None, 0);
    let mut lcf = LocalCipheringFirewall::new(
        FirewallId(0),
        "LCF replay",
        live.firewall().config().clone(),
        DDR_BASE,
        live.timing(),
    )
    .with_sb_timing(live.firewall().timing());
    let mut ddr = ExternalDdr::new(DDR_LEN);
    ddr.load(0, &inputs.ddr_image);
    let seal = spans.open("lcf.seal", Some(lcf_root), 0);
    lcf.seal(&mut ddr);
    spans.close(seal);
    let private_off = DDR_PRIVATE_BASE - DDR_BASE;
    let sealed_private = ddr.snoop(private_off, DDR_PRIVATE_LEN).to_vec();

    let by_id: HashMap<u64, Txn> = issued.iter().map(|t| (t.id, *t)).collect();
    let in_ddr = |t: &&Txn| t.addr >= DDR_BASE && t.addr - DDR_BASE < DDR_LEN;
    let ddr_txns: Vec<Txn> = grants
        .iter()
        .filter_map(|id| by_id.get(id))
        .filter(in_ddr)
        .copied()
        .collect();
    let (mut mismatches, mut refused) = (0u64, 0u64);
    let mut protected: Vec<(Txn, Protection)> = Vec::new();
    for t in &ddr_txns {
        let prot = lcf.protection_at(t.addr).unwrap_or(Protection::None);
        let name = match (prot, t.write) {
            (Protection::CipherIntegrity, false) => "lcf.read_ci",
            (Protection::CipherIntegrity, true) => "lcf.write_ci",
            (Protection::CipherOnly, false) => "lcf.read_cipher",
            (Protection::CipherOnly, true) => "lcf.write_cipher",
            (Protection::None, _) => "lcf.bypass",
        };
        let txn = t.transaction();
        let span = spans.open(name, Some(lcf_root), t.id);
        let result = lcf.handle(&mut ddr, &txn, txn.issued_at);
        spans.close(span);
        *counts.lcf_calls.entry(name).or_default() += 1;
        match result {
            Ok(access) => {
                if t.read_data.is_some_and(|want| want != access.data) {
                    mismatches += 1;
                }
            }
            Err(_) => refused += 1,
        }
        if prot != Protection::None {
            protected.push((*t, prot));
        }
    }
    spans.close(lcf_root);
    if ddr_txns.len() != issued.iter().filter(in_ddr).count() {
        counts.errors.push(format!(
            "{} DDR transactions issued but {} granted",
            issued.iter().filter(in_ddr).count(),
            ddr_txns.len()
        ));
    }
    if refused != 0 {
        counts
            .errors
            .push(format!("replayed LCF refused {refused} accesses"));
    }
    if mismatches != 0 {
        counts.errors.push(format!(
            "replayed LCF returned other data than the SoC on {mismatches} reads"
        ));
    }
    if lcf.stats().counter("lcf.integrity_failures") != 0 {
        counts
            .errors
            .push("replayed LCF saw integrity failures".to_string());
    }

    replay_crypto(&protected, &sealed_private, spans, &mut counts);

    match inputs.case {
        Some(_) => replay_cpu(inputs, spans, &mut counts),
        None => replay_traffic(inputs, spans, &mut counts),
    }
    counts
}

/// The crypto primitives behind each protected access, on the
/// workload's own block indices.
fn replay_crypto(
    protected: &[(Txn, Protection)],
    sealed_private: &[u8],
    spans: &mut Spans,
    counts: &mut ReplayCounts,
) {
    let root = spans.open("replay.crypto", None, 0);
    let private = MemoryCipher::new(&PRIVATE_KEY);
    let cipher = MemoryCipher::new(&CIPHER_KEY);
    let blocks: Vec<(u64, bool, bool)> = protected
        .iter()
        .map(|(t, p)| {
            (
                u64::from(t.addr & !15),
                *p == Protection::CipherIntegrity,
                t.write,
            )
        })
        .collect();

    let span = spans.open("crypto.ctr", Some(root), 0);
    let mut buf = [0u8; 16];
    for (i, &(addr, ci, _)) in blocks.iter().enumerate() {
        let c = if ci { &private } else { &cipher };
        c.apply(addr, i as u64, &mut buf);
    }
    std::hint::black_box(&buf);
    spans.close(span);
    counts
        .crypto_calls
        .insert("crypto.ctr", blocks.len() as u64);

    let ci: Vec<(usize, bool)> = blocks
        .iter()
        .filter(|b| b.1)
        .map(|&(addr, _, write)| (((addr - u64::from(DDR_PRIVATE_BASE)) / 16) as usize, write))
        .collect();
    let leaves: Vec<_> = sealed_private
        .chunks_exact(16)
        .enumerate()
        .map(|(i, chunk)| leaf_digest(i as u64, 0, chunk))
        .collect();
    let mut tree = MerkleTree::build(&leaves);

    let span = spans.open("crypto.leaf_digest", Some(root), 0);
    let mut digests = Vec::with_capacity(ci.len());
    for &(idx, _) in &ci {
        let at = idx * 16;
        digests.push(leaf_digest(idx as u64, 0, &sealed_private[at..at + 16]));
    }
    spans.close(span);
    counts
        .crypto_calls
        .insert("crypto.leaf_digest", ci.len() as u64);

    let span = spans.open("crypto.merkle_verify", Some(root), 0);
    let mut failed = 0;
    let mut verifies = 0;
    for (&(idx, write), digest) in ci.iter().zip(&digests) {
        if !write {
            verifies += 1;
            if !tree.verify_leaf(idx, digest) {
                failed += 1;
            }
        }
    }
    spans.close(span);
    counts.crypto_calls.insert("crypto.merkle_verify", verifies);

    let span = spans.open("crypto.merkle_update", Some(root), 0);
    let mut updates = 0;
    for (&(idx, write), digest) in ci.iter().zip(&digests) {
        if write {
            updates += 1;
            tree.update_leaf(idx, *digest);
        }
    }
    spans.close(span);
    counts.crypto_calls.insert("crypto.merkle_update", updates);
    spans.close(root);
    if failed != 0 {
        counts.errors.push(format!(
            "{failed} unchanged leaves failed Merkle verification"
        ));
    }
}

/// Flat memory for standalone masters: the DDR at offset 0, the BRAM
/// after it, over [`InstantMem`].
pub struct FlatMem(pub InstantMem);

impl FlatMem {
    /// A flat memory holding `ddr_image`.
    pub fn new(ddr_image: &[u8]) -> Self {
        let mut mem = InstantMem::new((DDR_LEN + SHARED_BRAM_LEN) as usize);
        mem.load(0, ddr_image);
        FlatMem(mem)
    }

    fn map(addr: u32) -> u32 {
        if addr >= DDR_BASE {
            addr - DDR_BASE
        } else {
            addr.wrapping_sub(SHARED_BRAM_BASE).wrapping_add(DDR_LEN)
        }
    }

    /// A BRAM word (byte offset into the BRAM).
    pub fn bram_word(&self, off: u32) -> u32 {
        self.0.word((DDR_LEN + off) as usize)
    }
}

impl MasterAccess for FlatMem {
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        self.0.issue(op, Self::map(addr), width, data, burst)
    }

    fn poll(&mut self) -> Option<secbus_bus::Response> {
        self.0.poll()
    }
}

/// Tick `m` over `mem` until it halts; returns the ticks spent.
fn run_standalone(m: &mut dyn BusMaster, mem: &mut FlatMem, limit: u64) -> u64 {
    let mut c = 0;
    while !m.halted() && c < limit {
        m.tick(mem, Cycle(c));
        c += 1;
    }
    c
}

/// The case-study programs on standalone cores over instant memory:
/// the interpreter's cost without the bus, and a second check of the
/// programs' results.
fn replay_cpu(inputs: &SocInputs, spans: &mut Spans, counts: &mut ReplayCounts) {
    let case = inputs.case.as_ref().expect("case-study inputs");
    let mut mem = FlatMem::new(&inputs.ddr_image);
    let root = spans.open("replay.cpu", None, 0);
    for (i, src) in case.programs().iter().enumerate() {
        let words = assemble(src).expect("generated programs assemble");
        let mut core = Mb32Core::with_local_program(format!("cpu{i}"), 0, words);
        let span = spans.open("cpu.run", Some(root), i as u64);
        run_standalone(&mut core, &mut mem, u64::MAX);
        spans.close(span);
        counts.cpu_instructions += core.stats().counter("core.instructions");
    }
    spans.close(root);
    for (off, want) in inputs.expected_bram() {
        if mem.bram_word(off) != want {
            counts.errors.push(format!(
                "standalone cores left BRAM[{off:#x}] = {:#x}, host reference {want:#x}",
                mem.bram_word(off)
            ));
            break;
        }
    }

    // The stream IP, long enough to time.
    let mut ip = StreamIp::new("ip0", IP_FIFO_ADDR, 8, 1 << 14);
    let span = spans.open("cpu.traffic", None, 0);
    counts.traffic_ticks = run_standalone(&mut ip, &mut mem, u64::MAX);
    spans.close(span);
}

/// The first flood master's traffic generator over instant memory.
fn replay_traffic(inputs: &SocInputs, spans: &mut Spans, counts: &mut ReplayCounts) {
    let spec = &inputs.masters[0];
    let mut m = SyntheticMaster::new(
        spec.label.clone(),
        spec.config.clone(),
        SimRng::new(spec.seed),
    );
    let mut mem = FlatMem::new(&inputs.ddr_image);
    let span = spans.open("cpu.traffic", None, 0);
    counts.traffic_ticks = run_standalone(&mut m, &mut mem, u64::MAX);
    spans.close(span);
}
