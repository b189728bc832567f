//! The three bus-based workloads: inputs made from the seed, the system
//! built from them, the run, and the correctness gates on its outputs.

use secbus_bus::{AddrRange, RoundRobin};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{BusMaster, SyntheticConfig, SyntheticMaster};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::{MetricsRegistry, SimRng, TraceEvent};
use secbus_soc::casestudy::{
    lcf_policies, DDR_CIPHER_LEN, DDR_LEN, DDR_PRIVATE_LEN, DDR_PUBLIC_LEN, SHARED_BRAM_LEN,
};
use secbus_soc::{
    case_study, CaseStudyConfig, Soc, SocBuilder, DDR_BASE, DDR_CIPHER_BASE, DDR_PRIVATE_BASE,
    DDR_PUBLIC_BASE, IP_FIFO_ADDR, SHARED_BRAM_BASE,
};

use crate::bench::Workload;
use crate::measure::Digest;
use crate::stamp::{OpRecord, Stamped};

/// Upper bound on any episode; reaching it fails the halt gate.
pub const MAX_CYCLES: u64 = 200_000_000;

/// Samples the case study's stream IP pushes (its default).
const IP_SAMPLES: u64 = 16;

/// Parameters of the three case-study programs. The seed picks the data
/// and the addresses; the loop counts are fixed, so every seed does the
/// same amount of work.
#[derive(Debug, Clone)]
pub struct CaseParams {
    /// cpu0: stores into the private region.
    pub n0: u32,
    /// cpu0: value multiplier and offset.
    pub a0: u32,
    /// cpu0: value offset.
    pub b0: u32,
    /// cpu0: working-set base (bus address, 16-byte aligned).
    pub ws_base: u32,
    /// cpu1: iterations.
    pub n1: u32,
    /// cpu1: generator multiplier, increment and start value.
    pub a1: u32,
    /// cpu1: generator increment.
    pub c1: u32,
    /// cpu1: generator start.
    pub x0: u32,
    /// cpu1: result window base in the cipher-only region.
    pub out_base: u32,
    /// cpu2: words summed.
    pub n2: u32,
    /// cpu2: first word summed (bus address).
    pub sum_base: u32,
}

/// cpu0's working set in words (a power of two: 64 words = 16 blocks).
const WS_WORDS: u32 = 64;
/// cpu1's BRAM table in words.
const TAB_WORDS: u32 = 256;
/// cpu1's result window in the cipher-only region, in words.
const OUT_WORDS: u32 = 1024;
/// BRAM result slots (byte offsets).
const CPU0_RESULT: u32 = 0x1000;
const CPU2_RESULT: u32 = 0x2000;
const CPU1_RESULT: u32 = 0x3000;
const CPU1_TABLE: u32 = 0x4000;

/// Bytes after which the default DDR timing's bank and row pattern
/// repeats (8 banks of 1 KiB rows).
const DDR_BANK_SPAN: u32 = 8 * 1024;

/// Loop counts of the three programs.
const N0: u32 = 6_000;
const N1: u32 = 6_000;
const N2: u32 = 24_000;

impl CaseParams {
    fn from_seed(rng: &mut SimRng) -> Self {
        // Every window starts on a boundary of the DDR's bank-and-row
        // pattern, so each seed meets the same row hits and bank
        // conflicts: the seed changes the data, not the timing.
        let mut window = |base: u32, region: u32, len: u32| {
            base + DDR_BANK_SPAN * rng.below(u64::from((region - len) / DDR_BANK_SPAN)) as u32
        };
        let ws_base = window(DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, 4 * WS_WORDS);
        let out_base = window(DDR_CIPHER_BASE, DDR_CIPHER_LEN, 4 * OUT_WORDS);
        let sum_base = window(DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, 4 * N2);
        CaseParams {
            n0: N0,
            a0: rng.next_u32() | 1,
            b0: rng.next_u32(),
            ws_base,
            n1: N1,
            a1: rng.next_u32() | 1,
            c1: rng.next_u32(),
            x0: rng.next_u32(),
            out_base,
            n2: N2,
            sum_base,
        }
    }

    /// The three programs as MB32 assembly.
    pub fn programs(&self) -> [String; 3] {
        let cpu0 = format!(
            r"
    li   r1, {ws}
    li   r2, {a0}
    li   r3, {b0}
    li   r4, {n0}
    addi r5, r0, 0
    addi r6, r0, 0
    addi r12, r0, 3
loop:
    mul  r7, r5, r2
    add  r7, r7, r3
    andi r8, r5, {mask}
    slli r8, r8, 2
    add  r8, r8, r1
    sw   r7, 0(r8)
    andi r9, r5, 3
    bne  r9, r12, skip
    muli r9, r5, 5
    andi r9, r9, {mask}
    slli r9, r9, 2
    add  r9, r9, r1
    lw   r10, 0(r9)
    add  r6, r6, r10
skip:
    addi r5, r5, 1
    blt  r5, r4, loop
    li   r9, {res}
    sw   r6, 0(r9)
    halt
",
            ws = self.ws_base,
            a0 = self.a0,
            b0 = self.b0,
            n0 = self.n0,
            mask = WS_WORDS - 1,
            res = SHARED_BRAM_BASE + CPU0_RESULT,
        );
        let cpu1 = format!(
            r"
    li   r1, {tab}
    li   r2, {out}
    li   r3, {a1}
    li   r4, {n1}
    li   r11, {x0}
    li   r12, {c1}
    addi r5, r0, 0
    addi r6, r0, 0
loop:
    mul  r11, r11, r3
    add  r11, r11, r12
    andi r8, r5, {tmask}
    slli r8, r8, 2
    add  r9, r1, r8
    lw   r7, 0(r9)
    xor  r7, r7, r11
    sw   r7, 0(r9)
    add  r6, r6, r7
    andi r10, r5, {omask}
    slli r10, r10, 2
    add  r10, r10, r2
    sw   r6, 0(r10)
    addi r5, r5, 1
    blt  r5, r4, loop
    li   r9, {res}
    sw   r6, 0(r9)
    halt
",
            tab = SHARED_BRAM_BASE + CPU1_TABLE,
            out = self.out_base,
            a1 = self.a1,
            n1 = self.n1,
            x0 = self.x0,
            c1 = self.c1,
            tmask = TAB_WORDS - 1,
            omask = OUT_WORDS - 1,
            res = SHARED_BRAM_BASE + CPU1_RESULT,
        );
        let cpu2 = format!(
            r"
    li   r1, {base}
    li   r4, {n2}
    addi r2, r0, 0
    addi r3, r0, 0
loop:
    slli r5, r3, 2
    add  r6, r1, r5
    lw   r7, 0(r6)
    add  r2, r2, r7
    addi r3, r3, 1
    blt  r3, r4, loop
    li   r6, {res}
    sw   r2, 0(r6)
    halt
",
            base = self.sum_base,
            n2 = self.n2,
            res = SHARED_BRAM_BASE + CPU2_RESULT,
        );
        [cpu0, cpu1, cpu2]
    }

    /// Results the programs must leave in BRAM, computed on the host
    /// from `public` (the public region's contents): `(byte offset,
    /// word)` pairs.
    fn expected_bram(&self, public: &[u8]) -> Vec<(u32, u32)> {
        let mut ws = [0u32; WS_WORDS as usize];
        let mut checksum = 0u32;
        for i in 0..self.n0 {
            ws[(i & (WS_WORDS - 1)) as usize] = i.wrapping_mul(self.a0).wrapping_add(self.b0);
            if i & 3 == 3 {
                checksum = checksum.wrapping_add(ws[(i.wrapping_mul(5) & (WS_WORDS - 1)) as usize]);
            }
        }
        let mut tab = [0u32; TAB_WORDS as usize];
        let (mut x, mut acc) = (self.x0, 0u32);
        for i in 0..self.n1 {
            x = x.wrapping_mul(self.a1).wrapping_add(self.c1);
            let t = &mut tab[(i & (TAB_WORDS - 1)) as usize];
            *t ^= x;
            acc = acc.wrapping_add(*t);
        }
        let first = (self.sum_base - DDR_PUBLIC_BASE) as usize;
        let sum = public[first..first + 4 * self.n2 as usize]
            .chunks_exact(4)
            .fold(0u32, |s, w| {
                s.wrapping_add(u32::from_le_bytes(w.try_into().expect("4-byte word")))
            });
        let mut out = vec![
            (CPU0_RESULT, checksum),
            (CPU1_RESULT, acc),
            (CPU2_RESULT, sum),
        ];
        out.extend((0..TAB_WORDS).map(|i| (CPU1_TABLE + 4 * i, tab[i as usize])));
        out
    }
}

/// One closed-loop synthetic master of a flood workload.
#[derive(Debug, Clone)]
pub struct MasterSpec {
    /// Master label (also its RNG stream label).
    pub label: String,
    /// Traffic shape.
    pub config: SyntheticConfig,
    /// Seed of its RNG stream.
    pub seed: u64,
    /// Its Local Firewall's policies.
    pub policies: ConfigMemory,
}

/// Seed-derived inputs of a bus workload, made before set-up is timed.
#[derive(Debug, Clone)]
pub struct SocInputs {
    /// The case-study programs (case study only).
    pub case: Option<CaseParams>,
    /// Flood masters (floods only).
    pub masters: Vec<MasterSpec>,
    /// Plaintext DDR image before cycle 0 (sealed by the LCF at build).
    pub ddr_image: Vec<u8>,
}

fn internal(spi: u16, base: u32, len: u32) -> SecurityPolicy {
    SecurityPolicy::internal(spi, AddrRange::new(base, len), Rwa::ReadWrite, AdfSet::ALL)
}

/// Accesses per master per flood episode.
const READ_FLOOD_OPS: u64 = 4_000;
/// Accesses per master per fabric episode.
const FABRIC_OPS: u64 = 800;

impl SocInputs {
    /// Make the inputs of the bus workload `kind` from `seed`.
    pub fn new(kind: Workload, seed: u64) -> Self {
        let root = SimRng::new(seed);
        let mut image = vec![0u8; DDR_LEN as usize];
        let mut img_rng = root.derive("perfbench.ddr");
        match kind {
            Workload::NocMesh16x16 => panic!("{} has no bus", kind.name()),
            Workload::CasestudyMb32 => {
                // The programs only read the public region; the private and
                // cipher-only regions start zeroed, as the case study seals them.
                let public = (DDR_PUBLIC_BASE - DDR_BASE) as usize;
                img_rng.fill_bytes(&mut image[public..]);
                SocInputs {
                    case: Some(CaseParams::from_seed(&mut root.derive("perfbench.case"))),
                    masters: Vec::new(),
                    ddr_image: image,
                }
            }
            Workload::DdrReadFlood | Workload::Fabric64m => {
                img_rng.fill_bytes(&mut image);
                let (count, windows, read_ratio, total_ops, policies) = match kind {
                    Workload::DdrReadFlood => (
                        8,
                        vec![
                            (DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, 3),
                            (DDR_CIPHER_BASE, DDR_CIPHER_LEN, 1),
                        ],
                        0.9,
                        READ_FLOOD_OPS,
                        ConfigMemory::with_policies(vec![
                            internal(1, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN),
                            internal(2, DDR_CIPHER_BASE, DDR_CIPHER_LEN),
                        ]),
                    ),
                    _ => (
                        64,
                        // Three BRAM accesses per DDR access: the median
                        // latency stays inside the BRAM mode instead of
                        // sitting on the edge between BRAM and DDR.
                        vec![
                            (DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, 1),
                            (SHARED_BRAM_BASE, SHARED_BRAM_LEN, 3),
                        ],
                        0.7,
                        FABRIC_OPS,
                        ConfigMemory::with_policies(vec![
                            internal(1, SHARED_BRAM_BASE, SHARED_BRAM_LEN),
                            internal(2, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN),
                        ]),
                    ),
                };
                let policies = policies.expect("flood policies are disjoint");
                let masters = (0..count)
                    .map(|i| MasterSpec {
                        label: format!("m{i}"),
                        config: SyntheticConfig {
                            windows: windows.clone(),
                            read_ratio,
                            widths: vec![secbus_bus::Width::Word],
                            burst: 1,
                            period: 1,
                            total_ops,
                        },
                        seed: root.derive(&format!("perfbench.m{i}")).next_u64(),
                        policies: policies.clone(),
                    })
                    .collect();
                SocInputs {
                    case: None,
                    masters,
                    ddr_image: image,
                }
            }
        }
    }

    /// Case study: the words the three programs must leave in BRAM.
    pub fn expected_bram(&self) -> Vec<(u32, u32)> {
        let case = self.case.as_ref().expect("case-study inputs");
        case.expected_bram(&self.ddr_image[(DDR_PUBLIC_BASE - DDR_BASE) as usize..])
    }

    /// Build the system: policy tables, firewalls, and the LCF seal of the
    /// protected DDR regions. `trace` arms the SoC trace spine with that
    /// capacity; `wrap` puts each flood master behind a [`Stamped`] port.
    pub fn build(&self, trace: Option<usize>, wrap: bool) -> Soc {
        match &self.case {
            Some(case) => {
                let mut soc = case_study(CaseStudyConfig {
                    programs: Some(case.programs()),
                    ip_samples: IP_SAMPLES,
                    trace,
                    ..CaseStudyConfig::default()
                });
                // The public region is plaintext at rest: load the table
                // cpu2 sums straight into the device.
                let public = DDR_PUBLIC_BASE - DDR_BASE;
                soc.ddr_mut()
                    .expect("case study has a DDR")
                    .load(public, &self.ddr_image[public as usize..]);
                soc
            }
            None => {
                let mut b = SocBuilder::new().arbiter(Box::new(RoundRobin::default()));
                if let Some(cap) = trace {
                    b = b.trace(cap);
                }
                for m in &self.masters {
                    let device: Box<dyn BusMaster> = Box::new(SyntheticMaster::new(
                        m.label.clone(),
                        m.config.clone(),
                        SimRng::new(m.seed),
                    ));
                    let device = if wrap {
                        Box::new(Stamped::new(device))
                    } else {
                        device
                    };
                    b = b.add_protected_master(device, m.policies.clone());
                }
                let mut ddr = ExternalDdr::new(DDR_LEN);
                ddr.load(0, &self.ddr_image);
                b.add_bram(
                    "shared-bram",
                    AddrRange::new(SHARED_BRAM_BASE, SHARED_BRAM_LEN),
                    Bram::new(SHARED_BRAM_LEN),
                    None,
                )
                .set_ddr(
                    "ddr",
                    AddrRange::new(DDR_BASE, DDR_LEN),
                    ddr,
                    Some(lcf_policies()),
                )
                .build()
            }
        }
    }
}

/// Per-master access records of a wrapped flood SoC, master order.
pub fn stamped_records(soc: &Soc) -> Vec<&[OpRecord]> {
    (0..soc.master_count())
        .filter_map(|i| soc.master_as::<Stamped>(i).map(Stamped::completed))
        .collect()
}

/// What one run of a bus workload produced.
#[derive(Debug, Clone)]
pub struct SocOutcome {
    /// Simulated cycles until every master halted.
    pub sim_cycles: u64,
    /// Cycles the simulator actually ticked.
    pub events: u64,
    /// Operations issued by the masters.
    pub attempted: u64,
    /// Operations completed at their master (ok or error).
    pub completed: u64,
    /// Discards, error responses and sheds.
    pub failed: u64,
    /// Per-operation latencies in cycles (floods only; the case study's
    /// come from its traced episode).
    pub latencies: Vec<u64>,
    /// Digest of every simulated statistic.
    pub digest: String,
    /// Failed correctness gates, empty when the run is correct.
    pub errors: Vec<String>,
}

/// The SoC metrics snapshot without the trace buffer's own accounting,
/// so traced and untraced episodes of one seed compare equal.
pub fn sim_metrics_json(soc: &Soc) -> String {
    let snap = soc.metrics_snapshot();
    let mut reg = MetricsRegistry::new();
    for c in snap.components().filter(|&c| c != "trace") {
        reg.insert(c, snap.component(c).expect("listed component"));
    }
    reg.render()
}

/// Counter summed over every component whose name starts with `prefix`.
pub fn sum_counter(snap: &MetricsRegistry, prefix: &str, key: &str) -> u64 {
    snap.components()
        .filter(|c| c.starts_with(prefix))
        .map(|c| snap.counter(c, key))
        .sum()
}

/// Judge a finished run and digest everything it simulated.
pub fn outcome(inputs: &SocInputs, soc: &Soc, sim_cycles: u64) -> SocOutcome {
    let mut errors = Vec::new();
    let snap = soc.metrics_snapshot();
    let mut d = Digest::default();
    d.bytes("metrics", sim_metrics_json(soc).as_bytes());
    d.num("cycles", sim_cycles);
    d.num("events", soc.ticks_executed());

    if sim_cycles >= MAX_CYCLES {
        errors.push(format!("did not halt within {MAX_CYCLES} cycles"));
    }
    for i in 0..soc.master_count() {
        let dev = soc.master_device(i);
        if !dev.halted() {
            errors.push(format!("master {} did not halt", dev.label()));
        }
        for (k, v) in dev.stats().counters() {
            d.num(&format!("{}.{k}", dev.label()), v);
        }
    }
    let alerts = snap.counter("monitor", "monitor.alerts");
    if alerts != 0 {
        errors.push(format!("monitor raised {alerts} alerts on benign traffic"));
    }
    let integrity = sum_counter(&snap, "LCF", "lcf.integrity_failures");
    if integrity != 0 {
        errors.push(format!("{integrity} LCF integrity failures"));
    }
    let ddr = soc.ddr().expect("every bus workload has a DDR");
    d.bytes("ddr", ddr.contents());
    let bram = soc.bram_contents().expect("every bus workload has a BRAM");
    d.bytes("bram", bram);

    let (attempted, completed, failed, latencies) = match inputs.case {
        Some(_) => {
            // The stream IP's last sample is its sample count minus one.
            let ip_fifo = (IP_FIFO_ADDR - SHARED_BRAM_BASE, IP_SAMPLES as u32 - 1);
            for (off, want) in inputs.expected_bram().into_iter().chain([ip_fifo]) {
                let o = off as usize;
                let got = u32::from_le_bytes(bram[o..o + 4].try_into().expect("4-byte word"));
                if got != want {
                    errors.push(format!(
                        "BRAM[{off:#x}] = {got:#x}, host reference {want:#x}"
                    ));
                    break;
                }
            }
            let mut issued = 0;
            let mut errs = 0;
            for i in 0..soc.master_count() {
                let s = soc.master_device(i).stats();
                issued += s.counter("core.loads")
                    + s.counter("core.stores")
                    + s.counter("stream.acked")
                    + s.counter("stream.rejected");
                errs += s.counter("core.access_errors") + s.counter("stream.rejected");
            }
            // Every core waits for each access, so a halted system has
            // completed all it issued.
            (issued, issued, errs, Vec::new())
        }
        None => {
            let mut lat = Vec::new();
            let (mut issued, mut done, mut errs) = (0, 0, 0);
            for (i, recs) in stamped_records(soc).iter().enumerate() {
                let inner = soc
                    .master_as::<Stamped>(i)
                    .expect("flood masters are stamped")
                    .inner();
                let s = inner.stats();
                let (iss, ok, err) = (
                    s.counter("traffic.issued"),
                    s.counter("traffic.ok"),
                    s.counter("traffic.err"),
                );
                if iss != ok + err {
                    errors.push(format!(
                        "{}: issued {iss} != ok {ok} + err {err}",
                        inner.label()
                    ));
                }
                if recs.len() as u64 != ok + err {
                    errors.push(format!(
                        "{}: {} stamped completions, master counted {}",
                        inner.label(),
                        recs.len(),
                        ok + err
                    ));
                }
                issued += iss;
                done += recs.len() as u64;
                errs += err;
                lat.extend(recs.iter().map(OpRecord::latency));
            }
            (issued, done, errs, lat)
        }
    };
    d.nums("latencies", &latencies);
    SocOutcome {
        sim_cycles,
        events: soc.ticks_executed(),
        attempted,
        completed,
        failed,
        latencies,
        digest: d.finish(),
        errors,
    }
}

/// Issue-to-completion latency of every transaction completed at a
/// master, rebuilt from the trace spine, in completion order.
///
/// A read completes at the master once its data passed the Local
/// Firewall's inbound check: `TxnComplete` carries exactly that
/// latency. A write's response is not checked on the way back, so it is
/// ready at the master in the cycle its `TxnComplete` is recorded (the
/// event's own latency field is only filled in for tracked writes).
pub fn traced_latencies(soc: &Soc) -> Vec<(u64, u64)> {
    let Some(tracer) = soc.tracer() else {
        return Vec::new();
    };
    let mut issued = std::collections::HashMap::new();
    let mut out = Vec::new();
    for (at, e) in tracer.snapshot() {
        match e {
            TraceEvent::TxnIssued { txn, write, .. } => {
                issued.insert(txn, (at.get(), write));
            }
            TraceEvent::TxnComplete { txn, latency, .. } => {
                if let Some((issued_at, write)) = issued.remove(&txn) {
                    out.push((txn, if write { at.get() - issued_at } else { latency }));
                }
            }
            _ => {}
        }
    }
    out
}
