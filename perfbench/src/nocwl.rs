//! The mesh workload: an open loop of Poisson arrivals replayed verbatim
//! on a protected 16x16 mesh. The benchmark calls `Mesh::try_inject`,
//! `Mesh::tick` and `Mesh::deliver` itself so each packet is timed from
//! the cycle it was due, and so the traced run can wrap each call in a
//! span. Its loop, including the skip over provably idle cycles, follows
//! `secbus_noc::run_overload`, whose counts it must reproduce.

use secbus_bus::{Op, Width};
use secbus_noc::{Mesh, MeshQuiet, NocConfig, NodeId, Packet, Topology};
use secbus_sim::{Cycle, MetricsRegistry, Stats};
use secbus_workload::{Arrival, Pattern, Workload, WorkloadConfig};

use crate::measure::Digest;
use crate::span::{SpanId, Spans};

/// One open-loop mesh run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocParams {
    /// Mesh width.
    pub cols: u8,
    /// Mesh height.
    pub rows: u8,
    /// Expected arrivals per node per cycle.
    pub intensity: f64,
    /// Injection window in cycles.
    pub cycles: u64,
    /// Grace period after the window for the mesh to drain.
    pub drain_cycles: u64,
    /// Buffer credits per router.
    pub node_capacity: usize,
    /// Arrival-schedule seed.
    pub seed: u64,
}

impl NocParams {
    /// The benchmark's `noc_mesh_16x16` configuration: below the knee,
    /// where no arrival is shed. With 8 credits per router a Poisson burst
    /// at one source still overflowed its buffer on 17 of 100 seeds (one
    /// or two ingress sheds a run); with 16, none of 300 seeds shed.
    pub fn mesh_16x16(seed: u64) -> Self {
        NocParams {
            cols: 16,
            rows: 16,
            intensity: 0.02,
            cycles: 30_000,
            drain_cycles: 2_000,
            node_capacity: 16,
            seed,
        }
    }

    fn workload(&self) -> WorkloadConfig {
        let nodes = usize::from(self.cols) * usize::from(self.rows);
        WorkloadConfig {
            pattern: Pattern::Poisson,
            sources: nodes,
            dests: nodes,
            cols: usize::from(self.cols),
            intensity: self.intensity,
            cycles: self.cycles,
            seed: self.seed,
            ..WorkloadConfig::default()
        }
    }
}

/// The system before cycle 0: the mesh and the arrival schedule.
pub struct NocSetup {
    mesh: Mesh,
    schedule: Vec<Arrival>,
}

impl NocSetup {
    /// Build the protected mesh and materialize the arrival schedule,
    /// under a `noc.setup` span when tracing.
    pub fn new(p: &NocParams, mut spans: Option<&mut Spans>) -> Self {
        let root = spans.as_mut().map(|s| s.open("noc.setup", None, 0));
        let mesh = Mesh::new(
            Topology::new(p.cols, p.rows),
            NocConfig {
                protected: true,
                node_capacity: p.node_capacity,
                ..NocConfig::default()
            },
        );
        let mut workload = Workload::new(p.workload());
        let schedule = timed(&mut spans, "workload.schedule", root, 0, || {
            workload.schedule()
        });
        if let (Some(s), Some(id)) = (spans, root) {
            s.close(id);
        }
        NocSetup { mesh, schedule }
    }
}

/// What one mesh run produced.
#[derive(Debug, Clone)]
pub struct NocOutcome {
    /// Arrivals offered.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Fail-secure alerts (ingress sheds included).
    pub alerts: u64,
    /// Arrivals refused at injection.
    pub shed: u64,
    /// Packets lost without an alert.
    pub silent_drops: u64,
    /// Packets still in the mesh at the end.
    pub residue: u64,
    /// Peak packets in flight.
    pub max_in_flight: u64,
    /// Cycles until the mesh drained after the window (window included).
    pub sim_cycles: u64,
    /// Cycles the loop actually ticked.
    pub ticks: u64,
    /// Due-cycle-to-delivery latency of each delivered packet.
    pub latencies: Vec<u64>,
    /// The mesh's counters.
    pub stats: Stats,
    /// Rendered mesh metrics (key-sorted JSON).
    pub metrics_json: String,
    /// Digest of every simulated statistic.
    pub digest: String,
    /// Failed correctness gates.
    pub errors: Vec<String>,
}

fn node(i: usize, cols: u8) -> NodeId {
    NodeId::new((i % usize::from(cols)) as u8, (i / usize::from(cols)) as u8)
}

/// Time `f` as a span named `name` under `parent` when tracing.
fn timed<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => {
            let id = s.open(name, parent, request);
            let out = f();
            s.close(id);
            out
        }
        None => f(),
    }
}

/// Replay the schedule on the mesh until it drains (or the drain window
/// ends) and audit conservation.
pub fn drive(setup: NocSetup, p: &NocParams, mut spans: Option<&mut Spans>) -> NocOutcome {
    let NocSetup { mut mesh, schedule } = setup;
    let nodes = usize::from(p.cols) * usize::from(p.rows);
    let root = spans.as_mut().map(|s| s.open("noc.run", None, 0));
    let mut next = 0usize;
    let (mut offered, mut delivered, mut alerts, mut max_in_flight, mut ticks) = (0, 0, 0, 0, 0);
    let mut latencies = Vec::with_capacity(schedule.len());
    let mut drained_at = None;
    let total = p.cycles + p.drain_cycles;
    let mut c = 0u64;
    while c < total {
        let now = Cycle(c);
        // One span per cycle's batch of injections (request = the cycle).
        if next < schedule.len() && schedule[next].at == c {
            timed(&mut spans, "noc.inject", root, c, || {
                while next < schedule.len() && schedule[next].at == c {
                    let a = schedule[next];
                    next += 1;
                    offered += 1;
                    let id = mesh.alloc_id();
                    mesh.try_inject(
                        Packet {
                            id,
                            src: node(a.source, p.cols),
                            dst: node(a.dest, p.cols),
                            op: if a.write { Op::Write } else { Op::Read },
                            addr: a.addr,
                            width: Width::Word,
                            data: a.addr ^ (id.0 as u32),
                            flits: 2,
                            injected_at: now,
                        },
                        now,
                    );
                }
            });
        }
        timed(&mut spans, "noc.tick", root, 0, || mesh.tick(now));
        ticks += 1;
        // One span per delivery pass over every endpoint.
        timed(&mut spans, "noc.deliver", root, 0, || {
            for i in 0..nodes {
                while let Some(pkt) = mesh.deliver(node(i, p.cols)) {
                    delivered += 1;
                    latencies.push(c - pkt.injected_at.get());
                }
            }
        });
        while mesh.take_alert().is_some() {
            alerts += 1;
        }
        max_in_flight = max_in_flight.max(mesh.in_flight() as u64);
        if c >= p.cycles && mesh.in_flight() == 0 {
            // The window is over (no arrival is due at or after it) and
            // the mesh is empty: nothing can happen any more.
            drained_at = Some(c + 1);
            break;
        }
        c += 1;
        // Skip cycles on which nothing can happen: no arrival due, the
        // mesh quiet and nothing waiting to be delivered.
        if mesh.has_pending_deliveries() || mesh.has_pending_alerts() {
            continue;
        }
        let mut target = total;
        if next < schedule.len() {
            target = target.min(schedule[next].at);
        }
        if c < p.cycles {
            target = target.min(p.cycles);
        }
        match mesh.next_event(Cycle(c)) {
            MeshQuiet::Active => continue,
            MeshQuiet::Until(at) => target = target.min(at.get()),
            MeshQuiet::Idle => {}
        }
        c = c.max(target);
    }
    if let (Some(s), Some(id)) = (spans.as_mut(), root) {
        s.close(id);
    }

    let stats = mesh.stats();
    let silent_drops = stats.counter("noc.silent_drops");
    let residue = mesh.in_flight() as u64;
    let shed = stats.counter("noc.ingress_refused");
    let mut errors = Vec::new();
    if offered != delivered + alerts + silent_drops + residue {
        errors.push(format!(
            "conservation broken: offered {offered} != delivered {delivered} + alerts {alerts} \
             + silent drops {silent_drops} + residue {residue}"
        ));
    }
    if silent_drops != 0 {
        errors.push(format!("{silent_drops} silent drops on the protected mesh"));
    }
    let mut reg = MetricsRegistry::new();
    reg.insert("noc", stats);
    let metrics_json = reg.render();
    let sim_cycles = drained_at.unwrap_or(total);
    let mut d = Digest::default();
    d.bytes("metrics", metrics_json.as_bytes());
    d.nums(
        "counts",
        &[
            offered,
            delivered,
            alerts,
            shed,
            residue,
            max_in_flight,
            sim_cycles,
            ticks,
        ],
    );
    d.nums("latencies", &latencies);
    NocOutcome {
        offered,
        delivered,
        alerts,
        shed,
        silent_drops,
        residue,
        max_in_flight,
        sim_cycles,
        ticks,
        latencies,
        stats: stats.clone(),
        metrics_json,
        digest: d.finish(),
        errors,
    }
}
