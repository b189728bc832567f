//! Running a workload for a number of host seconds and reporting its
//! metrics.
//!
//! Every run repeats whole episodes (set-up, then the simulation to
//! completion) of one seed. Simulated statistics repeat exactly across
//! the episodes of a seed, which is checked through the digest; host
//! metrics are the medians over the episodes. The untraced run gives the
//! end-to-end metrics; the traced run repeats untraced episodes, then
//! traced ones, and reports per-layer metrics from spans and replays.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use secbus_sim::{SimCore, Stats};
use secbus_soc::Soc;

use crate::measure::{median, peak_rss_mib, percentile};
use crate::nocwl::{drive, NocOutcome, NocParams, NocSetup};
use crate::replay::{replay, ReplayCounts};
use crate::socwl::{
    outcome, stamped_records, sum_counter, traced_latencies, SocInputs, SocOutcome,
};
use crate::span::{SpanTotals, Spans};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's platform: three MB32 cores and the stream IP.
    CasestudyMb32,
    /// 8 masters reading the protected DDR regions through the LCF.
    DdrReadFlood,
    /// 64 masters on the public DDR region and BRAM.
    Fabric64m,
    /// Open-loop Poisson arrivals on a protected 16x16 mesh.
    NocMesh16x16,
}

impl Workload {
    /// Every workload the command line runs. `BENCHMARK.json` declares
    /// `casestudy_mb32` and `noc_mesh_16x16`.
    pub const ALL: [Workload; 4] = [
        Workload::CasestudyMb32,
        Workload::DdrReadFlood,
        Workload::Fabric64m,
        Workload::NocMesh16x16,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CasestudyMb32 => "casestudy_mb32",
            Workload::DdrReadFlood => "ddr_read_flood",
            Workload::Fabric64m => "fabric_64m",
            Workload::NocMesh16x16 => "noc_mesh_16x16",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics: name, unit, and whether lower is better.
pub const END_TO_END: [(&str, &str, bool); 8] = [
    ("setup_s", "s", true),
    ("sim_cycles_per_s", "cycles/s", false),
    ("ops_per_s", "ops/s", false),
    ("peak_rss_mib", "MiB", true),
    ("sim_ops_per_kcycle", "ops/kcycle", false),
    ("op_latency_p50_cycles", "cycles", true),
    ("op_latency_p99_cycles", "cycles", true),
    ("sim_runtime_cycles", "cycles", true),
];

/// Per-layer metrics of the traced run: name, unit, and whether lower is
/// better. A workload that does not load a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str, bool); 55] = [
    ("soc.build_s", "s", true),
    ("soc.run_ns_per_cycle", "ns", true),
    ("soc.residual_ns_per_cycle", "ns", true),
    ("sim.events", "count", true),
    ("sim.skip_frac", "ratio", false),
    ("sim.ns_per_event", "ns", true),
    ("cpu.instructions", "count", false),
    ("cpu.loads", "count", false),
    ("cpu.stores", "count", false),
    ("cpu.ipc", "instr/cycle", false),
    ("cpu.ns_per_instruction", "ns", true),
    ("cpu.traffic_tick_ns", "ns", true),
    ("bus.grants", "count", false),
    ("bus.busy_frac", "ratio", false),
    ("bus.contended_cycles", "cycles", true),
    ("bus.grant_wait_mean", "cycles", true),
    ("bus.grant_wait_max", "cycles", true),
    ("bus.backpressure_stalls", "count", true),
    ("bus.issue_refused", "count", true),
    ("lf.checked", "count", false),
    ("lf.denied", "count", true),
    ("txn.issue_to_verdict_mean", "cycles", true),
    ("lf.check_ns", "ns", true),
    ("lcf.protected_reads", "count", false),
    ("lcf.protected_writes", "count", false),
    ("lcf.unprotected_accesses", "count", false),
    ("lcf.ic_cycles", "cycles", true),
    ("lcf.cc_bytes_ciphered", "bytes", true),
    ("lcf.integrity_failures", "count", true),
    ("lcf.seal_cycles", "cycles", true),
    ("lcf.read_ci_ns", "ns", true),
    ("lcf.write_ci_ns", "ns", true),
    ("lcf.read_cipher_ns", "ns", true),
    ("lcf.write_cipher_ns", "ns", true),
    ("lcf.bypass_ns", "ns", true),
    ("lcf.seal_ns", "ns", true),
    ("crypto.ctr_block_ns", "ns", true),
    ("crypto.leaf_digest_ns", "ns", true),
    ("crypto.merkle_verify_ns", "ns", true),
    ("crypto.merkle_update_ns", "ns", true),
    ("noc.injected", "count", false),
    ("noc.delivered", "count", false),
    ("noc.ingress_refused", "count", true),
    ("noc.hops", "count", true),
    ("noc.link_wait_cycles", "cycles", true),
    ("noc.credit_wait_cycles", "cycles", true),
    ("noc.retransmissions", "count", true),
    ("noc.max_in_flight", "count", true),
    ("noc.tick_ns", "ns", true),
    ("noc.inject_ns", "ns", true),
    ("noc.deliver_ns", "ns", true),
    ("workload.arrivals", "count", false),
    ("workload.gen_ns", "ns", true),
    ("trace_overhead_frac", "ratio", true),
    ("latency.checked", "count", false),
];

/// Fewest episodes a measuring phase runs, however long they take.
const MIN_EPISODES: usize = 3;

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Failed correctness gates.
    pub errors: Vec<String>,
    /// Operations attempted in the measured episodes.
    pub attempted: u64,
    /// Operations that failed in the measured episodes.
    pub failed: u64,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The metrics a run reports, with units: the per-layer table for a
    /// traced run, the end-to-end table otherwise.
    pub fn table(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        }
    }

    /// The one-line JSON result: every metric of the table, in order.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Report::table(trace)
            .into_iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Check the metric set: every name is in the table, every value finite.
    fn validate(&mut self, trace: bool) {
        let table = Report::table(trace);
        for (name, v) in &self.metrics {
            if !table.iter().any(|(n, _)| n == name) {
                self.errors.push(format!("metric {name} is not declared"));
            }
            if !v.is_finite() {
                self.errors.push(format!("metric {name} is {v}"));
            }
        }
        if !trace {
            for (name, _) in &table {
                match self.metrics.get(name) {
                    Some(v) if *v > 0.0 => {}
                    _ => self
                        .errors
                        .push(format!("end-to-end metric {name} is missing or 0")),
                }
            }
        }
    }
}

/// Run `workload` from `seed` for `seconds` of measurement.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let caps = secbus_crypto::host_caps();
    r.lines.push(format!(
        "host crypto_backend={} aesni={} shani={} sim_core={:?} cpus={}",
        secbus_crypto::active_backend().name(),
        caps.aesni,
        caps.shani,
        SimCore::from_env(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    r.lines.push(
        "model per-module latencies are calibrated to paper Table II (the table2 binary); \
         end-to-end simulated numbers are unvalidated against hardware"
            .to_string(),
    );
    let mut spans = Spans::default();
    match (workload, trace) {
        (Workload::NocMesh16x16, false) => noc_untraced(seed, seconds, &mut r),
        (Workload::NocMesh16x16, true) => noc_traced(seed, seconds, &mut spans, &mut r),
        (kind, false) => soc_untraced(kind, seed, seconds, &mut r),
        (kind, true) => soc_traced(kind, seed, seconds, &mut spans, &mut r),
    }
    if trace {
        write_spans(&mut r, &spans, workload.name(), seed);
    }
    r.validate(trace);
    r
}

/// Build and run one episode; spans named `build` and `run` when given.
fn soc_episode(
    inputs: &SocInputs,
    trace: Option<usize>,
    spans: Option<(&mut Spans, &'static str, &'static str)>,
) -> (Soc, SocOutcome, u64, u64) {
    let t0 = Instant::now();
    let mut soc = inputs.build(trace, true);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let cycles = soc.run_until_halt(crate::socwl::MAX_CYCLES);
    let run_ns = t1.elapsed().as_nanos() as u64;
    if let Some((s, build, run)) = spans {
        // Record the measured intervals as spans after the fact, so the
        // untraced and traced episodes are timed the same way.
        s.record(build, t0, setup_ns);
        s.record(run, t1, run_ns);
    }
    let o = outcome(inputs, &soc, cycles);
    (soc, o, setup_ns, run_ns)
}

/// What the timing loop keeps of one episode.
struct Sample {
    setup_ns: u64,
    run_ns: u64,
    sim_cycles: u64,
    completed: u64,
    attempted: u64,
    failed: u64,
    digest: String,
    errors: Vec<String>,
}

impl Sample {
    fn soc(o: SocOutcome, setup_ns: u64, run_ns: u64) -> Self {
        Sample {
            setup_ns,
            run_ns,
            sim_cycles: o.sim_cycles,
            completed: o.completed,
            attempted: o.attempted,
            failed: o.failed,
            digest: o.digest,
            errors: o.errors,
        }
    }

    fn noc(o: NocOutcome, setup_ns: u64, run_ns: u64) -> Self {
        Sample {
            setup_ns,
            run_ns,
            sim_cycles: o.sim_cycles,
            completed: o.delivered,
            attempted: o.offered,
            failed: noc_failed(&o),
            digest: o.digest,
            errors: o.errors,
        }
    }
}

/// Gate an episode against the seed's reference digest.
fn check_episode(errors: &[String], digest: &str, reference: &str, r: &mut Report) {
    r.errors.extend(errors.iter().cloned());
    if digest != reference {
        r.errors.push(format!(
            "digest {digest} differs from the seed's first episode {reference}"
        ));
    }
}

/// Time episodes for `seconds` (and at least [`MIN_EPISODES`]) and report
/// the host metrics as their medians.
fn measure(r: &mut Report, seconds: f64, reference: &str, episode: impl FnMut() -> Sample) {
    let samples = repeat(seconds, MIN_EPISODES, episode);
    let (mut setup, mut cps, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    for s in &samples {
        check_episode(&s.errors, &s.digest, reference, r);
        let run_s = s.run_ns as f64 / 1e9;
        setup.push(s.setup_ns as f64 / 1e9);
        cps.push(s.sim_cycles as f64 / run_s);
        ops.push(s.completed as f64 / run_s);
        r.attempted += s.attempted;
        r.failed += s.failed;
    }
    r.set("setup_s", median(&setup));
    r.set("sim_cycles_per_s", median(&cps));
    r.set("ops_per_s", median(&ops));
    r.lines.push(format!(
        "host episodes={} (reported: medians) setup_s={setup:?} sim_cycles_per_s={cps:?}",
        samples.len(),
    ));
    match peak_rss_mib() {
        Some(mib) => r.set("peak_rss_mib", mib),
        None => r
            .errors
            .push("peak RSS unavailable (/proc/self/status)".to_string()),
    }
}

fn report_latency(r: &mut Report, latencies: &[u64], what: &str) {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        r.errors.push("no latency samples".to_string());
        return;
    }
    let n = sorted.len();
    let (p50, p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
    r.set("op_latency_p50_cycles", p50 as f64);
    r.set("op_latency_p99_cycles", p99 as f64);
    r.lines.push(format!(
        "latency {what}: p50={p50} p99={p99} max={} cycles, n={n} ({} at or above p99)",
        sorted[n - 1],
        n - sorted.partition_point(|&v| v < p99),
    ));
}

/// The trace capacity that holds every event of an episode: at most ten
/// events per transaction (issue, verdicts, grant, cipher, tree walk,
/// completion) plus headroom.
fn trace_capacity(reference: &SocOutcome) -> usize {
    (reference.attempted as usize) * 10 + 4096
}

fn soc_untraced(kind: Workload, seed: u64, seconds: f64, r: &mut Report) {
    let inputs = SocInputs::new(kind, seed);
    // The first episode warms caches and lazy set-up; it is the seed's
    // reference and is not timed.
    let (_, reference, _, _) = soc_episode(&inputs, None, None);
    if !reference.errors.is_empty() {
        r.errors.extend(reference.errors);
        return;
    }
    measure(r, seconds, &reference.digest, || {
        let (_, o, setup_ns, run_ns) = soc_episode(&inputs, None, None);
        Sample::soc(o, setup_ns, run_ns)
    });

    let latencies = if kind == Workload::CasestudyMb32 {
        // The cores are built inside the case study and cannot be
        // wrapped; their latencies come from the trace spine of one more
        // episode, whose simulated statistics must match the untraced one.
        let (soc, o, _, _) = soc_episode(&inputs, Some(trace_capacity(&reference)), None);
        check_episode(&o.errors, &o.digest, &reference.digest, r);
        check_trace_complete(&soc, r);
        traced_latencies(&soc).into_iter().map(|(_, l)| l).collect()
    } else {
        reference.latencies.clone()
    };
    report_latency(r, &latencies, "issue to completion at the master");
    sim_metrics(r, &reference);
}

fn sim_metrics(r: &mut Report, o: &SocOutcome) {
    r.set(
        "sim_ops_per_kcycle",
        o.completed as f64 * 1000.0 / o.sim_cycles as f64,
    );
    r.set("sim_runtime_cycles", o.sim_cycles as f64);
    sim_lines(r, o);
}

fn sim_lines(r: &mut Report, o: &SocOutcome) {
    r.lines.push(format!(
        "sim cycles={} events={} completed={} attempted={} failed={} failed_frac={}",
        o.sim_cycles,
        o.events,
        o.completed,
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    ));
    r.lines.push(format!("digest {}", o.digest));
}

fn check_trace_complete(soc: &Soc, r: &mut Report) {
    let dropped = soc.tracer().map_or(0, |t| t.dropped());
    if dropped != 0 {
        r.errors.push(format!(
            "trace spine dropped {dropped} events; capacity too small"
        ));
    }
}

/// Traced episodes per traced run: enough for a median, few enough that
/// the spans of every call stay small in memory and on disk.
const TRACED_EPISODES: usize = 3;

/// Repeat `episode` until `seconds` pass and it ran at least `min` times;
/// returns what each run returned.
fn repeat<T>(seconds: f64, min: usize, mut episode: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(episode());
    }
    out
}

fn soc_traced(kind: Workload, seed: u64, seconds: f64, spans: &mut Spans, r: &mut Report) {
    let inputs = SocInputs::new(kind, seed);
    let (_, reference, _, _) = soc_episode(&inputs, None, None);
    if !reference.errors.is_empty() {
        r.errors.extend(reference.errors);
        return;
    }
    let untraced = repeat(seconds / 2.0, TRACED_EPISODES, || {
        let (_, o, _, run_ns) = soc_episode(&inputs, None, Some((spans, "soc.build", "soc.run")));
        check_episode(&o.errors, &o.digest, &reference.digest, r);
        run_ns as f64
    });
    let cap = trace_capacity(&reference);
    let mut last = None;
    let traced = repeat(0.0, TRACED_EPISODES, || {
        let (soc, o, _, run_ns) = soc_episode(
            &inputs,
            Some(cap),
            Some((spans, "soc.build.traced", "soc.run.traced")),
        );
        check_episode(&o.errors, &o.digest, &reference.digest, r);
        last = Some(soc);
        run_ns as f64
    });
    let soc = last.expect("at least one traced episode");
    check_trace_complete(&soc, r);
    let counts = replay(&inputs, &soc, spans);
    r.errors.extend(counts.errors.iter().cloned());
    r.set(
        "trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    latency_crosscheck(&soc, r);
    soc_layers(r, &soc, &reference, &spans.totals(), &counts);

    r.attempted = reference.attempted;
    r.failed = reference.failed;
}

/// Every operation the stamped ports timed must show the same latency
/// on the trace spine.
fn latency_crosscheck(soc: &Soc, r: &mut Report) {
    let traced: BTreeMap<u64, u64> = traced_latencies(soc).into_iter().collect();
    let mut checked = 0u64;
    for rec in stamped_records(soc).into_iter().flatten() {
        match traced.get(&rec.txn.0) {
            Some(&l) if l == rec.latency() => checked += 1,
            other => r.errors.push(format!(
                "txn {}: port latency {} but traced {other:?}",
                rec.txn.0,
                rec.latency()
            )),
        }
    }
    r.set("latency.checked", checked as f64);
}

fn mean_ns(t: &BTreeMap<&str, SpanTotals>, name: &str) -> f64 {
    t.get(name)
        .filter(|x| x.count > 0)
        .map_or(0.0, |x| x.total_ns as f64 / x.count as f64)
}

fn total_ns(t: &BTreeMap<&str, SpanTotals>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |x| x.total_ns as f64)
}

fn per_call(t: &BTreeMap<&str, SpanTotals>, name: &str, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns(t, name) / calls as f64
    }
}

fn soc_layers(
    r: &mut Report,
    soc: &Soc,
    o: &SocOutcome,
    t: &BTreeMap<&str, SpanTotals>,
    counts: &ReplayCounts,
) {
    let cycles = o.sim_cycles as f64;
    let snap = soc.metrics_snapshot();
    let run_ns = mean_ns(t, "soc.run");
    const LCF_CALLS: [&str; 5] = [
        "lcf.read_ci",
        "lcf.write_ci",
        "lcf.read_cipher",
        "lcf.write_cipher",
        "lcf.bypass",
    ];
    let replayed = total_ns(t, "replay.lf")
        + LCF_CALLS.iter().map(|n| total_ns(t, n)).sum::<f64>()
        + total_ns(t, "replay.cpu");
    r.set("soc.build_s", mean_ns(t, "soc.build") / 1e9);
    r.set("soc.run_ns_per_cycle", run_ns / cycles);
    r.set("soc.residual_ns_per_cycle", (run_ns - replayed) / cycles);
    r.set("sim.events", o.events as f64);
    r.set("sim.skip_frac", 1.0 - o.events as f64 / cycles);
    r.set("sim.ns_per_event", run_ns / o.events as f64);

    let core_stat = |key: &str| -> u64 {
        (0..soc.master_count())
            .map(|i| soc.master_device(i).stats().counter(key))
            .sum()
    };
    let instructions = core_stat("core.instructions");
    r.set("cpu.instructions", instructions as f64);
    r.set("cpu.loads", core_stat("core.loads") as f64);
    r.set("cpu.stores", core_stat("core.stores") as f64);
    if instructions > 0 {
        r.set("cpu.ipc", instructions as f64 / (cycles * 3.0));
        if instructions != counts.cpu_instructions {
            r.errors.push(format!(
                "standalone cores retired {} instructions, the SoC's {instructions}",
                counts.cpu_instructions
            ));
        }
    }
    r.set(
        "cpu.ns_per_instruction",
        per_call(t, "cpu.run", counts.cpu_instructions),
    );
    r.set(
        "cpu.traffic_tick_ns",
        per_call(t, "cpu.traffic", counts.traffic_ticks),
    );

    let bus = snap.component("bus").cloned().unwrap_or_else(Stats::new);
    r.set("bus.grants", bus.counter("bus.grants") as f64);
    r.set(
        "bus.busy_frac",
        bus.counter("bus.busy_cycles") as f64 / cycles,
    );
    r.set(
        "bus.contended_cycles",
        bus.counter("bus.contended_cycles") as f64,
    );
    if let Some(h) = bus.histogram("bus.grant_wait") {
        r.set("bus.grant_wait_mean", h.mean().unwrap_or(0.0));
        r.set("bus.grant_wait_max", h.max().unwrap_or(0) as f64);
    }
    r.set(
        "bus.backpressure_stalls",
        bus.counter("bus.backpressure_stalls") as f64,
    );
    r.set("bus.issue_refused", bus.counter("bus.issue_refused") as f64);

    r.set("lf.checked", sum_counter(&snap, "LF ", "fw.checked") as f64);
    r.set(
        "lf.denied",
        sum_counter(&snap, "LF ", "fw.discarded") as f64,
    );
    if let Some(h) = snap
        .component("soc")
        .and_then(|s| s.histogram("txn.issue_to_verdict"))
    {
        r.set("txn.issue_to_verdict_mean", h.mean().unwrap_or(0.0));
    }
    r.set("lf.check_ns", per_call(t, "lf.check", counts.lf_checks));

    for (metric, key) in [
        ("lcf.protected_reads", "lcf.protected_reads"),
        ("lcf.protected_writes", "lcf.protected_writes"),
        ("lcf.unprotected_accesses", "lcf.unprotected_accesses"),
        ("lcf.ic_cycles", "lcf.ic_cycles"),
        ("lcf.cc_bytes_ciphered", "lcf.cc_bytes_ciphered"),
        ("lcf.integrity_failures", "lcf.integrity_failures"),
        ("lcf.seal_cycles", "lcf.seal_cycles"),
    ] {
        r.set(metric, sum_counter(&snap, "LCF", key) as f64);
    }
    for (metric, span) in [
        ("lcf.read_ci_ns", "lcf.read_ci"),
        ("lcf.write_ci_ns", "lcf.write_ci"),
        ("lcf.read_cipher_ns", "lcf.read_cipher"),
        ("lcf.write_cipher_ns", "lcf.write_cipher"),
        ("lcf.bypass_ns", "lcf.bypass"),
    ] {
        let calls = counts.lcf_calls.get(span).copied().unwrap_or(0);
        r.set(metric, per_call(t, span, calls));
    }
    r.set("lcf.seal_ns", total_ns(t, "lcf.seal"));
    for (metric, span) in [
        ("crypto.ctr_block_ns", "crypto.ctr"),
        ("crypto.leaf_digest_ns", "crypto.leaf_digest"),
        ("crypto.merkle_verify_ns", "crypto.merkle_verify"),
        ("crypto.merkle_update_ns", "crypto.merkle_update"),
    ] {
        let calls = counts.crypto_calls.get(span).copied().unwrap_or(0);
        r.set(metric, per_call(t, span, calls));
    }
    span_lines(r, t);
    sim_lines(r, o);
}

/// Write every span of the traced run next to the build output
/// (`CARGO_TARGET_DIR`, else the package's `target`).
fn write_spans(r: &mut Report, spans: &Spans, workload: &str, seed: u64) {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    let path = dir
        .join("perfbench")
        .join(format!("spans-{workload}-seed{seed}.tsv"));
    match spans.write_tsv(&path) {
        Ok(()) => r.lines.push(format!("spans written to {}", path.display())),
        Err(e) => r
            .errors
            .push(format!("writing spans to {}: {e}", path.display())),
    }
}

/// Print the span summary: where the traced run's host time went.
fn span_lines(r: &mut Report, t: &BTreeMap<&str, SpanTotals>) {
    for (name, s) in t {
        r.lines.push(format!(
            "span {name} count={} total_ms={:.3} self_ms={:.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        ));
    }
}

/// One mesh episode: set-up, then the drive; `(outcome, setup_ns, run_ns)`.
fn noc_episode(p: &NocParams, mut spans: Option<&mut Spans>) -> (NocOutcome, u64, u64) {
    let t0 = Instant::now();
    let setup = NocSetup::new(p, spans.as_deref_mut());
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let o = drive(setup, p, spans);
    (o, setup_ns, t1.elapsed().as_nanos() as u64)
}

fn noc_untraced(seed: u64, seconds: f64, r: &mut Report) {
    let p = NocParams::mesh_16x16(seed);
    let (reference, _, _) = noc_episode(&p, None);
    if !reference.errors.is_empty() {
        r.errors.extend(reference.errors);
        return;
    }
    measure(r, seconds, &reference.digest, || {
        let (o, setup_ns, run_ns) = noc_episode(&p, None);
        Sample::noc(o, setup_ns, run_ns)
    });
    report_latency(r, &reference.latencies, "due cycle to delivery");
    noc_sim_metrics(r, &reference);
}

fn noc_failed(o: &NocOutcome) -> u64 {
    o.alerts + o.silent_drops + o.residue
}

fn noc_sim_metrics(r: &mut Report, o: &NocOutcome) {
    r.set(
        "sim_ops_per_kcycle",
        o.delivered as f64 * 1000.0 / o.sim_cycles as f64,
    );
    r.set("sim_runtime_cycles", o.sim_cycles as f64);
    noc_lines(r, o);
}

fn noc_lines(r: &mut Report, o: &NocOutcome) {
    r.lines.push(format!(
        "sim cycles={} ticks={} offered={} delivered={} shed={} alerts={} silent_drops={} \
         residue={} failed_frac={}",
        o.sim_cycles,
        o.ticks,
        o.offered,
        o.delivered,
        o.shed,
        o.alerts,
        o.silent_drops,
        o.residue,
        noc_failed(o) as f64 / o.offered.max(1) as f64
    ));
    r.lines.push(format!("digest {}", o.digest));
}

fn noc_traced(seed: u64, seconds: f64, spans: &mut Spans, r: &mut Report) {
    let p = NocParams::mesh_16x16(seed);
    let (reference, _, _) = noc_episode(&p, None);
    if !reference.errors.is_empty() {
        r.errors.extend(reference.errors);
        return;
    }
    let untraced = repeat(seconds / 2.0, TRACED_EPISODES, || {
        let (o, _, run_ns) = noc_episode(&p, None);
        check_episode(&o.errors, &o.digest, &reference.digest, r);
        run_ns as f64
    });
    let mut delivered = 0;
    let mut arrivals = 0;
    let traced = repeat(0.0, TRACED_EPISODES, || {
        let (o, _, run_ns) = noc_episode(&p, Some(spans));
        check_episode(&o.errors, &o.digest, &reference.digest, r);
        delivered += o.delivered;
        arrivals += o.offered;
        run_ns as f64
    });
    r.set(
        "trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    let t = spans.totals();
    let o = &reference;
    for key in [
        "noc.injected",
        "noc.delivered",
        "noc.ingress_refused",
        "noc.hops",
        "noc.link_wait_cycles",
        "noc.credit_wait_cycles",
        "noc.retransmissions",
    ] {
        r.set(key, o.stats.counter(key) as f64);
    }
    r.set("noc.max_in_flight", o.max_in_flight as f64);
    r.set("noc.tick_ns", mean_ns(&t, "noc.tick"));
    r.set("noc.inject_ns", per_call(&t, "noc.inject", arrivals));
    r.set("noc.deliver_ns", per_call(&t, "noc.deliver", delivered));
    r.set("workload.arrivals", o.offered as f64);
    r.set(
        "workload.gen_ns",
        per_call(&t, "workload.schedule", arrivals),
    );
    r.set("sim.events", o.ticks as f64);
    r.set("sim.skip_frac", 1.0 - o.ticks as f64 / o.sim_cycles as f64);
    r.set("sim.ns_per_event", mean_ns(&t, "noc.run") / o.ticks as f64);
    span_lines(r, &t);
    noc_lines(r, o);
    r.attempted = o.offered;
    r.failed = noc_failed(o);
}
