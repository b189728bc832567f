//! Stepped-vs-event core state identity at the full-SoC level.
//!
//! The event core is an optimisation, not a model change: for any seed,
//! workload and fault plan the two cores must leave the SoC in the same
//! state — same cycle count, same metrics snapshot (every counter and
//! histogram, rendered byte-for-byte), same memory contents. These tests
//! pin that contract across the interesting regimes: fault storms with
//! the full resilience stack, idle-heavy halting runs (where the
//! fast-forward does the most work), scheduled reconfiguration epochs,
//! and brownout hysteresis under open-loop flood.

use secbus_bus::AddrRange;
use secbus_core::{AdfSet, PolicyUpdate, Rwa, SecurityPolicy};
use secbus_fault::{FaultPlan, FaultRates, FaultSpec};
use secbus_sim::SimCore;
use secbus_soc::casestudy::{CPU0_PROGRAM, CPU1_PROGRAM, CPU2_PROGRAM};
use secbus_soc::{
    case_study, run_soc_overload_with_core, CaseResilience, CaseStudyConfig, DegradeConfig, Soc,
    SocOverloadConfig, DDR_PUBLIC_BASE, SHARED_BRAM_BASE,
};

/// Rewrite a core program to loop forever instead of halting, so memory
/// traffic (and therefore fault exposure) persists for the whole run.
fn looping(src: &str) -> String {
    format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"))
}

/// The chaos-soak platform: looping cores, streaming IPs, the full
/// resilience stack.
fn chaos_soc() -> Soc {
    case_study(CaseStudyConfig {
        programs: Some([
            looping(CPU0_PROGRAM),
            looping(CPU1_PROGRAM),
            looping(CPU2_PROGRAM),
        ]),
        monitor_threshold: 8,
        ip_samples: 0,
        resilience: Some(CaseResilience {
            rekey: true,
            ..CaseResilience::default()
        }),
        ..CaseStudyConfig::default()
    })
}

/// Run `soc` for `cycles` under `core` and return the comparable state:
/// (final cycle, rendered metrics, BRAM contents).
fn run_state(mut soc: Soc, plan: FaultPlan, core: SimCore, cycles: u64) -> (u64, String, Vec<u8>) {
    soc.set_sim_core(core);
    soc.attach_fault_plan(plan);
    soc.run(cycles);
    (
        soc.now().get(),
        soc.metrics_json(),
        soc.bram_contents().map(<[u8]>::to_vec).unwrap_or_default(),
    )
}

#[test]
fn chaos_soak_state_is_identical_across_cores_and_seeds() {
    const CYCLES: u64 = 30_000;
    let spec = FaultSpec {
        duration: CYCLES,
        ddr_bytes: 0x10_0000,
        firewalls: 5,
        slaves: 2,
        noc_nodes: 0,
        rates: FaultRates::uniform(12.0),
    };
    for seed in [3u64, 11, 0xC4A05] {
        let plan = FaultPlan::generate(seed, &spec);
        let stepped = run_state(chaos_soc(), plan.clone(), SimCore::Stepped, CYCLES);
        let event = run_state(chaos_soc(), plan, SimCore::Event, CYCLES);
        assert_eq!(stepped, event, "seed {seed}");
    }
}

#[test]
fn idle_heavy_halting_run_matches_and_halts_at_the_same_cycle() {
    // Halting programs + finite IP streams: the tail of the run is pure
    // idle, which the event core must skip without disturbing anything.
    let build = || case_study(CaseStudyConfig::default());
    let mut stepped = build();
    let mut event = build();
    stepped.set_sim_core(SimCore::Stepped);
    event.set_sim_core(SimCore::Event);
    let used_s = stepped.run_until_halt(200_000);
    let used_e = event.run_until_halt(200_000);
    assert_eq!(used_s, used_e, "halt detected at the same cycle");
    assert_eq!(stepped.now(), event.now());
    assert_eq!(stepped.metrics_json(), event.metrics_json());
    assert_eq!(stepped.bram_contents(), event.bram_contents());
}

#[test]
fn fast_forward_never_skips_scheduled_fault_epoch_or_watchdog_cycles() {
    // A sparse fault plan and a scheduled policy epoch land in the
    // middle of long idle stretches; the watchdog stack is armed. The
    // event core must stop at every one of those cycles.
    use secbus_fault::{FaultEvent, FaultKind};
    let sparse = FaultPlan::new(vec![
        FaultEvent {
            at: secbus_sim::Cycle(40_000),
            kind: FaultKind::DdrBitFlip {
                offset: 0x10,
                bit: 3,
            },
        },
        FaultEvent {
            at: secbus_sim::Cycle(90_000),
            kind: FaultKind::DdrBitFlip {
                offset: 0x20,
                bit: 5,
            },
        },
    ]);
    let build = || {
        case_study(CaseStudyConfig {
            resilience: Some(CaseResilience::default()),
            ..CaseStudyConfig::default()
        })
    };
    let run = |core: SimCore| {
        let mut soc = build();
        soc.set_sim_core(core);
        soc.attach_fault_plan(sparse.clone());
        let fw = soc
            .master_firewall_id(0)
            .expect("case study master 0 has a firewall");
        let commit_at = soc.schedule_reconfig(PolicyUpdate {
            firewall: fw,
            policies: vec![
                SecurityPolicy::internal(
                    1,
                    AddrRange::new(SHARED_BRAM_BASE, 0x100),
                    Rwa::ReadWrite,
                    AdfSet::ALL,
                ),
                SecurityPolicy::internal(
                    2,
                    AddrRange::new(DDR_PUBLIC_BASE, 0x1000),
                    Rwa::ReadOnly,
                    AdfSet::ALL,
                ),
            ],
        });
        soc.run(120_000);
        assert_eq!(
            soc.fault_plan().remaining(),
            0,
            "every planned fault cycle was reached"
        );
        assert!(commit_at.get() < 120_000);
        (soc.now().get(), soc.metrics_json())
    };
    assert_eq!(run(SimCore::Stepped), run(SimCore::Event));
}

#[test]
fn brownout_hysteresis_is_identical_across_cores() {
    // The degrade controller observes bus pressure every cycle; the
    // event core replays skipped observations in bulk. Enter/exit
    // transitions must land on the same cycles.
    let cfg = SocOverloadConfig {
        degrade: Some(DegradeConfig {
            high_watermark: 6,
            low_watermark: 0,
            enter_after: 4,
            exit_after: 16,
        }),
        ..SocOverloadConfig::default()
    };
    let stepped = run_soc_overload_with_core(&cfg, SimCore::Stepped);
    let event = run_soc_overload_with_core(&cfg, SimCore::Event);
    assert_eq!(stepped, event);
    assert_eq!(event.degrade_enters, 1);
    assert_eq!(event.degrade_exits, 1);
}

#[test]
fn trace_spine_is_identical_across_cores() {
    // Latency percentiles are read off the trace spine, so skipping idle
    // cycles must not move, add or lose a single traced event — with
    // finite IP streams (idle tail) and endless ones (no halt).
    for ip_samples in [0u64, 16, 64] {
        let run = |core: SimCore| {
            let mut soc = case_study(CaseStudyConfig {
                trace: Some(1 << 20),
                ip_samples,
                ..CaseStudyConfig::default()
            });
            soc.set_sim_core(core);
            let used = soc.run_until_halt(200_000);
            let tracer = soc.tracer().expect("tracing armed");
            assert_eq!(tracer.dropped(), 0, "ip_samples {ip_samples}");
            let spine = tracer.snapshot();
            assert!(!spine.is_empty(), "ip_samples {ip_samples}");
            (used, soc.metrics_json(), spine)
        };
        assert_eq!(
            run(SimCore::Stepped),
            run(SimCore::Event),
            "ip_samples {ip_samples}"
        );
    }
}
