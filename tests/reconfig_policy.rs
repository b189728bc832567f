//! Live-reconfiguration properties across crate seams: the exhaustive
//! verifier pinning planted divergences with concrete counterexamples,
//! verifier-gated epoch admission on a running SoC, brownout × epoch
//! interaction (a commit during a brownout never widens rights), and
//! all-or-nothing rollback of [`StagedPlan`]-driven mid-commit faults.

use secbus_bus::AddrRange;
use secbus_core::{
    verify, AdfSet, ConfidentialityMode, ConfigMemory, EpochError, FirewallId, IntegrityMode,
    PolicyProgram, PolicyUpdate, PolicyVerifyError, Rwa, SecurityPolicy,
};
use secbus_cpu::{OpenLoopConfig, OpenLoopMaster};
use secbus_fault::{FaultEvent, FaultKind, FaultPlan, StagedPlan};
use secbus_mem::ExternalDdr;
use secbus_sim::{Cycle, SimRng, TraceEvent};
use secbus_soc::{DegradeConfig, Soc, SocBuilder};

const DDR_BASE: u32 = 0x8000_0000;
/// The flooded (and integrity-verified) slice of the DDR window.
const WINDOW: u32 = 0x100;

/// A two-master program whose scratch region moves per epoch, so every
/// committed epoch genuinely rewrites both firewalls while the flooded
/// DDR window stays authorized throughout.
fn epoch_program(i: u64) -> PolicyProgram {
    let scratch = 0x4000_0000u64 + (i % 64) * 0x1000;
    let text = format!(
        "master m0 = 0\n\
         master m1 = 1\n\
         region ddr = {DDR_BASE:#x} + 0x1000\n\
         region scratch = {scratch:#x} + 0x100\n\
         allow m0 ddr rw\n\
         allow m1 ddr rw\n\
         allow m0 scratch ro word\n"
    );
    PolicyProgram::parse(&text).expect("epoch program parses")
}

/// A small asymmetric program for the pure verifier tests: m0 is
/// read-only over the DDR window, m1 has full rights.
fn asymmetric_program() -> PolicyProgram {
    let text = format!(
        "master m0 = 0\n\
         master m1 = 1\n\
         region ddr = {DDR_BASE:#x} + 0x1000\n\
         allow m0 ddr ro word\n\
         allow m1 ddr rw\n"
    );
    PolicyProgram::parse(&text).expect("program parses")
}

fn flood(name: &'static str, per_tick: u32, until: u64, seed: u64, salt: &str) -> OpenLoopMaster {
    OpenLoopMaster::new(
        name,
        OpenLoopConfig {
            window: (DDR_BASE, WINDOW),
            read_ratio: 1.0,
            per_tick,
            until,
        },
        SimRng::new(seed).derive(salt),
    )
}

/// A protected two-master SoC booted on `epoch_program(0)`, flooding the
/// verified DDR window, with the brownout controller armed. Returns the
/// SoC and the DSL-master → firewall map epoch commits use.
fn epoch_soc(per_tick: u32, until: u64) -> (Soc, Vec<(u8, FirewallId)>) {
    let boot = epoch_program(0);
    let compiled = boot.compile().expect("boot program compiles");
    verify(&boot, &compiled.as_views()).expect("boot tables verify");
    let table = |m: u8| {
        ConfigMemory::with_policies(compiled.table(m).expect("table compiled").policies.clone())
            .expect("compiled tables are disjoint")
    };
    let lcf = ConfigMemory::with_policies(vec![SecurityPolicy::external(
        7,
        AddrRange::new(DDR_BASE, WINDOW),
        Rwa::ReadWrite,
        AdfSet::ALL,
        ConfidentialityMode::Encrypt,
        IntegrityMode::Verify,
        Some(*b"secbus-ddr-key!!"),
    )])
    .expect("one policy cannot overlap");
    let soc = SocBuilder::new()
        .degrade(DegradeConfig {
            high_watermark: 8,
            low_watermark: 0,
            enter_after: 4,
            exit_after: 16,
        })
        .add_protected_master(
            Box::new(flood("flood0", per_tick, until, 11, "rp.m0")),
            table(0),
        )
        .add_protected_master(
            Box::new(flood("flood1", per_tick, until, 11, "rp.m1")),
            table(1),
        )
        .set_ddr(
            "ddr",
            AddrRange::new(DDR_BASE, 0x1000),
            ExternalDdr::new(0x1000),
            Some(lcf),
        )
        .build();
    let targets: Vec<(u8, FirewallId)> = (0..2u8)
        .map(|m| {
            (
                m,
                soc.master_firewall(usize::from(m))
                    .expect("LF present")
                    .id(),
            )
        })
        .collect();
    (soc, targets)
}

/// Borrow both firewalls' live tables in the shape [`verify`] takes.
fn live_views(soc: &Soc) -> Vec<(u8, Vec<SecurityPolicy>)> {
    (0..2u8)
        .map(|m| {
            (
                m,
                soc.master_firewall(usize::from(m))
                    .expect("LF present")
                    .config()
                    .policies()
                    .to_vec(),
            )
        })
        .collect()
}

#[test]
fn verifier_pins_widened_table_with_write_counterexample() {
    // Widen m0's compiled read-only policy to read-write: the verifier
    // must catch the over-permissive table and name a concrete write the
    // DSL never granted.
    let program = asymmetric_program();
    let mut compiled = program.compile().expect("compiles");
    let t0 = &mut compiled.tables[0];
    assert_eq!(t0.master, 0);
    t0.policies[0].rwa = Rwa::ReadWrite;
    let err = verify(&program, &compiled.as_views()).expect_err("widened table must be rejected");
    match err {
        PolicyVerifyError::Mismatch(ce) => {
            assert_eq!(ce.index, 0);
            assert_eq!(ce.op, "write");
            assert!(ce.table_allows && !ce.intent_allows, "{ce}");
            let addr = u64::from(ce.addr);
            assert!(
                (u64::from(DDR_BASE)..u64::from(DDR_BASE) + 0x1000).contains(&addr),
                "witness lands in the widened region: {ce}"
            );
        }
        other => panic!("expected a Mismatch counterexample, got {other}"),
    }
}

#[test]
fn verifier_pins_truncated_table_with_lost_grant_counterexample() {
    // Drop m1's only policy: the table silently denies everything the
    // DSL granted, and the counterexample names a lost access.
    let program = asymmetric_program();
    let mut compiled = program.compile().expect("compiles");
    assert_eq!(compiled.tables[1].master, 1);
    compiled.tables[1].policies.clear();
    let err = verify(&program, &compiled.as_views()).expect_err("truncated table must be rejected");
    match err {
        PolicyVerifyError::Mismatch(ce) => {
            assert_eq!(ce.index, 1);
            assert!(ce.intent_allows && !ce.table_allows, "{ce}");
        }
        other => panic!("expected a Mismatch counterexample, got {other}"),
    }
}

#[test]
fn admission_refuses_tampered_epoch_fail_secure() {
    // A staged batch that widens m0's rights beyond the program intent is
    // refused at `commit_policy_epoch_checked` admission: no firewall
    // stages anything, the epoch and table generations do not move.
    let (mut soc, targets) = epoch_soc(1, 50);
    soc.run(100);
    let program = epoch_program(1);
    let mut compiled = program.compile().expect("compiles");
    for p in &mut compiled.tables[0].policies {
        p.rwa = Rwa::ReadWrite; // widens the ro scratch grant
        p.adf = AdfSet::ALL;
    }
    let updates: Vec<PolicyUpdate> = compiled
        .tables
        .iter()
        .map(|t| PolicyUpdate {
            firewall: targets[usize::from(t.master)].1,
            policies: t.policies.clone(),
        })
        .collect();
    let gens: Vec<u64> = (0..2)
        .map(|m| soc.master_firewall(m).unwrap().config().generation())
        .collect();
    let err = soc
        .commit_policy_epoch_checked(&program, &targets, updates)
        .expect_err("tampered batch must be refused");
    assert!(
        matches!(err, EpochError::Verifier(PolicyVerifyError::Mismatch(_))),
        "refusal carries the counterexample: {err:?}"
    );
    assert_eq!(
        soc.policy_epoch(),
        0,
        "failed admission never moves the epoch"
    );
    for (m, gen) in gens.iter().enumerate() {
        assert_eq!(
            soc.master_firewall(m).unwrap().config().generation(),
            *gen,
            "failed admission never touches a table"
        );
    }
    assert_eq!(soc.stats().counter("reconfig.verifier_refusals"), 1);
}

#[test]
fn commit_during_brownout_never_widens_rights() {
    // Engage the brownout with sustained verified reads, then commit an
    // epoch mid-brownout. The live tables must equal the new program's
    // intent exactly (the brownout narrows the LCF's verify posture, it
    // never touches rights), and the posture must survive the swap and
    // still release on drain.
    let (mut soc, targets) = epoch_soc(4, 2_000);
    let mut ran = 0u64;
    while !soc.degraded() && ran < 2_000 {
        soc.run(100);
        ran += 100;
    }
    assert!(
        soc.degraded(),
        "sustained verified reads engage the brownout"
    );
    assert!(
        soc.lcf()
            .unwrap()
            .stats()
            .counter("lcf.brownout_skipped_verifies")
            > 0
            || soc.degraded(),
        "the brownout narrows the verify posture"
    );

    let program = epoch_program(1);
    let epoch = soc
        .commit_policy_epoch_from(&program, &targets)
        .expect("a verified epoch commits during a brownout");
    assert_eq!(epoch, 1);
    assert!(
        soc.degraded(),
        "an epoch swap neither clears nor is blocked by the brownout posture"
    );

    // The never-widens property, checked exhaustively: the live tables
    // verify against the *new* program, so the allowed set is exactly
    // the DSL intent — no access the program denies is grantable while
    // (or after) the posture is degraded.
    let views = live_views(&soc);
    let borrowed: Vec<(u8, &[SecurityPolicy])> =
        views.iter().map(|(m, p)| (*m, p.as_slice())).collect();
    verify(&program, &borrowed).expect("live tables match the committed intent exactly");

    // Flood stops at 2_000; the backlog drains and the posture releases
    // with the new epoch still in force.
    soc.run(30_000);
    assert!(!soc.degraded(), "drain releases the brownout");
    assert_eq!(soc.policy_epoch(), 1);
    let views = live_views(&soc);
    let borrowed: Vec<(u8, &[SecurityPolicy])> =
        views.iter().map(|(m, p)| (*m, p.as_slice())).collect();
    verify(&program, &borrowed).expect("release restores nothing stale");
}

#[test]
fn staged_plan_mid_commit_fault_aborts_all_or_nothing() {
    // A gated StagedPlan stage lands an EpochCommitFault on the commit
    // point: the attempt must abort with every firewall still on the old
    // epoch and the old table generation, and the retry must succeed.
    let (mut soc, targets) = epoch_soc(1, 400);
    let staged = StagedPlan::new()
        .stage("soften", FaultPlan::empty())
        .gated_stage(
            "strike",
            FaultPlan::new(vec![FaultEvent {
                at: Cycle(150),
                kind: FaultKind::EpochCommitFault { stage: 1 },
            }]),
        );
    let mut staged = staged;
    assert_eq!(staged.active_stage(), Some("soften"));
    staged.advance(true); // foothold established -> the strike fires
    assert_eq!(staged.active_stage(), Some("strike"));
    soc.attach_fault_plan(staged.stages()[1].plan.clone());

    soc.run(200); // through cycle 150: the fault is armed
    let gens: Vec<u64> = (0..2)
        .map(|m| soc.master_firewall(m).unwrap().config().generation())
        .collect();
    let program = epoch_program(1);
    let err = soc
        .commit_policy_epoch_from(&program, &targets)
        .expect_err("the armed fault interrupts the commit");
    match err {
        EpochError::CommitFault { staged } => assert_eq!(staged, 1, "one table had swapped"),
        other => panic!("expected CommitFault, got {other:?}"),
    }
    assert_eq!(soc.policy_epoch(), 0, "aborted commit leaves the old epoch");
    for (m, &(_, fw)) in targets.iter().enumerate() {
        assert_eq!(soc.firewall_epoch(fw), 0, "no firewall advanced");
        assert_eq!(
            soc.master_firewall(m).unwrap().config().generation(),
            gens[m],
            "rollback restores the exact table generation"
        );
    }
    assert_eq!(soc.reconfig_stats().counter("reconfig.epoch_aborts"), 1);

    // The fault was one-shot: the identical retry commits everywhere.
    let epoch = soc
        .commit_policy_epoch_from(&program, &targets)
        .expect("retry commits");
    assert_eq!(epoch, 1);
    for &(_, fw) in &targets {
        assert_eq!(
            soc.firewall_epoch(fw),
            1,
            "the whole fleet advanced together"
        );
    }
}

#[test]
fn aborted_staged_plan_never_perturbs_the_epoch() {
    // The gated counterpart: when the soften stage fails its foothold,
    // the strike stage (and its commit fault) is abandoned and the same
    // commit succeeds untouched.
    let (mut soc, targets) = epoch_soc(1, 400);
    let mut staged = StagedPlan::new()
        .stage("soften", FaultPlan::empty())
        .gated_stage(
            "strike",
            FaultPlan::new(vec![FaultEvent {
                at: Cycle(150),
                kind: FaultKind::EpochCommitFault { stage: 1 },
            }]),
        );
    staged.advance(false); // no foothold -> the strike never fires
    assert!(staged.aborted());
    assert_eq!(staged.take_due(Cycle(10_000)), Vec::new());

    soc.run(200);
    let epoch = soc
        .commit_policy_epoch_from(&epoch_program(1), &targets)
        .expect("no fault was ever attached");
    assert_eq!(epoch, 1);
}

#[test]
fn unmapped_dsl_master_refusal_is_traced_as_an_epoch_abort() {
    // `commit_policy_epoch_from` refuses a program whose DSL master has
    // no firewall mapping. Like every verifier refusal, it counts once
    // and closes the attempt with exactly one `EpochAbort`.
    let compiled = epoch_program(0).compile().expect("boot program compiles");
    let table =
        ConfigMemory::with_policies(compiled.table(0).expect("table compiled").policies.clone())
            .expect("compiled tables are disjoint");
    let mut soc = SocBuilder::new()
        .trace(1 << 10)
        .add_protected_master(Box::new(flood("flood0", 1, 0, 11, "rp.m0")), table)
        .build();
    // Only m0 is mapped; `epoch_program` also declares m1.
    let targets = [(0u8, soc.master_firewall(0).expect("LF present").id())];
    let err = soc
        .commit_policy_epoch_from(&epoch_program(1), &targets)
        .expect_err("an unmapped master must be refused");
    assert!(
        matches!(err, EpochError::UnknownFirewall(FirewallId(1))),
        "{err:?}"
    );
    assert_eq!(soc.policy_epoch(), 0);
    assert_eq!(soc.stats().counter("reconfig.verifier_refusals"), 1);
    let epoch_events: Vec<TraceEvent> = soc
        .tracer()
        .expect("tracing armed")
        .snapshot()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| {
            matches!(
                e,
                TraceEvent::EpochPrepare { .. }
                    | TraceEvent::EpochCommit { .. }
                    | TraceEvent::EpochAbort { .. }
            )
        })
        .collect();
    assert_eq!(
        epoch_events,
        vec![TraceEvent::EpochAbort {
            epoch: 1,
            reason: "verifier"
        }]
    );
}
