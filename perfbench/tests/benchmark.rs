//! The benchmark's own checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use secbus_noc::{run_overload, OverloadConfig};
use secbus_perfbench::bench::{run, Workload, END_TO_END, PER_LAYER};
use secbus_perfbench::nocwl::{drive, NocParams, NocSetup};
use secbus_perfbench::socwl::{outcome, SocInputs, MAX_CYCLES};
use secbus_sim::Json;
use secbus_workload::Pattern;

fn soc_digest(kind: Workload, seed: u64) -> String {
    let inputs = SocInputs::new(kind, seed);
    let mut soc = inputs.build(None, true);
    let cycles = soc.run_until_halt(MAX_CYCLES);
    let o = outcome(&inputs, &soc, cycles);
    assert!(o.errors.is_empty(), "{kind:?} seed {seed}: {:?}", o.errors);
    o.digest
}

fn noc_digest(seed: u64) -> String {
    let p = NocParams::mesh_16x16(seed);
    let o = drive(NocSetup::new(&p, None), &p, None);
    assert!(o.errors.is_empty(), "seed {seed}: {:?}", o.errors);
    o.digest
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for kind in [
        Workload::CasestudyMb32,
        Workload::DdrReadFlood,
        Workload::Fabric64m,
    ] {
        let a = soc_digest(kind, 11);
        assert_eq!(a, soc_digest(kind, 11), "{kind:?}");
        assert_ne!(a, soc_digest(kind, 12), "{kind:?}");
    }
    let a = noc_digest(11);
    assert_eq!(a, noc_digest(11));
    assert_ne!(a, noc_digest(12));
}

#[test]
fn wrapped_and_unwrapped_socs_give_identical_metrics() {
    for kind in [Workload::DdrReadFlood, Workload::Fabric64m] {
        let inputs = SocInputs::new(kind, 5);
        let mut wrapped = inputs.build(None, true);
        let mut bare = inputs.build(None, false);
        assert_eq!(
            wrapped.run_until_halt(MAX_CYCLES),
            bare.run_until_halt(MAX_CYCLES),
            "{kind:?}"
        );
        assert_eq!(wrapped.metrics_json(), bare.metrics_json(), "{kind:?}");
        assert_eq!(wrapped.ticks_executed(), bare.ticks_executed(), "{kind:?}");
        for i in 0..bare.master_count() {
            let (w, b) = (
                wrapped.master_device(i).stats(),
                bare.master_device(i).stats(),
            );
            assert_eq!(
                w.counters().collect::<Vec<_>>(),
                b.counters().collect::<Vec<_>>(),
                "{kind:?} master {i}"
            );
        }
    }
}

#[test]
fn mesh_loop_reproduces_run_overload() {
    // Below the knee (the benchmark's load) and past it, where arrivals
    // are shed and alerted.
    for intensity in [0.02, 0.05] {
        let p = NocParams {
            intensity,
            cycles: 4_000,
            ..NocParams::mesh_16x16(3)
        };
        let ours = drive(NocSetup::new(&p, None), &p, None);
        let theirs = run_overload(&OverloadConfig {
            cols: p.cols,
            rows: p.rows,
            pattern: Pattern::Poisson,
            intensity: p.intensity,
            cycles: p.cycles,
            drain_cycles: p.drain_cycles,
            protected: true,
            node_capacity: p.node_capacity,
            seed: p.seed,
        });
        assert_eq!(ours.offered, theirs.offered, "intensity {intensity}");
        assert_eq!(ours.delivered, theirs.delivered, "intensity {intensity}");
        assert_eq!(ours.alerts, theirs.alerts, "intensity {intensity}");
        assert_eq!(ours.shed, theirs.shed_at_ingress, "intensity {intensity}");
        assert_eq!(
            ours.metrics_json, theirs.metrics_json,
            "intensity {intensity}"
        );
    }
}

#[test]
fn short_runs_of_every_workload_pass_their_gates() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(w, 7, 1.0, trace);
            assert!(
                r.errors.is_empty(),
                "{} trace {trace}: {:?}",
                w.name(),
                r.errors
            );
            assert!(r.attempted > 0, "{}", w.name());
            let json = Json::parse(&r.json(trace)).expect("result line is JSON");
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    // The declared workloads are a subset: ddr_read_flood and fabric_64m
    // run by hand only (see README.md, "Measured spread").
    for w in names("workloads") {
        assert!(Workload::parse(&w).is_some(), "unknown workload {w}");
    }
    let check = |key: &str, table: &[(&str, &str, bool)]| {
        let entries = doc.get(key).and_then(Json::as_arr).expect("array");
        assert_eq!(entries.len(), table.len(), "{key}");
        for (m, (name, unit, lower)) in entries.iter().zip(table) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(*name), "{key}");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
            let better = if *lower { "lower" } else { "higher" };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{name}"
            );
        }
    };
    check("end_to_end", &END_TO_END);
    check("per_layer", &PER_LAYER);
}
