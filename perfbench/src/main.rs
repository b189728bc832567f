//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Pins itself to one CPU, keeps freed memory in the heap, prints report
//! lines, then one JSON object as the last line of standard output.
//! Exits 1 when a correctness gate fails and 2 on a usage error.

use std::process::ExitCode;

use secbus_perfbench::bench::{run, Report, Workload};
use secbus_perfbench::measure::{keep_freed_memory, pin_to_one_cpu};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad trace {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };

    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        u8::from(trace)
    );
    // One thread on one CPU: set-up then never waits for a second CPU to
    // wake, which on a shared host can take milliseconds.
    match pin_to_one_cpu() {
        Some(cpu) => println!("host pinned to cpu {cpu}"),
        None => println!("host not pinned: the CPU mask cannot be set"),
    }
    // Episodes reuse the heap the previous one freed, so set-up does not
    // time the kernel's page faults.
    println!("host keeps freed memory: {}", keep_freed_memory());
    let report = run(workload, seed, seconds as f64, trace);
    for line in &report.lines {
        println!("{line}");
    }
    for (name, unit) in Report::table(trace) {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name} = {v} {unit}");
    }
    for e in &report.errors {
        eprintln!("perfbench: gate failed: {e}");
    }
    println!("{}", report.json(trace));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
