//! `repro` — regenerates every table/figure-equivalent result of the paper.
//!
//! ```text
//! repro all               # run E1–E15 at full fidelity
//! repro e5 e9             # run a subset
//! repro --quick all       # ~10× fewer trials (CI smoke)
//! repro --seed 7 e2       # change the master seed
//! repro --list            # list experiments
//! ```
//!
//! Output is Markdown: one section per experiment with its tables and
//! shape checks. Exit code 1 if any shape check fails.

use std::process::ExitCode;

use uuidp_bench::experiments::{registry, Ctx};

fn main() -> ExitCode {
    let mut quick = false;
    let mut seed = Ctx::default().seed;
    let mut selected: Vec<String> = Vec::new();
    let mut list_only = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--list" | "-l" => list_only = true,
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                seed = v.parse().unwrap_or_else(|_| usage("--seed needs a u64"));
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => selected.push(other.to_ascii_lowercase()),
        }
    }

    let experiments = registry();
    if list_only {
        println!("available experiments:");
        for (id, _) in &experiments {
            println!("  {id}");
        }
        return ExitCode::SUCCESS;
    }
    if selected.is_empty() {
        usage("no experiments selected (try `repro all`)");
    }
    let run_all = selected.iter().any(|s| s == "all");
    let ctx = Ctx { quick, seed };

    println!("# Optimal Uncoordinated Unique IDs — reproduction run");
    println!();
    println!(
        "mode: {}, master seed: {seed}",
        if quick { "quick" } else { "full" }
    );
    println!();

    let mut failures = 0usize;
    let mut ran = 0usize;
    for (id, runner) in &experiments {
        if !run_all && !selected.iter().any(|s| s == id) {
            continue;
        }
        ran += 1;
        let start = std::time::Instant::now();
        let report = runner(&ctx);
        let elapsed = start.elapsed();
        print!("{}", report.markdown());
        println!("_({id} completed in {elapsed:.2?})_");
        println!();
        if !report.passed() {
            failures += 1;
            eprintln!("{id}: SHAPE CHECK FAILED");
        }
    }

    if ran == 0 {
        usage("no experiment matched the selection");
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed their shape checks");
        ExitCode::FAILURE
    } else {
        println!("all {ran} experiment(s) passed their shape checks");
        ExitCode::SUCCESS
    }
}

fn print_usage() {
    println!(
        "usage: repro [--quick] [--seed N] [--list] <all | e1 e2 ... e15>\n\
         Regenerates the paper's results; `repro --list` prints the experiment index."
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2)
}
