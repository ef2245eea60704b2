//! `uuidp` — uncoordinated unique IDs from the command line.
//!
//! ```text
//! uuidp generate --algorithm cluster --bits 64 --count 5 --format hex
//! uuidp simulate --algorithm cluster --bits 24 --instances 8 --per-instance 512
//! uuidp plan --scheme cluster --budget 1e-6 --instances 1024 --bits 128
//! uuidp diagram --algorithm "bins:3" -m 20 --requests 8
//! uuidp serve --algorithm cluster --bits 64 --shards 4
//! uuidp serve --algorithm cluster --bits 64 --listen 127.0.0.1:7821 --audit-threads 4
//! uuidp stress --algorithm "bins*" --bits 48 --tenants 32 --requests 100000 --count 512
//! uuidp stress --algorithm cluster --trials-small --remote --remote-workers 4
//! uuidp stress --algorithm cluster --trials-small --remote --chaos small --chaos-seed 7
//! uuidp fleet --algorithm cluster --nodes 5 --tenants 20 --requests 20000 --placement skewed
//! uuidp fleet --trials-small --nodes 3 --kill-every 2
//! uuidp fleet --trials-small --chaos small --chaos-seed 7 --kill-every 60
//! uuidp doctor
//! ```

use std::process::ExitCode;

use uuidp_cli::commands::{
    diagram, doctor, fleet, generate, plan, serve, simulate, stress, top, DiagramOpts, FleetOpts,
    GenerateOpts, PlanOpts, ServeOpts, SimulateOpts, StressOpts, TopOpts,
};
use uuidp_cli::IdFormat;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print_usage();
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" | "gen" => run_generate(rest),
        "simulate" | "sim" => run_simulate(rest),
        "plan" => run_plan(rest),
        "diagram" => run_diagram(rest),
        "serve" => run_serve(rest),
        "stress" => run_stress_cmd(rest),
        "fleet" => run_fleet_cmd(rest),
        "top" => run_top_cmd(rest),
        "doctor" => doctor().map_err(|e| e.0),
        "--help" | "-h" | "help" => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "uuidp — uncoordinated unique IDs (PODS 2023 reproduction)\n\
         \n\
         usage:\n\
         \x20 uuidp generate --algorithm SPEC [--bits N=64] [--count N=1] [--seed N] [--format dec|hex|uuid]\n\
         \x20 uuidp simulate --algorithm SPEC --instances N --per-instance D [--bits N=24] [--trials N=20000] [--seed N]\n\
         \x20 uuidp plan     --scheme random|cluster --budget P --instances N [--bits N=128]\n\
         \x20 uuidp diagram  --algorithm SPEC [-m N=20] [--requests N=8] [--seed N]\n\
         \x20 uuidp serve    --algorithm SPEC [--bits N=64] [--shards N=2] [--audit-stripes N=16]\n\
         \x20                [--audit-threads N=1] [--seed N] [--listen ADDR (TCP protocol v2, e.g. 127.0.0.1:7821)]\n\
         \x20                [--metrics (expose the scrape surface; needs --listen)]\n\
         \x20 uuidp stress   --algorithm SPEC [--bits N=48] [--shards N=2] [--tenants N=8] [--requests N=20000]\n\
         \x20                [--count N=256] [--mix uniform|skewed|flood|hunter] [--audit-stripes N=16]\n\
         \x20                [--audit-threads N=1] [--seed N] [--trials-small] [--remote (loopback TCP transport)]\n\
         \x20                [--remote-workers N=1 (lease threads of the one-node fleet --remote runs:\n\
         \x20                 one connection shared, or one each under --chaos)]\n\
         \x20                [--chaos SPEC (fault-injecting proxy; needs --remote)] [--chaos-seed N=0]\n\
         \x20                [--scrape (scrape the node once per window; needs --remote)]\n\
         \x20 uuidp fleet    --algorithm SPEC [--bits N=48] [--nodes N=3] [--tenants N=6] [--requests N=5000]\n\
         \x20                [--count N=128] [--placement uniform|skewed|flood|hunter (alias --mix)] [--shards N=2]\n\
         \x20                [--audit-stripes N=8] [--audit-threads N=1] [--seed N] [--kill-every K (chaos restarts)]\n\
         \x20                [--reservation N=256] [--state-dir DIR] (both apply with --kill-every;\n\
         \x20                 nodes keep no state without it) [--trials-small]\n\
         \x20                [--chaos SPEC (per-node fault proxies)] [--chaos-seed N=0]\n\
         \x20                [--scrape (scrape every node's registry once per window and at the end;\n\
         \x20                 also aggregates windowed time-series + burn-rate alerts into the report)]\n\
         \x20 uuidp top      --connect ADDR[,ADDR...] [--bits N=48]\n\
         \x20                [--interval-ms N=1000] [--windows N=60 (history ring)]\n\
         \x20                [--once (two polls, one JSON snapshot — the CI mode)]\n\
         \x20                live dashboard: ids/s, p50/p99/p999, audit backlog, wakeups,\n\
         \x20                health, firing alerts, sparkline; quit with q + Enter\n\
         \n\
         chaos SPECs: none | small | heavy, each extendable with key:value pairs —\n\
         \x20 refuse/drop/trunc/corrupt (per-mille rates), latency_us, jitter_us, throttle\n\
         \x20 e.g. --chaos \"small,latency_us:200,corrupt:5\" (same --chaos-seed ⇒ same schedule)\n\
         \x20 uuidp doctor\n\
         \n\
         algorithm SPECs: random | cluster | bins:K | cluster* | cluster*:G | bins* | bins*:maxfit | session:S,C"
    );
}

struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, names: &[&str]) -> Option<&'a str> {
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if names.contains(&a.as_str()) {
                return it.next().map(|s| s.as_str());
            }
        }
        None
    }

    fn parse<T: std::str::FromStr>(&self, names: &[&str], default: T) -> Result<T, String> {
        match self.get(names) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for {}", names[0])),
        }
    }

    fn parse_opt<T: std::str::FromStr>(&self, names: &[&str]) -> Result<Option<T>, String> {
        match self.get(names) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{v}` for {}", names[0])),
        }
    }

    fn require(&self, names: &[&str]) -> Result<&'a str, String> {
        self.get(names)
            .ok_or_else(|| format!("missing required flag {}", names[0]))
    }

    /// Boolean presence flag (takes no value).
    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn run_generate(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let opts = GenerateOpts {
        algorithm: f.require(&["--algorithm", "-a"])?.to_string(),
        bits: f.parse(&["--bits", "-b"], 64u32)?,
        count: f.parse(&["--count", "-c"], 1u64)?,
        seed: f.parse_opt(&["--seed", "-s"])?,
        format: IdFormat::parse(f.get(&["--format", "-f"]).unwrap_or("dec")).map_err(|e| e.0)?,
    };
    generate(&opts).map_err(|e| e.0)
}

fn run_simulate(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let opts = SimulateOpts {
        algorithm: f.require(&["--algorithm", "-a"])?.to_string(),
        bits: f.parse(&["--bits", "-b"], 24u32)?,
        instances: f.parse(&["--instances", "-n"], 8usize)?,
        per_instance: f.parse(&["--per-instance", "-d"], 256u128)?,
        trials: f.parse(&["--trials", "-t"], 20_000u64)?,
        seed: f.parse(&["--seed", "-s"], 0xC11u64)?,
    };
    simulate(&opts).map_err(|e| e.0)
}

fn run_plan(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let opts = PlanOpts {
        scheme: f.require(&["--scheme"])?.to_string(),
        budget: f.parse(&["--budget"], 1e-6f64)?,
        instances: f.parse(&["--instances", "-n"], 1024u128)?,
        bits: f.parse(&["--bits", "-b"], 128u32)?,
    };
    plan(&opts).map_err(|e| e.0)
}

fn run_serve(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let opts = ServeOpts {
        algorithm: f.require(&["--algorithm", "-a"])?.to_string(),
        bits: f.parse(&["--bits", "-b"], 64u32)?,
        shards: f.parse(&["--shards"], 2usize)?,
        audit_stripes: f.parse(&["--audit-stripes"], 16usize)?,
        audit_threads: f.parse(&["--audit-threads"], 1usize)?,
        seed: f.parse(&["--seed", "-s"], 0x5EEDu64)?,
        listen: f.get(&["--listen"]).map(str::to_string),
        metrics: f.has("--metrics"),
    };
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut output = std::io::stdout();
    serve(&opts, &mut input, &mut output).map_err(|e| e.0)
}

fn run_stress_cmd(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    // --trials-small is the CI smoke preset; explicit flags still override.
    let small = args.iter().any(|a| a == "--trials-small");
    let preset = StressOpts::trials_small("cluster");
    let defaults = if small {
        preset
    } else {
        StressOpts {
            algorithm: String::new(),
            bits: 48,
            shards: 2,
            tenants: 8,
            requests: 20_000,
            count: 256,
            mix: "uniform".into(),
            audit_stripes: 16,
            audit_threads: 1,
            seed: 0x57E5,
            remote: false,
            remote_workers: 1,
            chaos: None,
            chaos_seed: 0,
            scrape: false,
        }
    };
    let algorithm = match f.get(&["--algorithm", "-a"]) {
        Some(a) => a.to_string(),
        None if small => defaults.algorithm.clone(),
        None => return Err("missing required flag --algorithm".into()),
    };
    let opts = StressOpts {
        algorithm,
        bits: f.parse(&["--bits", "-b"], defaults.bits)?,
        shards: f.parse(&["--shards"], defaults.shards)?,
        tenants: f.parse(&["--tenants", "-n"], defaults.tenants)?,
        requests: f.parse(&["--requests", "-r"], defaults.requests)?,
        count: f.parse(&["--count", "-c"], defaults.count)?,
        mix: f
            .get(&["--mix", "-m"])
            .unwrap_or(defaults.mix.as_str())
            .to_string(),
        audit_stripes: f.parse(&["--audit-stripes"], defaults.audit_stripes)?,
        audit_threads: f.parse(&["--audit-threads"], defaults.audit_threads)?,
        seed: f.parse(&["--seed", "-s"], defaults.seed)?,
        remote: f.has("--remote") || defaults.remote,
        remote_workers: f.parse(&["--remote-workers"], defaults.remote_workers)?,
        chaos: f.get(&["--chaos"]).map(str::to_string),
        chaos_seed: f.parse(&["--chaos-seed"], 0u64)?,
        scrape: f.has("--scrape"),
    };
    stress(&opts).map_err(|e| e.0)
}

fn run_fleet_cmd(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let small = f.has("--trials-small");
    let preset = FleetOpts::trials_small("cluster");
    let defaults = if small {
        preset
    } else {
        FleetOpts {
            algorithm: String::new(),
            requests: 5_000,
            count: 128,
            ..FleetOpts::trials_small("")
        }
    };
    let algorithm = match f.get(&["--algorithm", "-a"]) {
        Some(a) => a.to_string(),
        None if small => defaults.algorithm.clone(),
        None => return Err("missing required flag --algorithm".into()),
    };
    let opts = FleetOpts {
        algorithm,
        bits: f.parse(&["--bits", "-b"], defaults.bits)?,
        nodes: f.parse(&["--nodes"], defaults.nodes)?,
        tenants: f.parse(&["--tenants", "-n"], defaults.tenants)?,
        requests: f.parse(&["--requests", "-r"], defaults.requests)?,
        count: f.parse(&["--count", "-c"], defaults.count)?,
        placement: f
            .get(&["--placement", "--mix", "-m"])
            .unwrap_or(defaults.placement.as_str())
            .to_string(),
        shards: f.parse(&["--shards"], defaults.shards)?,
        audit_stripes: f.parse(&["--audit-stripes"], defaults.audit_stripes)?,
        audit_threads: f.parse(&["--audit-threads"], defaults.audit_threads)?,
        seed: f.parse(&["--seed", "-s"], defaults.seed)?,
        kill_every: f.parse_opt(&["--kill-every"])?,
        reservation: f.parse(&["--reservation"], defaults.reservation)?,
        state_dir: f.get(&["--state-dir"]).map(str::to_string),
        chaos: f.get(&["--chaos"]).map(str::to_string),
        chaos_seed: f.parse(&["--chaos-seed"], 0u64)?,
        scrape: f.has("--scrape"),
    };
    fleet(&opts).map_err(|e| e.0)
}

fn run_top_cmd(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let opts = TopOpts {
        connect: f.require(&["--connect"])?.to_string(),
        bits: f.parse(&["--bits", "-b"], 48u32)?,
        interval_ms: f.parse(&["--interval-ms"], 1000u64)?,
        once: f.has("--once"),
        windows: f.parse(&["--windows"], 60usize)?,
    };
    top(&opts).map_err(|e| e.0)
}

fn run_diagram(args: &[String]) -> Result<String, String> {
    let f = Flags { args };
    let opts = DiagramOpts {
        algorithm: f.require(&["--algorithm", "-a"])?.to_string(),
        m: f.parse(&["-m", "--universe"], 20u128)?,
        requests: f.parse(&["--requests", "-r"], 8u128)?,
        seed: f.parse_opt(&["--seed", "-s"])?,
    };
    diagram(&opts).map_err(|e| e.0)
}
