//! `hetflow` — command-line front end for the reproduction.
//!
//! ```text
//! hetflow moldesign [--config parsl|parsl+redis|fnx+globus] [--seed N]
//!                   [--budget-hours H] [--library N]
//! hetflow finetune  [--config ...] [--seed N] [--target N]
//! hetflow noop      [--fabric fnx|htex] [--store none|redis|fs|globus]
//!                   [--size BYTES] [--tasks N]
//! hetflow compare   [--seed N]          # both apps, all three configs
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    reason = "R10 binds libraries, not drivers"
)]

use hetflow::apps::{finetune, moldesign};
use hetflow::prelude::*;
use hetflow::steer::Breakdown;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return;
    };
    let opts = Opts::parse(&args[1..]);
    match cmd.as_str() {
        "moldesign" => cmd_moldesign(&opts),
        "finetune" => cmd_finetune(&opts),
        "noop" => cmd_noop(&opts),
        "compare" => cmd_compare(&opts),
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    println!(
        "hetflow — AI-guided simulation workflows across heterogeneous resources\n\
         \n\
         commands:\n\
         \x20 moldesign   run the molecular-design campaign\n\
         \x20 finetune    run the surrogate fine-tuning campaign\n\
         \x20 noop        run the synthetic no-op latency experiment\n\
         \x20 compare     run both applications on all three configurations\n\
         \n\
         common flags: --config <parsl|parsl+redis|fnx+globus> --seed <N>\n\
         moldesign:    --budget-hours <H> --library <N>\n\
         finetune:     --target <N>\n\
         noop:         --fabric <fnx|htex> --store <none|redis|fs|globus>\n\
         \x20           --size <BYTES> --tasks <N>"
    );
}

struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                eprintln!("expected --flag, got {flag}");
                std::process::exit(2);
            };
            let Some(value) = it.next() else {
                eprintln!("--{name} needs a value");
                std::process::exit(2);
            };
            pairs.push((name.to_owned(), value.clone()));
        }
        Opts { pairs }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{name}: cannot parse {v}");
                std::process::exit(2);
            }),
        }
    }

    fn config(&self) -> WorkflowConfig {
        match self.get("config").unwrap_or("fnx+globus") {
            "parsl" => WorkflowConfig::Parsl,
            "parsl+redis" => WorkflowConfig::ParslRedis,
            "fnx+globus" => WorkflowConfig::FnXGlobus,
            other => {
                eprintln!("unknown --config {other}");
                std::process::exit(2);
            }
        }
    }
}

fn cmd_moldesign(opts: &Opts) {
    let config = opts.config();
    let seed = opts.num("seed", 7u64);
    let hours = opts.num("budget-hours", 6.0f64);
    let library = opts.num("library", 10_000usize);
    let sim = Sim::new();
    let d = deploy(&sim, config, &DeploymentSpec { seed, ..Default::default() }, Tracer::disabled());
    let o = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: library,
            budget: Duration::from_secs_f64(hours * 3600.0),
            seed,
            ..Default::default()
        },
    );
    println!("config       : {}", config.label());
    println!("simulations  : {}", o.simulations);
    println!("found (IP>14): {}", o.found);
    println!(
        "ml makespan  : {:.0} s median over {} rounds ({} steered, {} models fitted)",
        o.ml_makespans.median(),
        o.ml_makespans.len(),
        o.steered_rounds,
        o.models_fitted
    );
    println!("cpu idle     : {:.0} ms median", o.cpu_idle.median() * 1e3);
    println!("virtual time : {}", o.end);
}

fn cmd_finetune(opts: &Opts) {
    let config = opts.config();
    let seed = opts.num("seed", 11u64);
    let target = opts.num("target", 64usize);
    let sim = Sim::new();
    let d = deploy(&sim, config, &DeploymentSpec { seed, ..Default::default() }, Tracer::disabled());
    let o = finetune::run(
        &sim,
        &d,
        FinetuneParams { target_new: target, seed, ..Default::default() },
    );
    println!("config          : {}", config.label());
    println!("new structures  : {}", o.new_structures);
    println!("training rounds : {}", o.training_rounds);
    println!("force rmsd      : {:.3} (was {:.3} before fine-tuning)", o.final_force_rmsd, o.initial_force_rmsd);
    println!("virtual time    : {}", o.end);
}

fn cmd_noop(opts: &Opts) {
    use hetflow_bench::{FabricKind, NoopPipeline, StoreKind};
    let fabric = match opts.get("fabric").unwrap_or("fnx") {
        "fnx" => FabricKind::FnX,
        "htex" => FabricKind::Htex,
        other => {
            eprintln!("unknown --fabric {other}");
            std::process::exit(2);
        }
    };
    let store = match opts.get("store").unwrap_or("none") {
        "none" => StoreKind::None,
        "redis" => StoreKind::Redis,
        "fs" => StoreKind::Fs,
        "globus" => StoreKind::Globus,
        other => {
            eprintln!("unknown --store {other}");
            std::process::exit(2);
        }
    };
    let size = opts.num("size", 1_000_000u64);
    let tasks = opts.num("tasks", 50usize);
    let mut p = NoopPipeline::fig4(store);
    p.fabric = fabric;
    let b = p.run(size, tasks);
    let row = b.median_row();
    println!("fabric {:?}, store {}, {} tasks of {} bytes", fabric, store.label(), tasks, size);
    println!("thinker->server : {:>9.1} ms", row.thinker_to_server_ms);
    println!("serialization   : {:>9.1} ms", row.serialization_ms);
    println!("server->worker  : {:>9.1} ms", row.server_to_worker_ms);
    println!("time on worker  : {:>9.1} ms", row.time_on_worker_ms);
    println!("worker->server  : {:>9.1} ms", row.worker_to_server_ms);
    println!("lifetime        : {:>9.1} ms", row.lifetime_ms);
}

fn cmd_compare(opts: &Opts) {
    let seed = opts.num("seed", 7u64);
    println!("== molecular design (4 node-hours, 6000 candidates) ==");
    println!("{:<12} {:>6} {:>6} {:>12}", "config", "sims", "found", "ml-makespan");
    for config in WorkflowConfig::all() {
        let sim = Sim::new();
        let d = deploy(&sim, config, &DeploymentSpec { seed, ..Default::default() }, Tracer::disabled());
        let o = moldesign::run(
            &sim,
            &d,
            MolDesignParams {
                library_size: 6_000,
                budget: Duration::from_secs(4 * 3600),
                seed,
                ..Default::default()
            },
        );
        println!(
            "{:<12} {:>6} {:>6} {:>10.0} s",
            config.label(),
            o.simulations,
            o.found,
            o.ml_makespans.median()
        );
    }
    println!("\n== surrogate fine-tuning (32 new structures) ==");
    println!("{:<12} {:>10} {:>10} {:>12}", "config", "rmsd-pre", "rmsd-post", "overhead p50");
    for config in WorkflowConfig::all() {
        let sim = Sim::new();
        let d = deploy(&sim, config, &DeploymentSpec { seed, ..Default::default() }, Tracer::disabled());
        let o = finetune::run(
            &sim,
            &d,
            FinetuneParams { target_new: 32, seed, ..Default::default() },
        );
        let b = Breakdown::of(&o.records, None);
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.2} s",
            config.label(),
            o.initial_force_rmsd,
            o.final_force_rmsd,
            b.overhead.median()
        );
    }
}
