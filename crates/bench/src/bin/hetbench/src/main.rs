//! hetbench — the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for the metric glossary, the interaction table and the
//! noise protocol.
//!
//! ```text
//! hetbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! hetbench --check-repeat [--only W] [--seed N] [--seconds S]
//! ```
//!
//! The first form runs one workload (all five, interleaved, without
//! `--workload`) and prints, as the last line of standard output per
//! workload, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (which also writes
//! `target/hetbench/spans.json`). The second form runs the set twice
//! and reports whether the two agree within each metric's bound. Exit
//! code 0 means every correctness check passed (and, for
//! `--check-repeat`, that the sets agree); 1 means one did not; 2 is a
//! usage or I/O error.

mod alloc;
mod json;
mod ladder;
mod metrics;
mod runner;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use runner::WorkloadRun;
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{RepSpec, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where `--trace 1` writes its spans, relative to the working
/// directory.
const SPANS_PATH: &str = "target/hetbench/spans.json";

const USAGE: &str = "usage: hetbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n       \
                     hetbench --check-repeat [--only W] [--seed N] [--seconds S]\n\
                     workloads: moldesign_campaign finetune_campaign ctrl_fnx data_htex overload_fnx";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    /// `--rep W I`: this process is a child running one rep.
    rep: Option<(Workload, u32)>,
    random_steering: bool,
}

impl Args {
    /// The workloads to run: the one named, or all five.
    fn workloads(&self) -> Vec<Workload> {
        self.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check_repeat: false,
        rep: None,
        random_steering: false,
    };
    let mut it = args.iter();
    let workload = |name: Option<&String>| {
        let name = name.ok_or("missing workload name")?;
        Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" | "--only" => out.workload = Some(workload(it.next())?),
            "--seed" => {
                out.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?;
            }
            "--seconds" => {
                out.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                out.trace = match it.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--check-repeat" => out.check_repeat = true,
            "--rep" => {
                let w = workload(it.next())?;
                let index = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--rep needs an index")?;
                out.rep = Some((w, index));
            }
            "--random-steering" => out.random_steering = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Child mode: run one rep and print its line.
fn run_one_rep(args: &Args, workload: Workload, rep: u32, started: Instant) -> ExitCode {
    let spec = RepSpec {
        workload,
        rep,
        seed: args.seed,
        traced: args.trace,
        random_steering: args.random_steering,
        smoke: false,
    };
    let mut spans = Spans::new(rep);
    let root = spans.begin("rep");
    let out = workloads::run_rep(&spec, started, &mut spans);
    spans.end(root);
    println!("{}", runner::rep_to_json(&spec, &out, spans.all()).render());
    ExitCode::SUCCESS
}

/// The result line of one workload.
fn result_line(
    run: &WorkloadRun,
    values: &[(&'static str, f64)],
    defs: &[MetricDef],
    with_name: bool,
) -> Json {
    let metrics = Json::obj(values.iter().zip(defs).map(|((name, value), def)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        )
    }));
    let mut pairs = vec![
        ("correct", Json::Bool(run.problems().is_empty())),
        ("attempted", Json::count(run.attempted().max(1))),
        ("failed", Json::count(run.failed())),
        ("metrics", metrics),
    ];
    if with_name {
        pairs.insert(0, ("workload", Json::Str(run.workload.name().into())));
        pairs.push((
            "sim_fingerprint",
            Json::Str(format!("{:016x}", run.fingerprint())),
        ));
    }
    Json::obj(pairs)
}

fn print_table(runs: &[WorkloadRun]) {
    eprintln!();
    eprint!("{:<22}", "metric");
    for run in runs {
        eprint!(" {:>18}", run.workload.name());
    }
    eprintln!();
    let columns: Vec<Vec<(&'static str, f64)>> = runs.iter().map(metrics::end_to_end).collect();
    for (row, def) in END_TO_END.iter().enumerate() {
        eprint!("{:<22}", format!("{} [{}]", def.name, def.unit));
        for col in &columns {
            eprint!(" {:>18.4}", col[row].1);
        }
        eprintln!();
    }
    eprint!("{:<22}", "sim_fingerprint");
    for run in runs {
        eprint!(" {:>18}", format!("{:016x}", run.fingerprint()));
    }
    eprintln!("\n");
}

fn write_spans(spans: &Spans) -> Result<(), String> {
    let path = std::path::Path::new(SPANS_PATH);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let doc = spans::spans_to_json(spans.all()).render();
    std::fs::write(path, doc + "\n").map_err(|e| format!("cannot write {SPANS_PATH}: {e}"))
}

/// The first form: run, print, check.
fn run_and_report(args: &Args) -> Result<ExitCode, String> {
    let chosen = args.workloads();
    let mut spans = Spans::new(0);
    // With tracing on, half the time goes to the reps and half to the
    // ladder, so a traced run costs about what an untraced one does.
    let rep_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let runs = runner::run_set(&chosen, args.seed, rep_seconds, args.trace, &mut spans)?;
    let ladder = if args.trace {
        let slot = spans.begin("ladder");
        let ladder = ladder::run(args.seconds / 2.0, 1);
        spans.end(slot);
        write_spans(&spans)?;
        ladder
    } else {
        Vec::new()
    };
    print_table(&runs);
    let mut correct = true;
    for run in &runs {
        for problem in run.problems() {
            eprintln!("hetbench: FAILED CHECK: {problem}");
            correct = false;
        }
        let with_name = args.workload.is_none();
        let line = if args.trace {
            result_line(
                run,
                &metrics::per_layer(run, &ladder),
                &PER_LAYER,
                with_name,
            )
        } else {
            result_line(run, &metrics::end_to_end(run), &END_TO_END, with_name)
        };
        println!("{}", line.render());
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// How far `b` is from `a` in the direction that is worse, as a share
/// of `a`.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a != 0.0 {
        delta / a.abs()
    } else {
        delta
    }
}

/// The second form: two sets of the same code and seed must agree.
fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    let chosen = args.workloads();
    let mut spans = Spans::new(0);
    let first = runner::run_set(&chosen, args.seed, args.seconds, false, &mut spans)?;
    print_table(&first);
    let second = runner::run_set(&chosen, args.seed, args.seconds, false, &mut spans)?;
    print_table(&second);

    let mut agree = true;
    println!(
        "{:<20} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "apart", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for problem in a.problems().into_iter().chain(b.problems()) {
            println!("FAILED CHECK: {problem}");
            agree = false;
        }
        if a.fingerprint() != b.fingerprint() {
            println!(
                "{}: sim_fingerprint differs between the two sets",
                a.workload.name()
            );
            agree = false;
        }
        let (va, vb) = (metrics::end_to_end(a), metrics::end_to_end(b));
        for ((def, (_, x)), (_, y)) in END_TO_END.iter().zip(va).zip(vb) {
            // Either set may be the worse one.
            let apart = worse_by(x, y, def.better).max(worse_by(y, x, def.better));
            // Counts made by the program repeat exactly for one seed.
            let exact = matches!(
                def.name,
                "allocs_per_task" | "alloc_bytes_per_task" | "completed_share"
            );
            let ok = if exact { x == y } else { apart <= def.bound };
            agree &= ok;
            println!(
                "{:<20} {:<22} {:>16.4} {:>16.4} {:>8.2}% {:>6.1}%  {}",
                a.workload.name(),
                def.name,
                x,
                y,
                apart * 100.0,
                if exact { 0.0 } else { def.bound * 100.0 },
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.rep {
        Some((workload, rep)) => return run_one_rep(&args, workload, rep, started),
        None if args.check_repeat => check_repeat(&args),
        None => run_and_report(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("hetbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Rep;
    use crate::workloads::RepOutcome;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse_args(&argv(
            "--workload data_htex --seed 42 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::DataHtex));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.check_repeat),
            (42, 15.0, true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, 1, 10.0, false)
        );
        let c = parse_args(&argv("--check-repeat --only ctrl_fnx")).unwrap();
        assert!(c.check_repeat && c.workload == Some(Workload::CtrlFnx));
        let r = parse_args(&argv(
            "--rep overload_fnx 7 --seed 3 --trace 0 --random-steering",
        ))
        .unwrap();
        assert_eq!(r.rep, Some((Workload::OverloadFnx, 7)));
        assert!(r.random_steering);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--frobnicate",
            "--rep ctrl_fnx",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let mut out = RepOutcome {
            host_ns: 2_000_000_000,
            submitted: 10,
            terminal: 10,
            ..Default::default()
        };
        out.timed.ok = 10;
        let run = WorkloadRun {
            workload: Workload::CtrlFnx,
            plain: vec![Rep {
                index: 0,
                out,
                spans: Vec::new(),
            }],
            traced: Vec::new(),
            random: None,
        };
        let line = result_line(&run, &metrics::end_to_end(&run), &END_TO_END, false).render();
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let rate = doc
            .get("metrics")
            .and_then(|m| m.get("tasks_per_host_s"))
            .unwrap();
        assert_eq!(rate.get("value").and_then(Json::as_f64), Some(5.0));
        assert_eq!(rate.get("unit").and_then(Json::as_str), Some("1/s"));

        let named = result_line(&run, &metrics::per_layer(&run, &[]), &PER_LAYER, true);
        assert_eq!(
            named.get("workload").and_then(Json::as_str),
            Some("ctrl_fnx")
        );
        let Some(Json::Obj(layers)) = named.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(worse_by(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worse_by(0.0, 0.5, Better::Lower), 0.5);
    }
}
