//! The runner: every rep of every workload runs as a fresh child
//! process of this binary, one at a time, round-robin across the
//! workloads asked for, so each workload's reps are spread over the
//! whole run and all workloads sample the same mix of host speeds.
//! The parent only waits, parses the one JSON line each child prints,
//! and checks the reps against each other.
//!
//! A fresh process per rep also gives each rep its own `VmHWM`, pays
//! set-up (deploy, warm-up) once per rep so `setup_s` is a median of
//! several, and keeps memory one rep leaves resident from slowing the
//! next.

use crate::alloc::AllocCount;
use crate::json::Json;
use crate::spans::{spans_from_json, spans_to_json, Span, Spans};
use crate::workloads::{RepOutcome, RepSpec, Tally, Workload};
use std::process::{Command, Stdio};

/// One finished rep.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Rep index within its workload.
    pub index: u32,
    /// What it measured.
    pub out: RepOutcome,
    /// Its spans, on the child's own clock.
    pub spans: Vec<Span>,
}

/// All reps of one workload in one run.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Untraced reps — the source of every end-to-end metric.
    pub plain: Vec<Rep>,
    /// One traced rep per variant (only with `--trace 1`).
    pub traced: Vec<Rep>,
    /// `moldesign_campaign` with random steering (only with
    /// `--trace 1`).
    pub random: Option<Rep>,
}

impl WorkloadRun {
    fn new(workload: Workload) -> Self {
        WorkloadRun {
            workload,
            plain: Vec::new(),
            traced: Vec::new(),
            random: None,
        }
    }

    fn timed_secs(&self) -> f64 {
        self.plain.iter().map(|r| r.out.host_ns as f64 / 1e9).sum()
    }

    /// Tasks attempted in the timed sections of the untraced reps.
    pub fn attempted(&self) -> u64 {
        self.plain
            .iter()
            .map(|r| r.out.timed.total() + r.out.submitted.saturating_sub(r.out.terminal))
            .sum()
    }

    /// Tasks that failed (see [`RepOutcome::failed_tasks`]).
    pub fn failed(&self) -> u64 {
        self.plain
            .iter()
            .map(|r| r.out.failed_tasks(self.workload))
            .sum()
    }

    /// Every violated invariant: each rep's own, plus disagreement
    /// between reps that ran the same simulation.
    pub fn problems(&self) -> Vec<String> {
        let every = || self.plain.iter().chain(&self.traced).chain(&self.random);
        let mut bad: Vec<String> = every()
            .flat_map(|r| r.out.problems.iter().cloned())
            .collect();
        let name = self.workload.name();
        for first in self.plain.iter().take(self.workload.variants() as usize) {
            for other in self
                .plain
                .iter()
                .filter(|r| r.out.variant == first.out.variant)
            {
                if other.out.fingerprint != first.out.fingerprint {
                    bad.push(format!(
                        "{name}: reps {} and {} ran the same seed and differ in sim_fingerprint",
                        first.index, other.index
                    ));
                }
                if other.out.alloc != first.out.alloc {
                    bad.push(format!(
                        "{name}: reps {} and {} ran the same seed and differ in allocations ({:?} vs {:?})",
                        first.index, other.index, first.out.alloc, other.out.alloc
                    ));
                }
            }
            for traced in self
                .traced
                .iter()
                .filter(|r| r.out.variant == first.out.variant)
            {
                if traced.out.fingerprint != first.out.fingerprint {
                    bad.push(format!(
                        "{name}: tracing changed sim_fingerprint (rep {})",
                        traced.index
                    ));
                }
            }
        }
        bad
    }

    /// The untraced reps' fingerprints folded into one, in rep order of
    /// the first cycle.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::stats::Fnv::default();
        for r in self.plain.iter().take(self.workload.variants() as usize) {
            h.u64(r.out.fingerprint);
        }
        h.finish()
    }
}

// --- the rep line ------------------------------------------------------------

/// Renders the one line a child prints.
pub fn rep_to_json(spec: &RepSpec, out: &RepOutcome, spans: &[Span]) -> Json {
    let t = &out.timed;
    Json::obj([
        ("workload", Json::Str(spec.workload.name().into())),
        ("rep", Json::count(u64::from(spec.rep))),
        ("variant", Json::count(u64::from(out.variant))),
        ("traced", Json::Bool(spec.traced)),
        ("submitted", Json::count(out.submitted)),
        ("terminal", Json::count(out.terminal)),
        ("ok", Json::count(t.ok)),
        ("failed", Json::count(t.failed)),
        ("timed_out", Json::count(t.timed_out)),
        ("shed", Json::count(t.shed)),
        ("duplicate", Json::count(t.duplicate)),
        ("retries", Json::count(t.retries)),
        ("hedged_tasks", Json::count(t.hedged_tasks)),
        ("hedge_won", Json::count(t.hedge_won)),
        ("host_ns", Json::count(out.host_ns)),
        ("setup_ns", Json::count(out.setup_ns)),
        ("allocs", Json::count(out.alloc.allocs)),
        ("alloc_bytes", Json::count(out.alloc.bytes)),
        ("vmhwm_kb", Json::count(out.vmhwm_kb)),
        ("rss_growth_kb", Json::Num(out.rss_growth_kb as f64)),
        // As text: a 64-bit digest does not fit a JSON number.
        (
            "sim_fingerprint",
            Json::Str(format!("{:016x}", out.fingerprint)),
        ),
        ("polls", Json::count(out.polls)),
        ("timer_fires", Json::count(out.timer_fires)),
        ("idle_actors", Json::count(out.idle_actors)),
        ("pending_actors", Json::count(out.pending_actors)),
        (
            "layer",
            Json::obj(out.layer.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
        ),
        (
            "problems",
            Json::Arr(out.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("spans", spans_to_json(spans)),
    ])
}

/// Parses what [`rep_to_json`] rendered.
pub fn rep_from_json(doc: &Json) -> Result<Rep, String> {
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("rep line: bad or missing {key}"))
    };
    let mut timed = Tally::default();
    timed.ok = num("ok")?;
    timed.failed = num("failed")?;
    timed.timed_out = num("timed_out")?;
    timed.shed = num("shed")?;
    timed.duplicate = num("duplicate")?;
    timed.retries = num("retries")?;
    timed.hedged_tasks = num("hedged_tasks")?;
    timed.hedge_won = num("hedge_won")?;
    let fingerprint = doc
        .get("sim_fingerprint")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("rep line: bad sim_fingerprint")?;
    let layer = match doc.get("layer") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => return Err("rep line: no layer object".into()),
    };
    let problems = doc
        .get("problems")
        .and_then(Json::as_arr)
        .ok_or("rep line: no problems array")?
        .iter()
        .filter_map(|p| p.as_str().map(str::to_owned))
        .collect();
    let out = RepOutcome {
        variant: num("variant")? as u32,
        submitted: num("submitted")?,
        terminal: num("terminal")?,
        timed,
        host_ns: num("host_ns")?,
        setup_ns: num("setup_ns")?,
        alloc: AllocCount {
            allocs: num("allocs")?,
            bytes: num("alloc_bytes")?,
        },
        vmhwm_kb: num("vmhwm_kb")?,
        rss_growth_kb: doc
            .get("rss_growth_kb")
            .and_then(Json::as_f64)
            .ok_or("rep line: no rss_growth_kb")? as i64,
        fingerprint,
        polls: num("polls")?,
        timer_fires: num("timer_fires")?,
        idle_actors: num("idle_actors")?,
        pending_actors: num("pending_actors")?,
        layer,
        problems,
    };
    let spans = spans_from_json(doc.get("spans").ok_or("rep line: no spans")?)?;
    Ok(Rep {
        index: num("rep")? as u32,
        out,
        spans,
    })
}

// --- child processes -----------------------------------------------------------

/// Runs `spec` in a fresh process of this binary and waits for it.
fn spawn_rep(spec: &RepSpec) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", spec.workload.name(), &spec.rep.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }]);
    if spec.random_steering {
        cmd.arg("--random-steering");
    }
    // `output` waits for the child to end; stderr passes through.
    let done = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start rep process: {e}"))?;
    let what = format!("{} rep {}", spec.workload.name(), spec.rep);
    if !done.status.success() {
        return Err(format!("{what}: child exited with {}", done.status));
    }
    let text = String::from_utf8(done.stdout).map_err(|e| format!("{what}: {e}"))?;
    let line = text
        .lines()
        .last()
        .ok_or(format!("{what}: child printed nothing"))?;
    rep_from_json(&Json::parse(line).map_err(|e| format!("{what}: {e}"))?)
}

fn next_rep(run: &WorkloadRun, seed: u64, traced: bool, spans: &mut Spans) -> Result<Rep, String> {
    let index = if traced {
        run.traced.len()
    } else {
        run.plain.len()
    } as u32;
    let spec = RepSpec {
        workload: run.workload,
        rep: index,
        seed,
        traced,
        random_steering: false,
        smoke: false,
    };
    run_child(&spec, spans)
}

fn run_child(spec: &RepSpec, spans: &mut Spans) -> Result<Rep, String> {
    let slot = spans.begin("child");
    let rep = spawn_rep(spec);
    spans.end(slot);
    if let Ok(rep) = &rep {
        spans.adopt(slot, rep.index, &rep.spans);
    }
    rep
}

/// Runs `workloads` interleaved until each has `seconds` of timed
/// section (and a whole number of variant cycles) behind it. With
/// `traced`, every workload then runs one traced rep per variant, and
/// `moldesign_campaign` one rep with random steering.
pub fn run_set(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &mut Spans,
) -> Result<Vec<WorkloadRun>, String> {
    let mut runs: Vec<WorkloadRun> = workloads.iter().map(|&w| WorkloadRun::new(w)).collect();
    loop {
        let mut progressed = false;
        for run in &mut runs {
            let cycle = run.workload.variants() as usize;
            let mid_cycle = run.plain.len() % cycle != 0;
            if run.plain.is_empty() || mid_cycle || run.timed_secs() < seconds {
                let rep = next_rep(run, seed, false, spans)?;
                eprintln!(
                    "hetbench: {:<18} rep {:>2}  {:>8} tasks  {:>7.3} s timed  {:>6.3} s set-up",
                    run.workload.name(),
                    rep.index,
                    rep.out.timed.total(),
                    rep.out.host_ns as f64 / 1e9,
                    rep.out.setup_ns as f64 / 1e9
                );
                run.plain.push(rep);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    if traced {
        while runs
            .iter()
            .any(|r| r.traced.len() < r.workload.variants() as usize)
        {
            for run in &mut runs {
                if run.traced.len() < run.workload.variants() as usize {
                    let rep = next_rep(run, seed, true, spans)?;
                    run.traced.push(rep);
                }
            }
        }
        for run in &mut runs {
            if run.workload == Workload::MoldesignCampaign {
                let spec = RepSpec {
                    workload: run.workload,
                    rep: 0,
                    seed,
                    traced: false,
                    random_steering: true,
                    smoke: false,
                };
                run.random = Some(run_child(&spec, spans)?);
            }
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (RepSpec, RepOutcome, Vec<Span>) {
        let spec = RepSpec {
            workload: Workload::OverloadFnx,
            rep: 4,
            seed: 9,
            traced: true,
            random_steering: false,
            smoke: false,
        };
        let mut out = RepOutcome {
            variant: 0,
            submitted: 16_000,
            terminal: 16_000,
            host_ns: 1_612_345_678,
            setup_ns: 98_765_432,
            alloc: AllocCount {
                allocs: 1_234_567,
                bytes: 987_654_321,
            },
            vmhwm_kb: 45_678,
            rss_growth_kb: -12,
            fingerprint: 0xfedc_ba98_7654_3210,
            polls: 3_000_000,
            timer_fires: 700_000,
            idle_actors: 41,
            pending_actors: 41,
            layer: vec![
                ("fabric.shed_share".into(), 0.437_5),
                ("store.puts_per_task".into(), 0.0),
            ],
            problems: vec!["overload_fnx: \"quoted\" problem".into()],
            ..Default::default()
        };
        out.timed.ok = 8_000;
        out.timed.failed = 150;
        out.timed.timed_out = 150;
        out.timed.shed = 7_050;
        out.timed.hedged_tasks = 30;
        out.timed.hedge_won = 12;
        let mut spans = Spans::new(4);
        let rep = spans.begin("rep");
        let run = spans.begin("run");
        spans.end(run);
        spans.end(rep);
        (spec, out, spans.all().to_vec())
    }

    #[test]
    fn rep_line_round_trips() {
        let (spec, out, spans) = sample();
        let line = rep_to_json(&spec, &out, &spans).render();
        assert!(!line.contains('\n'));
        let back = rep_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.index, 4);
        assert_eq!(back.spans, spans);
        assert_eq!(back.out.fingerprint, out.fingerprint, "all 64 bits survive");
        assert_eq!(back.out.alloc, out.alloc);
        assert_eq!(back.out.rss_growth_kb, -12);
        assert_eq!(back.out.layer, out.layer);
        assert_eq!(back.out.problems, out.problems);
        assert_eq!(
            (
                back.out.timed.ok,
                back.out.timed.shed,
                back.out.timed.timed_out,
                back.out.timed.hedge_won
            ),
            (8_000, 7_050, 150, 12)
        );
        assert_eq!(
            (back.out.host_ns, back.out.setup_ns),
            (out.host_ns, out.setup_ns)
        );
        assert!(rep_from_json(&Json::obj([("rep", Json::count(1))])).is_err());
    }

    #[test]
    fn same_seed_reps_must_agree_exactly() {
        let (_, out, _) = sample();
        let rep = |index: u32, out: &RepOutcome| Rep {
            index,
            out: out.clone(),
            spans: Vec::new(),
        };
        let mut clean = out.clone();
        clean.problems.clear();
        let mut run = WorkloadRun::new(Workload::OverloadFnx);
        run.plain = vec![rep(0, &clean), rep(1, &clean)];
        assert_eq!(run.problems(), Vec::<String>::new());
        assert_eq!(run.attempted(), 2 * 15_200);
        assert_eq!(
            run.failed(),
            0,
            "shed and timed-out tasks are the configured response"
        );

        let mut drifted = clean.clone();
        drifted.alloc.allocs += 1;
        drifted.fingerprint ^= 1;
        run.plain.push(rep(2, &drifted));
        run.traced = vec![rep(0, &drifted)];
        let problems = run.problems();
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("sim_fingerprint") && problems[1].contains("allocations"));
        assert!(problems[2].contains("tracing changed"));

        let mut ctrl = WorkloadRun::new(Workload::CtrlFnx);
        ctrl.plain = vec![rep(0, &clean)];
        assert_eq!(
            ctrl.failed(),
            150 + 7_050,
            "elsewhere failed and shed tasks are failures"
        );
    }
}
