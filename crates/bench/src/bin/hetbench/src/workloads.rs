//! The five workloads and the code that runs one rep of one of them.
//!
//! Every full-stack workload drives the program only through
//! `core::deploy` + `DeploymentSpec` and the `ClientQueues` returned by
//! it (`submit`, `get_result`, `resolve`) — or through
//! `apps::{moldesign,finetune}::run` on such a deployment. Sizes are
//! fixed here and are the same on every commit the benchmark judges;
//! only the seeds come from `--seed`.

use crate::alloc::AllocCount;
use crate::spans::{PollTimer, Spans};
use crate::stats::Fnv;
use hetflow_apps::{finetune, moldesign, FinetuneParams, MolDesignParams, SteeringMode};
use hetflow_core::{deploy, Deployment, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::{
    AdmissionConfig, BreakerConfig, ChaosAction, ChaosSpec, HedgeConfig, ReliabilityPolicies,
    ReliabilityPolicy, RetryPolicies, RetryPolicy, TaskError, TaskFn, TaskOutcome, TaskWork,
    STORM_ID_BASE,
};
use hetflow_sim::{time::secs, Dist, OverflowPolicy, RunReport, Sim, SimTime, Symbol, Tracer};
use hetflow_steer::{Breakdown, ClientQueues, Payload, TaskRecord};
use hetflow_store::{Store, StoreStats};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Tasks in flight in the closed-loop workloads.
const IN_FLIGHT: u64 = 32;
/// Share of a synthetic rep's tasks run before the clock starts.
const WARMUP_DIVISOR: u64 = 20;
/// `ctrl_fnx` tasks per rep.
const CTRL_TASKS: u64 = 150_000;
/// `data_htex` tasks per rep, split evenly over its two topics.
const DATA_TASKS: u64 = 120_000;
/// `overload_fnx`: virtual seconds the open loop offers load for.
const OVERLOAD_HORIZON_SECS: u64 = 1_000;
/// `overload_fnx`: CPU workers, each serving one task per virtual
/// second, so saturation is 8 tasks/s.
const OVERLOAD_WORKERS: usize = 8;
/// `overload_fnx`: each of the two generators (normal-priority
/// thinker tasks, low-priority storm tasks) offers the saturation
/// rate, 2x saturation together.
const OVERLOAD_RATE_PER_LANE: u64 = OVERLOAD_WORKERS as u64;
/// What a smoke rep (tests) divides every size by.
const SMOKE_DIVISOR: u64 = 100;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 6 molecular-design campaign.
    MoldesignCampaign,
    /// The Fig. 7 surrogate fine-tuning campaign.
    FinetuneCampaign,
    /// Control plane only: 1 kB no-op tasks through FnX.
    CtrlFnx,
    /// Data plane: 1 MB proxied tasks through HTEX and both stores.
    DataHtex,
    /// FnX at 2x saturation with every reliability arm configured.
    OverloadFnx,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::MoldesignCampaign,
        Workload::FinetuneCampaign,
        Workload::CtrlFnx,
        Workload::DataHtex,
        Workload::OverloadFnx,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MoldesignCampaign => "moldesign_campaign",
            Workload::FinetuneCampaign => "finetune_campaign",
            Workload::CtrlFnx => "ctrl_fnx",
            Workload::DataHtex => "data_htex",
            Workload::OverloadFnx => "overload_fnx",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rep kinds the workload rotates through (rep `i` is kind
    /// `i % variants`): the campaigns cycle the paper's three workflow
    /// configurations, the synthetic workloads have one.
    pub fn variants(self) -> u32 {
        match self {
            Workload::MoldesignCampaign | Workload::FinetuneCampaign => 3,
            _ => 1,
        }
    }

    fn is_campaign(self) -> bool {
        self.variants() > 1
    }
}

/// What to run in one rep.
#[derive(Clone, Copy, Debug)]
pub struct RepSpec {
    /// The workload.
    pub workload: Workload,
    /// Rep index; selects the variant.
    pub rep: u32,
    /// The run's `--seed`.
    pub seed: u64,
    /// Tracing on: `Tracer::digest_only()`, poll timers around every
    /// layer call, and the per-layer counters in the outcome.
    pub traced: bool,
    /// Run `moldesign_campaign` with `SteeringMode::Random` (no ML), the
    /// denominator of `apps.ml_host_share`.
    pub random_steering: bool,
    /// 1/100 size, for tests.
    pub smoke: bool,
}

impl RepSpec {
    /// Seed for everything stochastic in this rep. It depends on the
    /// run seed, the workload and the variant — not on the rep index —
    /// so reps of the same variant are the same simulation and must
    /// agree exactly on `fingerprint` and allocation counts, while a
    /// campaign's three variants sample three different campaigns.
    fn derived_seed(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.seed);
        h.bytes(self.workload.name().as_bytes());
        h.u64(u64::from(self.variant()));
        // Keep clear of the storm id space and of 0.
        (h.finish() >> 16) | 1
    }

    fn variant(&self) -> u32 {
        self.rep % self.workload.variants()
    }

    fn scaled(&self, full: u64) -> u64 {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(1)
        } else {
            full
        }
    }
}

/// Terminal outcomes seen by the thinker side.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// `TaskOutcome::Success`.
    pub ok: u64,
    /// `TaskOutcome::Failed` of any kind.
    pub failed: u64,
    /// ... of which `TaskError::Timeout`.
    pub timed_out: u64,
    /// `TaskOutcome::Shed`.
    pub shed: u64,
    /// Task ids that reached a terminal outcome more than once.
    pub duplicate: u64,
    /// Execution attempts beyond the first.
    pub retries: u64,
    /// Tasks that were hedged at least once.
    pub hedged_tasks: u64,
    /// ... of which the copy on a failover endpoint delivered the
    /// result.
    pub hedge_won: u64,
    seen: Vec<u64>,
}

impl Tally {
    fn with_capacity(ids: u64) -> Self {
        Tally {
            seen: vec![0; (ids as usize).div_ceil(64) + 1],
            ..Default::default()
        }
    }

    /// Terminal outcomes counted so far.
    pub fn total(&self) -> u64 {
        self.ok + self.failed + self.shed
    }

    fn absorb(&mut self, r: &TaskRecord) {
        // Thinker ids count up from zero; storm ids do the same above
        // STORM_ID_BASE. Fold the two ranges into one bitmap.
        let slot = if r.id >= STORM_ID_BASE {
            2 * (r.id - STORM_ID_BASE) + 1
        } else {
            2 * r.id
        } as usize;
        if slot / 64 >= self.seen.len() {
            self.seen.resize(slot / 64 + 1, 0);
        }
        let bit = 1u64 << (slot % 64);
        if self.seen[slot / 64] & bit != 0 {
            self.duplicate += 1;
            return;
        }
        self.seen[slot / 64] |= bit;
        match &r.outcome {
            TaskOutcome::Success => self.ok += 1,
            TaskOutcome::Shed => self.shed += 1,
            TaskOutcome::Failed(e) => {
                self.failed += 1;
                if matches!(e, TaskError::Timeout { .. }) {
                    self.timed_out += 1;
                }
            }
        }
        self.retries += u64::from(r.report.attempts.saturating_sub(1));
        if r.report.hedges > 0 {
            self.hedged_tasks += 1;
            if r.worker.as_str().starts_with("theta-f") {
                self.hedge_won += 1;
            }
        }
    }

    /// The counts gathered since `earlier` was cloned off.
    fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            ok: self.ok - earlier.ok,
            failed: self.failed - earlier.failed,
            timed_out: self.timed_out - earlier.timed_out,
            shed: self.shed - earlier.shed,
            duplicate: self.duplicate - earlier.duplicate,
            retries: self.retries - earlier.retries,
            hedged_tasks: self.hedged_tasks - earlier.hedged_tasks,
            hedge_won: self.hedge_won - earlier.hedge_won,
            seen: Vec::new(),
        }
    }
}

/// Poll timers around each layer boundary the thinker side crosses.
#[derive(Default)]
pub struct Probes {
    /// `ClientQueues::submit`.
    pub submit: PollTimer,
    /// `ClientQueues::get_result`.
    pub get_result: PollTimer,
    /// `CompletedTask::resolve`.
    pub resolve: PollTimer,
    /// The task's compute closure.
    pub compute: PollTimer,
}

impl Probes {
    /// `(host ns, polls)` so far of submit, get_result, resolve and
    /// compute, in that order.
    fn totals(&self) -> [(u64, u64); 4] {
        [&self.submit, &self.get_result, &self.resolve, &self.compute]
            .map(|t| (t.host_ns(), t.polls()))
    }
}

/// Everything one rep measured.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Variant the rep ran (`rep % variants`).
    pub variant: u32,
    /// Tasks submitted over the whole rep, warm-up included.
    pub submitted: u64,
    /// Terminal outcomes over the whole rep, warm-up included.
    pub terminal: u64,
    /// Terminal outcomes inside the timed section.
    pub timed: Tally,
    /// Host ns of the timed section.
    pub host_ns: u64,
    /// Host ns from process start to the start of the timed section.
    pub setup_ns: u64,
    /// Allocator calls and bytes inside the timed section.
    pub alloc: AllocCount,
    /// `VmHWM` right after the timed section, kB (0 = no procfs).
    pub vmhwm_kb: u64,
    /// `VmRSS` after the rep's simulation was dropped minus `VmRSS`
    /// before it was built, kB.
    pub rss_growth_kb: i64,
    /// FNV of virtual end time, polls, timer fires, outcome counts and
    /// campaign results.
    pub fingerprint: u64,
    /// Executor polls inside the timed section.
    pub polls: u64,
    /// Timer fires inside the timed section.
    pub timer_fires: u64,
    /// Actors parked right after `deploy` (workers, servers, watchers).
    pub idle_actors: u64,
    /// Actors still parked when the rep went quiescent.
    pub pending_actors: u64,
    /// Per-layer counters; filled only on a traced rep.
    pub layer: Vec<(String, f64)>,
    /// Violated invariants, empty when the rep is correct.
    pub problems: Vec<String>,
}

impl RepOutcome {
    /// Tasks that count as failed operations: lost, duplicated, failed,
    /// or shed on a workload that configures no shedding. On
    /// `overload_fnx` shed and timed-out tasks are the configured
    /// response to 2x load, not failures.
    pub fn failed_tasks(&self, workload: Workload) -> u64 {
        let lost = self.submitted.saturating_sub(self.terminal);
        let expected_arms = workload == Workload::OverloadFnx;
        lost + self.timed.duplicate
            + if expected_arms {
                self.timed.failed - self.timed.timed_out
            } else {
                self.timed.failed + self.timed.shed
            }
    }
}

/// `field` of `/proc/self/status` in kB; 0 where procfs is missing.
pub fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Runs one rep. `started` is when the process began; `spans` receives
/// `setup.deploy | setup.warmup | run | report` (the caller owns the
/// enclosing `rep` span).
pub fn run_rep(spec: &RepSpec, started: Instant, spans: &mut Spans) -> RepOutcome {
    let rss_before = proc_status_kb("VmRSS");
    let mut out = if spec.workload.is_campaign() {
        run_campaign(spec, started, spans)
    } else {
        run_synthetic(spec, started, spans)
    };
    out.variant = spec.variant();
    out.rss_growth_kb = proc_status_kb("VmRSS") as i64 - rss_before as i64;
    check(spec, &mut out);
    out
}

/// The invariants every rep must hold; violations land in `problems`.
fn check(spec: &RepSpec, out: &mut RepOutcome) {
    let mut bad: Vec<String> = Vec::new();
    if out.submitted != out.terminal {
        bad.push(format!(
            "conservation: {} submitted, {} terminal outcomes",
            out.submitted, out.terminal
        ));
    }
    if out.timed.duplicate > 0 {
        bad.push(format!(
            "{} task ids reached a terminal outcome twice",
            out.timed.duplicate
        ));
    }
    // The campaigns leave their thinker agents parked on the result
    // queues when the budget runs out; the synthetic workloads' drivers
    // all finish, so there the deployment must be exactly as idle as it
    // was before the first task.
    if !spec.workload.is_campaign() && out.pending_actors != out.idle_actors {
        bad.push(format!(
            "{} actors parked at quiescence, {} right after deploy",
            out.pending_actors, out.idle_actors
        ));
    }
    if out.timed.total() == 0 {
        bad.push("no task finished inside the timed section".into());
    }
    if spec.workload == Workload::OverloadFnx {
        if out.timed.shed == 0 || out.timed.ok == 0 {
            bad.push(format!(
                "2x load must shed some and complete some: shed {}, ok {}",
                out.timed.shed, out.timed.ok
            ));
        }
    } else if out.timed.failed + out.timed.shed > 0 {
        bad.push(format!(
            "{} failed and {} shed tasks on a workload that configures neither",
            out.timed.failed, out.timed.shed
        ));
    }
    out.problems.extend(
        bad.into_iter()
            .map(|msg| format!("{}: {msg}", spec.workload.name())),
    );
}

// --- campaigns -------------------------------------------------------------

fn run_campaign(spec: &RepSpec, started: Instant, spans: &mut Spans) -> RepOutcome {
    let seed = spec.derived_seed();
    let config = WorkflowConfig::all()[spec.variant() as usize];
    let deployment = DeploymentSpec {
        seed,
        ..Default::default()
    };
    let tracer = if spec.traced {
        Tracer::digest_only()
    } else {
        Tracer::disabled()
    };
    let steering = if spec.random_steering {
        SteeringMode::Random
    } else {
        SteeringMode::ActiveLearning
    };
    let mol = MolDesignParams {
        library_size: spec.scaled(10_000).max(500) as usize,
        budget: hetflow_core::calibration::tasks::moldesign_budget()
            / if spec.smoke { 12 } else { 1 },
        seed,
        steering,
        ..Default::default()
    };
    let fine = if spec.smoke {
        FinetuneParams {
            pretrain_structures: 40,
            target_new: 8,
            ensemble_size: 2,
            seed,
            ..Default::default()
        }
    } else {
        FinetuneParams {
            seed,
            ..Default::default()
        }
    };

    // Warm-up: a small campaign of the same kind on a deployment of its
    // own, so first-touch costs (interner, allocator arenas, page
    // faults in the numeric kernels) are paid before the clock starts.
    let warm = spans.begin("setup.warmup");
    {
        let sim = Sim::new();
        let d = deploy(&sim, config, &deployment, Tracer::disabled());
        match spec.workload {
            Workload::MoldesignCampaign => {
                let p = MolDesignParams {
                    library_size: 500,
                    budget: Duration::from_secs(1800),
                    ..mol.clone()
                };
                std::hint::black_box(moldesign::run(&sim, &d, p).found);
            }
            _ => {
                let p = FinetuneParams {
                    pretrain_structures: 40,
                    target_new: 4,
                    ensemble_size: 2,
                    ..fine.clone()
                };
                std::hint::black_box(finetune::run(&sim, &d, p).new_structures);
            }
        }
    }
    spans.end(warm);

    let dep = spans.begin("setup.deploy");
    let sim = Sim::new();
    let d = deploy(&sim, config, &deployment, tracer);
    let idle_actors = sim.run().pending_tasks as u64;
    spans.end(dep);
    let stores_before = store_stats(&d);

    let mut out = RepOutcome {
        idle_actors,
        ..Default::default()
    };
    // The campaigns build their task closures inside `apps`, so the
    // narrowest span hetbench can put around application work is the
    // `run` call itself.
    let run = spans.begin("run");
    let apps_run = spans.begin("apps.run");
    out.setup_ns = started.elapsed().as_nanos() as u64;
    let alloc = AllocCount::now();
    let t0 = Instant::now();
    let mut results = Fnv::default();
    let (records, end, apps_layer): (Vec<TaskRecord>, SimTime, Vec<(String, f64)>) = match spec
        .workload
    {
        Workload::MoldesignCampaign => {
            let o = moldesign::run(&sim, &d, mol);
            out.host_ns = t0.elapsed().as_nanos() as u64;
            results.u64(o.found as u64);
            results.u64(o.simulations as u64);
            if o.found == 0 && !spec.smoke && !spec.random_steering {
                out.problems
                    .push("moldesign_campaign: found no molecule".into());
            }
            let layer = vec![
                ("apps.sim_found".to_owned(), o.found as f64),
                (
                    "apps.sim_ml_makespan_s_p50".to_owned(),
                    median_or_zero(&o.ml_makespans),
                ),
                (
                    "apps.sim_cpu_idle_ms_p50".to_owned(),
                    median_or_zero(&o.cpu_idle) * 1e3,
                ),
            ];
            (o.records, o.end, layer)
        }
        _ => {
            let fine_target = fine.target_new;
            let o = finetune::run(&sim, &d, fine);
            out.host_ns = t0.elapsed().as_nanos() as u64;
            results.f64(o.final_force_rmsd);
            results.u64(o.new_structures as u64);
            // Whether fine-tuning lowers the force RMSD is a result
            // of the science, not a law of the simulator: with 64
            // reference structures about one seed in a hundred ends
            // worse than it started. What must hold for every seed
            // is that the campaign reached its target and produced
            // a usable number; the RMSD itself is reported.
            let target = fine_target;
            if o.new_structures < target
                || o.training_rounds == 0
                || !(o.final_force_rmsd.is_finite() && o.final_force_rmsd > 0.0)
            {
                out.problems.push(format!(
                        "finetune_campaign: {} of {target} new structures, {} training rounds, force RMSD {}",
                        o.new_structures, o.training_rounds, o.final_force_rmsd
                    ));
            }
            let layer = vec![("apps.sim_force_rmsd".to_owned(), o.final_force_rmsd)];
            (o.records, o.end, layer)
        }
    };
    out.alloc = alloc.elapsed();
    out.vmhwm_kb = proc_status_kb("VmHWM");
    spans.end(apps_run);
    spans.end(run);

    let report = sim.run();
    let mut tally = Tally::with_capacity(records.len() as u64);
    for r in &records {
        tally.absorb(r);
    }
    out.terminal = tally.total() + tally.duplicate;
    out.submitted = (records.len() as i64 + d.queues.outstanding()).max(0) as u64;
    out.polls = report.polls;
    out.timer_fires = report.timer_fires;
    out.pending_actors = report.pending_tasks as u64;
    out.fingerprint = fingerprint(end, &report, &tally, results);
    if spec.traced {
        let rep = spans.begin("report");
        out.layer = layer_counters(&d, &records, &tally, end, &stores_before);
        out.layer.extend(apps_layer);
        let host_ns_per_task = out.host_ns as f64 / tally.total().max(1) as f64;
        out.layer
            .push(("apps.compute_host_ns_per_task".to_owned(), host_ns_per_task));
        let report_ns = spans.end(rep);
        out.layer
            .push(("steer.report_host_ms".to_owned(), report_ns as f64 / 1e6));
    }
    out.timed = tally;
    out
}

fn median_or_zero(s: &hetflow_sim::Samples) -> f64 {
    if s.is_empty() {
        0.0
    } else {
        s.median()
    }
}

// --- synthetic workloads ---------------------------------------------------

/// One closed-loop or open-loop stream of identical tasks.
#[derive(Clone)]
pub struct Lane {
    /// Topic the tasks are submitted on.
    pub topic: Symbol,
    /// Tasks to run.
    pub tasks: u64,
    /// Tasks in flight (closed loop).
    pub window: u64,
    /// Declared input payload size.
    pub in_bytes: u64,
    /// The shared input value.
    pub value: Rc<dyn Any>,
    /// The compute closure.
    pub compute: TaskFn,
}

fn synthetic_compute(out_bytes: u64, service: Duration, probes: Option<Rc<Probes>>) -> TaskFn {
    // One shared output value: the closure allocates nothing per task,
    // so `allocs_per_task` is the program's own.
    let value: Rc<dyn Any> = Rc::new(());
    let work = move || TaskWork {
        compute_time: service,
        output: Rc::clone(&value),
        output_size: out_bytes,
    };
    match probes {
        None => Rc::new(move |_ctx| work()),
        Some(p) => Rc::new(move |_ctx| p.compute.time_call(&work)),
    }
}

async fn submit_one(q: &ClientQueues, lane: &Lane, probes: Option<&Probes>) {
    let payload = [Payload::shared(Rc::clone(&lane.value), lane.in_bytes)];
    let fut = q.submit(lane.topic, payload, Rc::clone(&lane.compute));
    match probes {
        Some(p) => p.submit.time(fut).await,
        None => fut.await,
    };
}

/// Awaits and resolves one result on `topic`; `false` once the queues
/// have shut down.
async fn receive_one(
    q: &ClientQueues,
    topic: Symbol,
    tally: &RefCell<Tally>,
    probes: Option<&Probes>,
) -> bool {
    let done = match probes {
        Some(p) => p.get_result.time(q.get_result(topic)).await,
        None => q.get_result(topic).await,
    };
    let Some(done) = done else { return false };
    let resolved = match probes {
        Some(p) => p.resolve.time(done.resolve()).await,
        None => done.resolve().await,
    };
    tally.borrow_mut().absorb(&resolved.record);
    true
}

/// Closed loop: `lane.window` tasks in flight, the next one submitted
/// only when a result has been received and resolved.
pub async fn closed_loop(
    q: ClientQueues,
    lane: Lane,
    tally: Rc<RefCell<Tally>>,
    probes: Option<Rc<Probes>>,
) {
    let (mut sent, mut got) = (0u64, 0u64);
    while got < lane.tasks {
        while sent < lane.tasks && sent - got < lane.window {
            submit_one(&q, &lane, probes.as_deref()).await;
            sent += 1;
        }
        if !receive_one(&q, lane.topic, &tally, probes.as_deref()).await {
            return;
        }
        got += 1;
    }
}

fn spawn_closed_loops(
    sim: &Sim,
    q: &ClientQueues,
    lanes: &[Lane],
    tasks_per_lane: u64,
    tally: &Rc<RefCell<Tally>>,
    probes: &Option<Rc<Probes>>,
) {
    for lane in lanes {
        let lane = Lane {
            tasks: tasks_per_lane,
            ..lane.clone()
        };
        sim.spawn_detached(closed_loop(
            q.clone(),
            lane,
            Rc::clone(tally),
            probes.clone(),
        ));
    }
}

/// The `overload_fnx` deployment: every reliability arm configured.
fn overload_spec(seed: u64) -> DeploymentSpec {
    let saturation = OVERLOAD_WORKERS as f64;
    let policy = ReliabilityPolicy {
        breaker: BreakerConfig {
            failure_threshold: 3,
            open_for: Duration::from_secs(20),
            close_after: 1,
            offline_grace: Duration::from_secs(8),
            latency_slo: Duration::ZERO,
        },
        hedge: HedgeConfig {
            quantile: 0.95,
            ..Default::default()
        },
        max_reroutes: 1,
        deadline: Duration::from_secs(120),
        // Buckets are per topic and there are two topics offering
        // load, so each gets half of 1.1x saturation.
        admission: AdmissionConfig {
            rate: 0.55 * saturation,
            burst: saturation,
            max_in_flight: 4 * OVERLOAD_WORKERS,
        },
        ..Default::default()
    };
    DeploymentSpec {
        cpu_workers: OVERLOAD_WORKERS,
        cpu_queue_capacity: 2 * OVERLOAD_WORKERS,
        overflow: OverflowPolicy::ShedLowestPriority,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: policy,
            ..Default::default()
        },
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy {
                timeout: Some(Duration::from_secs(3)),
                ..Default::default()
            },
        ),
        seed,
        ..Default::default()
    }
}

/// The `overload_fnx` fault script. Action 0 is the low-priority half
/// of the offered load, so its ids are `STORM_ID_BASE + i`.
fn overload_chaos(storm_tasks: u64, horizon: f64) -> ChaosSpec {
    ChaosSpec::new(vec![
        ChaosAction::TaskStorm {
            at: SimTime::ZERO,
            tasks: storm_tasks as u32,
            interval: Dist::Constant(1.0 / OVERLOAD_RATE_PER_LANE as f64),
            bytes: 1_000,
            work: Dist::Constant(1.0),
        },
        // The primary Theta endpoint drops off the network a few times
        // (held tasks time out, reroute, and trip the breaker) ...
        ChaosAction::Flap {
            endpoint: 0,
            start: SimTime::from_secs_f64(0.2 * horizon),
            up: Dist::Uniform {
                lo: 0.04 * horizon,
                hi: 0.08 * horizon,
            },
            down: Dist::Uniform {
                lo: 0.01 * horizon,
                hi: 0.03 * horizon,
            },
            cycles: 4,
        },
        // ... once while the failover endpoint is away too, so a
        // rerouted task can time out a second time and fail ...
        ChaosAction::Flap {
            endpoint: 2,
            start: SimTime::from_secs_f64(0.2 * horizon),
            up: Dist::Constant(horizon),
            down: Dist::Constant(0.02 * horizon),
            cycles: 1,
        },
        // ... and its workers run 4x slow for a while (hedges fire).
        ChaosAction::Straggle {
            pool: 0,
            at: SimTime::from_secs_f64(0.7 * horizon),
            duration: secs(0.15 * horizon),
            factor: 4.0,
        },
    ])
}

fn run_synthetic(spec: &RepSpec, started: Instant, spans: &mut Spans) -> RepOutcome {
    let seed = spec.derived_seed();
    let overload = spec.workload == Workload::OverloadFnx;
    let probes = spec.traced.then(|| Rc::new(Probes::default()));
    let tracer = if spec.traced {
        Tracer::digest_only()
    } else {
        Tracer::disabled()
    };
    let value: Rc<dyn Any> = Rc::new(());
    let lane = |topic: &str, in_bytes: u64, out_bytes: u64, service: Duration| Lane {
        topic: Symbol::intern(topic),
        tasks: 0,
        window: 0,
        in_bytes,
        value: Rc::clone(&value),
        compute: synthetic_compute(out_bytes, service, probes.clone()),
    };

    let dep = spans.begin("setup.deploy");
    let sim = Sim::new();
    let (d, lanes, total_tasks) = match spec.workload {
        Workload::CtrlFnx => {
            let d = deploy(
                &sim,
                WorkflowConfig::FnXGlobus,
                &DeploymentSpec {
                    seed,
                    ..Default::default()
                },
                tracer,
            );
            let lanes = vec![Lane {
                window: IN_FLIGHT,
                ..lane("simulate", 1_000, 1_000, Duration::ZERO)
            }];
            (d, lanes, spec.scaled(CTRL_TASKS))
        }
        Workload::DataHtex => {
            let d = deploy(
                &sim,
                WorkflowConfig::ParslRedis,
                &DeploymentSpec {
                    seed,
                    proxy_threshold: Some(0),
                    ..Default::default()
                },
                tracer,
            );
            let lanes = ["simulate", "train"]
                .map(|t| Lane {
                    window: IN_FLIGHT / 2,
                    ..lane(t, 1_000_000, 1_000_000, Duration::ZERO)
                })
                .to_vec();
            (d, lanes, spec.scaled(DATA_TASKS))
        }
        _ => {
            let d = deploy(
                &sim,
                WorkflowConfig::FnXGlobus,
                &overload_spec(seed),
                tracer,
            );
            let horizon = spec.scaled(OVERLOAD_HORIZON_SECS).max(20);
            let per_lane = horizon * OVERLOAD_RATE_PER_LANE;
            let lanes = vec![
                Lane {
                    tasks: per_lane,
                    ..lane("simulate", 1_000, 1_000, Duration::from_secs(1))
                },
                // The storm submits these itself; this lane only
                // receives them.
                Lane {
                    tasks: per_lane,
                    ..lane("noop", 1_000, 0, Duration::ZERO)
                },
            ];
            (d, lanes, 2 * per_lane)
        }
    };
    let idle_actors = sim.run().pending_tasks as u64;
    // Half of the overload is the fault script's low-priority storm.
    let storm_tasks = if overload { total_tasks / 2 } else { 0 };
    if overload {
        // After the idle count: the script's actors are finite and
        // must all be gone again at the end of the rep.
        overload_chaos(storm_tasks, (storm_tasks / OVERLOAD_RATE_PER_LANE) as f64)
            .install(&sim, seed, &d.chaos);
    }
    spans.end(dep);

    let q = d.queues.clone();
    let tally = Rc::new(RefCell::new(Tally::with_capacity(2 * total_tasks)));
    let mut out = RepOutcome {
        idle_actors,
        submitted: total_tasks,
        ..Default::default()
    };

    let warm = spans.begin("setup.warmup");
    let boundary: RunReport;
    if overload {
        let interval = secs(1.0 / OVERLOAD_RATE_PER_LANE as f64);
        let source = lanes[0].clone();
        {
            let (sim2, q2, probes2) = (sim.clone(), q.clone(), probes.clone());
            sim.spawn_detached(async move {
                let mut due = sim2.now();
                for _ in 0..source.tasks {
                    sim2.sleep_until(due).await;
                    // Open loop: each submission runs on its own, so a
                    // slow submit path never delays the next arrival.
                    let (q3, lane, p) = (q2.clone(), source.clone(), probes2.clone());
                    sim2.spawn_detached(async move { submit_one(&q3, &lane, p.as_deref()).await });
                    due += interval;
                }
            });
        }
        for l in &lanes {
            let (q2, tally2, probes2, l) =
                (q.clone(), Rc::clone(&tally), probes.clone(), l.clone());
            sim.spawn_detached(async move {
                for _ in 0..l.tasks {
                    if !receive_one(&q2, l.topic, &tally2, probes2.as_deref()).await {
                        return;
                    }
                }
            });
        }
        let horizon = lanes[0].tasks / OVERLOAD_RATE_PER_LANE;
        boundary = sim.run_until(SimTime::from_secs(horizon / WARMUP_DIVISOR));
    } else {
        let per_lane = total_tasks / lanes.len() as u64;
        let warm_per_lane = per_lane / WARMUP_DIVISOR;
        spawn_closed_loops(&sim, &q, &lanes, warm_per_lane, &tally, &probes);
        boundary = sim.run();
        spawn_closed_loops(&sim, &q, &lanes, per_lane - warm_per_lane, &tally, &probes);
    }
    spans.end(warm);
    let warm_tally = tally.borrow().clone();
    let warm_probes = probes.as_deref().map(Probes::totals);
    let stores_before = store_stats(&d);

    let run = spans.begin("run");
    out.setup_ns = started.elapsed().as_nanos() as u64;
    let alloc = AllocCount::now();
    let t0 = Instant::now();
    let report = sim.run();
    out.host_ns = t0.elapsed().as_nanos() as u64;
    out.alloc = alloc.elapsed();
    out.vmhwm_kb = proc_status_kb("VmHWM");
    spans.end(run);

    let end = sim.now();
    let tally = tally.borrow().clone();
    out.terminal = tally.total() + tally.duplicate;
    out.timed = tally.since(&warm_tally);
    out.polls = report.polls - boundary.polls;
    out.timer_fires = report.timer_fires - boundary.timer_fires;
    out.pending_actors = report.pending_tasks as u64;
    // Storm tasks reach the thinker without having been submitted by
    // it, so they count below zero.
    if q.outstanding() + storm_tasks as i64 != 0 {
        out.problems.push(format!(
            "{}: {} thinker tasks still outstanding at quiescence",
            spec.workload.name(),
            q.outstanding() + storm_tasks as i64
        ));
    }
    out.fingerprint = fingerprint(end, &report, &tally, Fnv::default());

    if let (Some(p), Some(warm)) = (probes.as_deref(), warm_probes) {
        // What the layer calls cost inside the timed section; what is
        // left of `run` is the kernel, the fabric and the actors behind
        // them, which no thinker-side call covers.
        let tasks = out.timed.total().max(1) as f64;
        let mut background = out.host_ns;
        let names = [
            "steer.submit",
            "steer.get_result",
            "steer.resolve",
            "apps.compute",
        ];
        for ((name, (ns, polls)), (warm_ns, warm_polls)) in
            names.into_iter().zip(p.totals()).zip(warm)
        {
            spans.aggregate(run, name, ns - warm_ns, polls - warm_polls);
            out.layer.push((
                format!("{name}_host_ns_per_task"),
                (ns - warm_ns) as f64 / tasks,
            ));
            background = background.saturating_sub(ns - warm_ns);
        }
        out.layer.push((
            "harness.background_host_ns_per_task".to_owned(),
            background as f64 / tasks,
        ));
        let rep = spans.begin("report");
        let records = q.records();
        out.layer.extend(layer_counters(
            &d,
            &records,
            &out.timed,
            end,
            &stores_before,
        ));
        if overload {
            let waits: Vec<f64> = records
                .iter()
                .filter(|r| r.outcome == TaskOutcome::Success)
                .filter_map(|r| {
                    Some(
                        r.timing
                            .worker_started?
                            .duration_since(r.timing.dispatched?),
                    )
                })
                .map(|w| w.as_secs_f64())
                .collect();
            out.layer.push((
                "apps.sim_queue_wait_s_p99".to_owned(),
                crate::stats::percentile(&waits, 0.99),
            ));
            out.layer.push((
                "apps.sim_goodput_per_s".to_owned(),
                tally.ok as f64 / end.as_secs_f64().max(1e-9),
            ));
        }
        let report_ns = spans.end(rep);
        out.layer
            .push(("steer.report_host_ms".to_owned(), report_ns as f64 / 1e6));
    }
    out
}

// --- shared read-outs --------------------------------------------------------

fn stores(d: &Deployment) -> impl Iterator<Item = &Store> {
    d.local_store.iter().chain(d.remote_store.iter())
}

fn store_stats(d: &Deployment) -> Vec<StoreStats> {
    stores(d).map(Store::stats).collect()
}

fn fingerprint(end: SimTime, report: &RunReport, tally: &Tally, results: Fnv) -> u64 {
    let mut h = results;
    h.u64(end.as_nanos());
    h.u64(report.polls);
    h.u64(report.timer_fires);
    h.u64(tally.ok);
    h.u64(tally.failed);
    h.u64(tally.shed);
    h.finish()
}

/// The per-layer counters every workload reports, read from public
/// accessors after the rep went quiescent. `timed` supplies the task
/// count the per-task ratios divide by.
fn layer_counters(
    d: &Deployment,
    records: &[TaskRecord],
    timed: &Tally,
    end: SimTime,
    stores_before: &[StoreStats],
) -> Vec<(String, f64)> {
    let tasks = timed.total().max(1) as f64;
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_owned(), v));

    // store: what moved through the pass-by-reference stores during
    // the timed section.
    let mut delta = StoreStats::default();
    let mut waits = hetflow_sim::Samples::new();
    let mut resident = 0u64;
    for (s, before) in stores(d).zip(stores_before) {
        let now = s.stats();
        delta.puts += now.puts - before.puts;
        delta.gets += now.gets - before.gets;
        delta.bytes_put += now.bytes_put - before.bytes_put;
        delta.local_hits += now.local_hits - before.local_hits;
        delta.remote_waits += now.remote_waits - before.remote_waits;
        delta.evictions += now.evictions - before.evictions;
        waits.extend_from(&s.resolve_waits());
        resident += s.resident_bytes();
    }
    put("store.puts_per_task", delta.puts as f64 / tasks);
    put("store.gets_per_task", delta.gets as f64 / tasks);
    put("store.bytes_put_per_task", delta.bytes_put as f64 / tasks);
    put(
        "store.local_hit_ratio",
        delta.local_hits as f64 / delta.gets.max(1) as f64,
    );
    put(
        "store.remote_waits_per_task",
        delta.remote_waits as f64 / tasks,
    );
    put("store.evictions_per_task", delta.evictions as f64 / tasks);
    put(
        "store.sim_resolve_wait_ms_p50",
        median_or_zero(&waits) * 1e3,
    );
    put("store.resident_mb_at_end", resident as f64 / 1e6);

    // fabric: the Theta pool every workload uses, and the reliability
    // arms.
    put(
        "fabric.worker_sim_utilization",
        d.cpu_pool.busy_gauge().time_average(end) / d.cpu_pool.workers().max(1) as f64,
    );
    put(
        "fabric.worker_sim_idle_gap_ms_p50",
        median_or_zero(&d.cpu_pool.idle_gaps()) * 1e3,
    );
    put("fabric.shed_share", timed.shed as f64 / tasks);
    put("fabric.timeout_share", timed.timed_out as f64 / tasks);
    put(
        "fabric.retries_per_ktask",
        timed.retries as f64 * 1e3 / tasks,
    );
    put(
        "fabric.hedges_per_ktask",
        d.health.hedged() as f64 * 1e3 / tasks,
    );
    put(
        "fabric.reroutes_per_ktask",
        d.health.rerouted() as f64 * 1e3 / tasks,
    );
    put(
        "fabric.hedge_useful_ratio",
        timed.hedge_won as f64 / timed.hedged_tasks.max(1) as f64,
    );
    let endpoints = 2 + d.failover_pools.len();
    put(
        "fabric.breaker_opens",
        (0..endpoints)
            .map(|e| d.health.breaker_generation(e))
            .sum::<u64>() as f64,
    );

    // steer: the paper's life-cycle decomposition, simulated time.
    let b = Breakdown::of(records, None);
    let ms = |s: &hetflow_sim::Samples| median_or_zero(s) * 1e3;
    put(
        "steer.sim_thinker_to_server_ms_p50",
        ms(&b.thinker_to_server),
    );
    put("steer.sim_serialization_ms_p50", ms(&b.serialization));
    put("steer.sim_server_to_worker_ms_p50", ms(&b.server_to_worker));
    put("steer.sim_time_on_worker_ms_p50", ms(&b.time_on_worker));
    put("steer.sim_worker_to_server_ms_p50", ms(&b.worker_to_server));
    put("steer.sim_lifetime_ms_p50", ms(&b.lifetime));
    put("steer.sim_overhead_ms_p50", ms(&b.overhead));
    put("steer.sim_data_wait_ms_p50", ms(&b.data_wait));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, rep: u32, traced: bool) -> RepOutcome {
        let mut spans = Spans::new(rep);
        let spec = RepSpec {
            workload,
            rep,
            seed: 5,
            traced,
            random_steering: false,
            smoke: true,
        };
        run_rep(&spec, Instant::now(), &mut spans)
    }

    #[test]
    fn every_workload_runs_a_correct_smoke_rep() {
        for w in Workload::ALL {
            let out = smoke(w, 0, false);
            assert_eq!(out.problems, Vec::<String>::new(), "{}", w.name());
            assert_eq!(out.failed_tasks(w), 0, "{}", w.name());
            assert!(
                out.timed.total() > 0 && out.host_ns > 0 && out.polls > 0,
                "{}",
                w.name()
            );
            assert!(
                out.layer.is_empty(),
                "{}: counters only on traced reps",
                w.name()
            );
        }
    }

    #[test]
    fn same_seed_reps_agree_on_the_fingerprint_traced_or_not() {
        for w in [Workload::CtrlFnx, Workload::DataHtex, Workload::OverloadFnx] {
            let plain = smoke(w, 0, false);
            let again = smoke(w, 1, false);
            let traced = smoke(w, 2, true);
            assert_eq!(plain.fingerprint, again.fingerprint, "{}", w.name());
            assert_eq!(
                plain.fingerprint,
                traced.fingerprint,
                "{}: tracing must only read",
                w.name()
            );
            assert_eq!(traced.problems, Vec::<String>::new(), "{}", w.name());
        }
        // Campaign reps rotate the three configurations: rep 0 and rep
        // 3 are the same simulation, rep 1 is another.
        let w = Workload::FinetuneCampaign;
        let (r0, r1, r3) = (smoke(w, 0, false), smoke(w, 1, false), smoke(w, 3, false));
        assert_eq!((r0.variant, r1.variant, r3.variant), (0, 1, 0));
        assert_eq!(r0.fingerprint, r3.fingerprint);
        assert_ne!(r0.fingerprint, r1.fingerprint);
    }

    #[test]
    fn traced_smoke_reps_confirm_the_interaction_table() {
        let get = |out: &RepOutcome, name: &str| {
            out.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        let ctrl = smoke(Workload::CtrlFnx, 0, true);
        let data = smoke(Workload::DataHtex, 0, true);
        let over = smoke(Workload::OverloadFnx, 0, true);
        assert_eq!(get(&ctrl, "store.puts_per_task"), Some(0.0));
        assert_eq!(
            get(&data, "store.puts_per_task"),
            Some(2.0),
            "input and result both proxied"
        );
        assert_eq!(get(&ctrl, "fabric.shed_share"), Some(0.0));
        assert_eq!(get(&data, "fabric.shed_share"), Some(0.0));
        assert!(get(&over, "fabric.shed_share").is_some_and(|v| v > 0.0));
        assert_eq!(get(&ctrl, "fabric.hedges_per_ktask"), Some(0.0));
        assert!(get(&ctrl, "steer.submit_host_ns_per_task").is_some_and(|v| v > 0.0));
        assert!(get(&ctrl, "steer.sim_lifetime_ms_p50").is_some_and(|v| v > 0.0));
    }

    #[test]
    fn tally_counts_each_id_once_and_folds_storm_ids() {
        let record = |id: u64, outcome: TaskOutcome| TaskRecord {
            id,
            topic: Symbol::intern("simulate"),
            timing: Default::default(),
            report: Default::default(),
            input_bytes: 0,
            output_bytes: 0,
            thinker_data_wait: Duration::ZERO,
            data_was_local: true,
            site: hetflow_core::platform::THETA,
            worker: Symbol::intern("theta/0"),
            outcome,
        };
        let mut t = Tally::with_capacity(4);
        t.absorb(&record(0, TaskOutcome::Success));
        t.absorb(&record(STORM_ID_BASE, TaskOutcome::Shed));
        t.absorb(&record(
            1,
            TaskOutcome::Failed(TaskError::Timeout {
                after: Duration::ZERO,
            }),
        ));
        t.absorb(&record(1, TaskOutcome::Success));
        t.absorb(&record(10_000, TaskOutcome::Success));
        assert_eq!(
            (t.ok, t.shed, t.failed, t.timed_out, t.duplicate),
            (2, 1, 1, 1, 1)
        );
        assert_eq!(t.total(), 4);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
