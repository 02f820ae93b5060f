//! Application 1: active-learning molecular design (§III-A).
//!
//! Finds high-ionization-potential molecules in a candidate library by
//! looping: simulate the most promising candidates (CPU), retrain a
//! surrogate ensemble on all results (GPU), score the full library with
//! every ensemble member (GPU), and reorder the simulation queue by UCB.
//!
//! The science is real: simulation tasks evaluate the library's hidden
//! IP function, training tasks fit actual RFF-ridge models on the
//! accumulated data inside the task closure, and inference outputs are
//! genuine model scores — so the "molecules found vs compute" curves of
//! Fig. 6a *emerge* from how quickly each workflow configuration moves
//! data and instructions.

use crate::degradation::{DegradationPolicy, DegradationState};
use hetflow_chem::{MoleculeLibrary, N_FEATURES};
use hetflow_core::calibration::tasks as cal;
use hetflow_core::{Deployment, UtilizationReport};
use hetflow_fabric::{TaskFn, TaskWork};
use hetflow_ml::{bag_indices, top_k, RffRidge, SurrogateParams, DEFAULT_BAG_FRACTION};
use hetflow_steer::{Payload, TaskRecord, Thinker};
use hetflow_sim::{Samples, Sim, SimRng, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// How simulations are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteeringMode {
    /// The paper's policy: retrain the ensemble, score the library,
    /// reorder the queue by UCB.
    ActiveLearning,
    /// Ablation baseline: never retrain; the queue stays in its random
    /// initial order.
    Random,
}

/// Campaign parameters (defaults are the paper setup scaled ~50×
/// down in library size; durations and data sizes are unscaled).
#[derive(Clone, Debug)]
pub struct MolDesignParams {
    /// Candidate library size (paper: 1 115 321; default scaled).
    pub library_size: usize,
    /// Simulation node-time budget (paper: 6 node-hours).
    pub budget: Duration,
    /// Surrogate ensemble size (paper: 8).
    pub ensemble_size: usize,
    /// New simulation results that trigger a retraining round once the
    /// previous round has finished.
    pub retrain_after: usize,
    /// Success threshold (paper: IP > 14).
    pub ip_threshold: f64,
    /// UCB exploration weight (paper: mean + std, i.e. κ = 1).
    pub kappa: f64,
    /// Extra simulations queued beyond the worker count. The paper's
    /// measured deployment used none — workers idle for the full
    /// notify→decide→dispatch loop between tasks (the Fig. 6b idle
    /// times) — and §V-E1 *recommends* ≥ 1 as an improvement, which the
    /// backlog-sweep ablation quantifies.
    pub backlog: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Steering policy (ablation hook).
    pub steering: SteeringMode,
    /// Overload response: when to swap the DFT-like oracle for the
    /// TTM-like fast estimate. Disabled by default.
    pub degradation: DegradationPolicy,
}

impl Default for MolDesignParams {
    fn default() -> Self {
        MolDesignParams {
            library_size: 20_000,
            budget: cal::moldesign_budget(),
            ensemble_size: 8,
            retrain_after: 16,
            ip_threshold: 14.0,
            kappa: 1.0,
            backlog: 0,
            seed: 7,
            steering: SteeringMode::ActiveLearning,
            degradation: DegradationPolicy::default(),
        }
    }
}

/// Outcome of one molecular-design campaign.
pub struct MolDesignOutcome {
    /// Molecules found with IP above the threshold.
    pub found: usize,
    /// Simulations completed.
    pub simulations: usize,
    /// Tasks (of any topic) that came back failed — nonzero only under
    /// failure injection or outages.
    pub failed: usize,
    /// Tasks (of any topic) overload protection shed before they ran.
    pub shed: usize,
    /// Times the campaign entered degraded fidelity.
    pub degradations: u64,
    /// `(cumulative simulation node-seconds, molecules found)` curve —
    /// the Fig. 6a series.
    pub found_curve: Vec<(f64, usize)>,
    /// ML-pipeline makespans: retrain requested → queue reordered
    /// (Fig. 6b "ML makespan"), seconds.
    pub ml_makespans: Samples,
    /// CPU worker idle gaps between simulation tasks, seconds
    /// (Fig. 6b right panel).
    pub cpu_idle: Samples,
    /// All finished-task records (for Figs. 1 and 5).
    pub records: Vec<TaskRecord>,
    /// Wall-clock (virtual) end of the campaign.
    pub end: SimTime,
}

impl MolDesignOutcome {
    /// Molecules found once at least `node_seconds` of simulation time
    /// was expended.
    pub fn found_at(&self, node_seconds: f64) -> usize {
        self.found_curve
            .iter()
            .take_while(|&&(t, _)| t <= node_seconds)
            .last()
            .map(|&(_, f)| f)
            .unwrap_or(0)
    }

    /// Utilization report (Fig. 1 top panel).
    pub fn utilization(&self) -> UtilizationReport {
        UtilizationReport::from_records(&self.records)
    }
}

/// A set of molecule ids.
#[expect(
    clippy::disallowed_types,
    reason = "membership only (`insert`/`contains`), never iterated, so hash order cannot \
              reach the trace"
)]
type IdSet = std::collections::HashSet<usize>;

struct State {
    lib: Rc<MoleculeLibrary>,
    /// Ranked candidate queue (best last, for O(1) pop).
    queue: RefCell<Vec<usize>>,
    /// Simulated or in-flight molecule ids.
    dispatched: RefCell<IdSet>,
    /// Completed (id, ip) pairs — the training database.
    database: RefCell<Vec<(usize, f64)>>,
    /// Results since the last retrain trigger.
    since_retrain: Cell<usize>,
    /// A retraining round is in flight.
    training_active: Cell<bool>,
    /// Cumulative simulation node-seconds.
    node_time: Cell<f64>,
    /// Molecules found above threshold.
    found: Cell<usize>,
    /// Failed tasks observed (any topic).
    failed: Cell<usize>,
    /// Shed tasks observed (any topic).
    shed: Cell<usize>,
    found_curve: RefCell<Vec<(f64, usize)>>,
    ml_makespans: RefCell<Samples>,
    /// Fidelity tracker: the dispatcher consults it per simulation.
    degradation: Rc<DegradationState>,
    params: MolDesignParams,
}

/// Runs the campaign on an already-built deployment; returns when the
/// simulation budget is exhausted and in-flight work has drained.
pub fn run(sim: &Sim, deployment: &Deployment, params: MolDesignParams) -> MolDesignOutcome {
    let lib = Rc::new(MoleculeLibrary::generate(params.library_size, params.seed));
    let rng = SimRng::stream(params.seed, "moldesign");
    let queues = deployment.queues.clone();
    let thinker = Thinker::new(sim);

    // Initial queue: random order (no model yet).
    let mut initial: Vec<usize> = (0..params.library_size).collect();
    let mut shuffle_rng = rng.substream(0);
    shuffle_rng.shuffle(&mut initial);

    let degradation =
        DegradationState::new(sim, deployment.tracer.clone(), "moldesign", params.degradation);
    if params.degradation.enabled() {
        // Breakers opening on any endpoint are overload pressure too.
        let d = Rc::clone(&degradation);
        deployment.health.on_breaker_change(move |_endpoint, open| d.on_breaker(open));
    }

    let state = Rc::new(State {
        lib: Rc::clone(&lib),
        queue: RefCell::new(initial),
        dispatched: RefCell::new(IdSet::new()),
        database: RefCell::new(Vec::new()),
        since_retrain: Cell::new(0),
        training_active: Cell::new(false),
        node_time: Cell::new(0.0),
        found: Cell::new(0),
        failed: Cell::new(0),
        shed: Cell::new(0),
        found_curve: RefCell::new(vec![(0.0, 0)]),
        ml_makespans: RefCell::new(Samples::new()),
        degradation,
        params: params.clone(),
    });

    let slots = hetflow_sim::Semaphore::new(deployment.cpu_pool.workers() + params.backlog);
    let retrain = hetflow_sim::Event::new();

    // --- Agent: simulation dispatcher -----------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let slots = slots.clone();
        let thinker2 = Rc::clone(&thinker);
        let mut rng = rng.substream(1);
        thinker.agent("simulation-dispatcher", async move {
            loop {
                if state.node_time.get() >= state.params.budget.as_secs_f64() {
                    thinker2.finish();
                    break;
                }
                let permit = slots.acquire().await;
                permit.forget(); // released by the receiver
                let id = {
                    let mut queue = state.queue.borrow_mut();
                    let dispatched = state.dispatched.borrow();
                    loop {
                        let Some(id) = queue.pop() else { break None };
                        if !dispatched.contains(&id) {
                            break Some(id);
                        }
                    }
                };
                let Some(id) = id else {
                    // Candidate queue exhausted before the budget: end
                    // the campaign explicitly rather than going quiet.
                    thinker2.finish();
                    break;
                };
                state.dispatched.borrow_mut().insert(id);
                // Fidelity swap: while degraded, the oracle is the
                // TTM-like fast estimate instead of the DFT-like call.
                let duration = if state.degradation.is_degraded() {
                    cal::moldesign_simulate_fast_duration().sample(&mut rng)
                } else {
                    cal::moldesign_simulate_duration().sample(&mut rng)
                };
                let compute = simulate_task(Rc::clone(&state.lib), id, duration);
                queues
                    .submit(
                        "simulate",
                        vec![Payload::new(id, cal::MOLDESIGN_SIM_BYTES / 100)],
                        compute,
                    )
                    .await;
            }
        });
    }

    // --- Agent: simulation receiver --------------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let slots = slots.clone();
        let retrain = retrain.clone();
        thinker.agent("simulation-receiver", async move {
            loop {
                let Some(done) = queues.get_result("simulate").await else { break };
                let resolved = done.resolve().await;
                slots.add_permits(1);
                if resolved.is_shed() {
                    // Overload protection dropped the task before it
                    // ran: feed the degradation tracker and move on.
                    state.shed.set(state.shed.get() + 1);
                    state.degradation.note_shed();
                    continue;
                }
                if resolved.is_failed() {
                    // The candidate is lost for this campaign: free the
                    // worker slot and keep steering on what did finish.
                    state.failed.set(state.failed.get() + 1);
                    continue;
                }
                state.degradation.note_ok();
                let (id, ip, node_secs) = *resolved.value::<(usize, f64, f64)>();
                state.node_time.set(state.node_time.get() + node_secs);
                state.database.borrow_mut().push((id, ip));
                if ip > state.params.ip_threshold {
                    state.found.set(state.found.get() + 1);
                }
                state
                    .found_curve
                    .borrow_mut()
                    .push((state.node_time.get(), state.found.get()));
                state.since_retrain.set(state.since_retrain.get() + 1);
                if state.params.steering == SteeringMode::ActiveLearning
                    && state.since_retrain.get() >= state.params.retrain_after
                    && !state.training_active.get()
                {
                    state.since_retrain.set(0);
                    state.training_active.set(true);
                    retrain.set();
                }
            }
        });
    }

    // --- Agent: ML pipeline (train ensemble → infer → reorder queue) ----
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let thinker2 = Rc::clone(&thinker);
        let retrain2 = retrain.clone();
        let sim2 = sim.clone();
        let mut rng = rng.substream(2);
        thinker.agent("ml-pipeline", async move {
            loop {
                retrain2.wait().await;
                retrain2.clear();
                if thinker2.is_done() {
                    break;
                }
                let round_started = sim2.now();
                // One copy per round, shared by every closure and payload.
                let database = Rc::new(state.database.borrow().clone());
                if database.len() < 8 {
                    state.training_active.set(false);
                    continue;
                }

                // Train the ensemble: one GPU task per member; the model
                // is actually fitted inside the task.
                let n = state.params.ensemble_size;
                for member in 0..n {
                    let duration = cal::moldesign_train_duration().sample(&mut rng);
                    let compute = train_task(
                        Rc::clone(&state.lib),
                        Rc::clone(&database),
                        rng.substream(1000 + member as u64),
                        duration,
                    );
                    let payload = Payload::shared(database.clone(), train_payload(&database));
                    queues.submit("train", vec![payload], compute).await;
                }
                // The molecule batch is shared by every inference task
                // of the round: proxy it once so later tasks hit the
                // already-transferred copy (the ahead-of-time caching
                // behind §V-D3's sub-100 ms resolves). The per-model
                // weights payload stays per-task.
                let shared_batch = match queues.store_for("infer") {
                    Some(store) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "every deployment wires the infer store to the thinker's \
                                      site, so `Unreachable` here is a wiring bug, not a \
                                      runtime fault"
                        )]
                        let key = store
                            .put_raw(
                                Rc::new(()),
                                cal::MOLDESIGN_INFER_BATCH_BYTES,
                                queues.thinker_site(),
                            )
                            .await
                            .expect("shared batch put");
                        Some(hetflow_store::UntypedProxy::new(
                            store,
                            key,
                            cal::MOLDESIGN_INFER_BATCH_BYTES,
                        ))
                    }
                    None => None,
                };
                // As each model finishes, immediately launch its
                // inference task (§V-D3: inference begins after the
                // *first* model completes training). A failed member
                // shrinks this round's ensemble instead of aborting it.
                let mut launched = 0usize;
                for _ in 0..n {
                    let Some(done) = queues.get_result("train").await else { return };
                    let resolved = done.resolve().await;
                    if resolved.is_shed() {
                        state.shed.set(state.shed.get() + 1);
                        state.degradation.note_shed();
                        continue;
                    }
                    if resolved.is_failed() {
                        state.failed.set(state.failed.get() + 1);
                        continue;
                    }
                    let model: Rc<RffRidge> = resolved.value::<RffRidge>();
                    let duration = cal::moldesign_infer_duration().sample(&mut rng);
                    let compute = infer_task(Rc::clone(&state.lib), model, duration);
                    let mut payloads = vec![Payload::new((), cal::MOLDESIGN_INFER_WEIGHTS_BYTES)];
                    match &shared_batch {
                        Some(proxy) => payloads.push(Payload::proxied(proxy.clone())),
                        None => {
                            payloads.push(Payload::new((), cal::MOLDESIGN_INFER_BATCH_BYTES))
                        }
                    }
                    queues.submit("infer", payloads, compute).await;
                    launched += 1;
                }
                // Gather the score vectors and reorder the queue by UCB.
                let mut score_sets: Vec<Rc<Vec<f64>>> = Vec::with_capacity(launched);
                for _ in 0..launched {
                    let Some(done) = queues.get_result("infer").await else { return };
                    let resolved = done.resolve().await;
                    if resolved.is_shed() {
                        state.shed.set(state.shed.get() + 1);
                        state.degradation.note_shed();
                        continue;
                    }
                    if resolved.is_failed() {
                        state.failed.set(state.failed.get() + 1);
                        continue;
                    }
                    score_sets.push(resolved.value::<Vec<f64>>());
                }
                if !score_sets.is_empty() {
                    reorder_queue(&state, &score_sets);
                }
                state
                    .ml_makespans
                    .borrow_mut()
                    .record((sim2.now() - round_started).as_secs_f64());
                state.training_active.set(false);
            }
        });
    }

    // Drive the simulation until the campaign quiesces.
    sim.run();

    let records = queues.records();
    let outcome = MolDesignOutcome {
        found: state.found.get(),
        simulations: state.database.borrow().len(),
        failed: state.failed.get(),
        shed: state.shed.get(),
        degradations: state.degradation.degradations(),
        found_curve: state.found_curve.borrow().clone(),
        ml_makespans: state.ml_makespans.borrow().clone(),
        cpu_idle: deployment.cpu_pool.idle_gaps(),
        records,
        end: sim.now(),
    };
    outcome
}

fn simulate_task(lib: Rc<MoleculeLibrary>, id: usize, duration: f64) -> TaskFn {
    Rc::new(move |_ctx| {
        let ip = lib.true_ip(id);
        TaskWork::new(
            (id, ip, duration),
            cal::MOLDESIGN_SIM_BYTES,
            hetflow_sim::time::secs(duration),
        )
    })
}

fn train_task(
    lib: Rc<MoleculeLibrary>,
    database: Rc<Vec<(usize, f64)>>,
    member_rng: SimRng,
    duration: f64,
) -> TaskFn {
    let member_rng = RefCell::new(member_rng);
    Rc::new(move |_ctx| {
        let mut member_rng = member_rng.borrow_mut();
        let bag = bag_indices(database.len(), DEFAULT_BAG_FRACTION, &mut member_rng);
        let inputs: Vec<[f64; N_FEATURES]> =
            bag.iter().map(|&i| lib.features(database[i].0)).collect();
        let targets: Vec<f64> = bag.iter().map(|&i| database[i].1).collect();
        #[expect(
            clippy::expect_used,
            reason = "the ridge term keeps the normal matrix positive definite, so the fit \
                      fails only on non-finite training data: an invariant violation, not a \
                      runtime fault"
        )]
        let model = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut member_rng)
            .expect("surrogate fit failed");
        TaskWork::new(model, cal::MOLDESIGN_TRAIN_BYTES, hetflow_sim::time::secs(duration))
    })
}

fn infer_task(lib: Rc<MoleculeLibrary>, model: Rc<RffRidge>, duration: f64) -> TaskFn {
    Rc::new(move |_ctx| {
        // Features are computed as the kernel asks for them (no
        // library-sized table) and scored straight into the output.
        let mut scores = vec![0.0; lib.len()];
        model.predict_batch(|i| lib.features(i), &mut scores);
        TaskWork::new(scores, cal::MOLDESIGN_INFER_OUT_BYTES, hetflow_sim::time::secs(duration))
    })
}

fn train_payload(database: &[(usize, f64)]) -> u64 {
    // Training data payload grows with the database; small next to the
    // 10 MB model, matching §III-A.
    (database.len() as u64) * 16 + 100_000
}

fn reorder_queue(state: &State, score_sets: &[Rc<Vec<f64>>]) {
    let n_lib = state.lib.len();
    let n_models = score_sets.len() as f64;
    let dispatched = state.dispatched.borrow();
    let mut ucb = vec![f64::NEG_INFINITY; n_lib];
    for (i, u) in ucb.iter_mut().enumerate() {
        if dispatched.contains(&i) {
            continue; // already simulated/in flight
        }
        let mut mean = 0.0;
        for s in score_sets {
            mean += s[i];
        }
        mean /= n_models;
        let mut var = 0.0;
        for s in score_sets {
            var += (s[i] - mean) * (s[i] - mean);
        }
        var /= n_models;
        *u = mean + state.params.kappa * var.sqrt();
    }
    // Keep the top candidates, best last (queue pops from the back).
    let keep = n_lib.min(4096);
    let mut best = top_k(&ucb, keep);
    best.retain(|&i| ucb[i] > f64::NEG_INFINITY);
    best.reverse();
    *state.queue.borrow_mut() = best;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
    use hetflow_sim::Tracer;

    fn quick_params() -> MolDesignParams {
        MolDesignParams {
            library_size: 2_000,
            budget: Duration::from_secs(4 * 3600),
            ensemble_size: 4,
            retrain_after: 8,
            ..Default::default()
        }
    }

    fn quick_spec() -> DeploymentSpec {
        DeploymentSpec { cpu_workers: 4, gpu_workers: 8, ..Default::default() }
    }

    #[test]
    fn campaign_completes_and_finds_molecules() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &quick_spec(), Tracer::disabled());
        let outcome = run(&sim, &d, quick_params());
        assert!(outcome.simulations > 100, "ran {} sims", outcome.simulations);
        assert!(outcome.found > 0, "found none");
        assert!(!outcome.ml_makespans.is_empty(), "no ML rounds completed");
        // Node-time budget respected (allow in-flight overshoot).
        let last = outcome.found_curve.last().unwrap().0;
        assert!(last < 4.0 * 3600.0 + 10.0 * 70.0, "node time {last}");
    }

    #[test]
    fn active_learning_beats_random_hit_rate() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &quick_spec(), Tracer::disabled());
        let params = quick_params();
        let lib_seed = params.seed;
        let outcome = run(&sim, &d, params.clone());
        let lib = MoleculeLibrary::generate(params.library_size, lib_seed);
        let base_rate = lib.ids_above(params.ip_threshold).len() as f64
            / params.library_size as f64;
        let hit_rate = outcome.found as f64 / outcome.simulations as f64;
        assert!(
            hit_rate > 3.0 * base_rate,
            "steering must beat random: hit {hit_rate:.4} vs base {base_rate:.4}"
        );
    }

    #[test]
    fn ml_makespan_in_plausible_range() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &quick_spec(), Tracer::disabled());
        let outcome = run(&sim, &d, quick_params());
        let m = outcome.ml_makespans.median();
        // Train ~340 s + infer ~900 s + movement: the paper reports
        // 1565–1828 s across configurations.
        assert!(m > 1000.0 && m < 3000.0, "ml makespan {m}");
    }

    #[test]
    fn deterministic_given_seed() {
        let go = || {
            let sim = Sim::new();
            let d = deploy(&sim, WorkflowConfig::ParslRedis, &quick_spec(), Tracer::disabled());
            let mut p = quick_params();
            p.budget = Duration::from_secs(3600);
            let o = run(&sim, &d, p);
            (o.found, o.simulations, o.end)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn infer_round_scores_equal_per_molecule_predict() {
        // One round as the ML agent runs it — a train task, then an
        // infer task on its model — with a library that is not a
        // multiple of the kernel's row block. The batch entry point
        // must agree bit for bit with `predict`.
        let lib = Rc::new(MoleculeLibrary::generate(135, 21));
        let database: Vec<(usize, f64)> = (0..40).map(|i| (i * 3, lib.true_ip(i * 3))).collect();
        let mut rng = SimRng::from_seed(4);
        let mut ctx =
            hetflow_fabric::TaskCtx { inputs: &[], rng: &mut rng, site: hetflow_store::SiteId(0) };
        let train = train_task(Rc::clone(&lib), Rc::new(database), SimRng::from_seed(5), 1.0);
        let model = train(&mut ctx).output.downcast::<RffRidge>().expect("a model");
        let infer = infer_task(Rc::clone(&lib), Rc::clone(&model), 1.0);
        let scores = infer(&mut ctx).output.downcast::<Vec<f64>>().expect("a score vector");
        assert_eq!(scores.len(), lib.len());
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(s.to_bits(), model.predict(&lib.features(i)).to_bits(), "molecule {i}");
        }
    }

    #[test]
    fn found_at_interpolates_curve() {
        let outcome = MolDesignOutcome {
            found: 3,
            simulations: 5,
            failed: 0,
            shed: 0,
            degradations: 0,
            found_curve: vec![(0.0, 0), (100.0, 1), (200.0, 3)],
            ml_makespans: Samples::new(),
            cpu_idle: Samples::new(),
            records: vec![],
            end: SimTime::ZERO,
        };
        assert_eq!(outcome.found_at(50.0), 0);
        assert_eq!(outcome.found_at(150.0), 1);
        assert_eq!(outcome.found_at(500.0), 3);
    }
}
