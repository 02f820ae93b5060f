//! Application 1: active-learning molecular design (§III-A).
//!
//! Finds high-ionization-potential molecules in a candidate library by
//! looping: simulate the most promising candidates (CPU), retrain a
//! surrogate ensemble on all results (GPU), score the full library with
//! every ensemble member (GPU), and reorder the simulation queue by UCB.
//!
//! The science is real: simulation tasks evaluate the library's hidden
//! IP function, training tasks fit actual RFF-ridge models on the
//! accumulated data, and inference outputs are genuine model scores —
//! so the "molecules found vs compute" curves of Fig. 6a *emerge* from
//! how quickly each workflow configuration moves data and instructions.
//! Each is computed when a reorder first reads it: a training task draws
//! its member's bag and feature map, whose transform and solve wait for
//! the first read, and an inference task's scores wait likewise. A round
//! whose reorder lands after the budget, which no agent reads, is never
//! fitted or scored.

use hetflow_chem::MoleculeLibrary;
use hetflow_core::calibration::tasks as cal;
use hetflow_core::{Deployment, UtilizationReport};
use hetflow_fabric::{TaskFn, TaskWork};
use hetflow_ml::{bag_indices, top_k, RffRidge, SurrogateParams, DEFAULT_BAG_FRACTION};
use hetflow_steer::{Payload, TaskRecord, Thinker};
use hetflow_sim::{Samples, Sim, SimRng, SimTime};
use std::cell::{Cell, LazyCell, OnceCell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// Success threshold: a molecule counts as found when its IP exceeds
/// this (paper: IP > 14).
pub const IP_THRESHOLD: f64 = 14.0;

/// UCB exploration weight (paper: mean + std, i.e. κ = 1).
const KAPPA: f64 = 1.0;

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
#[derive(Clone, Debug, PartialEq, Eq)]
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
}

impl Default for MolDesignParams {
    fn default() -> Self {
        MolDesignParams {
            library_size: 20_000,
            budget: cal::moldesign_budget(),
            ensemble_size: 8,
            retrain_after: 16,
            backlog: 0,
            seed: 7,
            steering: SteeringMode::ActiveLearning,
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
    /// `(cumulative simulation node-seconds, molecules found)` curve —
    /// the Fig. 6a series.
    pub found_curve: Vec<(f64, usize)>,
    /// ML-pipeline makespans: retrain requested → queue reordered
    /// (Fig. 6b "ML makespan"), seconds.
    pub ml_makespans: Samples,
    /// ML rounds whose ranking reached the queue before the budget ran
    /// out (at most `ml_makespans.len()`).
    pub steered_rounds: usize,
    /// Ensemble members fitted: those whose scores a reorder read.
    pub models_fitted: usize,
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
    found_curve: RefCell<Vec<(f64, usize)>>,
    ml_makespans: RefCell<Samples>,
    /// Rounds whose ranking reached the queue.
    steered_rounds: Cell<usize>,
    /// Members fitted, counted by the fits themselves.
    models_fitted: Rc<Cell<usize>>,
    params: MolDesignParams,
}

/// Runs the campaign on an already-built deployment; returns when the
/// simulation budget is exhausted and in-flight work has drained.
pub fn run(sim: &Sim, deployment: &Deployment, params: MolDesignParams) -> MolDesignOutcome {
    let lib = Rc::new(MoleculeLibrary::generate(params.library_size, params.seed));
    let rng = SimRng::stream(params.seed, "moldesign");
    let thinker = Thinker::new(sim, &deployment.queues);

    // Initial queue: random order (no model yet).
    let mut initial: Vec<usize> = (0..params.library_size).collect();
    let mut shuffle_rng = rng.substream(0);
    shuffle_rng.shuffle(&mut initial);

    let state = Rc::new(State {
        lib: Rc::clone(&lib),
        queue: RefCell::new(initial),
        dispatched: RefCell::new(IdSet::new()),
        database: RefCell::new(Vec::new()),
        since_retrain: Cell::new(0),
        training_active: Cell::new(false),
        node_time: Cell::new(0.0),
        found: Cell::new(0),
        found_curve: RefCell::new(vec![(0.0, 0)]),
        ml_makespans: RefCell::new(Samples::new()),
        steered_rounds: Cell::new(0),
        models_fitted: Rc::new(Cell::new(0)),
        params: params.clone(),
    });

    thinker.slots().register("simulate", deployment.cpu_pool.workers() + params.backlog);
    let retrain = hetflow_sim::Event::new();

    // --- Agent: simulation dispatcher -----------------------------------
    let (t, st, mut rng1) = (Rc::clone(&thinker), Rc::clone(&state), rng.substream(1));
    thinker.agent(async move {
        // The budget test comes before the slot wait, not after it: the
        // order decides which simulation is the last one launched.
        while st.node_time.get() < st.params.budget.as_secs_f64() {
            t.take_slot("simulate").await;
            let id = {
                let mut queue = st.queue.borrow_mut();
                let dispatched = st.dispatched.borrow();
                loop {
                    let Some(id) = queue.pop() else { break None };
                    if !dispatched.contains(&id) {
                        break Some(id);
                    }
                }
            };
            // An exhausted candidate queue ends the campaign explicitly
            // rather than going quiet.
            let Some(id) = id else { break };
            st.dispatched.borrow_mut().insert(id);
            let duration = cal::moldesign_simulate_duration().sample(&mut rng1);
            let compute = simulate_task(Rc::clone(&st.lib), id, duration);
            let payload = Payload::new(id, cal::MOLDESIGN_SIM_BYTES / 100);
            t.queues().submit("simulate", vec![payload], compute).await;
        }
        t.finish();
    });

    // --- Agent: simulation results ----------------------------------------
    let (st, ev) = (Rc::clone(&state), retrain.clone());
    thinker.result_processor::<(usize, f64, f64)>("simulate", move |result| {
        let (id, ip, node_secs) = *result;
        st.node_time.set(st.node_time.get() + node_secs);
        st.database.borrow_mut().push((id, ip));
        if ip > IP_THRESHOLD {
            st.found.set(st.found.get() + 1);
        }
        st.found_curve.borrow_mut().push((st.node_time.get(), st.found.get()));
        st.since_retrain.set(st.since_retrain.get() + 1);
        if st.params.steering == SteeringMode::ActiveLearning
            && st.since_retrain.get() >= st.params.retrain_after
            && !st.training_active.get()
        {
            st.since_retrain.set(0);
            st.training_active.set(true);
            ev.set();
        }
    });

    // --- Agent: ML pipeline (train ensemble → infer → reorder queue) ----
    let (t, st, sim2, mut rng2) =
        (Rc::clone(&thinker), Rc::clone(&state), sim.clone(), rng.substream(2));
    thinker.event_responder(&retrain, async move || {
        let round_started = sim2.now();
        // One copy per round, shared by every closure and payload.
        let database = Rc::new(st.database.borrow().clone());
        if database.len() < 8 {
            st.training_active.set(false);
            return Some(());
        }
        let queues = t.queues();

        // Train the ensemble: one GPU task per member; the task draws
        // the model, which is fitted when its scores are first read.
        let n = st.params.ensemble_size;
        for member in 0..n {
            let duration = cal::moldesign_train_duration().sample(&mut rng2);
            let member_rng = rng2.substream(1000 + member as u64);
            let member = Member {
                lib: Rc::clone(&st.lib),
                database: Rc::clone(&database),
                fits: Rc::clone(&st.models_fitted),
            };
            let compute = train_task(member, member_rng, duration);
            let payload = Payload::shared(database.clone(), train_payload(&database));
            queues.submit("train", vec![payload], compute).await;
        }
        // The molecule batch is shared by every inference task of the
        // round: proxy it once so later tasks hit the already-transferred
        // copy (the ahead-of-time caching behind §V-D3's sub-100 ms
        // resolves). The per-model weights payload stays per-task.
        let shared_batch = match queues.store_for("infer") {
            Some(store) => {
                #[expect(
                    clippy::expect_used,
                    reason = "every deployment wires the infer store to the thinker's site, so \
                              `Unreachable` here is a wiring bug, not a runtime fault"
                )]
                let key = store
                    .put_raw(Rc::new(()), cal::MOLDESIGN_INFER_BATCH_BYTES, queues.thinker_site())
                    .await
                    .expect("shared batch put");
                Some(hetflow_store::UntypedProxy::new(store, key, cal::MOLDESIGN_INFER_BATCH_BYTES))
            }
            None => None,
        };
        // As each model finishes, immediately launch its inference task
        // (§V-D3: inference begins after the *first* model completes
        // training). A lost member shrinks this round's ensemble instead
        // of aborting it.
        let mut launched = 0usize;
        for _ in 0..n {
            let Some(model) = t.next_value::<Model>("train").await? else { continue };
            let duration = cal::moldesign_infer_duration().sample(&mut rng2);
            let compute = infer_task(Rc::clone(&st.lib), model, duration);
            let mut payloads = vec![Payload::new((), cal::MOLDESIGN_INFER_WEIGHTS_BYTES)];
            payloads.push(match &shared_batch {
                Some(proxy) => Payload::proxied(proxy.clone()),
                None => Payload::new((), cal::MOLDESIGN_INFER_BATCH_BYTES),
            });
            queues.submit("infer", payloads, compute).await;
            launched += 1;
        }
        // Gather the score sets and reorder the queue by UCB, unless the
        // budget ran out meanwhile: then nothing pops the queue again,
        // and the models are never fitted nor the scores computed.
        let mut score_sets: Vec<Rc<Scores>> = Vec::with_capacity(launched);
        for _ in 0..launched {
            score_sets.extend(t.next_value::<Scores>("infer").await?);
        }
        if !score_sets.is_empty() && !t.is_done() {
            reorder_queue(&st, &score_sets);
            st.steered_rounds.set(st.steered_rounds.get() + 1);
        }
        st.ml_makespans.borrow_mut().record((sim2.now() - round_started).as_secs_f64());
        st.training_active.set(false);
        Some(())
    });

    // Drive the simulation until the campaign quiesces.
    sim.run();

    let outcome = MolDesignOutcome {
        found: state.found.get(),
        simulations: state.database.borrow().len(),
        failed: thinker.failed(),
        shed: thinker.shed(),
        found_curve: state.found_curve.borrow().clone(),
        ml_makespans: state.ml_makespans.borrow().clone(),
        steered_rounds: state.steered_rounds.get(),
        models_fitted: state.models_fitted.get(),
        cpu_idle: deployment.cpu_pool.idle_gaps(),
        records: deployment.queues.records(),
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

/// What one member's model is drawn and fitted from.
#[derive(Clone)]
struct Member {
    lib: Rc<MoleculeLibrary>,
    /// The round's training database.
    database: Rc<Vec<(usize, f64)>>,
    /// The campaign's count of fitted members.
    fits: Rc<Cell<usize>>,
}

impl Member {
    /// What a `train` task draws from its member stream, in
    /// `RffRidge::fit`'s order: the bag, then the feature map. The
    /// transform and the solve draw nothing; they wait for the first read.
    fn draw(self, rng: &mut SimRng) -> Model {
        let bag = bag_indices(self.database.len(), DEFAULT_BAG_FRACTION, rng);
        let map = RffRidge::draw(hetflow_chem::N_FEATURES, SurrogateParams::default(), rng);
        LazyCell::new(Box::new(move || {
            let inputs: Vec<&[f64]> =
                bag.iter().map(|&i| self.lib.features(self.database[i].0)).collect();
            let targets: Vec<f64> = bag.iter().map(|&i| self.database[i].1).collect();
            self.fits.set(self.fits.get() + 1);
            #[expect(
                clippy::expect_used,
                reason = "the ridge term keeps the normal matrix positive definite, so the fit \
                          fails only on non-finite training data: an invariant violation, not a \
                          runtime fault"
            )]
            map.solve(&inputs, &targets).expect("surrogate fit failed")
        }))
    }
}

/// One ensemble member: a `train` task's output, fitted when first
/// forced. A round nobody reorders with is never fitted.
type Model = LazyCell<RffRidge, Box<dyn FnOnce() -> RffRidge>>;

fn train_task(member: Member, member_rng: SimRng, duration: f64) -> TaskFn {
    let member_rng = RefCell::new(member_rng);
    Rc::new(move |_ctx| {
        let model = member.clone().draw(&mut member_rng.borrow_mut());
        TaskWork::new(model, cal::MOLDESIGN_TRAIN_BYTES, hetflow_sim::time::secs(duration))
    })
}

/// One member's scores over the library: an inference task's output,
/// computed on the first `get`. A round nobody reorders with is never
/// scored.
struct Scores {
    lib: Rc<MoleculeLibrary>,
    model: Rc<Model>,
    values: OnceCell<Vec<f64>>,
}

impl Scores {
    fn get(&self) -> &[f64] {
        self.values.get_or_init(|| {
            // The library's feature table, scored straight into the vector.
            let mut scores = vec![0.0; self.lib.len()];
            LazyCell::force(&self.model).predict_batch(|i| self.lib.features(i), &mut scores);
            scores
        })
    }
}

fn infer_task(lib: Rc<MoleculeLibrary>, model: Rc<Model>, duration: f64) -> TaskFn {
    Rc::new(move |_ctx| {
        let lib = Rc::clone(&lib);
        let scores = Scores { lib, model: Rc::clone(&model), values: OnceCell::new() };
        TaskWork::new(scores, cal::MOLDESIGN_INFER_OUT_BYTES, hetflow_sim::time::secs(duration))
    })
}

fn train_payload(database: &[(usize, f64)]) -> u64 {
    // Training data payload grows with the database; small next to the
    // 10 MB model, matching §III-A.
    (database.len() as u64) * 16 + 100_000
}

fn reorder_queue(state: &State, score_sets: &[Rc<Scores>]) {
    let score_sets: Vec<&[f64]> = score_sets.iter().map(|s| s.get()).collect();
    let n_lib = state.lib.len();
    let n_models = score_sets.len() as f64;
    let dispatched = state.dispatched.borrow();
    let mut ucb = vec![f64::NEG_INFINITY; n_lib];
    for (i, u) in ucb.iter_mut().enumerate() {
        if dispatched.contains(&i) {
            continue; // already simulated/in flight
        }
        let mut mean = 0.0;
        for s in &score_sets {
            mean += s[i];
        }
        mean /= n_models;
        let mut var = 0.0;
        for s in &score_sets {
            var += (s[i] - mean) * (s[i] - mean);
        }
        var /= n_models;
        *u = mean + KAPPA * var.sqrt();
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
        let rounds = outcome.ml_makespans.len();
        assert!(
            (1..=rounds).contains(&outcome.steered_rounds),
            "{} steered of {rounds} rounds",
            outcome.steered_rounds
        );
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
        let base_rate = lib.ids_above(IP_THRESHOLD).len() as f64
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
        // multiple of the kernel's lane group. Running the tasks fits
        // and scores nothing; the first read does both, and the batch
        // entry point must agree bit for bit with `predict`.
        let lib = Rc::new(MoleculeLibrary::generate(135, 21));
        let database: Vec<(usize, f64)> = (0..40).map(|i| (i * 3, lib.true_ip(i * 3))).collect();
        let fits = Rc::new(Cell::new(0));
        let mut rng = SimRng::from_seed(4);
        let mut ctx =
            hetflow_fabric::TaskCtx { inputs: &[], rng: &mut rng, site: hetflow_store::SiteId(0) };
        let member =
            Member { lib: Rc::clone(&lib), database: Rc::new(database), fits: Rc::clone(&fits) };
        let train = train_task(member, SimRng::from_seed(5), 1.0);
        let model = train(&mut ctx).output.downcast::<Model>().expect("a model");
        let infer = infer_task(Rc::clone(&lib), Rc::clone(&model), 1.0);
        let scores = infer(&mut ctx).output.downcast::<Scores>().expect("a score set");
        assert!(LazyCell::get(&model).is_none(), "running the train task fits nothing");
        assert!(scores.values.get().is_none(), "running the infer task scores nothing");
        let scores = scores.get();
        assert_eq!(fits.get(), 1);
        assert_eq!(scores.len(), lib.len());
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(s.to_bits(), model.predict(lib.features(i)).to_bits(), "molecule {i}");
        }
    }

    #[test]
    fn a_forced_model_is_the_eager_fit_on_the_same_member_stream() {
        let lib = Rc::new(MoleculeLibrary::generate(300, 8));
        let database: Vec<(usize, f64)> = (0..60).map(|i| (i * 5, lib.true_ip(i * 5))).collect();
        let fits = Rc::new(Cell::new(0));
        let member = Member {
            lib: Rc::clone(&lib),
            database: Rc::new(database.clone()),
            fits: Rc::clone(&fits),
        };
        let mut rng = SimRng::from_seed(11);
        let model = member.draw(&mut rng);
        // The eager path the task used to run: bag, then fit.
        let mut eager_rng = SimRng::from_seed(11);
        let bag = bag_indices(database.len(), DEFAULT_BAG_FRACTION, &mut eager_rng);
        let inputs: Vec<&[f64]> = bag.iter().map(|&i| lib.features(database[i].0)).collect();
        let targets: Vec<f64> = bag.iter().map(|&i| database[i].1).collect();
        let eager = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut eager_rng)
            .expect("a fit");
        assert_eq!(format!("{rng:?}"), format!("{eager_rng:?}"), "the member stream's state");
        assert_eq!(fits.get(), 0, "drawing fits nothing");
        // Debug prints every field's shortest round-trip digits: equal
        // strings are equal bits.
        assert_eq!(format!("{:?}", LazyCell::force(&model)), format!("{eager:?}"));
        assert_eq!(format!("{:?}", LazyCell::force(&model)), format!("{eager:?}"));
        assert_eq!(fits.get(), 1, "a model is fitted once");
    }

    #[test]
    fn a_round_that_ends_after_the_budget_is_never_fitted() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &quick_spec(), Tracer::disabled());
        let params = quick_params();
        let outcome = run(&sim, &d, params.clone());
        let rounds = outcome.ml_makespans.len();
        assert!(
            (1..rounds).contains(&outcome.steered_rounds),
            "the last round must end after the budget: {} of {rounds} steered",
            outcome.steered_rounds
        );
        assert_eq!(outcome.failed + outcome.shed, 0, "no member is lost");
        assert_eq!(outcome.models_fitted, outcome.steered_rounds * params.ensemble_size);
    }

    #[test]
    fn found_at_interpolates_curve() {
        let outcome = MolDesignOutcome {
            found: 3,
            simulations: 5,
            failed: 0,
            shed: 0,
            found_curve: vec![(0.0, 0), (100.0, 1), (200.0, 3)],
            ml_makespans: Samples::new(),
            steered_rounds: 0,
            models_fitted: 0,
            cpu_idle: Samples::new(),
            records: vec![],
            end: SimTime::ZERO,
        };
        assert_eq!(outcome.found_at(50.0), 0);
        assert_eq!(outcome.found_at(150.0), 1);
        assert_eq!(outcome.found_at(500.0), 3);
    }
}
