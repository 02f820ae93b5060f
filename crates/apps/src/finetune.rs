//! Application 2: surrogate fine-tuning (§III-B).
//!
//! Produces a machine-learned potential that reproduces reference-level
//! ("DFT") energies and forces for solvated-methane clusters. The loop:
//!
//! * **sample** (CPU): short MD runs *on the current surrogate* propose
//!   new structures; trajectory length ramps 20 → 1000 steps as the
//!   model improves.
//! * **infer** (GPU): ensemble energy predictions over newly sampled
//!   structures re-populate the *uncertainty* pool (highest variance
//!   first); the *audit* pool holds each trajectory's last frame.
//! * **simulate** (CPU): reference-level calculations on structures
//!   drawn alternately from the two pools.
//! * **train** (GPU): refit the ensemble on cheap pre-training labels
//!   plus all reference data after every `retrain_every` new results.
//!   Training data is held as [`DesignBlock`]s — the pre-training set
//!   featurized once per campaign, each reference result once on
//!   arrival — so a refit bags references and only scales and solves.
//!
//! A balancing agent shifts CPU workers between simulation and sampling
//! to hold the audit pool near a target size, as in the paper.

use crate::degradation::{DegradationPolicy, DegradationState};
use hetflow_chem::{
    pretraining_set, run_md, solvated_methane, EnergyModel, MdParams, MorsePes, Structure,
};
use hetflow_core::calibration::tasks as cal;
use hetflow_core::Deployment;
use hetflow_fabric::{TaskFn, TaskWork};
use hetflow_chem::force_rmsd;
use hetflow_ml::{
    bag_indices, DesignBlock, Ensemble, LabelledStructure, PairPotParams, PairPotential,
    RadialBasis, DEFAULT_BAG_FRACTION,
};
use hetflow_steer::{Payload, ResourceCounter, TaskRecord, Thinker};
use hetflow_sim::{Sim, SimRng, SimTime};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Campaign parameters (defaults scale the paper's 1720-pretrain /
/// 500-new-structure run down ~8× so a full campaign simulates in
/// seconds of wall time).
#[derive(Clone, Debug)]
pub struct FinetuneParams {
    /// Cheap (approximate-level, energy-only) pre-training structures
    /// (paper: 1720).
    pub pretrain_structures: usize,
    /// Reference calculations to accumulate before stopping
    /// (paper: 500).
    pub target_new: usize,
    /// Retrain after this many new reference results (paper: 25).
    pub retrain_every: usize,
    /// Ensemble size (paper: 8).
    pub ensemble_size: usize,
    /// Audit-pool size the balancer tries to hold.
    pub audit_target: usize,
    /// Re-populate the uncertainty pool after this many newly sampled
    /// structures (paper: 100).
    pub uncertainty_refresh: usize,
    /// MD steps for the first sampling tasks (paper: 20).
    pub md_steps_start: usize,
    /// MD steps for the last sampling tasks (paper: 1000).
    pub md_steps_end: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Overload response: when to shrink the training ensemble.
    /// Disabled by default.
    pub degradation: DegradationPolicy,
}

impl Default for FinetuneParams {
    fn default() -> Self {
        FinetuneParams {
            pretrain_structures: 220,
            target_new: 64,
            retrain_every: 8,
            ensemble_size: 8,
            audit_target: 8,
            uncertainty_refresh: 12,
            md_steps_start: 20,
            md_steps_end: 1000,
            seed: 11,
            degradation: DegradationPolicy::default(),
        }
    }
}

/// Outcome of one fine-tuning campaign.
pub struct FinetuneOutcome {
    /// Reference calculations accumulated.
    pub new_structures: usize,
    /// Force RMSD of the *final* ensemble on the held-out test set
    /// (Fig. 7a's metric).
    pub final_force_rmsd: f64,
    /// Force RMSD of the ensemble *before* any fine-tuning (the dashed
    /// line in Fig. 7a).
    pub initial_force_rmsd: f64,
    /// Retraining rounds completed.
    pub training_rounds: usize,
    /// Sampling tasks completed.
    pub sampling_tasks: usize,
    /// Tasks (of any topic) overload protection shed before they ran.
    pub shed: usize,
    /// Times the campaign entered degraded fidelity.
    pub degradations: u64,
    /// All finished-task records (Fig. 7b overheads, Fig. 1 traces).
    pub records: Vec<TaskRecord>,
    /// Virtual end time.
    pub end: SimTime,
}

/// The reference-level test set of §III-B: MD trajectories at three
/// temperatures, energies and forces at reference level.
pub fn test_set(seed: u64) -> Vec<Structure> {
    let reference = MorsePes::reference();
    let mut rng = SimRng::stream(seed, "finetune-testset");
    let mut set = Vec::new();
    for (t_idx, temp) in [0.05, 0.15, 0.45].into_iter().enumerate() {
        for i in 0..4 {
            let start = solvated_methane(1000 + 10 * t_idx as u64 + i);
            let traj = run_md(
                &reference,
                &start,
                MdParams { dt: 0.005, steps: 32, init_temp: temp, sample_every: 8 },
                &mut rng,
            );
            set.extend(traj.frames.into_iter().skip(1));
        }
    }
    set
}

/// Mean force RMSD of an ensemble (mean prediction) over a test set,
/// against the reference surface.
pub fn ensemble_force_rmsd(ensemble: &Ensemble<PairPotential>, test: &[Structure]) -> f64 {
    let reference = MorsePes::reference();
    let mut acc = 0.0;
    let mut mean = Vec::new();
    PairPotential::energy_forces_many(ensemble.members(), test, |s, _energies, forces| {
        let (_, truth) = reference.energy_forces(s);
        // Mean force over members, member by member.
        mean.clear();
        mean.resize(s.n_atoms(), [0.0f64; 3]);
        for f in forces.chunks_exact(mean.len()) {
            for (acc_f, f) in mean.iter_mut().zip(f) {
                for k in 0..3 {
                    acc_f[k] += f[k] / ensemble.len() as f64;
                }
            }
        }
        acc += force_rmsd(&truth, &mean);
    });
    acc / test.len() as f64
}

/// The campaign's one basis — every fit gets a clone, so an ensemble's
/// members can share its evaluation — and the cheap pre-training data
/// featurized in it, both built once per campaign.
struct Pretraining {
    basis: RadialBasis,
    blocks: Vec<DesignBlock>,
}

struct State {
    pretrain: Rc<Pretraining>,
    /// Accumulated reference-level data, each result featurized when it
    /// arrives and shared with every later round's snapshot.
    reference_data: RefCell<Vec<Rc<DesignBlock>>>,
    /// Audit pool: last frames of recent trajectories.
    audit: RefCell<VecDeque<Structure>>,
    /// Uncertainty pool: structures ranked by ensemble variance.
    uncertain: RefCell<VecDeque<Structure>>,
    /// Recently sampled structures awaiting uncertainty scoring.
    fresh_samples: RefCell<Vec<Structure>>,
    /// Current ensemble (updated after each training round).
    ensemble: RefCell<Rc<Ensemble<PairPotential>>>,
    /// Results since last retrain.
    since_retrain: Cell<usize>,
    training_active: Cell<bool>,
    inference_active: Cell<bool>,
    rounds: Cell<usize>,
    samples_done: Cell<usize>,
    new_count: Cell<usize>,
    alternate: Cell<bool>,
    /// Shed tasks observed (any topic).
    shed: Cell<usize>,
    /// Fidelity tracker: the trainer consults it per round.
    degradation: Rc<DegradationState>,
    params: FinetuneParams,
}

/// The pre-training data as design blocks: cheap approximate-level
/// energies, plus a few approximate force labels that fix the force gauge.
fn pretraining_blocks(params: &FinetuneParams) -> Pretraining {
    let approx = MorsePes::approx();
    let basis = RadialBasis::default_for_clusters();
    let block = |s: &Structure, with_forces| {
        DesignBlock::new(&LabelledStructure::from_model(s, &approx, with_forces), &basis)
    };
    let mut blocks: Vec<DesignBlock> = pretraining_set(params.pretrain_structures, params.seed)
        .iter()
        .map(|s| block(s, false))
        .collect();
    blocks.extend(pretraining_set(6, params.seed ^ 0xF0).iter().map(|s| block(s, true)));
    Pretraining { basis, blocks }
}

/// Trains the initial ensemble (pre-training data plus a handful of
/// approximate-level force seeds) — what exists before fine-tuning.
pub fn initial_ensemble(params: &FinetuneParams) -> Ensemble<PairPotential> {
    initial_ensemble_on(&pretraining_blocks(params), params)
}

fn initial_ensemble_on(pretrain: &Pretraining, params: &FinetuneParams) -> Ensemble<PairPotential> {
    let rng = SimRng::stream(params.seed, "initial-ensemble");
    Ensemble::fit(params.ensemble_size, &rng, |_i, mut member_rng| {
        fit_member(pretrain, &[], &mut member_rng)
    })
}

#[expect(
    clippy::expect_used,
    reason = "the ridge term keeps the normal matrix positive definite, so the fit fails only \
              on non-finite training data: an invariant violation, not a runtime fault"
)]
fn fit_member(
    pretrain: &Pretraining,
    reference: &[Rc<DesignBlock>],
    rng: &mut SimRng,
) -> PairPotential {
    let bag = bag_indices(pretrain.blocks.len(), DEFAULT_BAG_FRACTION, rng);
    let mut data: Vec<&DesignBlock> = bag.into_iter().map(|i| &pretrain.blocks[i]).collect();
    if !reference.is_empty() {
        let bag = bag_indices(reference.len(), DEFAULT_BAG_FRACTION, rng);
        data.extend(bag.into_iter().map(|i| &*reference[i]));
    }
    PairPotential::fit_blocks(
        &data,
        pretrain.basis.clone(),
        // Up-weight the scarce reference forces so fine-tuning bites.
        PairPotParams { force_weight: 8.0, ..Default::default() },
    )
    .expect("pair potential fit failed")
}

/// Runs the fine-tuning campaign on a deployment.
pub fn run(sim: &Sim, deployment: &Deployment, params: FinetuneParams) -> FinetuneOutcome {
    let rng = SimRng::stream(params.seed, "finetune");
    let queues = deployment.queues.clone();
    let thinker = Thinker::new(sim);

    let pretrain = Rc::new(pretraining_blocks(&params));
    let initial = Rc::new(initial_ensemble_on(&pretrain, &params));
    let test = test_set(params.seed);
    let initial_rmsd = ensemble_force_rmsd(&initial, &test);

    // Seed the audit pool with perturbed starting structures.
    let seed_structures: VecDeque<Structure> = (0..params.audit_target)
        .map(|i| solvated_methane(params.seed ^ (200 + i as u64)))
        .collect();

    let degradation =
        DegradationState::new(sim, deployment.tracer.clone(), "finetune", params.degradation);
    if params.degradation.enabled() {
        let d = Rc::clone(&degradation);
        deployment.health.on_breaker_change(move |_endpoint, open| d.on_breaker(open));
    }

    let state = Rc::new(State {
        pretrain,
        reference_data: RefCell::new(Vec::new()),
        audit: RefCell::new(seed_structures),
        uncertain: RefCell::new(VecDeque::new()),
        fresh_samples: RefCell::new(Vec::new()),
        ensemble: RefCell::new(initial),
        since_retrain: Cell::new(0),
        training_active: Cell::new(false),
        inference_active: Cell::new(false),
        rounds: Cell::new(0),
        samples_done: Cell::new(0),
        new_count: Cell::new(0),
        alternate: Cell::new(false),
        shed: Cell::new(0),
        degradation,
        params: params.clone(),
    });

    // CPU workers split between simulation and sampling.
    let counter = ResourceCounter::new();
    let cpu = deployment.cpu_pool.workers();
    let sim_share = (cpu / 2).max(1);
    counter.register("simulate", sim_share);
    counter.register("sample", cpu.saturating_sub(sim_share).max(1));

    // Breaker → allocator: while the primary CPU endpoint's circuit is
    // open its slots cannot make progress, so flag both CPU pools
    // degraded and let the balancer hold still until it closes again.
    {
        let counter = counter.clone();
        deployment.health.on_breaker_change(move |endpoint, open| {
            if endpoint == 0 {
                counter.set_degraded("simulate", open);
                counter.set_degraded("sample", open);
            }
        });
    }

    let retrain = hetflow_sim::Event::new();
    let score = hetflow_sim::Event::new();

    // --- Agent: sampler ---------------------------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let counter = counter.clone();
        let thinker2 = Rc::clone(&thinker);
        let mut rng = rng.substream(1);
        let sim2 = sim.clone();
        thinker.agent("sampler", async move {
            let mut task_no = 0u64;
            loop {
                if thinker2.is_done() {
                    break;
                }
                // Maintain — don't overflow — the audit pool (§III-B:
                // sampling replenishes what simulation consumes).
                if state.audit.borrow().len() >= 2 * state.params.audit_target {
                    sim2.sleep(hetflow_sim::time::secs(30.0)).await;
                    continue;
                }
                let permit = counter.acquire("sample").await;
                permit.forget();
                // Ramp trajectory length with campaign progress.
                let progress = (state.new_count.get() as f64
                    / state.params.target_new as f64)
                    .min(1.0);
                let steps = (state.params.md_steps_start as f64
                    + progress
                        * (state.params.md_steps_end - state.params.md_steps_start) as f64)
                    as usize;
                let start = {
                    let audit = state.audit.borrow();
                    let pick = task_no as usize % audit.len().max(1);
                    audit.get(pick).cloned().unwrap_or_else(|| solvated_methane(task_no))
                };
                let ensemble = Rc::clone(&state.ensemble.borrow());
                let duration = cal::finetune_sample_duration().sample(&mut rng);
                let md_rng = rng.substream(5000 + task_no);
                let compute = sample_task(start, ensemble, steps, duration, md_rng);
                task_no += 1;
                queues
                    .submit("sample", vec![Payload::new((), cal::FINETUNE_SAMPLE_BYTES)], compute)
                    .await;
            }
        });
    }

    // --- Agent: sample receiver -------------------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let counter = counter.clone();
        let score = score.clone();
        thinker.agent("sample-receiver", async move {
            loop {
                let Some(done) = queues.get_result("sample").await else { break };
                let resolved = done.resolve().await;
                counter.release("sample", 1);
                if resolved.is_shed() {
                    state.shed.set(state.shed.get() + 1);
                    state.degradation.note_shed();
                    continue;
                }
                if resolved.is_failed() {
                    continue; // lost trajectory: free the slot, sample again
                }
                let frames = resolved.value::<Vec<Structure>>();
                state.samples_done.set(state.samples_done.get() + 1);
                {
                    let mut audit = state.audit.borrow_mut();
                    if let Some(last) = frames.last() {
                        audit.push_back(last.clone());
                        while audit.len() > 4 * state.params.audit_target {
                            audit.pop_front();
                        }
                    }
                }
                state
                    .fresh_samples
                    .borrow_mut()
                    .extend(frames.iter().cloned());
                if state.fresh_samples.borrow().len() >= state.params.uncertainty_refresh
                    && !state.inference_active.get()
                {
                    state.inference_active.set(true);
                    score.set();
                }
            }
        });
    }

    // --- Agent: uncertainty scorer (inference) -----------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let score2 = score.clone();
        let thinker2 = Rc::clone(&thinker);
        let mut rng = rng.substream(2);
        thinker.agent("uncertainty-scorer", async move {
            loop {
                score2.wait().await;
                score2.clear();
                if thinker2.is_done() {
                    break;
                }
                let batch: Vec<Structure> =
                    state.fresh_samples.borrow_mut().drain(..).collect();
                if batch.is_empty() {
                    state.inference_active.set(false);
                    continue;
                }
                let batch = Rc::new(batch);
                let ensemble = Rc::clone(&state.ensemble.borrow());
                let n = ensemble.len();
                let round = Rc::new(InferRound {
                    batch: Rc::clone(&batch),
                    ensemble,
                    scores: OnceCell::new(),
                });
                for member in 0..n {
                    let duration = cal::finetune_infer_duration().sample(&mut rng);
                    let compute = infer_task(Rc::clone(&round), member, duration);
                    queues
                        .submit(
                            "infer",
                            vec![Payload::new((), cal::FINETUNE_INFER_BYTES)],
                            compute,
                        )
                        .await;
                }
                let mut all: Vec<Rc<Vec<f64>>> = Vec::with_capacity(n);
                for _ in 0..n {
                    let Some(done) = queues.get_result("infer").await else { return };
                    let resolved = done.resolve().await;
                    if resolved.is_shed() {
                        state.shed.set(state.shed.get() + 1);
                        state.degradation.note_shed();
                        continue;
                    }
                    if resolved.is_failed() {
                        continue; // member's scores lost for this round
                    }
                    all.push(resolved.value::<Vec<f64>>());
                }
                if all.is_empty() {
                    state.inference_active.set(false);
                    continue;
                }
                // Variance across the surviving members, per structure;
                // highest first.
                let k = all.len() as f64;
                let m = batch.len();
                let mut vars: Vec<f64> = Vec::with_capacity(m);
                for i in 0..m {
                    let mean: f64 = all.iter().map(|v| v[i]).sum::<f64>() / k;
                    let var: f64 =
                        all.iter().map(|v| (v[i] - mean).powi(2)).sum::<f64>() / k;
                    vars.push(var);
                }
                let order = hetflow_ml::rank_by_uncertainty(&vars, m);
                *state.uncertain.borrow_mut() =
                    order.into_iter().map(|i| batch[i].clone()).collect();
                state.inference_active.set(false);
            }
        });
    }

    // --- Agent: simulation dispatcher --------------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let counter = counter.clone();
        let thinker2 = Rc::clone(&thinker);
        let mut rng = rng.substream(3);
        thinker.agent("simulation-dispatcher", async move {
            loop {
                if state.new_count.get() >= state.params.target_new {
                    thinker2.finish();
                    break;
                }
                let permit = counter.acquire("simulate").await;
                permit.forget();
                // Alternate between the audit and uncertainty pools.
                let use_audit = state.alternate.get();
                state.alternate.set(!use_audit);
                let structure = if use_audit {
                    state.audit.borrow_mut().pop_front()
                } else {
                    state.uncertain.borrow_mut().pop_front()
                };
                let structure = structure
                    .or_else(|| state.audit.borrow_mut().pop_front())
                    .unwrap_or_else(|| solvated_methane(rng.below(1000) as u64));
                let duration = cal::finetune_simulate_duration().sample(&mut rng);
                let compute = simulate_task(structure, duration);
                queues
                    .submit("simulate", vec![Payload::new((), 5_000)], compute)
                    .await;
            }
        });
    }

    // --- Agent: simulation receiver -----------------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let counter = counter.clone();
        let retrain = retrain.clone();
        thinker.agent("simulation-receiver", async move {
            loop {
                let Some(done) = queues.get_result("simulate").await else { break };
                let resolved = done.resolve().await;
                counter.release("simulate", 1);
                if resolved.is_shed() {
                    state.shed.set(state.shed.get() + 1);
                    state.degradation.note_shed();
                    continue;
                }
                if resolved.is_failed() {
                    continue; // no label produced: the structure is lost
                }
                state.degradation.note_ok();
                let labelled = resolved.value::<LabelledStructure>();
                state
                    .reference_data
                    .borrow_mut()
                    .push(Rc::new(DesignBlock::new(&labelled, &state.pretrain.basis)));
                state.new_count.set(state.new_count.get() + 1);
                state.since_retrain.set(state.since_retrain.get() + 1);
                if state.since_retrain.get() >= state.params.retrain_every
                    && !state.training_active.get()
                {
                    state.since_retrain.set(0);
                    state.training_active.set(true);
                    retrain.set();
                }
            }
        });
    }

    // --- Agent: trainer -------------------------------------------------------
    {
        let state = Rc::clone(&state);
        let queues = queues.clone();
        let retrain2 = retrain.clone();
        let thinker2 = Rc::clone(&thinker);
        let mut rng = rng.substream(4);
        thinker.agent("trainer", async move {
            loop {
                retrain2.wait().await;
                retrain2.clear();
                if thinker2.is_done() {
                    break;
                }
                let reference = Rc::new(state.reference_data.borrow().clone());
                // Degraded mode: a half-size ensemble refit keeps the
                // campaign learning at a fraction of the GPU bill.
                let n = state.degradation.ensemble_size(state.params.ensemble_size);
                for member in 0..n {
                    let duration = cal::finetune_train_duration().sample(&mut rng);
                    let member_rng = rng.substream(9000 + member as u64);
                    let compute = train_task(
                        Rc::clone(&state.pretrain),
                        Rc::clone(&reference),
                        member_rng,
                        duration,
                    );
                    queues
                        .submit("train", vec![Payload::new((), cal::FINETUNE_TRAIN_BYTES)], compute)
                        .await;
                }
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    let Some(done) = queues.get_result("train").await else { return };
                    let resolved = done.resolve().await;
                    if resolved.is_shed() {
                        state.shed.set(state.shed.get() + 1);
                        state.degradation.note_shed();
                        continue;
                    }
                    if resolved.is_failed() {
                        continue; // train member lost; the round shrinks
                    }
                    members.push((*resolved.value::<PairPotential>()).clone());
                }
                if !members.is_empty() {
                    // A fully failed round keeps the previous ensemble.
                    *state.ensemble.borrow_mut() = Rc::new(Ensemble::from_members(members));
                    state.rounds.set(state.rounds.get() + 1);
                }
                state.training_active.set(false);
            }
        });
    }

    // --- Agent: worker balancer (audit pool homeostasis) --------------------
    {
        let state = Rc::clone(&state);
        let counter = counter.clone();
        let thinker2 = Rc::clone(&thinker);
        let sim2 = sim.clone();
        thinker.agent("balancer", async move {
            loop {
                sim2.sleep(hetflow_sim::time::secs(120.0)).await;
                if thinker2.is_done() {
                    break;
                }
                let audit_len = state.audit.borrow().len();
                let target = state.params.audit_target;
                // Hold still while the backing endpoint is circuit-
                // broken: shuffling slots into a degraded pool just
                // queues work behind a dead endpoint.
                if counter.is_degraded("simulate") || counter.is_degraded("sample") {
                    continue;
                }
                if audit_len < target / 2 && counter.available("simulate") > 0 {
                    counter.reallocate("simulate", "sample", 1).await;
                } else if audit_len > 2 * target && counter.available("sample") > 0 {
                    counter.reallocate("sample", "simulate", 1).await;
                }
            }
        });
    }

    sim.run();

    let final_rmsd = ensemble_force_rmsd(&state.ensemble.borrow(), &test);
    FinetuneOutcome {
        new_structures: state.new_count.get(),
        final_force_rmsd: final_rmsd,
        initial_force_rmsd: initial_rmsd,
        training_rounds: state.rounds.get(),
        sampling_tasks: state.samples_done.get(),
        shed: state.shed.get(),
        degradations: state.degradation.degradations(),
        records: queues.records(),
        end: sim.now(),
    }
}

fn sample_task(
    start: Structure,
    ensemble: Rc<Ensemble<PairPotential>>,
    steps: usize,
    duration: f64,
    md_rng: SimRng,
) -> TaskFn {
    let md_rng = RefCell::new(md_rng);
    Rc::new(move |_ctx| {
        let mut md_rng = md_rng.borrow_mut();
        let traj = run_md(
            &ensemble.members()[0],
            &start,
            MdParams {
                dt: 0.005,
                steps,
                init_temp: 0.05,
                sample_every: (steps / 4).max(1),
            },
            &mut md_rng,
        );
        let frames: Vec<Structure> = traj.frames.into_iter().skip(1).collect();
        TaskWork::new(frames, cal::FINETUNE_SAMPLE_BYTES, hetflow_sim::time::secs(duration))
    })
}

fn simulate_task(structure: Structure, duration: f64) -> TaskFn {
    Rc::new(move |_ctx| {
        let reference = MorsePes::reference();
        let labelled = LabelledStructure::from_model(&structure, &reference, true);
        TaskWork::new(labelled, cal::FINETUNE_SIM_BYTES, hetflow_sim::time::secs(duration))
    })
}

fn train_task(
    pretrain: Rc<Pretraining>,
    reference: Rc<Vec<Rc<DesignBlock>>>,
    member_rng: SimRng,
    duration: f64,
) -> TaskFn {
    let member_rng = RefCell::new(member_rng);
    Rc::new(move |_ctx| {
        let model = fit_member(&pretrain, &reference, &mut member_rng.borrow_mut());
        TaskWork::new(model, cal::FINETUNE_TRAIN_BYTES, hetflow_sim::time::secs(duration))
    })
}

/// What one inference round's tasks share: whichever runs first scores
/// the batch with every member, from one basis evaluation per pair, and
/// each task returns its own member's energies. Dropped with the
/// round's last task.
struct InferRound {
    batch: Rc<Vec<Structure>>,
    ensemble: Rc<Ensemble<PairPotential>>,
    scores: OnceCell<Vec<Vec<f64>>>,
}

fn infer_task(round: Rc<InferRound>, member: usize, duration: f64) -> TaskFn {
    Rc::new(move |_ctx| {
        let scores = round
            .scores
            .get_or_init(|| PairPotential::energies_many(round.ensemble.members(), &round.batch));
        let energies = scores[member].clone();
        TaskWork::new(energies, cal::FINETUNE_INFER_BYTES, hetflow_sim::time::secs(duration))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
    use hetflow_sim::Tracer;

    fn quick_params() -> FinetuneParams {
        FinetuneParams {
            pretrain_structures: 60,
            target_new: 16,
            retrain_every: 4,
            ensemble_size: 4,
            audit_target: 4,
            uncertainty_refresh: 6,
            md_steps_end: 200,
            ..Default::default()
        }
    }

    fn quick_spec() -> DeploymentSpec {
        DeploymentSpec { cpu_workers: 4, gpu_workers: 4, ..Default::default() }
    }

    #[test]
    fn campaign_completes_all_task_types() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &quick_spec(), Tracer::disabled());
        let o = run(&sim, &d, quick_params());
        assert!(o.new_structures >= 16);
        assert!(o.training_rounds >= 1, "no training happened");
        assert!(o.sampling_tasks >= 1, "no sampling happened");
        let topics: std::collections::BTreeSet<&str> =
            o.records.iter().map(|r| r.topic.as_str()).collect();
        for t in ["simulate", "sample", "train", "infer"] {
            assert!(topics.contains(t), "missing topic {t}");
        }
    }

    #[test]
    fn finetuning_improves_force_rmsd() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::ParslRedis, &quick_spec(), Tracer::disabled());
        let o = run(&sim, &d, quick_params());
        assert!(
            o.final_force_rmsd < o.initial_force_rmsd,
            "fine-tuning must reduce force error: {} -> {}",
            o.initial_force_rmsd,
            o.final_force_rmsd
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let go = || {
            let sim = Sim::new();
            let d = deploy(&sim, WorkflowConfig::Parsl, &quick_spec(), Tracer::disabled());
            let o = run(&sim, &d, quick_params());
            (o.new_structures, o.training_rounds, o.end, o.final_force_rmsd.to_bits())
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn quick_campaign_outcomes_pinned_to_per_fit_featurization() {
        // Values from the commit before design blocks were cached, when
        // every fit re-evaluated the basis for every bagged structure:
        // caching and the one-`exp` kernel must not move a bit.
        let pins = [
            (WorkflowConfig::Parsl, 2_108_461_698_753, 0x3FC5_E155_F910_D494),
            (WorkflowConfig::ParslRedis, 2_108_512_551_220, 0x3FC5_E155_F910_D494),
            (WorkflowConfig::FnXGlobus, 2_112_497_755_186, 0x3FC6_75EF_11FC_5761),
        ];
        for (config, end_ns, rmsd_bits) in pins {
            let sim = Sim::new();
            let d = deploy(&sim, config, &quick_spec(), Tracer::disabled());
            let o = run(&sim, &d, quick_params());
            let got =
                (o.new_structures, o.training_rounds, o.end.as_nanos(), o.final_force_rmsd.to_bits());
            assert_eq!(got, (20, 4, end_ns, rmsd_bits), "{config:?}");
        }
    }

    #[test]
    fn infer_round_scores_equal_per_member_energy_in_any_task_order() {
        // One round's eight tasks as the scorer builds them, run the way
        // a fabric might: task 5 twice (a retry), task 2 never (lost).
        let params = FinetuneParams { pretrain_structures: 40, ..Default::default() };
        let ensemble = Rc::new(initial_ensemble(&params));
        let batch: Rc<Vec<Structure>> =
            Rc::new((0..5).map(solvated_methane).chain(pretraining_set(4, 9)).collect());
        let mut rng = SimRng::from_seed(4);
        let mut ctx =
            hetflow_fabric::TaskCtx { inputs: &[], rng: &mut rng, site: hetflow_store::SiteId(0) };
        let orders: [[usize; 8]; 3] =
            [[0, 1, 3, 4, 5, 5, 6, 7], [7, 6, 5, 4, 3, 5, 1, 0], [4, 0, 5, 7, 1, 5, 6, 3]];
        for order in orders {
            let round = Rc::new(InferRound {
                batch: Rc::clone(&batch),
                ensemble: Rc::clone(&ensemble),
                scores: OnceCell::new(),
            });
            let tasks: Vec<TaskFn> =
                (0..8).map(|member| infer_task(Rc::clone(&round), member, 1.0)).collect();
            assert!(round.scores.get().is_none(), "building a round scores nothing");
            let mut table = None;
            for member in order {
                let got = tasks[member](&mut ctx).output.downcast::<Vec<f64>>().expect("energies");
                let got: Vec<u64> = got.iter().map(|e| e.to_bits()).collect();
                let model = &ensemble.members()[member];
                let want: Vec<u64> = batch.iter().map(|s| model.energy(s).to_bits()).collect();
                assert_eq!(got, want, "member {member}");
                // The all-member pass ran in the first task and never
                // again: every later task reads that same table.
                let scores = round.scores.get().expect("the first task run scores every member");
                assert_eq!(scores.len(), 8);
                assert_eq!(*table.get_or_insert(scores.as_ptr()), scores.as_ptr());
            }
        }
    }

    #[test]
    fn test_set_shape() {
        let set = test_set(3);
        // 3 temperatures × 4 starts × 4 sampled frames.
        assert_eq!(set.len(), 48);
        assert!(set.iter().all(|s| s.n_atoms() == 16));
    }
}
