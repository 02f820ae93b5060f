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
//!   arrival — so a refit bags references, sums their normal equations
//!   and solves.
//!
//! A balancing agent shifts CPU workers between simulation and sampling
//! to hold the audit pool near a target size, as in the paper.
//!
//! The campaign scores the ensemble before and after (Fig. 7a's force
//! RMSD of the mean prediction) against the test set's reference forces,
//! computed once. The pair potential is linear in its weights, so the
//! mean prediction is that of one model, the members' mean
//! ([`PairPotential::mean`]), and a score runs one force kernel.

use hetflow_chem::{
    pretraining_set, run_md, solvated_methane, EnergyModel, MdParams, MorsePes, Structure, Vec3,
};
use hetflow_core::calibration::tasks as cal;
use hetflow_core::Deployment;
use hetflow_fabric::{TaskFn, TaskWork};
use hetflow_chem::force_rmsd;
use hetflow_ml::{
    bag_indices, DesignBlock, Ensemble, LabelledStructure, PairPotParams, PairPotential,
    RadialBasis, DEFAULT_BAG_FRACTION,
};
use hetflow_steer::{Payload, TaskRecord, Thinker};
use hetflow_sim::{Sim, SimRng, SimTime};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// MD steps for the first sampling tasks (paper: 20).
const MD_STEPS_START: usize = 20;

/// Campaign parameters (defaults scale the paper's 1720-pretrain /
/// 500-new-structure run down ~8× so a full campaign simulates in
/// seconds of wall time).
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// MD steps for the last sampling tasks (paper: 1000).
    pub md_steps_end: usize,
    /// Campaign seed.
    pub seed: u64,
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
            md_steps_end: 1000,
            seed: 11,
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
    /// Tasks (of any topic) that came back failed — nonzero only under
    /// failure injection or outages.
    pub failed: usize,
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
    mean_model_rmsd(ensemble, test, &reference_forces(test))
}

/// The reference surface's forces on every atom of `test`, structure
/// after structure, in one buffer.
fn reference_forces(test: &[Structure]) -> Vec<Vec3> {
    let reference = MorsePes::reference();
    test.iter().flat_map(|s| reference.energy_forces(s).1).collect()
}

/// [`ensemble_force_rmsd`] against reference forces computed once: the
/// ensemble's mean prediction is that of its mean model
/// ([`PairPotential::mean`]), so one force kernel scores it.
#[expect(
    clippy::expect_used,
    reason = "every campaign fit clones the campaign's basis, so an ensemble's members share \
              one; a mixed ensemble is a construction bug, not a runtime fault"
)]
fn mean_model_rmsd(ensemble: &Ensemble<PairPotential>, test: &[Structure], truth: &[Vec3]) -> f64 {
    let mean = PairPotential::mean(ensemble.members()).expect("ensemble members share one basis");
    let mut forces = Vec::new();
    let mut acc = 0.0;
    let mut at = 0;
    for s in test {
        let n = s.n_atoms();
        forces.resize(n, [0.0; 3]);
        mean.forces_into(s, &mut forces);
        acc += force_rmsd(&truth[at..at + n], &forces);
        at += n;
    }
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
    let thinker = Thinker::new(sim, &deployment.queues);

    let pretrain = Rc::new(pretraining_blocks(&params));
    let initial = Rc::new(initial_ensemble_on(&pretrain, &params));
    let test = test_set(params.seed);
    let truth = reference_forces(&test);
    let initial_rmsd = mean_model_rmsd(&initial, &test, &truth);

    // Seed the audit pool with perturbed starting structures.
    let seed_structures: VecDeque<Structure> = (0..params.audit_target)
        .map(|i| solvated_methane(params.seed ^ (200 + i as u64)))
        .collect();

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
        params: params.clone(),
    });

    // CPU workers split between simulation and sampling.
    let cpu = deployment.cpu_pool.workers();
    let sim_share = (cpu / 2).max(1);
    thinker.slots().register("simulate", sim_share);
    thinker.slots().register("sample", cpu.saturating_sub(sim_share).max(1));

    let retrain = hetflow_sim::Event::new();
    let score = hetflow_sim::Event::new();

    // --- Agent: sampler ---------------------------------------------------
    let (t, st, sim2, mut rng1) =
        (Rc::clone(&thinker), Rc::clone(&state), sim.clone(), rng.substream(1));
    thinker.agent(async move {
        let mut task_no = 0u64;
        while !t.is_done() {
            // Maintain — don't overflow — the audit pool (§III-B:
            // sampling replenishes what simulation consumes).
            if st.audit.borrow().len() >= 2 * st.params.audit_target {
                sim2.sleep(hetflow_sim::time::secs(30.0)).await;
                continue;
            }
            t.take_slot("sample").await;
            // Ramp trajectory length with campaign progress.
            let progress = (st.new_count.get() as f64 / st.params.target_new as f64).min(1.0);
            let steps = (MD_STEPS_START as f64
                + progress * (st.params.md_steps_end - MD_STEPS_START) as f64)
                as usize;
            let start = {
                let audit = st.audit.borrow();
                let pick = task_no as usize % audit.len().max(1);
                audit.get(pick).cloned().unwrap_or_else(|| solvated_methane(task_no))
            };
            let ensemble = Rc::clone(&st.ensemble.borrow());
            let duration = cal::finetune_sample_duration().sample(&mut rng1);
            let md_rng = rng1.substream(5000 + task_no);
            let compute = sample_task(start, ensemble, steps, duration, md_rng);
            task_no += 1;
            let payload = Payload::new((), cal::FINETUNE_SAMPLE_BYTES);
            t.queues().submit("sample", vec![payload], compute).await;
        }
    });

    // --- Agent: sample results --------------------------------------------
    // A lost trajectory only frees its slot: the sampler samples again.
    let (st, ev) = (Rc::clone(&state), score.clone());
    thinker.result_processor::<Vec<Structure>>("sample", move |frames| {
        st.samples_done.set(st.samples_done.get() + 1);
        if let Some(last) = frames.last() {
            let mut audit = st.audit.borrow_mut();
            audit.push_back(last.clone());
            while audit.len() > 4 * st.params.audit_target {
                audit.pop_front();
            }
        }
        st.fresh_samples.borrow_mut().extend(frames.iter().cloned());
        if st.fresh_samples.borrow().len() >= st.params.uncertainty_refresh
            && !st.inference_active.get()
        {
            st.inference_active.set(true);
            ev.set();
        }
    });

    // --- Agent: uncertainty scorer (inference) -----------------------------
    let (t, st, mut rng2) = (Rc::clone(&thinker), Rc::clone(&state), rng.substream(2));
    thinker.event_responder(&score, async move || {
        let batch: Vec<Structure> = st.fresh_samples.borrow_mut().drain(..).collect();
        if batch.is_empty() {
            st.inference_active.set(false);
            return Some(());
        }
        let batch = Rc::new(batch);
        let ensemble = Rc::clone(&st.ensemble.borrow());
        let n = ensemble.len();
        let round =
            Rc::new(InferRound { batch: Rc::clone(&batch), ensemble, scores: OnceCell::new() });
        for member in 0..n {
            let duration = cal::finetune_infer_duration().sample(&mut rng2);
            let compute = infer_task(Rc::clone(&round), member, duration);
            let payload = Payload::new((), cal::FINETUNE_INFER_BYTES);
            t.queues().submit("infer", vec![payload], compute).await;
        }
        // A lost member's scores drop out of this round.
        let mut all: Vec<Rc<Vec<f64>>> = Vec::with_capacity(n);
        for _ in 0..n {
            all.extend(t.next_value::<Vec<f64>>("infer").await?);
        }
        if !all.is_empty() {
            // Variance across the surviving members, per structure;
            // highest first.
            let k = all.len() as f64;
            let m = batch.len();
            let mut vars: Vec<f64> = Vec::with_capacity(m);
            for i in 0..m {
                let mean: f64 = all.iter().map(|v| v[i]).sum::<f64>() / k;
                let var: f64 = all.iter().map(|v| (v[i] - mean).powi(2)).sum::<f64>() / k;
                vars.push(var);
            }
            let order = hetflow_ml::rank_by_uncertainty(&vars, m);
            *st.uncertain.borrow_mut() = order.into_iter().map(|i| batch[i].clone()).collect();
        }
        st.inference_active.set(false);
        Some(())
    });

    // --- Agent: simulation dispatcher --------------------------------------
    let (t, st, mut rng3) = (Rc::clone(&thinker), Rc::clone(&state), rng.substream(3));
    thinker.agent(async move {
        while st.new_count.get() < st.params.target_new {
            t.take_slot("simulate").await;
            // Alternate between the audit and uncertainty pools.
            let use_audit = st.alternate.get();
            st.alternate.set(!use_audit);
            let structure = if use_audit {
                st.audit.borrow_mut().pop_front()
            } else {
                st.uncertain.borrow_mut().pop_front()
            };
            let structure = structure
                .or_else(|| st.audit.borrow_mut().pop_front())
                .unwrap_or_else(|| solvated_methane(rng3.below(1000) as u64));
            let duration = cal::finetune_simulate_duration().sample(&mut rng3);
            let compute = simulate_task(structure, duration);
            t.queues().submit("simulate", vec![Payload::new((), 5_000)], compute).await;
        }
        t.finish();
    });

    // --- Agent: simulation results -------------------------------------------
    // A lost task produced no label: its structure is lost.
    let (st, ev) = (Rc::clone(&state), retrain.clone());
    thinker.result_processor::<LabelledStructure>("simulate", move |labelled| {
        let block = DesignBlock::new(&labelled, &st.pretrain.basis);
        st.reference_data.borrow_mut().push(Rc::new(block));
        st.new_count.set(st.new_count.get() + 1);
        st.since_retrain.set(st.since_retrain.get() + 1);
        if st.since_retrain.get() >= st.params.retrain_every && !st.training_active.get() {
            st.since_retrain.set(0);
            st.training_active.set(true);
            ev.set();
        }
    });

    // --- Agent: trainer -------------------------------------------------------
    let (t, st, mut rng4) = (Rc::clone(&thinker), Rc::clone(&state), rng.substream(4));
    thinker.event_responder(&retrain, async move || {
        let reference = Rc::new(st.reference_data.borrow().clone());
        let n = st.params.ensemble_size;
        for member in 0..n {
            let duration = cal::finetune_train_duration().sample(&mut rng4);
            let member_rng = rng4.substream(9000 + member as u64);
            let compute =
                train_task(Rc::clone(&st.pretrain), Rc::clone(&reference), member_rng, duration);
            let payload = Payload::new((), cal::FINETUNE_TRAIN_BYTES);
            t.queues().submit("train", vec![payload], compute).await;
        }
        // A lost member shrinks the round; a fully lost round keeps the
        // previous ensemble.
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.extend(t.next_value::<PairPotential>("train").await?.map(|m| (*m).clone()));
        }
        if !members.is_empty() {
            *st.ensemble.borrow_mut() = Rc::new(Ensemble::from_members(members));
            st.rounds.set(st.rounds.get() + 1);
        }
        st.training_active.set(false);
        Some(())
    });

    // --- Agent: worker balancer (audit pool homeostasis) --------------------
    let (t, st, sim2) = (Rc::clone(&thinker), Rc::clone(&state), sim.clone());
    thinker.agent(async move {
        loop {
            sim2.sleep(hetflow_sim::time::secs(120.0)).await;
            if t.is_done() {
                break;
            }
            let (audit_len, target) = (st.audit.borrow().len(), st.params.audit_target);
            let slots = t.slots();
            if audit_len < target / 2 && slots.available("simulate") > 0 {
                slots.reallocate("simulate", "sample").await;
            } else if audit_len > 2 * target && slots.available("sample") > 0 {
                slots.reallocate("sample", "simulate").await;
            }
        }
    });

    sim.run();

    let final_rmsd = mean_model_rmsd(&state.ensemble.borrow(), &test, &truth);
    FinetuneOutcome {
        new_structures: state.new_count.get(),
        final_force_rmsd: final_rmsd,
        initial_force_rmsd: initial_rmsd,
        training_rounds: state.rounds.get(),
        sampling_tasks: state.samples_done.get(),
        shed: thinker.shed(),
        failed: thinker.failed(),
        records: deployment.queues.records(),
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
        // End times as when every fit re-evaluated the basis for every
        // bagged structure (caching design blocks must not move a bit),
        // re-recorded with the ziggurat's normals. RMSD bits are those
        // of the basis recurrence, of fits from per-structure normal
        // equations and of scoring the ensemble's mean model;
        // `tests/campaign_outcomes.rs` holds their tolerance against one
        // `exp` per centre, stacked design rows and per-member scores.
        let pins = [
            (WorkflowConfig::Parsl, 2_043_046_556_619, 0x3FC9_90DF_2B2C_3500),
            (WorkflowConfig::ParslRedis, 2_039_193_577_170, 0x3FC9_CA64_5E49_9A7D),
            (WorkflowConfig::FnXGlobus, 2_050_605_115_994, 0x3FC9_54CE_04C4_1053),
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
