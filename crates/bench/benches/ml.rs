//! ML-substrate microbenches: surrogate training/inference, ensemble
//! parallelism, pair-potential fitting, PES force evaluation, MD
//! stepping — the real computations the campaigns run inside task
//! closures.

#![allow(
    clippy::unwrap_used,
    reason = "a bench aborts on a setup failure; R5 covers library code only"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetflow_apps::{ensemble_force_rmsd, initial_ensemble, test_set, FinetuneParams};
use hetflow_chem::{
    pretraining_set, run_md, solvated_methane, EnergyModel, MdParams, MoleculeLibrary, MorsePes,
};
use hetflow_ml::{
    DesignBlock, Ensemble, LabelledStructure, Matrix, PairPotParams, PairPotential, RadialBasis,
    RffRidge, SurrogateParams,
};
use hetflow_sim::SimRng;

fn bench_surrogate(c: &mut Criterion) {
    let lib = MoleculeLibrary::generate(4000, 1);
    let inputs: Vec<Vec<f64>> = (0..400).map(|i| lib.features(i).to_vec()).collect();
    let targets: Vec<f64> = (0..400).map(|i| lib.true_ip(i)).collect();
    c.bench_function("ml/rff_ridge_fit_400", |b| {
        b.iter(|| {
            let mut rng = SimRng::from_seed(2);
            RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng).unwrap()
        });
    });
    let mut rng = SimRng::from_seed(2);
    let model = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng).unwrap();
    c.bench_function("ml/rff_predict_4000", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..lib.len() {
                acc += model.predict(&lib.features(i));
            }
            acc
        });
    });
    // The batch entry an `infer` task uses, at the campaign's library
    // size (features precomputed, so this times the kernel alone).
    let lib = MoleculeLibrary::generate(10_000, 1);
    let rows: Vec<_> = (0..lib.len()).map(|i| lib.features(i)).collect();
    let mut scores = vec![0.0; rows.len()];
    c.bench_function("ml/rff_predict_batch_10k", |b| {
        b.iter(|| {
            model.predict_batch(|i| rows[i], &mut scores);
            scores[0]
        });
    });
}

fn bench_ensemble_fit(c: &mut Criterion) {
    let lib = MoleculeLibrary::generate(2000, 3);
    let inputs: Vec<Vec<f64>> = (0..600).map(|i| lib.features(i).to_vec()).collect();
    let targets: Vec<f64> = (0..600).map(|i| lib.true_ip(i)).collect();
    let train = |_i: usize, mut rng: SimRng| {
        RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng).unwrap()
    };
    let mut g = c.benchmark_group("ml/ensemble8_fit");
    g.sample_size(10);
    let rng = SimRng::from_seed(4);
    g.bench_function("sequential", |b| b.iter(|| Ensemble::fit(8, &rng, train)));
    g.finish();
}

fn bench_pairpot(c: &mut Criterion) {
    let pes = MorsePes::approx();
    let data: Vec<LabelledStructure> = pretraining_set(60, 5)
        .iter()
        .map(|s| LabelledStructure::from_model(s, &pes, true))
        .collect();
    c.bench_function("ml/pairpot_fit_60f", |b| {
        b.iter(|| {
            PairPotential::fit(&data, RadialBasis::default_for_clusters(), PairPotParams::default())
                .unwrap()
        });
    });
    // The same fit when the design blocks already exist — what a
    // campaign's refits pay after the first.
    let basis = RadialBasis::default_for_clusters();
    let blocks: Vec<DesignBlock> = data.iter().map(|ls| DesignBlock::new(ls, &basis)).collect();
    let blocks: Vec<&DesignBlock> = blocks.iter().collect();
    c.bench_function("ml/pairpot_fit_cached_blocks", |b| {
        b.iter(|| {
            PairPotential::fit_blocks(&blocks, basis.clone(), PairPotParams::default()).unwrap()
        });
    });
}

/// The normal equations' `XᵀX` at the two shapes the campaigns solve:
/// a late fine-tuning refit (2 700 stacked rows, 24 basis functions) and
/// an RFF-ridge fit (256 molecules, 384 features).
fn bench_gram(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(7);
    for (rows, cols) in [(2700, 24), (256, 384)] {
        let data = (0..rows * cols).map(|_| rng.standard_normal()).collect();
        let x = Matrix::from_vec(rows, cols, data);
        c.bench_function(format!("ml/gram_{rows}x{cols}"), |b| b.iter(|| x.gram()));
    }
}

/// Fig. 7a's metric as a campaign computes it: eight members' forces
/// on the 48 test structures against the reference surface.
fn bench_ensemble_force_rmsd(c: &mut Criterion) {
    let params = FinetuneParams::default();
    let ensemble = initial_ensemble(&params);
    let test = test_set(params.seed);
    c.bench_function("ml/ensemble_force_rmsd_8x48", |b| {
        b.iter(|| ensemble_force_rmsd(&ensemble, &test));
    });
}

fn bench_forces_and_md(c: &mut Criterion) {
    let s = solvated_methane(1);
    let pes = MorsePes::reference();
    c.bench_function("chem/pes_energy_forces_16atoms", |b| {
        b.iter(|| pes.energy_forces(&s));
    });
    let mut g = c.benchmark_group("chem/md_steps");
    for &steps in &[20usize, 200] {
        g.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, &steps| {
            b.iter(|| {
                let mut rng = SimRng::from_seed(6);
                run_md(
                    &pes,
                    &s,
                    MdParams { dt: 0.005, steps, init_temp: 0.1, sample_every: steps },
                    &mut rng,
                )
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_surrogate, bench_ensemble_fit, bench_pairpot, bench_gram,
        bench_ensemble_force_rmsd, bench_forces_and_md
}
criterion_main!(benches);
