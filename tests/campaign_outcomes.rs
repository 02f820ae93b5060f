//! Campaign outcomes against committed pins: ROADMAP item 3's rule (b)
//! for a change that moves result bits, and the Fig. 7 shape read off
//! the same runs, so no campaign runs twice.
//!
//! **Fine-tuning.** Every cell is the default fine-tuning campaign
//! (`FinetuneParams`, seed 400–409) on one of the three
//! `WorkflowConfig`s. `PARENT` holds each cell's outcome on the tree
//! whose normal draws came from the ziggurat, re-recorded after the
//! gate below passed against the Box–Muller tree's. Per cell the
//! virtual timeline must not move (`new_structures`, `training_rounds`
//! and `end` exactly), `initial_force_rmsd` must agree within 1e-9 and
//! `final_force_rmsd` within 1e-6 relative; per config, an exact
//! permutation test over the ten seeds must not separate the final
//! RMSDs from the pinned ones.
//!
//! **Molecular design.** Every cell is the active-learning campaign at
//! hetbench's scale (a 10 000-molecule library, the paper's budget),
//! seeds 400–409 × the three configs. `MOLDESIGN` holds each cell's
//! `(found, simulations, end, ML rounds)` on the ziggurat tree, likewise
//! re-recorded after its gate passed, and every cell must
//! equal its pin exactly. Per config, an exact paired sign-flip test over the ten
//! seeds' `found − pinned found` must not reject a zero mean: the gate a
//! change that moves moldesign bits is held to before it re-pins.
//! Beside the pin, each cell prints its steered rounds (those whose
//! ranking reached the queue before the budget ran out), which must not
//! exceed its ML rounds; they are not pinned.
//!
//! Run with `--nocapture --test-threads=1` for both tables.

use hetflow::apps::{finetune, moldesign};
use hetflow::prelude::*;
use hetflow_bench::stats::{permutation_p, sign_flip_p};
use std::sync::OnceLock;

const SEEDS: std::ops::Range<u64> = 400..410;

/// `(new_structures, training_rounds, end ns, initial_force_rmsd,
/// final_force_rmsd)` per seed, configs in `WorkflowConfig::all()` order.
type Pin = (usize, usize, u64, f64, f64);

#[rustfmt::skip]
const PARENT: [[Pin; 10]; 3] = [
    // Parsl
    [
        (72, 7, 3_584_439_609_725, 0.5818682484138636, 0.060019827517534145),
        (72, 7, 3_836_896_108_933, 0.5707813175762592, 0.09258774977540014),
        (72, 7, 3_695_563_754_386, 0.5676502614307432, 0.07956035904263614),
        (72, 7, 3_827_730_068_201, 0.5770528323505513, 0.10017274464429353),
        (72, 7, 3_839_936_791_952, 0.5632415493668333, 0.09623979630129324),
        (72, 7, 3_889_871_600_084, 0.5826312107335428, 0.0849196680098984),
        (72, 7, 3_562_429_450_937, 0.5686542623177236, 0.0910293274221143),
        (72, 7, 3_777_034_377_541, 0.576463897604913, 0.14393663063028275),
        (72, 7, 3_720_099_007_638, 0.5652605421605017, 0.09442492780154209),
        (72, 7, 3_642_306_450_420, 0.5878726435691213, 0.9907493686065117),
    ],
    // ParslRedis
    [
        (72, 7, 3_584_537_028_364, 0.5818682484138636, 0.06001982751753663),
        (72, 7, 3_834_509_179_860, 0.5707813175762592, 0.09665262466175263),
        (72, 7, 3_695_667_544_025, 0.5676502614307432, 0.07844180016604789),
        (72, 7, 3_827_820_441_649, 0.5770528323505513, 0.09515834454819988),
        (72, 7, 3_840_032_959_088, 0.5632415493668333, 0.09721085765994564),
        (72, 7, 3_889_943_442_148, 0.5826312107335428, 0.08498387553045063),
        (72, 7, 3_562_505_803_089, 0.5686542623177236, 0.08995563569431993),
        (72, 7, 3_663_126_368_352, 0.576463897604913, 0.14296262572423243),
        (72, 7, 3_720_183_748_147, 0.5652605421605017, 0.0973404411788088),
        (72, 7, 3_642_397_908_000, 0.5878726435691213, 0.09277125469973664),
    ],
    // FnXGlobus
    [
        (72, 7, 3_738_980_252_594, 0.5818682484138636, 0.059628329177984274),
        (72, 7, 4_025_426_930_840, 0.5707813175762592, 0.09074194407209936),
        (72, 7, 3_793_370_441_834, 0.5676502614307432, 0.07814847595228869),
        (72, 7, 4_033_412_765_406, 0.5770528323505513, 0.0939320109787924),
        (72, 7, 3_697_052_203_944, 0.5632415493668333, 0.0999806349332517),
        (72, 7, 3_896_663_987_501, 0.5826312107335428, 0.08406550216579528),
        (72, 7, 3_706_830_846_135, 0.5686542623177236, 0.09131751677279171),
        (72, 7, 3_802_975_380_520, 0.576463897604913, 0.13809602539490046),
        (72, 7, 3_925_209_149_542, 0.5652605421605017, 0.08440391522814056),
        (72, 7, 3_649_894_476_162, 0.5878726435691213, 0.972305834755436),
    ],
];

/// `(found, simulations, end ns, ML rounds)` per seed, configs in
/// `WorkflowConfig::all()` order.
type MolPin = (usize, usize, u64, usize);

#[rustfmt::skip]
const MOLDESIGN: [[MolPin; 10]; 3] = [
    // Parsl
    [
        (41, 358, 3_860_222_854_653, 2),
        (62, 363, 3_764_087_292_517, 2),
        (69, 360, 3_752_781_577_363, 2),
        (58, 360, 3_808_928_453_129, 2),
        (70, 361, 3_971_720_319_600, 2),
        (39, 354, 3_834_513_958_765, 2),
        (66, 355, 3_720_650_387_010, 2),
        (48, 359, 3_679_603_446_692, 2),
        (64, 363, 3_980_790_843_303, 2),
        (108, 355, 3_723_629_717_132, 2),
    ],
    // ParslRedis
    [
        (42, 358, 3_007_332_305_747, 2),
        (63, 363, 2_989_249_345_686, 2),
        (70, 360, 2_879_589_501_773, 2),
        (60, 360, 3_145_774_783_688, 2),
        (73, 361, 3_281_898_228_141, 2),
        (40, 354, 2_871_951_752_044, 2),
        (66, 355, 3_018_184_076_727, 2),
        (47, 359, 2_910_946_685_134, 2),
        (69, 363, 3_081_264_258_138, 2),
        (114, 355, 2_879_040_058_011, 2),
    ],
    // FnXGlobus
    [
        (42, 358, 2_974_158_378_044, 2),
        (67, 363, 2_948_923_517_563, 2),
        (71, 360, 2_855_709_647_199, 2),
        (58, 360, 3_115_134_488_493, 2),
        (74, 361, 3_229_951_246_333, 2),
        (41, 354, 2_824_616_728_757, 2),
        (68, 355, 2_986_153_805_422, 2),
        (48, 359, 2_870_384_660_014, 2),
        (68, 363, 3_047_813_610_151, 2),
        (115, 355, 2_844_936_574_417, 2),
    ],
];

struct Cell<P> {
    config: WorkflowConfig,
    seed: u64,
    got: P,
}

/// One campaign per `(config, seed)`, configs in `WorkflowConfig::all()`
/// order, each on a deployment of its own.
fn run_cells<P>(campaign: impl Fn(&Sim, &Deployment, u64) -> P) -> Vec<Cell<P>> {
    WorkflowConfig::all()
        .into_iter()
        .flat_map(|config| SEEDS.map(move |seed| (config, seed)))
        .map(|(config, seed)| {
            let sim = Sim::new();
            let spec = DeploymentSpec { seed, ..Default::default() };
            let d = deploy(&sim, config, &spec, Tracer::disabled());
            Cell { config, seed, got: campaign(&sim, &d, seed) }
        })
        .collect()
}

/// The 30 fine-tuning campaigns, run once per test binary.
fn cells() -> &'static [Cell<Pin>] {
    static CELLS: OnceLock<Vec<Cell<Pin>>> = OnceLock::new();
    CELLS.get_or_init(|| {
        run_cells(|sim, d, seed| {
            let o = finetune::run(sim, d, FinetuneParams { seed, ..Default::default() });
            (
                o.new_structures,
                o.training_rounds,
                o.end.as_nanos(),
                o.initial_force_rmsd,
                o.final_force_rmsd,
            )
        })
    })
}

#[expect(clippy::print_stdout, reason = "the table `--nocapture` shows is the re-pin record")]
fn show(line: &str) {
    println!("{line}");
}

fn rel(got: f64, want: f64) -> f64 {
    ((got - want) / want).abs()
}

#[test]
fn finetune_outcomes_within_tolerance_of_pins() {
    show("config      seed  new rounds  end      initial rel  final rel");
    let mut failures = Vec::new();
    for (c, want) in cells().iter().zip(PARENT.as_flattened()) {
        let (new, rounds, end, initial, fin) = c.got;
        let (di, df) = (rel(initial, want.3), rel(fin, want.4));
        show(&format!(
            "{:<11} {}  {:>3} {:>6}  {}  {:>11.1e}  {:>9.1e}",
            c.config.label(),
            c.seed,
            new,
            rounds,
            if end == want.2 { "equal" } else { "MOVED" },
            di,
            df
        ));
        // Written so that a NaN fails.
        let within = di <= 1e-9 && df <= 1e-6;
        if (new, rounds, end) != (want.0, want.1, want.2) || !within {
            let label = c.config.label();
            failures.push(format!("{label} seed {}: {:?} vs pinned {want:?}", c.seed, c.got));
        }
    }
    for (config, (got, want)) in WorkflowConfig::all().iter().zip(cells().chunks(10).zip(&PARENT)) {
        let got: Vec<f64> = got.iter().map(|c| c.got.4).collect();
        let want: Vec<f64> = want.iter().map(|w| w.4).collect();
        let p = permutation_p(&got, &want);
        show(&format!("{}: final RMSD vs pins, permutation p = {p:.3}", config.label()));
        if p < 0.05 {
            let label = config.label();
            failures.push(format!("{label}: final RMSDs separate from the pins (p = {p:.4})"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Fig. 7's shape: fine-tuning lowers the force RMSD for the median
/// seed of every config, and the configs are at parity (their ranges
/// of final RMSD overlap). Cells that end no better than they started
/// are counted, not excused.
#[test]
fn fig7_rmsd_falls_for_the_median_seed_with_parity_across_configs() {
    let mut ranges = Vec::new();
    for (config, cells) in WorkflowConfig::all().iter().zip(cells().chunks(10)) {
        let mut gains: Vec<f64> = cells.iter().map(|c| c.got.3 - c.got.4).collect();
        gains.sort_by(f64::total_cmp);
        let median = (gains[4] + gains[5]) / 2.0;
        assert!(median > 0.0, "{}: median seed's RMSD did not fall ({median})", config.label());
        let finals = cells.iter().map(|c| c.got.4);
        ranges.push((finals.clone().fold(f64::INFINITY, f64::min), finals.fold(0.0, f64::max)));
    }
    let highest_min = ranges.iter().map(|r| r.0).fold(0.0, f64::max);
    let lowest_max = ranges.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    assert!(highest_min <= lowest_max, "final RMSD ranges do not overlap: {ranges:?}");
    let worse = cells().iter().filter(|c| c.got.4 >= c.got.3).count();
    show(&format!("{worse} of {} cells end with final RMSD >= initial", cells().len()));
}

#[test]
fn moldesign_outcomes_equal_pins() {
    let cells = run_cells(|sim, d, seed| {
        let params = MolDesignParams { library_size: 10_000, seed, ..Default::default() };
        let o = moldesign::run(sim, d, params);
        ((o.found, o.simulations, o.end.as_nanos(), o.ml_makespans.len()), o.steered_rounds)
    });
    show("config      seed  found  sims  end    rounds  steered");
    let mut failures = Vec::new();
    for (c, want) in cells.iter().zip(MOLDESIGN.as_flattened()) {
        let (got, steered) = c.got;
        let (found, sims, end, rounds) = got;
        show(&format!(
            "{:<11} {}  {found:>5}  {sims:>4}  {}  {rounds:>6}  {steered:>7}",
            c.config.label(),
            c.seed,
            if end == want.2 { "equal" } else { "MOVED" },
        ));
        let label = c.config.label();
        if got != *want {
            failures.push(format!("{label} seed {}: {got:?} vs pinned {want:?}", c.seed));
        }
        if steered > rounds {
            failures.push(format!("{label} seed {}: {steered} steered of {rounds} rounds", c.seed));
        }
    }
    for (config, (got, want)) in WorkflowConfig::all().iter().zip(cells.chunks(10).zip(&MOLDESIGN))
    {
        let diffs: Vec<f64> =
            got.iter().zip(want).map(|(c, w)| c.got.0.0 as f64 - w.0 as f64).collect();
        let p = sign_flip_p(&diffs);
        show(&format!("{}: found vs pins, paired sign-flip p = {p:.3}", config.label()));
        if p < 0.05 {
            let label = config.label();
            failures.push(format!("{label}: found separates from the pins (p = {p:.4})"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
