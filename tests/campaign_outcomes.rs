//! Campaign outcomes against committed pins: ROADMAP item 3's rule (b)
//! for a change that moves result bits, and the Fig. 7 shape read off
//! the same runs, so no campaign runs twice.
//!
//! **Fine-tuning.** Every cell is the default fine-tuning campaign
//! (`FinetuneParams`, seed 400–409) on one of the three
//! `WorkflowConfig`s. `PARENT` holds each cell's outcome on the tree
//! before the pair potential's basis moved from one `exp` per centre to
//! the recurrence. Per cell the
//! virtual timeline must not move (`new_structures`, `training_rounds`
//! and `end` exactly), `initial_force_rmsd` must agree within 1e-9 and
//! `final_force_rmsd` within 1e-6 relative; per config, an exact
//! permutation test over the ten seeds must not separate the final
//! RMSDs from the pinned ones.
//!
//! **Molecular design.** Every cell is the active-learning campaign at
//! hetbench's scale (a 10 000-molecule library, the paper's budget),
//! seeds 400–409 × the three configs. `MOLDESIGN` holds each cell's
//! `(found, simulations, end, ML rounds)` on the tree before a ridge fit
//! on fewer rows than features took the dual form, and every cell must
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
        (72, 7, 3_625_933_819_549, 0.5772176792622953, 0.1283839506791906),
        (72, 7, 3_698_410_046_000, 0.5922495362401647, 0.10670156848282991),
        (72, 7, 3_933_852_686_465, 0.5755450589269383, 0.12804198564229138),
        (72, 7, 3_624_331_929_047, 0.5804131471748811, 0.08511880078968004),
        (72, 8, 3_972_759_884_000, 0.586679921364205, 0.07066626888227241),
        (72, 7, 3_693_822_407_788, 0.5541988562116679, 0.08913488648236217),
        (72, 7, 3_796_111_780_368, 0.5692370987265231, 0.09852890915534297),
        (72, 7, 3_584_680_010_972, 0.5563197960355687, 0.10083087816679658),
        (72, 8, 3_596_909_957_338, 0.5776684541769087, 0.10423805016226097),
        (72, 7, 3_893_321_229_492, 0.5749922840716435, 0.11340222147172642),
    ],
    // ParslRedis
    [
        (72, 7, 3_583_842_996_851, 0.5772176792622953, 0.13017474439241775),
        (72, 7, 3_698_481_096_852, 0.5922495362401647, 0.10749794409910142),
        (72, 7, 3_933_933_709_831, 0.5755450589269383, 0.1283759289302243),
        (72, 7, 3_624_407_195_262, 0.5804131471748811, 0.08793274393962375),
        (72, 8, 3_972_853_010_851, 0.586679921364205, 0.07094323709599809),
        (72, 7, 3_693_898_585_111, 0.5541988562116679, 0.08850899638959064),
        (72, 7, 3_796_199_438_839, 0.5692370987265231, 0.1014898568500517),
        (72, 7, 3_649_718_439_866, 0.5563197960355687, 0.05984212661530783),
        (72, 8, 3_596_990_004_052, 0.5776684541769087, 0.09586125089664178),
        (72, 7, 3_893_419_355_823, 0.5749922840716435, 0.11360482664981303),
    ],
    // FnXGlobus
    [
        (72, 7, 3_792_436_724_367, 0.5772176792622953, 0.11510908765279658),
        (72, 7, 3_911_643_929_861, 0.5922495362401647, 0.11490969077498982),
        (72, 8, 3_987_368_050_662, 0.5755450589269383, 0.114900105720191),
        (72, 7, 3_717_438_988_733, 0.5804131471748811, 0.08996406851654591),
        (72, 8, 3_980_332_870_004, 0.586679921364205, 0.07044663925634134),
        (72, 7, 3_737_678_669_814, 0.5541988562116679, 0.0875824655806353),
        (72, 7, 3_666_707_506_668, 0.5692370987265231, 0.09254627017927093),
        (72, 7, 3_552_935_207_282, 0.5563197960355687, 0.09714276899170034),
        (72, 7, 3_882_721_334_264, 0.5776684541769087, 0.1131498976666037),
        (72, 7, 3_695_738_444_611, 0.5749922840716435, 0.10733273974733731),
    ],
];

/// `(found, simulations, end ns, ML rounds)` per seed, configs in
/// `WorkflowConfig::all()` order.
type MolPin = (usize, usize, u64, usize);

#[rustfmt::skip]
const MOLDESIGN: [[MolPin; 10]; 3] = [
    // Parsl
    [
        (35, 355, 3_855_103_547_334, 2),
        (77, 357, 3_907_379_205_144, 2),
        (57, 360, 3_873_091_211_500, 2),
        (55, 359, 3_735_950_847_319, 2),
        (44, 355, 3_830_434_165_616, 2),
        (63, 353, 3_773_652_829_941, 2),
        (59, 355, 3_719_299_681_674, 2),
        (54, 356, 3_891_725_042_266, 2),
        (66, 358, 3_789_135_211_426, 2),
        (97, 364, 3_787_043_584_395, 2),
    ],
    // ParslRedis
    [
        (36, 355, 3_041_799_555_360, 2),
        (80, 357, 3_177_652_986_763, 2),
        (57, 360, 3_029_922_967_504, 2),
        (55, 359, 2_924_628_946_100, 2),
        (44, 355, 3_103_475_705_905, 2),
        (66, 353, 3_085_947_904_889, 2),
        (61, 355, 2_879_465_141_413, 2),
        (59, 356, 3_069_827_792_829, 2),
        (71, 358, 2_870_072_982_877, 2),
        (102, 364, 2_952_293_689_606, 2),
    ],
    // FnXGlobus
    [
        (37, 355, 3_012_106_189_140, 2),
        (80, 357, 3_143_421_521_010, 2),
        (58, 360, 3_012_981_351_206, 2),
        (57, 359, 2_878_456_230_976, 2),
        (49, 355, 3_071_072_395_369, 2),
        (67, 353, 3_046_680_029_293, 2),
        (62, 355, 2_838_554_779_812, 2),
        (58, 356, 3_038_395_839_509, 2),
        (72, 358, 2_832_576_219_046, 2),
        (105, 364, 2_915_272_399_020, 2),
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
