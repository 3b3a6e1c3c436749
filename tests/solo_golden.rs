//! Golden hashes for the single-job front doors: `run_adaptive`,
//! `run_scheduled` and `run_workload`.
//!
//! Each case pins the FNV-1a hash of the `Debug` rendering of the run's
//! `(SwitchSchedule, SimReport)` — every step report, every trace event
//! and every decision rationale. The runs charge compute, overlap
//! reconfiguration with compute and pay a constant barrier, so a
//! controller's `Decision` event is stamped both at `gpu_free` (the
//! first step) and at the earlier overlapped request instant (every
//! later step). Print fresh constants with
//! `UPDATE_GOLDEN=1 cargo test --test solo_golden -- --nocapture`, only
//! for an intentional behaviour change.

use adaptive_photonics::prelude::*;
use aps_ablate::fnv1a_64;
use aps_cost::units::MIB;
use aps_sim::{ComputeModel, TraceKind};
use ConfigChoice::{Base, Matched};

const N: usize = 8;
const BYTES: f64 = 4.0 * MIB;
const ALPHA_R_S: f64 = 5e-6;

const GOLDEN: [(&str, u64); 5] = [
    ("adaptive-dp", 0xa67deb9dc56dcf90),
    ("adaptive-threshold", 0xeaae7e0e83166480),
    ("scheduled-matched", 0xdd471105f6028511),
    ("scheduled-mixed", 0x24f973f64bbda05b),
    ("workload-greedy", 0xe168f26e0a1d5343),
];

fn cfg() -> RunConfig {
    RunConfig {
        barrier: BarrierModel::Constant { latency_s: 1e-6 },
        compute: Some(ComputeModel { per_byte_s: 1e-9 }),
        overlap_reconfig_with_compute: true,
        ..RunConfig::paper_defaults()
    }
}

fn reconfig() -> ReconfigModel {
    ReconfigModel::constant(ALPHA_R_S).unwrap()
}

fn base_config() -> Matching {
    Matching::shift(N, 1).unwrap()
}

fn switch() -> CircuitSwitch {
    CircuitSwitch::new(base_config(), reconfig())
}

fn schedule() -> Schedule {
    collectives::allreduce::halving_doubling::build(N, BYTES)
        .unwrap()
        .schedule
}

fn adaptive(controller: &dyn Controller) -> (SwitchSchedule, SimReport) {
    let base = topology::builders::ring_unidirectional(N).unwrap();
    let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
    let problem = SwitchingProblem::build(
        &base,
        &schedule(),
        &mut cache,
        CostParams::paper_defaults(),
        reconfig(),
    )
    .unwrap();
    run_adaptive(
        &mut switch(),
        &base_config(),
        &problem,
        controller,
        ReconfigAccounting::PaperConservative,
        &cfg(),
    )
    .unwrap()
}

fn scheduled(switches: SwitchSchedule) -> (SwitchSchedule, SimReport) {
    let report = run_scheduled(
        &mut switch(),
        &base_config(),
        &schedule(),
        &switches,
        &cfg(),
    )
    .unwrap();
    (switches, report)
}

fn workload(controller: &dyn Controller) -> (SwitchSchedule, SimReport) {
    let base = topology::builders::ring_unidirectional(N).unwrap();
    let schedule = schedule();
    run_workload(
        &mut switch(),
        &base,
        &mut schedule.stream(),
        controller,
        StreamPricing::new(reconfig()),
        &cfg(),
    )
    .unwrap()
}

fn hash(run: &(SwitchSchedule, SimReport)) -> u64 {
    fnv1a_64(format!("{run:?}").as_bytes())
}

#[test]
fn solo_front_doors_match_the_pinned_hashes() {
    let steps = schedule().num_steps();
    let mixed = SwitchSchedule::new(
        [Base, Matched, Matched, Base, Matched, Base]
            .into_iter()
            .cycle()
            .take(steps)
            .collect(),
    );
    let got = [
        ("adaptive-dp", hash(&adaptive(&DpPlanned))),
        ("adaptive-threshold", hash(&adaptive(&Threshold))),
        (
            "scheduled-matched",
            hash(&scheduled(SwitchSchedule::all_matched(steps))),
        ),
        ("scheduled-mixed", hash(&scheduled(mixed))),
        ("workload-greedy", hash(&workload(&Greedy))),
    ];
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        for (name, h) in &got {
            println!("    (\"{name}\", 0x{h:016x}),");
        }
    }
    assert_eq!(
        got, GOLDEN,
        "a solo front door's trace drifted; print fresh constants with \
         UPDATE_GOLDEN=1 only for an intentional behaviour change"
    );
}

#[test]
fn the_adaptive_cases_decide_before_the_gpus_free() {
    // The pins only cover the decision stamp if the controllers
    // reconfigure at all, and only cover overlap if some decision is
    // stamped while the previous step still computes.
    for controller in [&DpPlanned as &dyn Controller, &Threshold] {
        let (switches, report) = adaptive(controller);
        assert!(switches.matched_steps() > 0, "{}", controller.name());
        let mut compute_done = 0;
        let mut early = 0;
        for e in &report.trace {
            match e.kind {
                TraceKind::ComputeDone => compute_done = e.at,
                TraceKind::Decision { .. } => early += usize::from(e.at < compute_done),
                _ => {}
            }
        }
        assert!(early > 0, "{}", controller.name());
    }
}
