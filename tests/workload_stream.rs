//! Streaming-workload acceptance suite: parity with the materialized
//! path, O(1)-memory million-step execution, and cross-thread generator
//! determinism.
//!
//! 1. **Parity** — simulating a `Schedule` through its `Workload` impl is
//!    bit-identical to the materialized adaptive path for every online
//!    controller (decisions, rationales, trace, timing).
//! 2. **Scale** — a ≥1,000,000-step repeated workload runs under the
//!    streaming adaptive executor without materializing the step vector:
//!    a counting wrapper shows steps are pulled one at a time, exactly as
//!    demanded, and the O(1) `StreamSummary` report carries the totals.
//! 3. **Determinism** — seeded generators replay bit-identically when
//!    driven from `aps-par` pools of any width (the PR 2 `APS_THREADS`
//!    guarantee extended to workloads).

use adaptive_photonics::prelude::*;
use aps_collectives::workload::generators::{OnOffBursty, RandomPermutations, TrainingLoop};
use aps_cost::units::MIB;

fn domain(n: usize) -> Experiment<adaptive_photonics::experiment::Unbound> {
    Experiment::domain(topology::builders::ring_unidirectional(n).unwrap())
        .reconfig(ReconfigModel::constant(10e-6).unwrap())
}

#[test]
fn schedule_via_workload_is_bit_identical_to_materialized_simulation() {
    let n = 16;
    for schedule in [
        collectives::allreduce::halving_doubling::build(n, 4.0 * 1024.0 * 1024.0)
            .unwrap()
            .schedule,
        collectives::alltoall::linear_shift(n, 1024.0 * 1024.0)
            .unwrap()
            .schedule,
    ] {
        for ctl in [
            &Static as &dyn Controller,
            &AlwaysReconfigure,
            &Threshold,
            &Greedy,
        ] {
            let via_schedule = domain(n)
                .schedule(&schedule)
                .controller(ctl)
                .simulate()
                .unwrap();
            let mut streaming = domain(n)
                .workload(schedule.clone().into_workload())
                .controller(ctl);
            let via_workload = streaming.simulate().unwrap();
            assert_eq!(
                via_schedule.switches,
                via_workload.switches,
                "{}",
                ctl.name()
            );
            assert_eq!(via_schedule.report, via_workload.report, "{}", ctl.name());
            // The streaming run replays identically (reset-on-entry).
            let again = streaming.simulate().unwrap();
            assert_eq!(via_workload.report, again.report, "{}", ctl.name());
        }
    }
}

#[test]
fn streaming_plan_matches_schedule_plan() {
    let n = 16;
    let schedule = collectives::allreduce::halving_doubling::build(n, 16.0 * 1024.0 * 1024.0)
        .unwrap()
        .schedule;
    let want = domain(n).schedule(&schedule).plan().unwrap();
    let got = domain(n)
        .workload(schedule.clone().into_workload())
        .plan()
        .unwrap();
    assert_eq!(want.switches, got.switches);
    assert_eq!(want.report, got.report);
    // Unbounded streams refuse to plan but still simulate.
    let mut endless = domain(n).workload(schedule.into_workload().repeat_forever());
    assert!(matches!(
        endless.plan(),
        Err(ExperimentError::UnboundedWorkload)
    ));
    let summary = endless.simulate_summary(64).unwrap();
    assert_eq!(summary.steps, 64);
}

/// Wraps a workload and counts every pull, so tests can assert demand is
/// consumed incrementally — never materialized ahead of execution.
struct Counting<W> {
    inner: W,
    pulled: usize,
}

impl<W: Workload> Workload for Counting<W> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        self.pulled += 1;
        self.inner.next_step_into(ctx, out)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.pulled = 0;
    }
}

#[test]
fn experiment_schedule_is_bit_equivalent_to_its_workload_route() {
    // `Experiment::schedule` stays, but its demand now lives behind the
    // schedule's `Workload` impl. This pins the two front-door routes —
    // the materialized `.schedule(&s)` binder and the streaming
    // `.workload(s.into_workload())` binder — bit-equivalent: same plan,
    // and (for an online controller) the same simulated run byte for
    // byte.
    let n = 16;
    let s = collectives::allreduce::halving_doubling::build(n, 8.0 * MIB)
        .unwrap()
        .schedule;
    let base = || topology::builders::ring_unidirectional(n).unwrap();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();

    let mut via_schedule = Experiment::domain(base()).reconfig(reconfig).schedule(&s);
    let mut via_workload = Experiment::domain(base())
        .reconfig(reconfig)
        .workload(s.clone().into_workload());
    let plan_a = via_schedule.plan().unwrap();
    let plan_b = via_workload.plan().unwrap();
    assert_eq!(plan_a.switches, plan_b.switches);
    assert_eq!(plan_a.report, plan_b.report);

    let mut sim_a = Experiment::domain(base())
        .reconfig(reconfig)
        .schedule(&s)
        .controller(Greedy);
    let mut sim_b = Experiment::domain(base())
        .reconfig(reconfig)
        .workload(s.into_workload())
        .controller(Greedy);
    let run_a = sim_a.simulate().unwrap();
    let run_b = sim_b.simulate().unwrap();
    assert_eq!(run_a.switches, run_b.switches);
    assert_eq!(run_a.report, run_b.report);
}

#[test]
fn million_step_workload_streams_without_materializing() {
    // 500,000 epochs of a 2-step schedule: 1,000,000 steps. The schedule
    // allocation is the 2-step epoch alone — the stream holds O(1) state
    // (a cursor + epoch counter) no matter how long it runs — and the
    // totals runner keeps the report O(1) too (a single StepReport
    // scratch folded into a StreamSummary).
    let n = 4;
    let step = Step {
        matching: Matching::shift(n, 1).unwrap(),
        bytes_per_pair: 1024.0,
    };
    let epoch = Schedule::new(
        n,
        CollectiveKind::Composite,
        "micro-epoch",
        vec![step.clone(), step],
    )
    .unwrap();
    let total_steps = 1_000_000usize;
    let mut counting = Counting {
        inner: epoch.into_workload().repeat(total_steps / 2),
        pulled: 0,
    };
    assert_eq!(counting.size_hint(), (total_steps, Some(total_steps)));

    let base = topology::builders::ring_unidirectional(n).unwrap();
    let reconfig = ReconfigModel::constant(1e-6).unwrap();
    let mut fabric = CircuitSwitch::new(Matching::shift(n, 1).unwrap(), reconfig);
    let summary = run_workload_totals(
        &mut fabric,
        &base,
        &mut counting,
        &Static,
        StreamPricing::new(reconfig),
        &RunConfig::paper_defaults(),
        usize::MAX,
    )
    .unwrap();
    assert_eq!(summary.steps, total_steps);
    assert_eq!(summary.matched_steps, 0);
    assert_eq!(summary.reconfig_events, 0);
    assert!(summary.total_s() > 0.0);
    // Exactly one pull per executed step plus the exhaustion probe — the
    // executor never read ahead.
    assert_eq!(counting.pulled, total_steps + 1);

    // Lazy in the strong sense: a capped run pulls only what it executes,
    // leaving the rest of the stream untouched.
    counting.reset();
    let mut fabric = CircuitSwitch::new(Matching::shift(n, 1).unwrap(), reconfig);
    let capped = run_workload_totals(
        &mut fabric,
        &base,
        &mut counting,
        &Static,
        StreamPricing::new(reconfig),
        &RunConfig::paper_defaults(),
        1000,
    )
    .unwrap();
    assert_eq!(capped.steps, 1000);
    assert_eq!(counting.pulled, 1000);
    assert_eq!(
        counting.size_hint(),
        (total_steps - 1000, Some(total_steps - 1000))
    );
}

#[test]
fn generators_are_bit_identical_across_pool_widths() {
    // Materialize each seeded generator on pools of several widths; the
    // streams are pure functions of their seeds, so every worker
    // assignment yields the same bytes.
    let seeds: Vec<u64> = (0..8).collect();
    let run = |threads: usize| -> Vec<Vec<Step>> {
        Pool::new(threads).map(&seeds, |_, &seed| {
            let mut steps = Vec::new();
            let mut perms = RandomPermutations::new(8, 1e6, Some(16), seed).unwrap();
            let mut bursty = OnOffBursty::new(8, 1e6, 2, 3, Some(16), seed).unwrap();
            let mut train = TrainingLoop::new(8, 2, 1e5, 1e6, Some(1)).unwrap();
            for w in [&mut perms as &mut dyn Workload, &mut bursty, &mut train] {
                let mut i = 0;
                while let Some(s) = w.next_step(&WorkloadCtx::at(i)) {
                    steps.push(s);
                    i += 1;
                }
            }
            steps
        })
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(serial, run(threads), "threads = {threads}");
    }
}
