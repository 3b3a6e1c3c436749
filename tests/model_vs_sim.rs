//! Cross-validation: the analytic cost model (eq. 3/4/7) against the
//! discrete-event fluid-flow simulator.
//!
//! For uniform-volume steps, max-min fair sharing drains the bottleneck
//! link's flows at exactly `cap/load`, so the simulated transfer time equals
//! the analytic `β·m/θ` — simulator and model must agree *exactly* (up to
//! picosecond rounding). For skewed patterns max-min can only finish
//! earlier, so the model is a certified upper bound.

use adaptive_photonics::prelude::*;
use aps_cost::units::MIB;
use aps_flow::solver::ThetaCache;

fn model_and_sim(
    n: usize,
    coll: &Collective,
    policy: &dyn Controller,
    alpha_r: f64,
) -> (f64, f64, SwitchSchedule) {
    let base = topology::builders::ring_unidirectional(n).unwrap();
    let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
    let problem = SwitchingProblem::build(
        &base,
        &coll.schedule,
        &mut cache,
        CostParams::paper_defaults(),
        ReconfigModel::constant(alpha_r).unwrap(),
    )
    .unwrap();
    // The simulator is physical: compare under PhysicalDiff accounting.
    let acc = ReconfigAccounting::PhysicalDiff;
    let switches = policy.plan(&problem, acc).unwrap();
    let model = aps_core::evaluate(&problem, &switches, acc)
        .unwrap()
        .total_s();

    let ring = Matching::shift(n, 1).unwrap();
    let mut fabric = CircuitSwitch::new(ring.clone(), ReconfigModel::constant(alpha_r).unwrap());
    let sim = run_scheduled(
        &mut fabric,
        &ring,
        &coll.schedule,
        &switches,
        &RunConfig::paper_defaults(),
    )
    .unwrap()
    .total_s();
    (model, sim, switches)
}

#[test]
fn uniform_collectives_match_exactly() {
    // Ring allreduce and linear-shift All-to-All: every step loads all ring
    // links equally → max-min equals the concurrent-flow bound.
    let n = 16;
    for coll in [
        collectives::allreduce::ring::build(n, MIB).unwrap(),
        collectives::alltoall::linear_shift(n, MIB).unwrap(),
    ] {
        for policy in [&Static as &dyn Controller, &AlwaysReconfigure, &DpPlanned] {
            let (model, sim, sched) = model_and_sim(n, &coll, policy, 5e-6);
            let rel = (sim - model).abs() / model;
            assert!(
                rel < 1e-6,
                "{} under {} ({}): model {model}, sim {sim}",
                coll.schedule.algorithm(),
                policy.name(),
                sched.compact()
            );
        }
    }
}

#[test]
fn simulator_never_exceeds_the_model() {
    // Skewed patterns (xor exchanges wrap asymmetrically on the ring): the
    // model upper-bounds the fluid simulation.
    let n = 16;
    for coll in [
        collectives::allreduce::halving_doubling::build(n, MIB).unwrap(),
        collectives::allreduce::swing::build(n, MIB).unwrap(),
        collectives::allreduce::recursive_doubling::build(n, MIB).unwrap(),
        collectives::alltoall::xor_exchange(n, MIB).unwrap(),
        collectives::alltoall::bruck(n, MIB).unwrap(),
    ] {
        for policy in [&Static as &dyn Controller, &AlwaysReconfigure, &DpPlanned] {
            let (model, sim, sched) = model_and_sim(n, &coll, policy, 5e-6);
            assert!(
                sim <= model * (1.0 + 1e-9),
                "{} under {} ({}): sim {sim} exceeds model {model}",
                coll.schedule.algorithm(),
                policy.name(),
                sched.compact()
            );
            // And the model is not wildly loose: within 2x here.
            assert!(
                sim >= model * 0.5,
                "{} under {}: sim {sim} unexpectedly far below model {model}",
                coll.schedule.algorithm(),
                policy.name()
            );
        }
    }
}

#[test]
fn matched_execution_is_exact_for_every_collective() {
    // On matched configurations every flow has a dedicated circuit: the
    // simulator must reproduce α + δ + β·m per step exactly, for every
    // algorithm including the skewed ones.
    let n = 16;
    for coll in [
        collectives::allreduce::halving_doubling::build(n, 4.0 * MIB).unwrap(),
        collectives::allreduce::swing::build(n, 4.0 * MIB).unwrap(),
        collectives::broadcast::binomial(n, 3, 4.0 * MIB).unwrap(),
    ] {
        let (model, sim, _) = model_and_sim(n, &coll, &AlwaysReconfigure, 2e-6);
        let rel = (sim - model).abs() / model;
        assert!(
            rel < 1e-6,
            "{}: model {model} vs sim {sim}",
            coll.schedule.algorithm()
        );
    }
}

#[test]
fn wavelength_fabric_prices_partial_reconfigurations_cheaper() {
    // Broadcast's early steps involve 2–4 ports; on a wavelength fabric the
    // unchanged ports keep carrying traffic, so an all-matched broadcast
    // reconfigures faster than on a whole-fabric circuit switch with the
    // same per-event delay... but, more importantly here, it must still
    // satisfy the semantics and the timing must be deterministic.
    let n = 16;
    let coll = collectives::broadcast::binomial(n, 0, MIB).unwrap();
    let ring = Matching::shift(n, 1).unwrap();
    let s = coll.schedule.num_steps();
    let run = |tuning: f64| {
        let mut f = WavelengthFabric::uniform(ring.clone(), tuning).unwrap();
        run_scheduled(
            &mut f,
            &ring,
            &coll.schedule,
            &SwitchSchedule::all_matched(s),
            &RunConfig::paper_defaults(),
        )
        .unwrap()
        .total_s()
    };
    let fast = run(1e-6);
    let slow = run(20e-6);
    assert!(slow > fast);
    assert!((slow - fast - s as f64 * 19e-6).abs() < 1e-9);
    // Determinism: repeated runs agree bit-for-bit.
    assert_eq!(run(1e-6), run(1e-6));
}
