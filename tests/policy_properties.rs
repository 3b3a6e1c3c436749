//! Property-based tests of the scheduling core: the DP solver is pinned to
//! exhaustive enumeration on random instances, and the optimal policy
//! dominates every baseline across randomly drawn workloads and parameters.

use adaptive_photonics::prelude::*;
use aps_core::brute::optimize_exhaustive;
use aps_core::{dp, evaluate};
use aps_cost::steptable::StepCosts;
use proptest::prelude::*;

/// A random synthetic problem: per-step volumes, θ ∈ (0, 1], hops, on a
/// synthetic 8-node domain. Building instances directly (instead of through
/// a topology) lets proptest explore θ/ℓ combinations no ring produces.
fn arb_problem() -> impl Strategy<Value = SwitchingProblem> {
    let step = (
        1.0f64..1e9,  // bytes
        0.01f64..1.0, // theta_base
        1usize..32,   // ell_base
        0usize..7,    // shift distance for the matching
    );
    (proptest::collection::vec(step, 1..12), 0.0f64..1e-3).prop_map(|(raw, alpha_r)| {
        let n = 8;
        let steps: Vec<StepCosts> = raw
            .into_iter()
            .map(|(bytes, theta, ell, k)| StepCosts {
                matching: Matching::shift(n, k + 1).unwrap(),
                bytes,
                theta_base: theta,
                ell_base: ell,
            })
            .collect();
        SwitchingProblem {
            n,
            params: CostParams::paper_defaults(),
            reconfig: ReconfigModel::constant(alpha_r).unwrap(),
            base_config: Some(Matching::shift(n, 1).unwrap()),
            steps,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dp_equals_exhaustive(problem in arb_problem()) {
        for acc in [ReconfigAccounting::PaperConservative, ReconfigAccounting::PhysicalDiff] {
            let (_, dp_report) = dp::optimize(&problem, acc).unwrap();
            let (_, bf_report) = optimize_exhaustive(&problem, acc).unwrap();
            let (d, b) = (dp_report.total_s(), bf_report.total_s());
            prop_assert!((d - b).abs() <= 1e-12 + 1e-9 * b, "dp {d} vs brute {b} ({acc:?})");
        }
    }

    #[test]
    fn optimal_dominates_all_policies(problem in arb_problem()) {
        let acc = ReconfigAccounting::PaperConservative;
        let price = |c: &dyn Controller| evaluate(&problem, &c.plan(&problem, acc)?, acc);
        let opt = price(&DpPlanned).unwrap().total_s();
        for c in aps_core::controller::shipped() {
            let t = price(c).unwrap().total_s();
            prop_assert!(opt <= t + 1e-15, "opt {opt} beaten by {} at {t}", c.name());
        }
    }

    #[test]
    fn objective_components_are_consistent(problem in arb_problem()) {
        let acc = ReconfigAccounting::PaperConservative;
        let s = problem.num_steps();
        for schedule in [SwitchSchedule::all_base(s), SwitchSchedule::all_matched(s)] {
            let r = evaluate(&problem, &schedule, acc).unwrap();
            // s·α latency term.
            prop_assert!((r.latency_s - s as f64 * problem.params.alpha_s).abs() < 1e-15);
            // Total is the sum of its parts.
            let sum = r.latency_s + r.propagation_s + r.transmission_s + r.reconfig_s;
            prop_assert!((r.total_s() - sum).abs() < 1e-18);
            // Event counting matches the schedule's own count.
            prop_assert_eq!(r.reconfig_events, schedule.reconfig_events());
        }
    }

    #[test]
    fn optimal_cost_is_monotone_in_reconfig_delay(problem in arb_problem()) {
        // Raising α_r can never make the optimum faster.
        let acc = ReconfigAccounting::PaperConservative;
        let mut cheap = problem.clone();
        cheap.reconfig = ReconfigModel::constant(0.0).unwrap();
        let mut costly = problem.clone();
        costly.reconfig = ReconfigModel::constant(1e-2).unwrap();
        let t_mid = dp::optimize(&problem, acc).unwrap().1.total_s();
        let t_cheap = dp::optimize(&cheap, acc).unwrap().1.total_s();
        let t_costly = dp::optimize(&costly, acc).unwrap().1.total_s();
        prop_assert!(t_cheap <= t_mid + 1e-15);
        prop_assert!(t_mid <= t_costly + 1e-15);
    }

    #[test]
    fn physical_accounting_never_costs_more_than_paper(problem in arb_problem()) {
        // PhysicalDiff ⊆ PaperConservative charges: for any fixed schedule
        // the physical pricing is at most the conservative one (with a
        // constant-delay model).
        let s = problem.num_steps();
        for schedule in [SwitchSchedule::all_base(s), SwitchSchedule::all_matched(s)] {
            let paper = evaluate(&problem, &schedule, ReconfigAccounting::PaperConservative)
                .unwrap()
                .total_s();
            let phys = evaluate(&problem, &schedule, ReconfigAccounting::PhysicalDiff)
                .unwrap()
                .total_s();
            prop_assert!(phys <= paper + 1e-15);
        }
    }
}

#[test]
fn threshold_heuristic_gap_is_bounded_on_real_collectives() {
    // Not a property of the heuristic in general (it can be fooled), but on
    // the paper's workloads the gap stays modest; this pins the measured
    // behavior so regressions in the heuristic are visible.
    let n = 32;
    let base = topology::builders::ring_unidirectional(n).unwrap();
    let mut worst: f64 = 1.0;
    for m in [1e3, 1e5, 1e7, 1e9] {
        for alpha_r in [1e-7, 1e-5, 1e-3] {
            let coll = collectives::allreduce::halving_doubling::build(n, m).unwrap();
            let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
            let p = SwitchingProblem::build(
                &base,
                &coll.schedule,
                &mut cache,
                CostParams::paper_defaults(),
                ReconfigModel::constant(alpha_r).unwrap(),
            )
            .unwrap();
            let acc = ReconfigAccounting::PaperConservative;
            let cmp = PolicyComparison::price(&p, acc).unwrap();
            worst = worst.max(cmp.threshold_gap());
        }
    }
    assert!(worst < 1.5, "threshold heuristic gap grew to {worst}x");
}
