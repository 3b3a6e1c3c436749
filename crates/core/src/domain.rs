//! High-level facade: an adaptive photonic scale-up domain.
//!
//! [`ScaleupDomain`] bundles the base topology, cost parameters,
//! reconfiguration pricing and a θ memo into the object downstream users
//! interact with: hand it a collective, get back the optimal circuit-switch
//! schedule and a policy comparison.

use crate::assignment::SwitchSchedule;
use crate::controller::{AlwaysReconfigure, Controller, DpPlanned, Static, Threshold};
use crate::error::CoreError;
use crate::objective::{evaluate, CostReport, ReconfigAccounting};
use crate::problem::{config_of_topology, SwitchingProblem};
use aps_collectives::Schedule;
use aps_cost::steptable::step_cost_table;
use aps_cost::{CostParams, ReconfigModel};
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_topology::Topology;

/// Completion times of the §3.4 comparison on one collective (or one
/// sweep cell): the two baselines, the eq. (7) optimum and the §4
/// threshold heuristic. Fields follow [`PolicyComparison::CONTROLLERS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyComparison {
    /// Never reconfigure ([`Static`]).
    pub static_s: f64,
    /// Reconfigure every step ([`AlwaysReconfigure`]).
    pub bvn_s: f64,
    /// Optimized schedule ([`DpPlanned`]).
    pub opt_s: f64,
    /// Threshold heuristic ([`Threshold`]).
    pub threshold_s: f64,
}

impl PolicyComparison {
    /// The controllers behind the columns, in field order.
    pub const CONTROLLERS: [&'static dyn Controller; 4] =
        [&Static, &AlwaysReconfigure, &DpPlanned, &Threshold];

    /// Plans and prices every column's controller on `problem`.
    ///
    /// # Errors
    ///
    /// Propagates controller planning errors.
    pub fn price(
        problem: &SwitchingProblem,
        accounting: ReconfigAccounting,
    ) -> Result<Self, CoreError> {
        let mut t = [0.0; 4];
        for (t, c) in t.iter_mut().zip(Self::CONTROLLERS) {
            *t = evaluate(problem, &c.plan(problem, accounting)?, accounting)?.total_s();
        }
        let [static_s, bvn_s, opt_s, threshold_s] = t;
        Ok(Self {
            static_s,
            bvn_s,
            opt_s,
            threshold_s,
        })
    }

    /// The completion times in [`PolicyComparison::CONTROLLERS`] order.
    pub fn times_s(&self) -> [f64; 4] {
        [self.static_s, self.bvn_s, self.opt_s, self.threshold_s]
    }

    /// `t_static / t_opt` — Figure 1 bottom row.
    pub fn speedup_vs_static(&self) -> f64 {
        self.static_s / self.opt_s
    }

    /// `t_bvn / t_opt` — Figure 1 top row.
    pub fn speedup_vs_bvn(&self) -> f64 {
        self.bvn_s / self.opt_s
    }

    /// `min(static, bvn) / t_opt` — the Figure 2 metric.
    pub fn speedup_vs_best_of_both(&self) -> f64 {
        self.static_s.min(self.bvn_s) / self.opt_s
    }

    /// `t_threshold / t_opt` — the A1 ablation's optimality gap.
    pub fn threshold_gap(&self) -> f64 {
        self.threshold_s / self.opt_s
    }
}

/// An adaptive photonic scale-up domain: `n` GPUs behind one reconfigurable
/// fabric, a base topology, and the cost model of §3.
#[derive(Debug)]
pub struct ScaleupDomain {
    base: Topology,
    params: CostParams,
    reconfig: ReconfigModel,
    accounting: ReconfigAccounting,
    cache: ThetaCache,
}

impl ScaleupDomain {
    /// Creates a domain with the default (forced-path) throughput solver and
    /// the paper's conservative reconfiguration accounting.
    pub fn new(base: Topology, params: CostParams, reconfig: ReconfigModel) -> Self {
        let cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
        Self {
            base,
            params,
            reconfig,
            accounting: ReconfigAccounting::PaperConservative,
            cache,
        }
    }

    /// Selects a different throughput solver (e.g. the Garg–Könemann FPTAS
    /// for splittable routing on multi-path bases).
    pub fn with_solver(mut self, solver: ThroughputSolver) -> Self {
        self.cache = ThetaCache::new(&self.base, solver);
        self
    }

    /// Selects the reconfiguration accounting rule.
    pub fn with_accounting(mut self, accounting: ReconfigAccounting) -> Self {
        self.accounting = accounting;
        self
    }

    /// Number of GPUs in the domain.
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// The base topology.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// The cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Builds the eq. (7) instance for a collective.
    ///
    /// # Errors
    ///
    /// Fails when a step cannot be routed on the base topology.
    pub fn problem(&mut self, schedule: &Schedule) -> Result<SwitchingProblem, CoreError> {
        let steps = step_cost_table(&self.base, schedule, &mut self.cache)?;
        Ok(SwitchingProblem {
            n: self.base.n(),
            params: self.params,
            reconfig: self.reconfig,
            base_config: config_of_topology(&self.base),
            steps,
        })
    }

    /// Builds the eq. (7) instance for workload-derived demand: drains up
    /// to `limit` steps of `workload` (from its current position). See
    /// [`SwitchingProblem::from_workload`].
    ///
    /// # Errors
    ///
    /// Fails when the workload exceeds `limit` steps, yields a malformed
    /// step, or a step cannot be routed on the base topology.
    pub fn problem_from_workload(
        &mut self,
        workload: &mut dyn aps_collectives::Workload,
        limit: usize,
    ) -> Result<SwitchingProblem, CoreError> {
        SwitchingProblem::from_workload(
            &self.base,
            workload,
            limit,
            &mut self.cache,
            self.params,
            self.reconfig,
        )
    }

    /// Lets `controller` plan workload-derived demand (≤ `limit` steps)
    /// and prices the result — [`ScaleupDomain::plan_with`] over a
    /// drained stream.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and controller planning errors.
    pub fn plan_workload(
        &mut self,
        workload: &mut dyn aps_collectives::Workload,
        limit: usize,
        controller: &dyn Controller,
    ) -> Result<(SwitchSchedule, CostReport), CoreError> {
        let p = self.problem_from_workload(workload, limit)?;
        let switches = controller.plan(&p, self.accounting)?;
        let report = evaluate(&p, &switches, self.accounting)?;
        Ok((switches, report))
    }

    /// The reconfiguration accounting rule in force.
    pub fn accounting(&self) -> ReconfigAccounting {
        self.accounting
    }

    /// Computes the optimal circuit-switch schedule for a collective —
    /// [`ScaleupDomain::plan_with`] under the [`DpPlanned`] controller.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction errors.
    pub fn plan(&mut self, schedule: &Schedule) -> Result<(SwitchSchedule, CostReport), CoreError> {
        self.plan_with(schedule, &DpPlanned)
    }

    /// Lets `controller` choose the circuit-switch schedule for a
    /// collective and prices the result. This is the single planning
    /// entrypoint every policy routes through; [`ScaleupDomain::plan`] is
    /// the [`DpPlanned`] special case.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and controller planning errors.
    pub fn plan_with(
        &mut self,
        schedule: &Schedule,
        controller: &dyn Controller,
    ) -> Result<(SwitchSchedule, CostReport), CoreError> {
        let p = self.problem(schedule)?;
        let switches = controller.plan(&p, self.accounting)?;
        let report = evaluate(&p, &switches, self.accounting)?;
        Ok((switches, report))
    }

    /// Prices the schedule `controller` chooses for a collective.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and controller planning errors.
    pub fn evaluate_with(
        &mut self,
        schedule: &Schedule,
        controller: &dyn Controller,
    ) -> Result<CostReport, CoreError> {
        self.plan_with(schedule, controller).map(|(_, r)| r)
    }

    /// Prices all four policies on a collective
    /// ([`PolicyComparison::price`]).
    ///
    /// # Errors
    ///
    /// Propagates problem-construction errors.
    pub fn compare(&mut self, schedule: &Schedule) -> Result<PolicyComparison, CoreError> {
        PolicyComparison::price(&self.problem(schedule)?, self.accounting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::allreduce;
    use aps_cost::units::MIB;
    use aps_topology::builders;

    fn swing_problem(n: usize, m: f64, alpha_r: f64) -> SwitchingProblem {
        let c = allreduce::swing::build(n, m).unwrap();
        domain(n, alpha_r).problem(&c.schedule).unwrap()
    }

    fn domain(n: usize, alpha_r: f64) -> ScaleupDomain {
        ScaleupDomain::new(
            builders::ring_unidirectional(n).unwrap(),
            CostParams::paper_defaults(),
            ReconfigModel::constant(alpha_r).unwrap(),
        )
    }

    #[test]
    fn plan_and_compare_are_consistent() {
        let mut d = domain(16, 1e-6);
        let c = allreduce::halving_doubling::build(16, 4.0 * MIB).unwrap();
        let (schedule, report) = d.plan(&c.schedule).unwrap();
        let cmp = d.compare(&c.schedule).unwrap();
        assert!((report.total_s() - cmp.opt_s).abs() < 1e-15);
        assert!(cmp.speedup_vs_static() >= 1.0);
        assert!(cmp.speedup_vs_bvn() >= 1.0);
        assert!(cmp.speedup_vs_best_of_both() <= cmp.speedup_vs_static() + 1e-12);
        assert_eq!(schedule.len(), c.schedule.num_steps());
        assert_eq!(d.n(), 16);
    }

    #[test]
    fn large_messages_prefer_reconfiguration() {
        let mut d = domain(16, 1e-6);
        let big = allreduce::halving_doubling::build(16, 256.0 * MIB).unwrap();
        let (schedule, _) = d.plan(&big.schedule).unwrap();
        assert!(schedule.matched_steps() > 0);
        // A 64-byte message stays static once α_r dwarfs the propagation
        // savings (on a 16-ring the longest path saves only ~1.4 µs of δ).
        let mut d = domain(16, 1e-4);
        let small = allreduce::halving_doubling::build(16, 64.0).unwrap();
        let (schedule, _) = d.plan(&small.schedule).unwrap();
        assert_eq!(schedule.matched_steps(), 0);
    }

    #[test]
    fn tiny_alpha_r_lets_propagation_savings_justify_reconfig() {
        // With α_r = 1 µs and δ = 100 ns, steps with ring paths ≥ 11 hops
        // save more propagation than the reconfiguration costs — so even a
        // 64-byte collective reconfigures its long-distance steps. This is
        // the §4 "deeper understanding of the propagation delays" effect.
        let mut d = domain(16, 1e-6);
        let small = allreduce::halving_doubling::build(16, 64.0).unwrap();
        let (schedule, _) = d.plan(&small.schedule).unwrap();
        assert!(schedule.matched_steps() > 0);
    }

    #[test]
    fn plan_with_controllers_brackets_the_optimum() {
        use crate::controller::{shipped, DpPlanned};
        let c = allreduce::halving_doubling::build(16, 16.0 * MIB).unwrap();
        let mut d = domain(16, 1e-5);
        let (opt_sched, opt) = d.plan(&c.schedule).unwrap();
        // plan() is exactly plan_with(DpPlanned).
        let (sched2, rep2) = d.plan_with(&c.schedule, &DpPlanned).unwrap();
        assert_eq!(opt_sched, sched2);
        assert_eq!(opt, rep2);
        for ctl in shipped() {
            let r = d.evaluate_with(&c.schedule, ctl).unwrap();
            assert!(
                opt.total_s() <= r.total_s() + 1e-15,
                "{} beat the optimum",
                ctl.name()
            );
        }
    }

    #[test]
    fn columns_are_the_named_controllers_in_figure_order() {
        // The `"policies"` array of the fig1/fig2 JSON reports.
        assert_eq!(
            PolicyComparison::CONTROLLERS.map(|c| c.name()),
            ["static", "bvn", "opt", "threshold"]
        );
        let p = swing_problem(16, 1e6, 1e-6);
        let acc = ReconfigAccounting::default();
        let cmp = PolicyComparison::price(&p, acc).unwrap();
        let want = PolicyComparison::CONTROLLERS.map(|c| {
            evaluate(&p, &c.plan(&p, acc).unwrap(), acc)
                .unwrap()
                .total_s()
        });
        assert_eq!(cmp.times_s(), want);
    }

    #[test]
    fn opt_dominates_every_column_on_the_swing_ring() {
        for m in [1e3, 1e6, 1e8] {
            for alpha_r in [1e-8, 1e-6, 1e-3] {
                let cmp =
                    PolicyComparison::price(&swing_problem(16, m, alpha_r), Default::default())
                        .unwrap();
                for (c, t) in PolicyComparison::CONTROLLERS.iter().zip(cmp.times_s()) {
                    assert!(
                        cmp.opt_s <= t + 1e-15,
                        "m={m} αr={alpha_r}: opt {} beaten by {} ({t})",
                        cmp.opt_s,
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_agrees_with_optimal_in_extreme_regimes() {
        let acc = ReconfigAccounting::default();
        // Tiny messages + huge delay: both stay static.
        let p = swing_problem(16, 100.0, 1e-3);
        let th = Threshold.plan(&p, acc).unwrap();
        assert_eq!(th, SwitchSchedule::all_base(p.num_steps()));
        assert_eq!(DpPlanned.plan(&p, acc).unwrap(), th);
        // Huge messages + free-ish delay: both fully reconfigure.
        let p = swing_problem(16, 1e9, 1e-9);
        let th = Threshold.plan(&p, acc).unwrap();
        assert_eq!(th, SwitchSchedule::all_matched(p.num_steps()));
        assert_eq!(DpPlanned.plan(&p, acc).unwrap(), th);
    }

    #[test]
    fn accounting_switch_changes_pricing() {
        // Ring allreduce steps equal the base ring: PhysicalDiff makes
        // "matched" free, so BvN == static there.
        let c = allreduce::ring::build(8, MIB).unwrap();
        let mut paper = domain(8, 1e-4);
        let mut phys = domain(8, 1e-4).with_accounting(ReconfigAccounting::PhysicalDiff);
        let cp = paper.compare(&c.schedule).unwrap();
        let cf = phys.compare(&c.schedule).unwrap();
        assert!(cp.bvn_s > cf.bvn_s);
        assert!((cf.bvn_s - cf.static_s).abs() < 1e-12);
    }
}
