//! The open policy abstraction: a [`Controller`] observes one step at a
//! time — the step's demand (bytes, base-topology congestion `θ`, hop count
//! `ℓ`) and the fabric's state (the previous step's configuration choice) —
//! and answers the paper's central question for that step: does the fabric
//! *bend to the collective* (reconfigure, pay `α_r`) or stay put?
//!
//! Everything that chooses circuit configurations in this workspace is a
//! controller. The policy comparison ([`crate::PolicyComparison`]), the
//! sweep engine, the simulator's adaptive runs and the multi-tenant
//! scenario planner all route through this trait, so a new scheduling idea
//! is one `impl Controller` away from every harness in the repo.
//!
//! Five controllers ship with the crate:
//!
//! | controller | `name()` | behavior |
//! |---|---|---|
//! | [`Static`] | `static` | never reconfigure (the §3.4 static-base baseline) |
//! | [`AlwaysReconfigure`] | `bvn` | reconfigure every step (the naive BvN schedule) |
//! | [`Threshold`] | `threshold` | per-step standalone gain vs worst-case `α_r` (§4 heuristic) |
//! | [`DpPlanned`] | `opt` | the exact eq. (7) optimum via [`crate::dp::optimize`] |
//! | [`Greedy`] | `greedy` | online myopic rule: cheapest next step given the fabric's state |
//!
//! The trait is object-safe: harnesses hold `&dyn Controller` (or
//! `Box<dyn Controller>`) and controllers are `Send + Sync`, so one
//! instance can serve a whole [`aps_par::Pool`].

use crate::assignment::{ConfigChoice, SwitchSchedule};
use crate::dp;
use crate::error::CoreError;
use crate::objective::{reconfig_charge, step_run_cost, ReconfigAccounting};
use crate::problem::SwitchingProblem;
use aps_cost::steptable::StepCosts;

/// Decision order shared with the DP trellis: `Base` first, so strict
/// `<`-improvement tie-breaks toward staying on the base topology exactly
/// like [`crate::dp::optimize`] does.
const STATES: [ConfigChoice; 2] = [ConfigChoice::Base, ConfigChoice::Matched];

/// What a controller sees before deciding step `step`: the observable
/// problem window (demand and pricing), the accounting rule in force, and
/// the fabric state it would transition from.
///
/// Materialized runs observe the *whole* problem, so `step` doubles as
/// the global step number. Streaming runs (`aps-sim`'s workload
/// executors) observe only a short trailing window of the stream: `step`
/// then indexes the window while [`StepObservation::stream_step`] carries
/// the global position — controllers must use `stream_step` whenever they
/// talk *about* a step (e.g. in [`Controller::explain`] rationales) and
/// `step` whenever they index `problem.steps`.
#[derive(Debug, Clone, Copy)]
pub struct StepObservation<'a> {
    /// The eq. (7) instance (or streaming window) being executed.
    pub problem: &'a SwitchingProblem,
    /// How reconfiguration events are priced.
    pub accounting: ReconfigAccounting,
    /// Index of the step being decided within `problem.steps`.
    pub step: usize,
    /// The previous step's choice — the configuration the fabric currently
    /// holds (`ConfigChoice::Base` before the first step, `x₀ = 1`).
    pub prev: ConfigChoice,
    /// Global index of the step in the demand stream; equals `step` for
    /// materialized runs.
    pub stream_step: usize,
}

impl<'a> StepObservation<'a> {
    /// A materialized-run observation: `step` indexes the full problem
    /// and is also the global step number.
    pub fn new(
        problem: &'a SwitchingProblem,
        accounting: ReconfigAccounting,
        step: usize,
        prev: ConfigChoice,
    ) -> Self {
        Self {
            problem,
            accounting,
            step,
            prev,
            stream_step: step,
        }
    }

    /// The same observation repositioned in a longer stream (streaming
    /// executors observe a window at global position `stream_step`).
    pub fn at_stream_step(mut self, stream_step: usize) -> Self {
        self.stream_step = stream_step;
        self
    }

    /// The observed step's demand: bytes, `θ`, `ℓ` and its matching.
    pub fn costs(&self) -> &'a StepCosts {
        &self.problem.steps[self.step]
    }

    /// Marginal cost of running the observed step under `choice` from the
    /// observed fabric state: run cost plus the reconfiguration charge of
    /// the transition.
    pub fn marginal_cost(&self, choice: ConfigChoice) -> f64 {
        step_run_cost(self.problem, self.step, choice)
            + reconfig_charge(self.problem, self.accounting, self.prev, choice, self.step)
    }
}

/// A circuit-switching controller: the open face of the paper's adaptive
/// vision. See the [module docs](self) for the shipped implementations.
pub trait Controller: Send + Sync {
    /// Stable name, used to label bench cells, traces and reports.
    fn name(&self) -> &str;

    /// Decides how the observed step runs, given the fabric state in
    /// `obs.prev`. Must be deterministic: the same observation always
    /// produces the same choice (the workspace-wide `APS_THREADS`
    /// bit-identity guarantee depends on it).
    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice;

    /// Produces a whole switch schedule by folding [`Controller::decide`]
    /// over the steps, threading each decision into the next observation.
    /// Planning controllers (e.g. [`DpPlanned`]) may override this with a
    /// global solve.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from overriding implementations; the
    /// default fold is infallible.
    fn plan(
        &self,
        problem: &SwitchingProblem,
        accounting: ReconfigAccounting,
    ) -> Result<SwitchSchedule, CoreError> {
        let mut prev = ConfigChoice::Base;
        let mut choices = Vec::with_capacity(problem.num_steps());
        for step in 0..problem.num_steps() {
            let choice = self.decide(&StepObservation::new(problem, accounting, step, prev));
            choices.push(choice);
            prev = choice;
        }
        Ok(SwitchSchedule::new(choices))
    }

    /// One-line rationale for a decision, recorded in simulator traces.
    /// The default names the controller and the choice; implementations
    /// may add the quantities they compared.
    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        format!(
            "{}: step {} runs {}",
            self.name(),
            obs.stream_step,
            choice_word(choice)
        )
    }
}

/// References forward to the referent, so harnesses can hold borrowed
/// controllers (e.g. the `shipped()` statics) wherever an owned
/// `impl Controller` is expected.
impl<C: Controller + ?Sized> Controller for &C {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice {
        (**self).decide(obs)
    }

    fn plan(
        &self,
        problem: &SwitchingProblem,
        accounting: ReconfigAccounting,
    ) -> Result<SwitchSchedule, CoreError> {
        (**self).plan(problem, accounting)
    }

    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        (**self).explain(obs, choice)
    }
}

fn choice_word(choice: ConfigChoice) -> &'static str {
    match choice {
        ConfigChoice::Base => "on base",
        ConfigChoice::Matched => "matched",
    }
}

/// Never reconfigure: every step runs on the base topology `G` (the
/// "static ring" baseline of §3.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct Static;

impl Controller for Static {
    fn name(&self) -> &str {
        "static"
    }

    fn decide(&self, _obs: &StepObservation<'_>) -> ConfigChoice {
        ConfigChoice::Base
    }
}

/// Reconfigure before every step to match its pattern — the naive BvN
/// schedule baseline (the collective's own matchings *are* its BvN
/// decomposition, applied unconditionally).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysReconfigure;

impl Controller for AlwaysReconfigure {
    fn name(&self) -> &str {
        "bvn"
    }

    fn decide(&self, _obs: &StepObservation<'_>) -> ConfigChoice {
        ConfigChoice::Matched
    }
}

/// The §4 per-step threshold heuristic: reconfigure iff the step's
/// *standalone* gain `β·mᵢ·(1/θᵢ − 1) + δ·(ℓᵢ − 1)` exceeds the
/// worst-case reconfiguration delay. Ignores schedule context (the cost of
/// returning to base, consecutive-matched savings), hence suboptimal — by
/// how much is quantified in the A1 ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threshold;

impl Threshold {
    /// The step's standalone reconfiguration gain in seconds.
    fn gain(obs: &StepObservation<'_>) -> f64 {
        let p = &obs.problem.params;
        let s = obs.costs();
        p.beta_s_per_byte * s.bytes * (1.0 / s.theta_base - 1.0)
            + p.delta_s * (s.ell_base as f64 - 1.0).max(0.0)
    }

    /// The worst-case delay the gain is compared against.
    fn bar(obs: &StepObservation<'_>) -> f64 {
        obs.problem.reconfig.worst_case_delay_s(obs.problem.n)
    }
}

impl Controller for Threshold {
    fn name(&self) -> &str {
        "threshold"
    }

    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice {
        if Self::gain(obs) > Self::bar(obs) {
            ConfigChoice::Matched
        } else {
            ConfigChoice::Base
        }
    }

    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        format!(
            "threshold: step {} runs {} (standalone gain {:.3e} s vs α_r {:.3e} s)",
            obs.stream_step,
            choice_word(choice),
            Self::gain(obs),
            Self::bar(obs),
        )
    }
}

/// The exact eq. (7) optimum. [`Controller::plan`] delegates to the
/// `O(s)` dynamic program ([`crate::dp::optimize`]) — bit-identical to the
/// pre-trait planning path. [`Controller::decide`] answers online by
/// solving the *suffix* of the trellis from the observed fabric state
/// (principle of optimality), so stepping the decisions forward also
/// realizes an optimal-cost schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpPlanned;

impl Controller for DpPlanned {
    fn name(&self) -> &str {
        "opt"
    }

    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice {
        let p = obs.problem;
        let s = p.num_steps();
        // v[state] = optimal cost of steps step+1‥s given step ran in `state`.
        let mut v = [0.0f64; 2];
        for j in ((obs.step + 1)..s).rev() {
            let mut w = [f64::INFINITY; 2];
            for (pi, &prev) in STATES.iter().enumerate() {
                for (ci, &cur) in STATES.iter().enumerate() {
                    let cand = step_run_cost(p, j, cur)
                        + reconfig_charge(p, obs.accounting, prev, cur, j)
                        + v[ci];
                    if cand < w[pi] {
                        w[pi] = cand;
                    }
                }
            }
            v = w;
        }
        let mut best = (f64::INFINITY, ConfigChoice::Base);
        for (ci, &cur) in STATES.iter().enumerate() {
            let cand = obs.marginal_cost(cur) + v[ci];
            if cand < best.0 {
                best = (cand, cur);
            }
        }
        best.1
    }

    fn plan(
        &self,
        problem: &SwitchingProblem,
        accounting: ReconfigAccounting,
    ) -> Result<SwitchSchedule, CoreError> {
        dp::optimize(problem, accounting).map(|(schedule, _)| schedule)
    }

    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        format!(
            "opt: step {} runs {} (optimal completion of the remaining suffix)",
            obs.stream_step,
            choice_word(choice)
        )
    }
}

/// Online myopic controller: runs each step the cheapest way *given the
/// fabric's current state*, i.e. minimizes run cost plus the actual
/// transition charge (ties stay on base). Unlike [`Threshold`] it sees the
/// real `α_r` accounting and the previous configuration; unlike
/// [`DpPlanned`] it never looks ahead, so it can enter a matched
/// configuration without anticipating the cost of leaving it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Controller for Greedy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice {
        let mut best = (f64::INFINITY, ConfigChoice::Base);
        for &cur in &STATES {
            let cand = obs.marginal_cost(cur);
            if cand < best.0 {
                best = (cand, cur);
            }
        }
        best.1
    }

    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        format!(
            "greedy: step {} runs {} (marginal base {:.3e} s vs matched {:.3e} s)",
            obs.stream_step,
            choice_word(choice),
            obs.marginal_cost(ConfigChoice::Base),
            obs.marginal_cost(ConfigChoice::Matched),
        )
    }
}

/// Every controller shipped with the crate, in presentation order.
pub fn shipped() -> [&'static dyn Controller; 5] {
    [&Static, &AlwaysReconfigure, &Threshold, &DpPlanned, &Greedy]
}

/// Looks a shipped controller up by its stable [`Controller::name`] — the
/// factor-injection hook declarative harnesses (the ablation registry,
/// config files) use to turn a string cell value into a controller.
pub fn by_name(name: &str) -> Option<&'static dyn Controller> {
    shipped().into_iter().find(|c| c.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use aps_collectives::{allreduce, alltoall};
    use aps_cost::{CostParams, ReconfigModel};
    use aps_flow::solver::{ThetaCache, ThroughputSolver};
    use aps_topology::builders;

    fn problem(n: usize, m: f64, alpha_r: f64) -> SwitchingProblem {
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::halving_doubling::build(n, m).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(alpha_r).unwrap(),
        )
        .unwrap()
    }

    /// Folds `decide` manually (bypassing any `plan` override).
    fn stepwise(
        c: &dyn Controller,
        p: &SwitchingProblem,
        accounting: ReconfigAccounting,
    ) -> SwitchSchedule {
        let mut prev = ConfigChoice::Base;
        let mut choices = Vec::new();
        for step in 0..p.num_steps() {
            let ch = c.decide(&StepObservation::new(p, accounting, step, prev));
            choices.push(ch);
            prev = ch;
        }
        SwitchSchedule::new(choices)
    }

    #[test]
    fn baseline_controllers_produce_the_baseline_schedules() {
        let p = problem(16, 1e6, 1e-6);
        let acc = ReconfigAccounting::default();
        assert_eq!(
            Static.plan(&p, acc).unwrap(),
            SwitchSchedule::all_base(p.num_steps())
        );
        assert_eq!(
            AlwaysReconfigure.plan(&p, acc).unwrap(),
            SwitchSchedule::all_matched(p.num_steps())
        );
    }

    #[test]
    fn dp_decide_forward_realizes_the_dp_optimum() {
        for (m, alpha_r) in [(1e3, 1e-8), (1e6, 1e-6), (1e8, 1e-4), (64.0, 1e-7)] {
            for acc in [
                ReconfigAccounting::PaperConservative,
                ReconfigAccounting::PhysicalDiff,
            ] {
                let p = problem(8, m, alpha_r);
                let (_, want) = dp::optimize(&p, acc).unwrap();
                let online = stepwise(&DpPlanned, &p, acc);
                let got = evaluate(&p, &online, acc).unwrap();
                assert!(
                    (got.total_s() - want.total_s()).abs() <= 1e-15 + 1e-9 * want.total_s(),
                    "m={m} αr={alpha_r} {acc:?}: online {} vs planned {}",
                    got.total_s(),
                    want.total_s()
                );
                // The override must agree with the raw DP.
                assert_eq!(
                    DpPlanned.plan(&p, acc).unwrap(),
                    dp::optimize(&p, acc).unwrap().0
                );
            }
        }
    }

    #[test]
    fn greedy_is_bounded_by_opt_and_reacts_to_fabric_state() {
        for m in [1e3, 1e6, 1e8] {
            for alpha_r in [1e-8, 1e-6, 1e-4] {
                let p = problem(16, m, alpha_r);
                let acc = ReconfigAccounting::default();
                let opt = evaluate(&p, &DpPlanned.plan(&p, acc).unwrap(), acc)
                    .unwrap()
                    .total_s();
                let greedy = evaluate(&p, &Greedy.plan(&p, acc).unwrap(), acc)
                    .unwrap()
                    .total_s();
                assert!(opt <= greedy + 1e-15, "m={m} αr={alpha_r}");
            }
        }
        // State sensitivity: once matched, staying matched is charged the
        // same α_r as returning to base, so greedy (unlike threshold) can
        // keep a configuration it would not have entered.
        let p = problem(16, 4e6, 2e-5);
        let acc = ReconfigAccounting::default();
        let greedy = Greedy.plan(&p, acc).unwrap();
        let threshold = Threshold.plan(&p, acc).unwrap();
        assert_ne!(
            greedy, threshold,
            "expected the regime to separate greedy from threshold"
        );
    }

    #[test]
    fn threshold_controller_matches_the_legacy_formula() {
        // All-to-all exercises a spread of θ/ℓ values.
        let topo = builders::ring_unidirectional(16).unwrap();
        let c = alltoall::linear_shift(16, 2e6).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let p = SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(1e-5).unwrap(),
        )
        .unwrap();
        let plan = Threshold.plan(&p, ReconfigAccounting::default()).unwrap();
        let alpha_r = p.reconfig.worst_case_delay_s(p.n);
        for (i, s) in p.steps.iter().enumerate() {
            let gain = p.params.beta_s_per_byte * s.bytes * (1.0 / s.theta_base - 1.0)
                + p.params.delta_s * (s.ell_base as f64 - 1.0).max(0.0);
            let want = if gain > alpha_r {
                ConfigChoice::Matched
            } else {
                ConfigChoice::Base
            };
            assert_eq!(plan.choice(i), want, "step {i}");
        }
        assert!(plan.matched_steps() > 0);
        assert!(plan.matched_steps() < plan.len());
    }

    #[test]
    fn names_and_rationales_are_stable() {
        let ctls = shipped();
        let names: Vec<&str> = ctls.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["static", "bvn", "threshold", "opt", "greedy"]);
        for c in ctls {
            assert_eq!(by_name(c.name()).unwrap().name(), c.name());
        }
        assert!(by_name("no-such-controller").is_none());
        let p = problem(8, 1e6, 1e-6);
        let obs = StepObservation::new(&p, ReconfigAccounting::default(), 0, ConfigChoice::Base);
        for c in shipped() {
            let choice = c.decide(&obs);
            let why = c.explain(&obs, choice);
            assert!(why.starts_with(c.name()), "{why}");
            assert!(why.contains("step 0"), "{why}");
        }
    }

    #[test]
    fn observation_exposes_demand_and_marginals() {
        let p = problem(8, 1e6, 1e-6);
        let obs = StepObservation::new(&p, ReconfigAccounting::default(), 0, ConfigChoice::Base);
        assert_eq!(obs.costs().bytes, p.steps[0].bytes);
        assert_eq!(obs.stream_step, obs.step);
        // Matched marginal from base includes the α_r charge.
        let base = obs.marginal_cost(ConfigChoice::Base);
        let matched = obs.marginal_cost(ConfigChoice::Matched);
        assert!(base.is_finite() && matched.is_finite());
        assert!(matched > 0.0 && base > 0.0);
    }
}
