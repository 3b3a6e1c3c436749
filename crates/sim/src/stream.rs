//! Streaming execution: pull demand lazily from a [`Workload`].
//!
//! The scheduled/adaptive executors in [`crate::exec`] consume
//! *materialized* demand — every step resident before the run starts.
//! This module is their lazy face: steps are pulled one at a time from
//! any [`aps_collectives::Workload`], priced on demand, decided online,
//! and executed — **O(1) schedule memory** regardless of stream length,
//! so million-step training loops and endless traffic generators run
//! without ever materializing a step vector.
//!
//! Three entrypoints:
//!
//! * [`run_scheduled_workload`] — replay a precomputed
//!   [`SwitchSchedule`] against a streamed workload (the streaming
//!   [`crate::exec::run_scheduled`], which delegates here).
//! * [`run_workload`] — the streaming adaptive executor: a
//!   [`Controller`] decides each pulled step online from a **two-step
//!   observation window** (the current step plus the previous one, so
//!   transition charges see the real previous matching), and every
//!   decision lands in the trace exactly like
//!   [`crate::exec::run_adaptive`]'s.
//! * [`run_workload_totals`] — the same adaptive loop with O(1) *report*
//!   memory too: per-step reports and trace events fold into a
//!   [`StreamSummary`] instead of accumulating, so a ≥10⁶-step run holds
//!   constant memory end to end.
//!
//! Each is a short loop around the same private per-step runner as
//! [`crate::exec::run_adaptive`]; this module adds only the pull loop
//! and, for the adaptive executors, the θ-priced observation window.
//! [`run_workload_recorded`] takes an optional [`RecordSink`] (see
//! [`crate::record`]) that observes each committed step — the hook
//! deterministic replay (`aps-replay`) is built on — and
//! [`run_workload_segment`] adds [`StreamCheckpoint`] capture/resume on
//! top of the totals loop, so endless runs can be checkpointed mid-stream
//! and continued bit-identically.
//!
//! ## Windowed observations and controller parity
//!
//! Online controllers ([`aps_core::controller::Static`],
//! [`AlwaysReconfigure`](aps_core::controller::AlwaysReconfigure),
//! [`Threshold`](aps_core::controller::Threshold),
//! [`Greedy`](aps_core::controller::Greedy)) read at most the current
//! step's costs and the previous step's configuration — exactly what the
//! window carries — so their streaming decisions, rationales and
//! timelines are **bit-identical** to a materialized
//! [`crate::exec::run_adaptive`] of the same demand (pinned by the
//! workspace's differential tests). Planning controllers that look ahead
//! ([`DpPlanned`](aps_core::controller::DpPlanned)) see only the window
//! and therefore degenerate to their myopic one-step rule under
//! streaming — by construction: an unbounded stream has no suffix to
//! solve.

use crate::error::SimError;
use crate::exec::{RunConfig, Solo};
use crate::record::RecordSink;
use crate::report::{SimReport, StepReport};
use aps_collectives::{Step, Workload, WorkloadCtx};
use aps_core::controller::{Controller, StepObservation};
use aps_core::problem::config_of_topology;
use aps_core::{ConfigChoice, ReconfigAccounting, SwitchSchedule, SwitchingProblem};
use aps_cost::steptable::StepCosts;
use aps_cost::units::Picos;
use aps_cost::ReconfigModel;
use aps_fabric::{Fabric, FabricState};
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_topology::Topology;

/// How the streaming adaptive executors price a pulled step for the
/// controller's observation window: the reconfiguration delay model, the
/// accounting rule, and the θ solver — the same three knobs a
/// [`aps_core::ScaleupDomain`] carries for materialized planning.
#[derive(Debug, Clone, Copy)]
pub struct StreamPricing {
    /// Reconfiguration delay pricing (`α_r`) for transition charges.
    pub reconfig: ReconfigModel,
    /// How reconfiguration events are priced.
    pub accounting: ReconfigAccounting,
    /// The θ (concurrent-flow) solver for base-topology congestion.
    pub solver: ThroughputSolver,
}

impl StreamPricing {
    /// Paper defaults around the given delay model: conservative
    /// accounting, exact forced-path θ.
    pub fn new(reconfig: ReconfigModel) -> Self {
        Self {
            reconfig,
            accounting: ReconfigAccounting::PaperConservative,
            solver: ThroughputSolver::ForcedPath,
        }
    }
}

/// O(1)-memory aggregate of a streamed run — what
/// [`run_workload_totals`] returns instead of a per-step
/// [`SimReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamSummary {
    /// Steps pulled and executed.
    pub steps: usize,
    /// Steps the controller ran matched.
    pub matched_steps: usize,
    /// Steps that triggered a physical reconfiguration.
    pub reconfig_events: usize,
    /// Completion time of the whole stream.
    pub total_ps: Picos,
    /// Summed barrier waits.
    pub barrier_ps: Picos,
    /// Summed fixed step latencies.
    pub alpha_ps: Picos,
    /// Summed visible reconfiguration stalls.
    pub reconfig_ps: Picos,
    /// Summed transfer times.
    pub transfer_ps: Picos,
    /// Summed compute phases.
    pub compute_ps: Picos,
}

impl StreamSummary {
    /// Completion time in seconds.
    pub fn total_s(&self) -> f64 {
        aps_cost::units::picos_to_secs(self.total_ps)
    }

    /// Merges two summaries of runs that share one simulated clock — the
    /// monoid fold for combining per-shard (e.g. per-job) service
    /// summaries deterministically. Step counts and phase sums add;
    /// `total_ps` takes the max, because shards complete on the same
    /// global timeline. Associative, commutative, and
    /// `StreamSummary::default()` is the identity.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            steps: self.steps + other.steps,
            matched_steps: self.matched_steps + other.matched_steps,
            reconfig_events: self.reconfig_events + other.reconfig_events,
            total_ps: self.total_ps.max(other.total_ps),
            barrier_ps: self.barrier_ps + other.barrier_ps,
            alpha_ps: self.alpha_ps + other.alpha_ps,
            reconfig_ps: self.reconfig_ps + other.reconfig_ps,
            transfer_ps: self.transfer_ps + other.transfer_ps,
            compute_ps: self.compute_ps + other.compute_ps,
        }
    }

    /// Folds one step's report into the totals.
    pub(crate) fn absorb(&mut self, step: &StepReport, matched: bool) {
        self.steps += 1;
        self.matched_steps += usize::from(matched);
        self.reconfig_events += usize::from(step.ports_changed > 0);
        self.barrier_ps += step.barrier_ps;
        self.alpha_ps += step.alpha_ps;
        self.reconfig_ps += step.reconfig_ps;
        self.transfer_ps += step.transfer_ps;
        self.compute_ps += step.compute_ps;
    }
}

/// A point-in-time capture of the streaming adaptive executor: everything
/// [`run_workload_segment`] needs to continue a run bit-identically on a
/// fresh fabric and a rewound workload. The workload *cursor* is not
/// stored — it is re-derived through the [`Workload::reset`] replay
/// contract (reset, then pull and discard `steps_done` steps), which is
/// exactly why that contract demands bit-identical replays.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Steps executed before the capture; the resumed run starts at this
    /// stream index.
    pub steps_done: usize,
    /// The configuration choice of the last executed step (seeds the next
    /// step's transition charge).
    pub prev: ConfigChoice,
    /// The communication clock: when the last step's flows drained.
    pub comm_end: Picos,
    /// The compute clock: when the GPUs last freed.
    pub gpu_free: Picos,
    /// Totals accumulated so far; the resumed segment keeps adding to
    /// them, so the final summary covers the whole stream.
    pub summary: StreamSummary,
    /// The fabric's mutable device state at capture time.
    pub fabric: FabricState,
}

/// Rejects malformed streamed steps (workloads are trusted streams, not
/// validated schedules).
pub(crate) fn validate_step(i: usize, n: usize, step: &Step) -> Result<(), SimError> {
    if step.matching.n() != n {
        return Err(SimError::DimensionMismatch {
            fabric: n,
            collective: step.matching.n(),
        });
    }
    if !step.bytes_per_pair.is_finite() || step.bytes_per_pair < 0.0 {
        return Err(SimError::BadStepVolume {
            step: i,
            bytes: step.bytes_per_pair,
        });
    }
    Ok(())
}

/// Executes a streamed workload under a precomputed `switch_schedule` —
/// the lazy [`crate::exec::run_scheduled`]. The workload must yield
/// exactly `switch_schedule.len()` steps.
///
/// # Errors
///
/// Fails on dimension mismatches (fabric vs workload, or a malformed
/// streamed step), a stream length that disagrees with the switch
/// schedule, fabric refusals, or unroutable pairs.
pub fn run_scheduled_workload(
    fabric: &mut dyn Fabric,
    base_config: &Matching,
    workload: &mut dyn Workload,
    switch_schedule: &SwitchSchedule,
    cfg: &RunConfig,
) -> Result<SimReport, SimError> {
    let n = workload.n();
    let mut solo = Solo::new(fabric, cfg, base_config, n, None)?;
    let mut report = SimReport::default();
    let mut i = 0usize;
    let mut step = Step::empty();
    while workload.next_step_into(&WorkloadCtx::at(i), &mut step) {
        if i >= switch_schedule.len() {
            return Err(SimError::ScheduleLengthMismatch {
                expected: i + 1,
                got: switch_schedule.len(),
            });
        }
        validate_step(i, n, &step)?;
        let choice = switch_schedule.choice(i);
        solo.step(
            i,
            &step.matching,
            step.bytes_per_pair,
            choice,
            None,
            &mut report,
        )?;
        i += 1;
    }
    if i != switch_schedule.len() {
        return Err(SimError::ScheduleLengthMismatch {
            expected: i,
            got: switch_schedule.len(),
        });
    }
    report.total_ps = solo.gpu_free;
    Ok(report)
}

/// The θ-priced observation window the streaming adaptive executors decide
/// from: the previous and the current step over the base topology, memoized
/// through a θ cache.
struct AdaptiveStream<'a> {
    base: &'a Topology,
    cache: ThetaCache,
    /// The two-step window, with the base circuit configuration the
    /// controller's transition charges price against.
    window: SwitchingProblem,
}

impl<'a> AdaptiveStream<'a> {
    fn new(
        base: &'a Topology,
        base_config: Matching,
        pricing: &StreamPricing,
        cfg: &RunConfig,
    ) -> Self {
        Self {
            base,
            cache: ThetaCache::new(base, pricing.solver),
            window: SwitchingProblem {
                n: base.n(),
                params: cfg.params,
                reconfig: pricing.reconfig,
                base_config: Some(base_config),
                steps: Vec::with_capacity(2),
            },
        }
    }

    /// Prices step `i` and slides it into the window's current slot.
    fn slide(&mut self, i: usize, step: &Step) -> Result<(), SimError> {
        validate_step(i, self.window.n, step)?;
        let t = self
            .cache
            .get(self.base, &step.matching)
            .map_err(|source| SimError::Pricing { step: i, source })?;
        // Two-slot sliding window: once warm, recycle the oldest slot
        // in place (`clone_from` reuses the matching's buffer) instead of
        // `remove(0)` + pushing a freshly-cloned `StepCosts` every step.
        if self.window.steps.len() < 2 {
            self.window.steps.push(StepCosts {
                matching: step.matching.clone(),
                bytes: step.bytes_per_pair,
                theta_base: t.theta,
                ell_base: t.max_hops,
            });
        } else {
            self.window.steps.swap(0, 1);
            let slot = &mut self.window.steps[1];
            slot.matching.clone_from(&step.matching);
            slot.bytes = step.bytes_per_pair;
            slot.theta_base = t.theta;
            slot.ell_base = t.max_hops;
        }
        Ok(())
    }

    /// Prices the pulled step, slides the window, and returns what the
    /// controller observes of step `i` after the previous step's `prev`.
    fn observe(
        &mut self,
        i: usize,
        step: &Step,
        accounting: ReconfigAccounting,
        prev: ConfigChoice,
    ) -> Result<StepObservation<'_>, SimError> {
        self.slide(i, step)?;
        let wi = self.window.steps.len() - 1;
        Ok(StepObservation::new(&self.window, accounting, wi, prev).at_stream_step(i))
    }

    /// Rewinds the workload and fast-forwards it past the checkpoint's
    /// executed steps (the [`Workload::reset`] replay contract), repricing
    /// the last consumed step so the resumed step's transition charge sees
    /// the true previous matching in the observation window.
    fn restore(&mut self, steps_done: usize, workload: &mut dyn Workload) -> Result<(), SimError> {
        workload.reset();
        let mut step = Step::empty();
        for j in 0..steps_done {
            if !workload.next_step_into(&WorkloadCtx::at(j), &mut step) {
                // The stream replayed shorter than the checkpoint claims —
                // the reset contract was violated (or the checkpoint
                // belongs to a different workload).
                return Err(SimError::ScheduleLengthMismatch {
                    expected: steps_done,
                    got: j,
                });
            }
        }
        if steps_done > 0 {
            self.slide(steps_done - 1, &step)?;
        }
        Ok(())
    }
}

/// Executes a streamed workload with `controller` deciding each pulled
/// step online — the lazy [`crate::exec::run_adaptive`]. Decisions are
/// tagged in the trace with the controller's rationale, exactly like the
/// materialized executor; see the [module docs](self) for the
/// observation-window semantics. The workload must be finite (the run
/// returns when the stream exhausts); use [`run_workload_totals`] with a
/// step budget for unbounded streams.
///
/// # Errors
///
/// Fails on dimension mismatches, a base topology that is not a circuit
/// configuration, θ pricing failures, malformed streamed steps, fabric
/// refusals, or unroutable pairs.
pub fn run_workload(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
) -> Result<(SwitchSchedule, SimReport), SimError> {
    run_workload_recorded(fabric, base, workload, controller, pricing, cfg, None)
}

/// [`run_workload`] with an optional [`RecordSink`] observing every
/// committed step. `None` records nothing and costs nothing — the
/// unrecorded entrypoint delegates here.
///
/// # Errors
///
/// See [`run_workload`].
pub fn run_workload_recorded(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    sink: Option<&mut dyn RecordSink>,
) -> Result<(SwitchSchedule, SimReport), SimError> {
    let mut report = SimReport::default();
    let (_, _, choices) = run_stream_core(
        fabric,
        base,
        workload,
        controller,
        pricing,
        cfg,
        None,
        usize::MAX,
        Some(&mut report),
        sink,
    )?;
    Ok((SwitchSchedule::new(choices), report))
}

/// The one streaming adaptive loop behind [`run_workload`],
/// [`run_workload_totals`] and [`run_workload_segment`]: pull → observe →
/// decide → execute, folding every step into a [`StreamSummary`] and
/// optionally accumulating a full report (`full`) and/or feeding a
/// [`RecordSink`]. The per-step decision trace event is synthesized
/// whenever either consumer is present, so records are bit-identical
/// regardless of which entrypoint produced them.
#[allow(clippy::too_many_arguments)]
fn run_stream_core(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    resume: Option<&StreamCheckpoint>,
    max_steps: usize,
    mut full: Option<&mut SimReport>,
    sink: Option<&mut dyn RecordSink>,
) -> Result<(StreamSummary, StreamCheckpoint, Vec<ConfigChoice>), SimError> {
    let n = base.n();
    if fabric.n() != n || workload.n() != n {
        return Err(SimError::DimensionMismatch {
            fabric: fabric.n(),
            collective: if workload.n() != n { workload.n() } else { n },
        });
    }
    let base_config = config_of_topology(base).ok_or(SimError::BaseNotACircuit)?;
    let mut stream = AdaptiveStream::new(base, base_config.clone(), &pricing, cfg);
    if let Some(cp) = resume {
        fabric.load_state(&cp.fabric)?;
        stream.restore(cp.steps_done, workload)?;
    }
    let explain = full.is_some() || sink.is_some();
    let mut solo = Solo::new(fabric, cfg, &base_config, n, sink)?;
    let mut summary = StreamSummary::default();
    let mut i = 0usize;
    if let Some(cp) = resume {
        (solo.prev, solo.comm_end, solo.gpu_free) = (cp.prev, cp.comm_end, cp.gpu_free);
        summary = cp.summary;
        i = cp.steps_done;
    }
    let mut choices = Vec::new();
    if full.is_some() {
        choices.reserve(workload.size_hint().0);
    }
    let mut fold = SimReport::default();
    let mut step = Step::empty();
    while i < max_steps && workload.next_step_into(&WorkloadCtx::at(i), &mut step) {
        let obs = stream.observe(i, &step, pricing.accounting, solo.prev)?;
        let choice = controller.decide(&obs);
        let why = explain.then(|| controller.explain(&obs, choice));
        let dest = match full.as_deref_mut() {
            Some(r) => r,
            None => {
                fold.steps.clear();
                fold.trace.clear();
                &mut fold
            }
        };
        let done = solo.step(i, &step.matching, step.bytes_per_pair, choice, why, dest)?;
        summary.absorb(done, choice == ConfigChoice::Matched);
        if full.is_some() {
            choices.push(choice);
        }
        i += 1;
    }
    let (prev, comm_end, gpu_free) = (solo.prev, solo.comm_end, solo.gpu_free);
    summary.total_ps = gpu_free;
    if let Some(r) = full {
        r.total_ps = gpu_free;
    }
    let checkpoint = StreamCheckpoint {
        steps_done: i,
        prev,
        comm_end,
        gpu_free,
        summary,
        fabric: fabric.save_state(),
    };
    Ok((summary, checkpoint, choices))
}

/// [`run_workload`] with O(1) report memory: per-step timing folds into
/// a [`StreamSummary`] and no trace is kept, so arbitrarily long (even
/// endless) streams run in constant memory. At most `max_steps` steps
/// are pulled — the stream's own exhaustion ends the run earlier.
///
/// # Errors
///
/// See [`run_workload`].
pub fn run_workload_totals(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    max_steps: usize,
) -> Result<StreamSummary, SimError> {
    run_stream_core(
        fabric, base, workload, controller, pricing, cfg, None, max_steps, None, None,
    )
    .map(|(summary, _, _)| summary)
}

/// [`run_workload_totals`] as a *resumable segment*: optionally restores a
/// [`StreamCheckpoint`] (rewinding the workload through its reset-replay
/// contract and restoring the fabric state), executes steps
/// `[checkpoint.steps_done, max_steps)` — `max_steps` is the **absolute**
/// stream index bound, not a per-segment budget — and returns the
/// cumulative summary together with the checkpoint at exit, so a
/// million-step endless stream can be checkpointed mid-run and continued
/// bit-identically. An optional [`RecordSink`] observes the segment's
/// steps exactly as [`run_workload_recorded`] would.
///
/// # Errors
///
/// See [`run_workload`]; additionally fails when the rewound stream
/// replays shorter than the checkpoint claims, or the fabric rejects the
/// checkpointed state (dimension mismatch).
#[allow(clippy::too_many_arguments)]
pub fn run_workload_segment(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    resume: Option<&StreamCheckpoint>,
    max_steps: usize,
    sink: Option<&mut dyn RecordSink>,
) -> Result<(StreamSummary, StreamCheckpoint), SimError> {
    run_stream_core(
        fabric, base, workload, controller, pricing, cfg, resume, max_steps, None, sink,
    )
    .map(|(summary, checkpoint, _)| (summary, checkpoint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_adaptive, run_scheduled};
    use aps_collectives::{allreduce, alltoall};
    use aps_core::controller::{AlwaysReconfigure, DpPlanned, Greedy, Static, Threshold};
    use aps_cost::units::MIB;
    use aps_cost::CostParams;
    use aps_fabric::CircuitSwitch;
    use aps_topology::builders;

    fn ring_config(n: usize) -> Matching {
        Matching::shift(n, 1).unwrap()
    }

    fn switch(n: usize, alpha_r: f64) -> CircuitSwitch {
        CircuitSwitch::new(ring_config(n), ReconfigModel::constant(alpha_r).unwrap())
    }

    #[test]
    fn scheduled_stream_is_bit_identical_to_materialized() {
        let n = 8;
        let c = allreduce::halving_doubling::build(n, 4.0 * MIB).unwrap();
        let s = c.schedule.num_steps();
        let cfg = RunConfig::paper_defaults();
        for switches in [SwitchSchedule::all_base(s), SwitchSchedule::all_matched(s)] {
            let mut f1 = switch(n, 5e-6);
            let want =
                run_scheduled(&mut f1, &ring_config(n), &c.schedule, &switches, &cfg).unwrap();
            let mut f2 = switch(n, 5e-6);
            let mut w = c.schedule.stream();
            let got =
                run_scheduled_workload(&mut f2, &ring_config(n), &mut w, &switches, &cfg).unwrap();
            assert_eq!(want, got);
        }
    }

    #[test]
    fn scheduled_stream_rejects_length_mismatch_both_ways() {
        let n = 4;
        let c = allreduce::ring::build(n, 1e3).unwrap();
        let cfg = RunConfig::paper_defaults();
        let mut fab = switch(n, 1e-6);
        let mut w = c.schedule.stream();
        assert!(matches!(
            run_scheduled_workload(
                &mut fab,
                &ring_config(n),
                &mut w,
                &SwitchSchedule::all_base(1),
                &cfg
            ),
            Err(SimError::ScheduleLengthMismatch { .. })
        ));
        let mut fab = switch(n, 1e-6);
        let mut w = c.schedule.stream();
        assert!(matches!(
            run_scheduled_workload(
                &mut fab,
                &ring_config(n),
                &mut w,
                &SwitchSchedule::all_base(c.schedule.num_steps() + 3),
                &cfg
            ),
            Err(SimError::ScheduleLengthMismatch { .. })
        ));
    }

    #[test]
    fn online_controllers_stream_bit_identically_to_run_adaptive() {
        // The two-step window carries everything an online controller
        // reads, so streaming and materialized adaptive runs must agree
        // byte for byte — decisions, rationales, trace, timing.
        let n = 8;
        let bytes = 4.0 * MIB;
        let alpha_r = 5e-6;
        let base = builders::ring_unidirectional(n).unwrap();
        let reconfig = ReconfigModel::constant(alpha_r).unwrap();
        let cfg = RunConfig::paper_defaults();
        let acc = ReconfigAccounting::PaperConservative;
        for schedule in [
            allreduce::halving_doubling::build(n, bytes)
                .unwrap()
                .schedule,
            alltoall::linear_shift(n, bytes).unwrap().schedule,
        ] {
            let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
            let problem = SwitchingProblem::build(
                &base,
                &schedule,
                &mut cache,
                CostParams::paper_defaults(),
                reconfig,
            )
            .unwrap();
            for ctl in [
                &Static as &dyn Controller,
                &AlwaysReconfigure,
                &Threshold,
                &Greedy,
            ] {
                let mut f1 = switch(n, alpha_r);
                let (want_sw, want) =
                    run_adaptive(&mut f1, &ring_config(n), &problem, ctl, acc, &cfg).unwrap();
                let mut f2 = switch(n, alpha_r);
                let mut w = schedule.stream();
                let (got_sw, got) = run_workload(
                    &mut f2,
                    &base,
                    &mut w,
                    ctl,
                    StreamPricing::new(reconfig),
                    &cfg,
                )
                .unwrap();
                assert_eq!(want_sw, got_sw, "{}", ctl.name());
                assert_eq!(want, got, "{}", ctl.name());
            }
        }
    }

    #[test]
    fn totals_match_the_full_report() {
        let n = 8;
        let base = builders::ring_unidirectional(n).unwrap();
        let reconfig = ReconfigModel::constant(5e-6).unwrap();
        let cfg = RunConfig::paper_defaults();
        let schedule = allreduce::halving_doubling::build(n, 4.0 * MIB)
            .unwrap()
            .schedule;
        let mut f1 = switch(n, 5e-6);
        let mut w = schedule.stream();
        let (sw, full) = run_workload(
            &mut f1,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
        )
        .unwrap();
        let mut f2 = switch(n, 5e-6);
        let mut w = schedule.stream();
        let totals = run_workload_totals(
            &mut f2,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(totals.steps, full.steps.len());
        assert_eq!(totals.matched_steps, sw.matched_steps());
        assert_eq!(totals.total_ps, full.total_ps);
        assert_eq!(totals.reconfig_events, full.reconfig_events());
        assert_eq!(
            totals.transfer_ps,
            full.steps.iter().map(|s| s.transfer_ps).sum::<Picos>()
        );
        // The step budget truncates the pull loop.
        let mut f3 = switch(n, 5e-6);
        let mut w = schedule.stream();
        let capped = run_workload_totals(
            &mut f3,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            3,
        )
        .unwrap();
        assert_eq!(capped.steps, 3);
    }

    #[test]
    fn dp_planned_streams_as_its_myopic_window_rule() {
        // DpPlanned's window suffix collapses to the current step, so the
        // streaming decisions coincide with Greedy's — the documented
        // degeneration for planning controllers.
        let n = 8;
        let base = builders::ring_unidirectional(n).unwrap();
        let reconfig = ReconfigModel::constant(1e-5).unwrap();
        let cfg = RunConfig::paper_defaults();
        let schedule = allreduce::halving_doubling::build(n, 16.0 * MIB)
            .unwrap()
            .schedule;
        let mut f1 = switch(n, 1e-5);
        let mut w = schedule.stream();
        let (dp_sw, _) = run_workload(
            &mut f1,
            &base,
            &mut w,
            &DpPlanned,
            StreamPricing::new(reconfig),
            &cfg,
        )
        .unwrap();
        let mut f2 = switch(n, 1e-5);
        let mut w = schedule.stream();
        let (greedy_sw, _) = run_workload(
            &mut f2,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
        )
        .unwrap();
        assert_eq!(dp_sw, greedy_sw);
    }

    #[test]
    fn streaming_rejects_structural_errors() {
        let n = 8;
        let cfg = RunConfig::paper_defaults();
        let reconfig = ReconfigModel::constant(1e-6).unwrap();
        let schedule = allreduce::ring::build(n, 1e3).unwrap().schedule;

        // Fabric/workload dimension mismatch.
        let mut small = switch(4, 1e-6);
        let base = builders::ring_unidirectional(n).unwrap();
        let mut w = schedule.stream();
        assert!(matches!(
            run_workload(
                &mut small,
                &base,
                &mut w,
                &Static,
                StreamPricing::new(reconfig),
                &cfg
            ),
            Err(SimError::DimensionMismatch { .. })
        ));

        // Non-circuit base.
        let bidi = builders::ring_bidirectional(n).unwrap();
        let mut fab = switch(n, 1e-6);
        let mut w = schedule.stream();
        assert!(matches!(
            run_workload(
                &mut fab,
                &bidi,
                &mut w,
                &Static,
                StreamPricing::new(reconfig),
                &cfg
            ),
            Err(SimError::BaseNotACircuit)
        ));

        // Malformed streamed volume.
        struct BadVolume(usize);
        impl Workload for BadVolume {
            fn n(&self) -> usize {
                self.0
            }
            fn name(&self) -> &str {
                "bad"
            }
            fn next_step_into(&mut self, _: &WorkloadCtx, out: &mut Step) -> bool {
                *out = Step {
                    matching: Matching::shift(self.0, 1).unwrap(),
                    bytes_per_pair: f64::NAN,
                };
                true
            }
            fn reset(&mut self) {}
        }
        let mut fab = switch(n, 1e-6);
        assert!(matches!(
            run_workload(
                &mut fab,
                &base,
                &mut BadVolume(n),
                &Static,
                StreamPricing::new(reconfig),
                &cfg
            ),
            Err(SimError::BadStepVolume { step: 0, .. })
        ));
    }
}

#[cfg(test)]
mod merge_tests {
    use super::StreamSummary;

    fn summary(k: u64) -> StreamSummary {
        StreamSummary {
            steps: k as usize,
            matched_steps: (k / 2) as usize,
            reconfig_events: (k / 3) as usize,
            total_ps: 1000 * k,
            barrier_ps: 10 * k,
            alpha_ps: 11 * k,
            reconfig_ps: 12 * k,
            transfer_ps: 13 * k,
            compute_ps: 14 * k,
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (summary(3), summary(7), summary(11));
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        assert_eq!(a.merge(b), b.merge(a));
    }

    #[test]
    fn default_is_the_merge_identity() {
        let a = summary(5);
        assert_eq!(a.merge(StreamSummary::default()), a);
        assert_eq!(StreamSummary::default().merge(a), a);
    }

    #[test]
    fn merge_adds_sums_and_maxes_the_clock() {
        let m = summary(2).merge(summary(5));
        assert_eq!(m.steps, 7);
        assert_eq!(m.total_ps, 5000, "shards share one clock: max, not sum");
        assert_eq!(m.transfer_ps, 13 * 7);
    }
}
