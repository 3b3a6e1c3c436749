//! Collective execution on a reconfigurable fabric.
//!
//! The private `execute_step` is the step engine: barrier → α →
//! reconfiguration → routed max-min transfer → compute. A job running the
//! fabric alone reaches it through one private per-step runner, `Solo`,
//! which every single-job front door loops around:
//!
//! * [`run_scheduled`] executes a *precomputed* [`SwitchSchedule`] (e.g.
//!   a controller's plan, or a hand-written decision vector);
//! * [`run_adaptive`] consults a [`Controller`] step by step, observing
//!   the whole problem, so the decision rationale lands in the trace as
//!   [`TraceKind::Decision`] events — the simulator face of the paper's
//!   adaptive vision;
//! * the streaming executors in [`crate::stream`] do the same over
//!   demand pulled lazily from a workload.
//!
//! Several jobs sharing a fabric reach the engine through the other
//! loop, [`crate::service::ServiceExecutor::execute_next`]. The front
//! doors are normally reached through `adaptive_photonics::Experiment`.

use crate::arena::{StepScratch, UNUSED};
use crate::error::SimError;
use crate::fluid::simulate_flows_scratch;
use crate::record::{RecordSink, StepRecord};
use crate::report::{SimReport, StepReport};
use crate::trace::{TraceEvent, TraceKind};
use aps_collectives::Schedule;
use aps_core::controller::{Controller, StepObservation};
use aps_core::{ConfigChoice, ReconfigAccounting, SwitchSchedule, SwitchingProblem};
use aps_cost::units::{secs_to_picos, Picos};
use aps_cost::CostParams;
use aps_fabric::{BarrierModel, Fabric, ReconfigOutcome};
use aps_matrix::Matching;

pub use crate::tenant::{execute_tenants, TenantReport, TenantSpec};

/// Reduction compute following each step's communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Seconds of computation per byte received in the step.
    pub per_byte_s: f64,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// α, β (bandwidth), δ.
    pub params: CostParams,
    /// Barrier latency charged at every step boundary.
    pub barrier: BarrierModel,
    /// Optional per-step compute phase.
    pub compute: Option<ComputeModel>,
    /// When `true`, the fabric reconfigures for step `i+1` *while* the GPUs
    /// compute on step `i`'s data (research agenda §4, "overlapping
    /// reconfiguration with computation"). Only the portion of the
    /// reconfiguration delay not hidden by compute remains visible.
    pub overlap_reconfig_with_compute: bool,
}

impl RunConfig {
    /// A configuration around the given cost parameters: free barrier, no
    /// compute, no overlap. The numeric constants live in [`CostParams`]
    /// alone; this constructor only adds the simulator-specific knobs.
    pub fn with_params(params: CostParams) -> Self {
        Self {
            params,
            barrier: BarrierModel::None,
            compute: None,
            overlap_reconfig_with_compute: false,
        }
    }

    /// Paper §3.4 parameters —
    /// [`RunConfig::with_params`]`(`[`CostParams::paper_defaults`]`())`.
    pub fn paper_defaults() -> Self {
        Self::with_params(CostParams::paper_defaults())
    }
}

impl From<CostParams> for RunConfig {
    fn from(params: CostParams) -> Self {
        Self::with_params(params)
    }
}

/// One step's worth of work for [`execute_step`]: the communication
/// pattern already resolved to global fabric ports.
pub(crate) struct StepInput<'a> {
    /// Step index (for traces and errors).
    pub step: usize,
    /// Whether the step runs on a matched configuration.
    pub matched: bool,
    /// Fabric configuration the step asks for.
    pub target: &'a Matching,
    /// Communicating `(src, dst)` port pairs — borrowed from the caller's
    /// reusable buffer so assembling a step allocates nothing.
    pub pairs: &'a [(usize, usize)],
    /// Bytes each pair exchanges.
    pub bytes_per_pair: f64,
    /// Nodes synchronizing at the step's barrier.
    pub barrier_n: usize,
    /// `true` for the first step of its collective (no overlap window yet).
    pub first: bool,
}

/// When the step's reconfiguration request would reach the fabric: with
/// overlap enabled, as soon as the previous step's flows drain; otherwise
/// once the control path (barrier + α) arrives. The multi-job scheduler
/// ([`crate::service::ServiceExecutor::next_request_at`]) orders jobs by
/// exactly this instant, so it must stay the single source of truth for
/// both the scheduler and the step.
// Inlined into the scheduler's per-slot scan, which runs before every
// multi-job step.
#[inline]
pub(crate) fn natural_request_at(
    cfg: &RunConfig,
    barrier_n: usize,
    first: bool,
    comm_end: Picos,
    gpu_free: Picos,
) -> Picos {
    let control_ready = gpu_free
        + secs_to_picos(cfg.barrier.latency_s(barrier_n))
        + secs_to_picos(cfg.params.alpha_s);
    if cfg.overlap_reconfig_with_compute && !first {
        comm_end.min(control_ready)
    } else {
        control_ready
    }
}

/// Executes one step's timeline — barrier → α → (arbitrated)
/// reconfiguration → routed max-min transfer → compute — appending to
/// `report` and returning the updated `(comm_end, gpu_free)` clocks.
///
/// A step whose target is already the fabric's current configuration never
/// touches the controller: its circuits are in place, so it neither waits
/// for nor contends with other tenants' reconfigurations. Every other
/// request depends on `arbitrate`: the multi-tenant executor passes `true`
/// and the request queues behind an in-flight reconfiguration via
/// [`Fabric::request_when_free`], recording the wait as `arbitration_ps`;
/// a collective running a fabric alone passes `false` and a busy fabric is
/// a hard [`aps_fabric::FabricError::Busy`] error, exactly as in the seed
/// executor.
#[allow(clippy::too_many_arguments)] // internal engine entry: clocks + buffers are deliberately explicit
pub(crate) fn execute_step(
    fabric: &mut dyn Fabric,
    input: &StepInput<'_>,
    cfg: &RunConfig,
    arbitrate: bool,
    comm_end: Picos,
    gpu_free: Picos,
    report: &mut SimReport,
    scratch: &mut StepScratch,
) -> Result<(Picos, Picos), SimError> {
    let bandwidth = cfg.params.bandwidth_bytes_per_sec();
    let barrier_ps = secs_to_picos(cfg.barrier.latency_s(input.barrier_n));
    let alpha_ps = secs_to_picos(cfg.params.alpha_s);

    // Control path: compute → barrier → α.
    if barrier_ps > 0 {
        report.trace.push(TraceEvent {
            at: gpu_free + barrier_ps,
            kind: TraceKind::Barrier,
        });
    }
    let control_ready = gpu_free + barrier_ps + alpha_ps;

    // Reconfiguration path: overlapped requests start as soon as the
    // previous step's flows drain (the fabric is idle while GPUs
    // compute); otherwise the fabric is asked only once control
    // arrives. A request queues behind an in-flight reconfiguration by
    // another tenant — unless the circuits are already in place, in which
    // case the controller is never involved.
    let natural_request = natural_request_at(cfg, input.barrier_n, input.first, comm_end, gpu_free);
    let (request_at, outcome) = if fabric.current() == input.target {
        let outcome = ReconfigOutcome {
            ready_at: natural_request,
            ports_changed: 0,
        };
        (natural_request, outcome)
    } else if arbitrate {
        fabric.request_when_free(input.target, natural_request)?
    } else {
        let outcome = fabric.request(input.target, natural_request)?;
        (natural_request, outcome)
    };
    let arbitration_ps = request_at - natural_request;
    if arbitration_ps > 0 {
        report.trace.push(TraceEvent {
            at: natural_request,
            kind: TraceKind::ArbitrationWait {
                granted_at: request_at,
            },
        });
    }
    if outcome.ports_changed > 0 {
        report.trace.push(TraceEvent {
            at: request_at,
            kind: TraceKind::ReconfigStart {
                ports: outcome.ports_changed,
            },
        });
        report.trace.push(TraceEvent {
            at: outcome.ready_at,
            kind: TraceKind::ReconfigDone,
        });
    }
    let flows_start = control_ready.max(outcome.ready_at);
    let reconfig_visible = flows_start - control_ready;
    report.trace.push(TraceEvent {
        at: flows_start,
        kind: TraceKind::StepStart {
            step: input.step,
            matched: input.matched,
        },
    });

    // Transfer: route every pair on the achieved circuit topology, which
    // after the request above *is* the fabric's current configuration. A
    // circuit configuration is a partial permutation — every port has at
    // most one outgoing circuit — so the unique (hence shortest) path from
    // `src` is the successor chain, and link ids follow `from_matching`'s
    // convention: links are numbered by ascending sender port. The walk
    // writes CSR paths straight into the long-lived scratch, so routing a
    // steady-state step performs zero heap allocation.
    let config = fabric.current();
    let n = config.n();
    scratch.link_of.clear();
    scratch.link_of.resize(n, UNUSED);
    let mut num_links = 0usize;
    for (s, _) in config.pairs() {
        scratch.link_of[s] = num_links;
        num_links += 1;
    }
    scratch.fluid.start();
    let mut max_hops = 0usize;
    for &(src, dst) in input.pairs {
        let mut cur = src;
        let mut hops = 0usize;
        loop {
            let Some(next) = config.dst_of(cur) else {
                return Err(SimError::Unroutable {
                    step: input.step,
                    src,
                    dst,
                });
            };
            scratch.fluid.push_link(scratch.link_of[cur]);
            hops += 1;
            cur = next;
            if cur == dst {
                break;
            }
            if hops >= n {
                // Walked a full cycle without meeting `dst`: unreachable.
                return Err(SimError::Unroutable {
                    step: input.step,
                    src,
                    dst,
                });
            }
        }
        max_hops = max_hops.max(hops);
        scratch.fluid.seal_flow(input.bytes_per_pair);
    }
    let transfer_ps = if input.pairs.is_empty() {
        0
    } else {
        report.trace.push(TraceEvent {
            at: flows_start,
            kind: TraceKind::FlowsStart {
                count: input.pairs.len(),
            },
        });
        scratch.caps.clear();
        scratch.caps.resize(num_links, bandwidth);
        simulate_flows_scratch(&scratch.caps, &mut scratch.fluid);
        let mut worst_s = 0.0f64;
        for i in 0..scratch.fluid.num_flows() {
            let total =
                scratch.fluid.finish_of(i) + cfg.params.delta_s * scratch.fluid.path_len(i) as f64;
            worst_s = worst_s.max(total);
        }
        secs_to_picos(worst_s)
    };
    let comm_end = flows_start + transfer_ps;
    report.trace.push(TraceEvent {
        at: comm_end,
        kind: TraceKind::StepDone { step: input.step },
    });

    // Compute phase on the received data.
    let compute_ps = match cfg.compute {
        Some(c) if !input.pairs.is_empty() => {
            let d = secs_to_picos(c.per_byte_s * input.bytes_per_pair);
            if d > 0 {
                report.trace.push(TraceEvent {
                    at: comm_end,
                    kind: TraceKind::ComputeStart,
                });
                report.trace.push(TraceEvent {
                    at: comm_end + d,
                    kind: TraceKind::ComputeDone,
                });
            }
            d
        }
        _ => 0,
    };
    let gpu_free = comm_end + compute_ps;

    report.steps.push(StepReport {
        barrier_ps,
        alpha_ps,
        reconfig_ps: reconfig_visible,
        transfer_ps,
        compute_ps,
        arbitration_ps,
        ports_changed: outcome.ports_changed,
        max_hops,
    });
    Ok((comm_end, gpu_free))
}

/// The per-step runner of a job running a fabric alone — the one loop
/// body behind [`run_adaptive`], [`crate::stream::run_scheduled_workload`]
/// and the streaming adaptive executors, which differ only in where each
/// step and its choice come from. It owns what those loops thread from
/// step to step: the clocks, the previous choice, the reused pair buffer
/// and step arena, and the base circuit configuration.
pub(crate) struct Solo<'a, 's> {
    fabric: &'a mut dyn Fabric,
    cfg: &'a RunConfig,
    /// The configuration base steps target.
    base_config: &'a Matching,
    /// Nodes synchronizing at every step's barrier.
    n: usize,
    sink: Option<&'s mut dyn RecordSink>,
    /// The previous step's choice (`Base` before the first step, `x₀ = 1`).
    pub(crate) prev: ConfigChoice,
    /// When the previous step's flows drained.
    pub(crate) comm_end: Picos,
    /// When the GPUs last freed.
    pub(crate) gpu_free: Picos,
    /// Pair buffer, refilled per step (zero-alloc hot path).
    pairs: Vec<(usize, usize)>,
    scratch: StepScratch,
}

impl<'a, 's> Solo<'a, 's> {
    /// A runner for an `n`-port job; fails unless the fabric spans
    /// exactly those ports.
    pub(crate) fn new(
        fabric: &'a mut dyn Fabric,
        cfg: &'a RunConfig,
        base_config: &'a Matching,
        n: usize,
        sink: Option<&'s mut dyn RecordSink>,
    ) -> Result<Self, SimError> {
        if fabric.n() != n {
            return Err(SimError::DimensionMismatch {
                fabric: fabric.n(),
                collective: n,
            });
        }
        Ok(Self {
            fabric,
            cfg,
            base_config,
            n,
            sink,
            prev: ConfigChoice::Base,
            comm_end: 0,
            gpu_free: 0,
            pairs: Vec::new(),
            scratch: StepScratch::new(),
        })
    }

    /// Runs step `i` — `matching` exchanging `bytes_per_pair` per pair —
    /// under the decided `choice`, appending to `report` and handing the
    /// committed step to the sink. A `why` stamps the decision into the
    /// trace first; callers pass one only when someone reads the trace,
    /// so the hot loops never format a rationale.
    pub(crate) fn step<'r>(
        &mut self,
        i: usize,
        matching: &Matching,
        bytes_per_pair: f64,
        choice: ConfigChoice,
        why: Option<String>,
        report: &'r mut SimReport,
    ) -> Result<&'r StepReport, SimError> {
        let matched = choice == ConfigChoice::Matched;
        let trace_before = report.trace.len();
        if let Some(why) = why {
            // Stamp the decision no later than the step's natural fabric
            // request: under reconfigure/compute overlap that request
            // fires when the previous step's flows drain (before the GPUs
            // are free), and the decision must precede its own
            // ReconfigStart.
            let at = natural_request_at(self.cfg, self.n, i == 0, self.comm_end, self.gpu_free)
                .min(self.gpu_free);
            report.trace.push(TraceEvent {
                at,
                kind: TraceKind::Decision {
                    step: i,
                    matched,
                    why,
                },
            });
        }
        self.pairs.clear();
        self.pairs.extend(matching.pairs());
        let input = StepInput {
            step: i,
            matched,
            target: if matched { matching } else { self.base_config },
            pairs: &self.pairs,
            bytes_per_pair,
            barrier_n: self.n,
            first: i == 0,
        };
        let step_idx = report.steps.len();
        (self.comm_end, self.gpu_free) = execute_step(
            &mut *self.fabric,
            &input,
            self.cfg,
            false,
            self.comm_end,
            self.gpu_free,
            report,
            &mut self.scratch,
        )?;
        self.prev = choice;
        let done = &report.steps[step_idx];
        if let Some(s) = self.sink.as_deref_mut() {
            s.record_step(&StepRecord {
                step: i,
                tenant: None,
                matched,
                report: done,
                events: &report.trace[trace_before..],
                config: self.fabric.current(),
                busy_until: self.fabric.busy_until(),
            });
        }
        Ok(done)
    }
}

/// Executes `schedule` under a precomputed `switch_schedule` against the
/// fabric.
///
/// `base_config` is the circuit configuration realizing the base topology
/// (e.g. the unidirectional ring): steps with [`ConfigChoice::Base`] target
/// it, steps with [`ConfigChoice::Matched`] target their own matching.
///
/// For per-step online decisions see [`run_adaptive`]; for several jobs
/// sharing one fabric see [`crate::tenant::execute_tenants`].
///
/// # Errors
///
/// Fails on dimension/length mismatches, fabric refusals, or a pair that
/// cannot be routed on the achieved circuit topology (possible under fault
/// injection).
pub fn run_scheduled(
    fabric: &mut dyn Fabric,
    base_config: &Matching,
    schedule: &Schedule,
    switch_schedule: &SwitchSchedule,
    cfg: &RunConfig,
) -> Result<SimReport, SimError> {
    if switch_schedule.len() != schedule.num_steps() {
        return Err(SimError::ScheduleLengthMismatch {
            expected: schedule.num_steps(),
            got: switch_schedule.len(),
        });
    }
    // The materialized path is the trivial stream: a cursor over the
    // schedule's steps, pulled on demand by the shared streaming core.
    crate::stream::run_scheduled_workload(
        fabric,
        base_config,
        &mut schedule.stream(),
        switch_schedule,
        cfg,
    )
}

/// Executes an eq. (7) problem instance against the fabric with
/// `controller` deciding each step online, from the fabric state it
/// actually observes. Every decision is recorded in the trace as a
/// [`TraceKind::Decision`] event carrying the controller's rationale.
/// Returns the realized switch schedule alongside the report.
///
/// The problem carries each step's matching and volume, so no separate
/// collective schedule is needed — build it with
/// [`aps_core::ScaleupDomain::problem`] or
/// [`SwitchingProblem::build`].
///
/// # Errors
///
/// Fails on dimension mismatches, fabric refusals, or unroutable pairs,
/// exactly like [`run_scheduled`].
pub fn run_adaptive(
    fabric: &mut dyn Fabric,
    base_config: &Matching,
    problem: &SwitchingProblem,
    controller: &dyn Controller,
    accounting: ReconfigAccounting,
    cfg: &RunConfig,
) -> Result<(SwitchSchedule, SimReport), SimError> {
    let mut solo = Solo::new(fabric, cfg, base_config, problem.n, None)?;
    let mut report = SimReport::default();
    let mut choices = Vec::with_capacity(problem.num_steps());
    for (i, step) in problem.steps.iter().enumerate() {
        // The whole problem is observed, so planning controllers keep
        // their lookahead.
        let obs = StepObservation::new(problem, accounting, i, solo.prev);
        let choice = controller.decide(&obs);
        let why = controller.explain(&obs, choice);
        solo.step(
            i,
            &step.matching,
            step.bytes,
            choice,
            Some(why),
            &mut report,
        )?;
        choices.push(choice);
    }
    report.total_ps = solo.gpu_free;
    Ok((SwitchSchedule::new(choices), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::{allreduce, alltoall};
    use aps_cost::units::{picos_to_secs, MIB, NANOS};
    use aps_cost::ReconfigModel;
    use aps_fabric::CircuitSwitch;

    fn ring_config(n: usize) -> Matching {
        Matching::shift(n, 1).unwrap()
    }

    fn switch(n: usize, alpha_r: f64) -> CircuitSwitch {
        CircuitSwitch::new(ring_config(n), ReconfigModel::constant(alpha_r).unwrap())
    }

    #[test]
    fn static_ring_allreduce_matches_analytic() {
        let n = 8;
        let m = 1.0 * MIB;
        let c = allreduce::ring::build(n, m).unwrap();
        let mut fab = switch(n, 10e-6);
        let cfg = RunConfig::paper_defaults();
        let ss = SwitchSchedule::all_base(c.schedule.num_steps());
        let r = run_scheduled(&mut fab, &ring_config(n), &c.schedule, &ss, &cfg).unwrap();
        // Ring steps are 1-hop on the ring config with no congestion:
        // each of the 14 steps costs α + m/n/b + δ.
        let per_step = 100.0 * NANOS + (m / n as f64) / 1e11 + 100.0 * NANOS;
        let expect = 14.0 * per_step;
        assert!(
            (r.total_s() - expect).abs() < 1e-9,
            "sim {} vs analytic {}",
            r.total_s(),
            expect
        );
        assert_eq!(r.reconfig_events(), 0);
    }

    #[test]
    fn matched_steps_pay_reconfiguration() {
        let n = 8;
        let c = allreduce::halving_doubling::build(n, MIB).unwrap();
        let mut fab = switch(n, 5e-6);
        let cfg = RunConfig::paper_defaults();
        let s = c.schedule.num_steps();
        let r = run_scheduled(
            &mut fab,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &cfg,
        )
        .unwrap();
        // The fabric reconfigures physically: halving-doubling's last RS
        // step and first AG step share the xor(1) pattern, so one of the
        // s notional reconfigurations is a free no-op.
        assert_eq!(r.reconfig_events(), s - 1);
        assert!((r.reconfig_s() - (s - 1) as f64 * 5e-6).abs() < 1e-12);
        // Matched transfers are single-hop at full rate.
        for st in &r.steps {
            assert_eq!(st.max_hops, 1);
        }
    }

    #[test]
    fn congestion_shows_up_on_base() {
        // xor(4) on an 8-ring: θ = 1/4 → the transfer takes 4× the
        // dedicated-circuit time (plus wrap propagation).
        let n = 8;
        let m = 4.0 * MIB;
        let c = alltoall::xor_exchange(n, 8.0 * m).unwrap(); // bytes/pair = m
        let mut fab = switch(n, 1e-6);
        let cfg = RunConfig::paper_defaults();
        let ss = SwitchSchedule::all_base(c.schedule.num_steps());
        let r = run_scheduled(&mut fab, &ring_config(n), &c.schedule, &ss, &cfg).unwrap();
        // Step with pattern xor(4) is step index 3 (k = 4).
        let st = &r.steps[3];
        let dedicated = m / 1e11;
        let got = picos_to_secs(st.transfer_ps);
        let expect = 4.0 * dedicated + 4.0 * 100.0 * NANOS;
        assert!((got - expect).abs() < 1e-9, "got {got}, expected {expect}");
    }

    #[test]
    fn overlap_hides_reconfiguration_behind_compute() {
        let n = 8;
        let c = allreduce::halving_doubling::build(n, 64.0 * MIB).unwrap();
        let s = c.schedule.num_steps();
        // Compute long enough to hide a 5 µs reconfiguration entirely.
        let compute = ComputeModel { per_byte_s: 1e-9 };
        let base_cfg = RunConfig {
            compute: Some(compute),
            ..RunConfig::paper_defaults()
        };
        let overlap_cfg = RunConfig {
            overlap_reconfig_with_compute: true,
            ..base_cfg
        };
        let mut f1 = switch(n, 5e-6);
        let r_serial = run_scheduled(
            &mut f1,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &base_cfg,
        )
        .unwrap();
        let mut f2 = switch(n, 5e-6);
        let r_overlap = run_scheduled(
            &mut f2,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &overlap_cfg,
        )
        .unwrap();
        assert!(r_overlap.total_ps < r_serial.total_ps);
        // All but the first physical reconfiguration hide completely behind
        // compute (the xor(1)→xor(1) no-op between the phases is free in
        // both runs): serial pays 5 × 5 µs, overlap pays only the first.
        let physical_events = r_serial.reconfig_events();
        assert_eq!(physical_events, s - 1);
        let hidden = (physical_events - 1) as f64 * 5e-6;
        let diff = r_serial.total_s() - r_overlap.total_s();
        assert!(
            (diff - hidden).abs() < 1e-9,
            "hid {diff}, expected {hidden}"
        );
    }

    #[test]
    fn stuck_port_makes_steps_unroutable() {
        let n = 4;
        let c = alltoall::xor_exchange(n, 4096.0).unwrap();
        let mut fab = switch(n, 1e-6);
        fab.stick_port(0).unwrap();
        let cfg = RunConfig::paper_defaults();
        let s = c.schedule.num_steps();
        let err = run_scheduled(
            &mut fab,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }), "{err}");
    }

    #[test]
    fn barrier_latency_is_charged_per_step() {
        let n = 8;
        let c = allreduce::ring::build(n, MIB).unwrap();
        let mut free = switch(n, 1e-6);
        let mut with = switch(n, 1e-6);
        let cfg_free = RunConfig::paper_defaults();
        let cfg_barrier = RunConfig {
            barrier: BarrierModel::Constant { latency_s: 1e-6 },
            ..RunConfig::paper_defaults()
        };
        let ss = SwitchSchedule::all_base(c.schedule.num_steps());
        let a = run_scheduled(&mut free, &ring_config(n), &c.schedule, &ss, &cfg_free).unwrap();
        let b = run_scheduled(&mut with, &ring_config(n), &c.schedule, &ss, &cfg_barrier).unwrap();
        let diff = b.total_s() - a.total_s();
        let expect = c.schedule.num_steps() as f64 * 1e-6;
        assert!((diff - expect).abs() < 1e-12);
    }

    #[test]
    fn schedule_length_mismatch_rejected() {
        let n = 4;
        let c = allreduce::ring::build(n, 1e3).unwrap();
        let mut fab = switch(n, 1e-6);
        let cfg = RunConfig::paper_defaults();
        assert!(matches!(
            run_scheduled(
                &mut fab,
                &ring_config(n),
                &c.schedule,
                &SwitchSchedule::all_base(1),
                &cfg
            ),
            Err(SimError::ScheduleLengthMismatch { .. })
        ));
        let mut small = switch(8, 1e-6);
        assert!(matches!(
            run_scheduled(
                &mut small,
                &ring_config(8),
                &c.schedule,
                &SwitchSchedule::all_base(c.schedule.num_steps()),
                &cfg
            ),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    fn problem_for(n: usize, bytes: f64, alpha_r: f64) -> SwitchingProblem {
        use aps_flow::solver::{ThetaCache, ThroughputSolver};
        use aps_topology::builders;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::halving_doubling::build(n, bytes).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            aps_cost::ReconfigModel::constant(alpha_r).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn adaptive_run_matches_scheduled_run_of_the_controllers_plan() {
        use aps_core::controller::shipped;
        let n = 8;
        let bytes = 4.0 * MIB;
        let alpha_r = 5e-6;
        let problem = problem_for(n, bytes, alpha_r);
        let c = allreduce::halving_doubling::build(n, bytes).unwrap();
        let cfg = RunConfig::paper_defaults();
        let acc = aps_core::ReconfigAccounting::PaperConservative;
        for ctl in shipped() {
            let mut fab = switch(n, alpha_r);
            let (switches, adaptive) =
                run_adaptive(&mut fab, &ring_config(n), &problem, ctl, acc, &cfg).unwrap();
            // One tagged decision per step, carrying the rationale.
            let decisions: Vec<_> = adaptive
                .trace
                .iter()
                .filter_map(|e| match &e.kind {
                    TraceKind::Decision { step, matched, why } => Some((*step, *matched, why)),
                    _ => None,
                })
                .collect();
            assert_eq!(decisions.len(), problem.num_steps(), "{}", ctl.name());
            for (i, (step, matched, why)) in decisions.iter().enumerate() {
                assert_eq!(*step, i);
                assert_eq!(
                    *matched,
                    switches.choice(i) == aps_core::ConfigChoice::Matched
                );
                assert!(why.starts_with(ctl.name()), "{why}");
            }
            // Replaying the realized schedule without the controller gives
            // the identical timeline (the decision events aside).
            let mut fab2 = switch(n, alpha_r);
            let replay =
                run_scheduled(&mut fab2, &ring_config(n), &c.schedule, &switches, &cfg).unwrap();
            assert_eq!(adaptive.total_ps, replay.total_ps, "{}", ctl.name());
            assert_eq!(adaptive.steps, replay.steps, "{}", ctl.name());
            // And the plan-then-execute path realizes the same schedule
            // for every deterministic controller.
            assert_eq!(ctl.plan(&problem, acc).unwrap(), switches, "{}", ctl.name());
        }
    }

    #[test]
    fn adaptive_decisions_precede_their_reconfigurations_under_overlap() {
        // With reconfigure/compute overlap, a step's fabric request fires
        // when the previous step's flows drain — before the GPUs finish
        // computing. The Decision event must still be stamped at or
        // before the ReconfigStart it causes.
        let n = 8;
        let problem = problem_for(n, 64.0 * MIB, 5e-6);
        let cfg = RunConfig {
            compute: Some(ComputeModel { per_byte_s: 1e-9 }),
            overlap_reconfig_with_compute: true,
            ..RunConfig::paper_defaults()
        };
        let mut fab = switch(n, 5e-6);
        let (_, report) = run_adaptive(
            &mut fab,
            &ring_config(n),
            &problem,
            &aps_core::controller::AlwaysReconfigure,
            aps_core::ReconfigAccounting::PaperConservative,
            &cfg,
        )
        .unwrap();
        let mut last_decision_at = None;
        let mut saw_overlapped_reconfig = false;
        for ev in &report.trace {
            match ev.kind {
                TraceKind::Decision { .. } => last_decision_at = Some(ev.at),
                TraceKind::ReconfigStart { .. } => {
                    let decided = last_decision_at.expect("decision before reconfig");
                    assert!(
                        decided <= ev.at,
                        "decision at {decided} after its reconfiguration at {}",
                        ev.at
                    );
                    saw_overlapped_reconfig = true;
                }
                _ => {}
            }
        }
        assert!(saw_overlapped_reconfig);
    }

    #[test]
    fn adaptive_run_rejects_dimension_mismatch() {
        let problem = problem_for(8, MIB, 1e-6);
        let mut fab = switch(4, 1e-6);
        let err = run_adaptive(
            &mut fab,
            &ring_config(4),
            &problem,
            &aps_core::controller::Static,
            aps_core::ReconfigAccounting::default(),
            &RunConfig::paper_defaults(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DimensionMismatch { .. }));
    }

    #[test]
    fn run_config_derives_from_cost_params() {
        let p = CostParams::paper_high_alpha();
        let cfg = RunConfig::from(p);
        assert_eq!(cfg.params, p);
        assert_eq!(cfg, RunConfig::with_params(p));
        assert_eq!(
            RunConfig::paper_defaults(),
            RunConfig::with_params(CostParams::paper_defaults())
        );
    }
}
