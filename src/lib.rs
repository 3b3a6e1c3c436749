//! # adaptive-photonics — adaptive photonic scale-up domains
//!
//! A full Rust implementation of the theory, scheduling framework and
//! flow-level evaluation of *"When Light Bends to the Collective Will: A
//! Theory and Vision for Adaptive Photonic Scale-up Domains"* (HotNets
//! 2025): collective communication over a reconfigurable photonic
//! interconnect, where each step can either run on a static base topology
//! (paying congestion and multi-hop propagation) or trigger a fabric
//! reconfiguration to a perfectly matched topology (paying `α_r`).
//!
//! The front door is the typed [`Experiment`] builder: bind a **domain**
//! (base topology + cost model + `α_r` pricing), a **workload** (one
//! collective, a size-parameterized family, or a multi-tenant scenario)
//! and a **controller** (who decides, step by step, whether the fabric
//! bends), then `plan()`, `simulate()` or `sweep(grid)`.
//!
//! ## Quickstart
//!
//! ```
//! use adaptive_photonics::prelude::*;
//!
//! // A 16-GPU scale-up domain: 800 Gbps transceivers, unidirectional ring
//! // base, 10 µs reconfiguration delay.
//! let base = topology::builders::ring_unidirectional(16).unwrap();
//! let coll = collectives::allreduce::halving_doubling::build(16, 64.0 * 1024.0 * 1024.0).unwrap();
//!
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .collective(&coll); // default controller: the eq. (7) DP optimum
//!
//! // Analytic plan + the classic policy comparison …
//! let plan = exp.plan().unwrap();
//! let cmp = exp.compare().unwrap();
//! assert_eq!(plan.switches.len(), coll.schedule.num_steps());
//! assert!((plan.report.total_s() - cmp.opt_s).abs() < 1e-15);
//! assert!(cmp.speedup_vs_static() >= 1.0);
//! assert!(cmp.speedup_vs_bvn() >= 1.0);
//!
//! // … and a fluid simulation with per-step decisions tagged in the trace.
//! let run = exp.simulate().unwrap();
//! assert_eq!(run.switches, plan.switches);
//! assert!(run.report.total_s() > 0.0);
//! ```
//!
//! ## Controllers
//!
//! Anything implementing [`core::controller::Controller`] can drive an
//! experiment; five ship with the workspace. Each example below prices a
//! 16 MiB AllReduce on a 16-GPU ring domain (`α_r = 10 µs`) and places
//! the controller in the `speedup_vs_static()` ordering.
//!
//! [`Static`](core::controller::Static) — never reconfigure; *defines*
//! the static baseline, so its speedup over static is exactly 1:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! # let base = topology::builders::ring_unidirectional(16).unwrap();
//! # let coll = collectives::allreduce::halving_doubling::build(16, 16.0 * 1024.0 * 1024.0).unwrap();
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .collective(&coll)
//!     .controller(Static);
//! let (t, cmp) = (exp.plan().unwrap().report.total_s(), exp.compare().unwrap());
//! assert!((t - cmp.static_s).abs() < 1e-15);
//! assert!((cmp.static_s / t - 1.0).abs() < 1e-12); // speedup_vs_static == 1
//! ```
//!
//! [`AlwaysReconfigure`](core::controller::AlwaysReconfigure) — the naive
//! BvN schedule; in this large-message regime it beats static but not the
//! optimum:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! # let base = topology::builders::ring_unidirectional(16).unwrap();
//! # let coll = collectives::allreduce::halving_doubling::build(16, 16.0 * 1024.0 * 1024.0).unwrap();
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .collective(&coll)
//!     .controller(AlwaysReconfigure);
//! let (t, cmp) = (exp.plan().unwrap().report.total_s(), exp.compare().unwrap());
//! assert!((t - cmp.bvn_s).abs() < 1e-15);
//! assert!(cmp.static_s / t > 1.0); // beats static here …
//! assert!(t >= cmp.opt_s); // … but never the optimum
//! ```
//!
//! [`Threshold`](core::controller::Threshold) — the §4 heuristic:
//! reconfigure when a step's standalone gain exceeds the worst-case
//! `α_r`; sits between static and the optimum:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! # let base = topology::builders::ring_unidirectional(16).unwrap();
//! # let coll = collectives::allreduce::halving_doubling::build(16, 16.0 * 1024.0 * 1024.0).unwrap();
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .collective(&coll)
//!     .controller(Threshold);
//! let (t, cmp) = (exp.plan().unwrap().report.total_s(), exp.compare().unwrap());
//! assert!((t - cmp.threshold_s).abs() < 1e-15);
//! assert!(cmp.static_s / t >= 1.0 && t >= cmp.opt_s);
//! ```
//!
//! [`Greedy`](core::controller::Greedy) — online and myopic: runs each
//! step the cheapest way given the fabric's current configuration; a
//! strict improvement over static here, still bounded by the optimum:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! # let base = topology::builders::ring_unidirectional(16).unwrap();
//! # let coll = collectives::allreduce::halving_doubling::build(16, 16.0 * 1024.0 * 1024.0).unwrap();
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .collective(&coll)
//!     .controller(Greedy);
//! let (t, cmp) = (exp.plan().unwrap().report.total_s(), exp.compare().unwrap());
//! assert!(cmp.static_s / t > 1.0); // speedup_vs_static > 1 in this regime
//! assert!(t >= cmp.opt_s);
//! ```
//!
//! [`DpPlanned`](core::controller::DpPlanned) — the exact eq. (7) optimum
//! (the default controller); its speedup over static is the Figure 1
//! bottom-row metric and dominates every other controller:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! # let base = topology::builders::ring_unidirectional(16).unwrap();
//! # let coll = collectives::allreduce::halving_doubling::build(16, 16.0 * 1024.0 * 1024.0).unwrap();
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .collective(&coll)
//!     .controller(DpPlanned);
//! let (t, cmp) = (exp.plan().unwrap().report.total_s(), exp.compare().unwrap());
//! assert!((t - cmp.opt_s).abs() < 1e-15);
//! assert!(cmp.speedup_vs_static() >= cmp.static_s / cmp.bvn_s.max(cmp.threshold_s));
//! assert!(cmp.speedup_vs_static() >= 1.0 && cmp.speedup_vs_bvn() >= 1.0);
//! ```
//!
//! Multi-tenant mixes bind with [`Experiment::scenario`] (or
//! [`Experiment::tenants`]) and chain `plan()?.simulate()`; collective
//! *families* bind with [`Experiment::collective_family`] and drive the
//! Figure 1/2 heatmap sweeps via `sweep(grid)`.
//!
//! ## Streaming workloads
//!
//! Demand need not be materialized: anything implementing
//! [`collectives::Workload`] — a seeded traffic generator, an epoch-looped
//! training loop, a combinator chain, or a [`collectives::Schedule`]
//! cursor — binds
//! with [`Experiment::workload`] and streams its steps one at a time into
//! the adaptive executor, in O(1) schedule memory even for million-step
//! (or endless) runs:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! use adaptive_photonics::collectives::workload::generators::TrainingLoop;
//!
//! let base = topology::builders::ring_unidirectional(8).unwrap();
//! let mut exp = Experiment::domain(base)
//!     .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!     .controller(Greedy)
//!     .workload(TrainingLoop::new(8, 2, 1e6, 8e6, Some(3)).unwrap());
//! let run = exp.simulate().unwrap();          // streamed, decisions traced
//! let totals = exp.simulate_summary(usize::MAX).unwrap(); // O(1) report memory
//! assert_eq!(totals.steps, run.report.steps.len());
//! assert_eq!(totals.total_ps, run.report.total_ps);
//! ```
//!
//! Shipped generators ([`collectives::workload::generators`]): a
//! pipeline-parallel `TrainingLoop`, `ParameterServer` incast rounds,
//! seeded `RandomPermutations`, and `OnOffBursty` uniform traffic.
//! Combinators (`then`, `repeat`/`loop_epochs`, `interleave`, `scaled`,
//! `Overlay`) compose streams lazily. Online controllers stream
//! bit-identically to the materialized adaptive path (the controller
//! observes a two-step window); planning controllers degenerate to their
//! myopic window rule — `plan()` (finite streams) recovers the optimum.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`topology`] | `aps-topology` | capacitated graphs, ring/torus/hypercube/co-prime builders, routing |
//! | [`matrix`] | `aps-matrix` | matchings, demand matrices, Hopcroft–Karp, BvN decomposition |
//! | [`flow`] | `aps-flow` | maximum concurrent flow: exact ring forms, Garg–Könemann FPTAS, degree proxy |
//! | [`par`] | `aps-par` | deterministic scoped worker pool (`APS_THREADS`) behind sweeps and trial batches |
//! | [`collectives`] | `aps-collectives` | AllReduce/All-to-All/AllGather/… as matching sequences + semantic verifier |
//! | [`cost`] | `aps-cost` | the α–β–δ cost model grounded in concurrent flow (Observation 2) |
//! | [`core`] | `aps-core` | the eq. (7) optimization: the `Controller` trait, DP solver, policies, multi-base pools, sweeps |
//! | [`fabric`] | `aps-fabric` | circuit-switch & wavelength fabric device models with fault injection |
//! | [`sim`] | `aps-sim` | deterministic fluid simulator: scheduled & adaptive executors, multi-tenant scenarios |
//! | [`replay`] | `aps-replay` | deterministic replay: state hashing, replay records, divergence reports, snapshots |
//! | [`faas`] | `aps-faas` | fabric as a service: arrival processes, admission control, port partitions, SLO accounting |
//! | [`ablate`] | `aps-ablate` | declarative ablation plans: grid/LHS sampling, KPI tolerance gates, append-only CSV registry |
//! | [`experiment`] | (this crate) | the typed `Experiment` builder unifying plan / simulate / sweep / multi-tenant |
//!
//! ## Replay & determinism
//!
//! Every simulation is bit-identical given the same inputs; the
//! [`replay`] subsystem turns that promise into evidence. A streaming
//! experiment can **record** per-step hash frames, **verify** a stored
//! record against a fresh re-execution (divergences are localized to the
//! first bad step and field class), and **snapshot/resume** an endless
//! run without losing bit-parity:
//!
//! ```
//! use adaptive_photonics::prelude::*;
//! use adaptive_photonics::collectives::workload::generators::TrainingLoop;
//!
//! let base = topology::builders::ring_unidirectional(8).unwrap();
//! let workload = || TrainingLoop::new(8, 2, 1e6, 8e6, None).unwrap(); // endless
//! let exp = || {
//!     Experiment::domain(base.clone())
//!         .reconfig(ReconfigModel::constant(10e-6).unwrap())
//!         .controller(Greedy)
//!         .workload(workload())
//! };
//!
//! // Record 200 steps, then verify the record against a re-execution.
//! let mut rec = exp().record();
//! rec.simulate_summary(200).unwrap();
//! let record = rec.take_record().unwrap();
//! let report = exp().verify(&record).unwrap();
//! assert!(report.is_clean(), "{report}");
//!
//! // Snapshot at step 100, resume, and land on the same hash chain.
//! let mut first = exp().record();
//! first.simulate_summary(100).unwrap();
//! let snapshot = first.take_snapshot().unwrap();
//! let mut resumed = exp().resume_from(snapshot);
//! let summary = resumed.simulate_summary(200).unwrap();
//! assert_eq!(summary.steps, 200);
//! let tail = resumed.take_record().unwrap();
//! assert_eq!(tail.final_state, record.final_state); // bit-identical
//! ```

pub use aps_ablate as ablate;
pub use aps_collectives as collectives;
pub use aps_core as core;
pub use aps_cost as cost;
pub use aps_faas as faas;
pub use aps_fabric as fabric;
pub use aps_flow as flow;
pub use aps_matrix as matrix;
pub use aps_par as par;
pub use aps_replay as replay;
pub use aps_sim as sim;
pub use aps_topology as topology;

pub mod experiment;

pub use experiment::{
    collective_by_name, evaluate_ablation_cell, run_ablation, Experiment, ExperimentError, Plan,
    SimRun,
};

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use crate::collectives;
    pub use crate::experiment::{
        evaluate_ablation_cell, run_ablation, Experiment, ExperimentError, Plan, SimRun,
    };
    pub use crate::topology;
    pub use aps_ablate::{
        plans, run_plan, AblateError, AblationPlan, AblationReport, Aggregate, Check, Factor,
        FactorKey, FactorValue, KpiSpec, KpiValues, RegistryRow, Sampling, Tolerance, Verdict,
    };
    pub use aps_collectives::workload::{
        generators, materialize, Overlay, ScheduleStream, Workload, WorkloadCtx,
    };
    pub use aps_collectives::{Collective, CollectiveKind, Schedule, Step};
    pub use aps_core::controller::{
        AlwaysReconfigure, Controller, DpPlanned, Greedy, Static, StepObservation, Threshold,
    };
    pub use aps_core::sweep::{SweepGrid, SweepResult};
    pub use aps_core::{
        ConfigChoice, CostReport, PolicyComparison, ReconfigAccounting, ScaleupDomain,
        SwitchSchedule, SwitchingProblem,
    };
    pub use aps_cost::{CostParams, ReconfigModel};
    pub use aps_faas::{
        leximin_cmp, run_service, AdmissionPolicy, ArrivalProcess, FaasError, LatencyHistogram,
        MmppArrivals, PartitionAllocator, PoissonArrivals, ServiceConfig, ServiceReport,
        ServiceSummary, TenantClass, TenantSlo, TraceArrivals,
    };
    pub use aps_fabric::{BarrierModel, CircuitSwitch, Fabric, WavelengthFabric};
    pub use aps_flow::{ThetaCache, ThroughputSolver};
    pub use aps_matrix::{DemandMatrix, Matching};
    pub use aps_par::Pool;
    pub use aps_replay::{
        diff_records, DivergenceReport, FieldClass, Recorder, ReplayReader, ReplayRecord,
        ReplayWriter, Snapshot, StateHash,
    };
    pub use aps_sim::{
        execute_tenants, run_adaptive, run_scheduled, run_scheduled_workload, run_trial_batch,
        run_workload, run_workload_totals, scenarios, RunConfig, Scenario, SimReport,
        StreamPricing, StreamSummary, TenantReport, TenantSpec, Trial,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_wires_everything_together() {
        let base = topology::builders::ring_unidirectional(8).unwrap();
        let c = collectives::alltoall::linear_shift(8, 1e6).unwrap();
        let mut exp = Experiment::domain(base)
            .reconfig(ReconfigModel::constant(1e-6).unwrap())
            .collective(&c);
        let cmp = exp.compare().unwrap();
        assert!(cmp.opt_s > 0.0);
        let run = exp.simulate().unwrap();
        assert_eq!(run.switches, exp.plan().unwrap().switches);
    }
}
