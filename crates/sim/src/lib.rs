//! # aps-sim — deterministic flow-level simulator for adaptive scale-up domains
//!
//! The paper's evaluation methodology (§3.4) is "a flow-level simulator that
//! implements the optimization framework". This crate is that simulator,
//! rebuilt: a deterministic discrete-event engine on an integer picosecond
//! clock that executes a collective [`aps_collectives::Schedule`] under a
//! circuit-switch schedule from `aps-core`, against a [`aps_fabric::Fabric`]
//! device model.
//!
//! Per step, the simulated timeline is:
//!
//! 1. **barrier** — GPUs synchronize (shared-memory barrier, §3.1);
//! 2. **α** — fixed step preparation latency;
//! 3. **reconfiguration** — if the switch schedule asks for a configuration
//!    different from the fabric's current one, the fabric model prices it
//!    (constant, per-port, or per-port-tuning for wavelength fabrics);
//! 4. **transfer** — one fluid flow per communicating pair, routed on the
//!    *current circuit topology* (multi-hop relaying across circuits when
//!    running on the base), sharing links by max-min fairness; each flow
//!    completes after its last byte drains plus `δ × hops` propagation;
//! 5. **compute** — optional reduction compute, optionally overlapped with
//!    the *next* step's reconfiguration (research agenda §4).
//!
//! For uniform-volume steps the max-min fluid model reproduces the
//! analytic `β·m/θ` transmission term exactly, so simulator and cost model
//! cross-validate each other (see `tests/model_vs_sim.rs` at the workspace
//! root).

//!
//! One step engine runs every step, driven by two loops. A job running
//! the fabric alone goes through one private per-step runner, and each
//! single-job front door is a short loop deciding where its steps and
//! choices come from: [`exec::run_scheduled`] (streaming face
//! [`stream::run_scheduled_workload`]) reads a precomputed switch
//! schedule, [`exec::run_adaptive`] asks an
//! [`aps_core::controller::Controller`] that observes the whole problem
//! and tags the trace with each rationale ([`TraceKind::Decision`]), and
//! [`stream::run_workload`] asks one that observes a two-step window over
//! demand pulled lazily from any [`aps_collectives::Workload`] — O(1)
//! schedule memory, and O(1) report memory too under
//! [`stream::run_workload_totals`]. Several jobs sharing one fabric go
//! through [`service::ServiceExecutor::execute_next`]: [`tenant`] runs a
//! fixed job list on it and [`scenarios`] packages named multi-tenant
//! mixes — plannable via [`Scenario::plan_with`] — for the bench harness.
//! All of this is normally reached through the
//! `adaptive_photonics::Experiment` facade at the workspace root.

pub mod arena;
pub mod error;
pub mod exec;
pub mod fluid;
pub mod harness;
pub mod record;
pub mod report;
pub mod scenarios;
pub mod service;
pub mod stream;
pub mod tenant;
pub mod trace;

pub use arena::{FluidScratch, StepScratch};
pub use error::SimError;
pub use exec::{run_adaptive, run_scheduled, ComputeModel, RunConfig};
pub use fluid::{max_min_rates, simulate_flows, simulate_flows_scratch, FlowSpec};
pub use harness::{run_trial_batch, Trial};
pub use record::{RecordSink, StepRecord};
pub use report::{SimReport, StepReport};
pub use scenarios::Scenario;
pub use service::{
    Admission, Departure, JobOutcome, ServiceExecutor, ServiceJobSpec, ServiceSwitching,
};
pub use stream::{
    run_scheduled_workload, run_workload, run_workload_recorded, run_workload_segment,
    run_workload_totals, StreamCheckpoint, StreamPricing, StreamSummary,
};
pub use tenant::{execute_tenants, execute_tenants_recorded, TenantReport, TenantSpec};
pub use trace::{TraceEvent, TraceKind};
