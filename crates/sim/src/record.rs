//! The recording hook the executors call after every committed step.
//!
//! Deterministic replay (the `aps-replay` crate) needs to observe each
//! step exactly as it was executed: the controller's decision, the timing
//! report, the trace events the step emitted, and the fabric state left
//! behind. Rather than coupling the simulator to a record format, the
//! executors accept an optional [`RecordSink`] — `None` costs nothing
//! (the hot loops never build a [`StepRecord`] without a sink), and any
//! implementation sees a faithful per-step feed:
//!
//! * [`crate::stream::run_workload_recorded`] delivers one record per
//!   streamed step (`tenant: None`);
//! * [`crate::stream::run_workload_segment`] does the same for the O(1)
//!   totals path, including resumed segments;
//! * [`crate::service::ServiceExecutor::execute_next`] delivers records in
//!   global execution order, tagged with the job's slot;
//!   [`crate::tenant::execute_tenants_recorded`] drives it and re-tags
//!   each record with the tenant's input index.
//!
//! The trace slice contains exactly the events the step appended, in
//! order — for adaptive runs that includes the step's
//! [`crate::trace::TraceKind::Decision`] event, even on the totals path
//! (which otherwise keeps no trace): recording synthesizes it so a record
//! taken through `run_workload_segment` is bit-identical to one taken
//! through the full-report executor.

use crate::report::StepReport;
use crate::trace::TraceEvent;
use aps_cost::units::Picos;
use aps_matrix::Matching;

/// Everything a recorder may observe about one committed step.
#[derive(Debug)]
pub struct StepRecord<'a> {
    /// Step index within its stream (per-tenant index in tenant runs).
    pub step: usize,
    /// Tenant index for multi-tenant runs (the job's slot when recorded
    /// straight from a [`crate::service::ServiceExecutor`]); `None` for a
    /// lone stream.
    pub tenant: Option<usize>,
    /// The decision the step ran under: `true` = matched configuration.
    pub matched: bool,
    /// The step's timing report.
    pub report: &'a StepReport,
    /// The trace events this step appended, in order.
    pub events: &'a [TraceEvent],
    /// The fabric configuration carrying traffic after the step.
    pub config: &'a Matching,
    /// The fabric controller's busy-until instant after the step.
    pub busy_until: Picos,
}

/// A per-step recording hook; see the [module docs](self).
///
/// Implementations must be infallible and side-effect-free with respect
/// to the simulation: the executors call them *after* a step commits, and
/// nothing the sink does can alter the run.
pub trait RecordSink {
    /// Observes one committed step.
    fn record_step(&mut self, record: &StepRecord<'_>);
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn record_step(&mut self, record: &StepRecord<'_>) {
        (**self).record_step(record);
    }
}
