//! The traced run's instruments, all outside the engines: adapters at the
//! public trait boundaries (`Workload`, `ArrivalProcess`, `JobDemand`,
//! `Controller`, `Fabric`) that time each call, and a `RecordSink` that
//! times the interval between committed steps.
//!
//! Two layers cannot be seen from outside: the engines price θ and solve
//! the max-min fluid problem inside a step. The probe therefore calls the
//! same public functions (`ThetaCache::get`, `simulate_flows_scratch`) on
//! the same inputs after the step, so those shares are inferred, not
//! observed. That work runs between two timed intervals and is excluded
//! from both.
//!
//! A step's demand is not part of its `StepRecord`. Both engines pull a
//! stream's next step right after recording the current one, into the
//! buffer that still holds the recorded step; the workload adapter
//! re-solves the pending record at that pull. A pull that does not follow
//! its record, or a record left unresolved, is counted as a failure.

use aps_collectives::workload::arrivals::ArrivalProcess;
use aps_collectives::{Step, Workload, WorkloadCtx};
use aps_core::controller::{Controller, StepObservation};
use aps_core::ConfigChoice;
use aps_cost::units::{secs_to_picos, Picos};
use aps_faas::JobDemand;
use aps_fabric::{Fabric, FabricError, FabricState, ReconfigOutcome};
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_sim::{simulate_flows_scratch, FluidScratch, RecordSink, RunConfig, StepRecord, TraceKind};
use aps_topology::Topology;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

fn with<R>(f: impl FnOnce(&mut Probe) -> R) -> R {
    PROBE.with(|p| f(&mut p.borrow_mut()))
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// How the probe routes and prices one demand stream (a whole stream
/// workload, or every job of one service class).
pub struct Route {
    /// The base topology θ is priced on.
    pub base: Topology,
    /// The stream's base circuits in its own coordinates, for service
    /// jobs; `None` routes on the recorded fabric configuration instead.
    /// A service job's port list is not visible to a sink, so its flows
    /// are routed on its local target, which the engine maps one-to-one
    /// onto the job's own ports.
    pub local_base: Option<Matching>,
    /// Whether the engine itself prices every step with θ (the stream
    /// engine does; the service engine does not).
    pub engine_prices: bool,
}

struct Lane {
    route: Route,
    cache: ThetaCache,
}

#[derive(Clone, Copy)]
struct Pending {
    step: usize,
    matched: bool,
    transfer_ps: Picos,
}

/// Layer totals over every traced episode; times are host nanoseconds.
#[derive(Default)]
pub struct Totals {
    pub steps: u64,
    pub matched: u64,
    pub pull_ns: u64,
    pub arrival_ns: u64,
    pub job_build_ns: u64,
    pub theta_ns: u64,
    pub decide_ns: u64,
    pub explain_ns: u64,
    pub request_ns: u64,
    pub requests: u64,
    pub ports_changed: u64,
    pub arbitration_waits: u64,
    pub solve_ns: u64,
    pub flows: u64,
    pub hops: u64,
    pub links: u64,
    pub live_slots_max: u64,
    /// Host ns between consecutive `RecordSink` calls, probe work removed.
    pub intervals: Vec<u64>,
    /// Steps whose re-solved transfer time equals the recorded one.
    pub resolved_exact: u64,
    /// Steps within the α-β bound `β·m/θ + δ·ℓ`.
    pub within_model: u64,
    /// Matched steps at equality with the bound.
    pub matched_at_model: u64,
    /// Records never paired with their step, and re-solve failures.
    pub protocol_errors: u64,
    /// θ-cache hits and misses of the engine-priced streams.
    pub theta_hits: u64,
    pub theta_misses: u64,
}

#[derive(Default)]
struct Probe {
    cfg: Option<RunConfig>,
    lanes: Vec<Lane>,
    fluid: FluidScratch,
    caps: Vec<f64>,
    link_of: Vec<usize>,
    config: Option<Matching>,
    pending: Option<Pending>,
    last_mark: Option<Instant>,
    excluded_ns: u64,
    /// Host ns this episode's re-solves took, outside every timed interval.
    probe_ns: u64,
    /// Steps of this episode that failed a check, and protocol errors.
    failures: u64,
    t: Totals,
}

/// Arms the probe for one traced episode; totals keep accumulating.
pub fn begin(cfg: RunConfig, routes: Vec<Route>) {
    with(|p| {
        *p = Probe {
            cfg: Some(cfg),
            lanes: routes
                .into_iter()
                .map(|route| Lane {
                    cache: ThetaCache::new(&route.base, ThroughputSolver::ForcedPath),
                    route,
                })
                .collect(),
            last_mark: Some(Instant::now()),
            t: std::mem::take(&mut p.t),
            ..Probe::default()
        }
    });
}

/// Ends a traced episode; returns the host ns its re-solves took and
/// whether every step passed the cross-layer check.
pub fn finish() -> (u64, bool) {
    with(|p| {
        if p.pending.take().is_some() {
            p.protocol_error();
        }
        for lane in p.lanes.iter().filter(|l| l.route.engine_prices) {
            let s = lane.cache.stats();
            p.t.theta_hits += s.hits;
            p.t.theta_misses += s.misses;
        }
        (p.probe_ns, p.failures == 0)
    })
}

/// Takes the totals of every episode since the last call.
pub fn take_totals() -> Totals {
    with(|p| std::mem::take(&mut p.t))
}

impl Probe {
    fn protocol_error(&mut self) {
        self.t.protocol_errors += 1;
        self.failures += 1;
    }

    /// Re-solves the pending record against `step`, the demand it ran.
    fn resolve(&mut self, lane: usize, ctx: &WorkloadCtx, step: &Step) {
        let Some(pend) = self.pending else { return };
        if ctx.step != pend.step + 1 {
            return;
        }
        self.pending = None;
        let t_enter = Instant::now();
        self.resolve_step(lane, pend, step);
        let dt = ns_since(t_enter);
        self.excluded_ns += dt;
        self.probe_ns += dt;
    }

    fn resolve_step(&mut self, lane: usize, pend: Pending, step: &Step) {
        let cfg = self.cfg.expect("probe armed");
        let Lane { route, cache } = &mut self.lanes[lane];

        let t0 = Instant::now();
        let priced = cache.get(&route.base, &step.matching);
        if route.engine_prices {
            self.t.theta_ns += ns_since(t0);
        }
        let Ok(theta) = priced else {
            self.protocol_error();
            return;
        };

        let config = match (&route.local_base, pend.matched) {
            (Some(_), true) => &step.matching,
            (Some(base), false) => base,
            (None, _) => self.config.as_ref().expect("recorded config"),
        };
        // Links are numbered by ascending sender port, as the engine does.
        let n = config.n();
        self.link_of.clear();
        self.link_of.resize(n, usize::MAX);
        let mut links = 0usize;
        for (s, _) in config.pairs() {
            self.link_of[s] = links;
            links += 1;
        }
        self.fluid.start();
        let mut flows = 0u64;
        let mut hops = 0u64;
        for (src, dst) in step.matching.pairs() {
            let mut cur = src;
            let mut h = 0usize;
            loop {
                let Some(next) = config.dst_of(cur).filter(|_| h < n) else {
                    self.protocol_error();
                    return;
                };
                self.fluid.push_link(self.link_of[cur]);
                h += 1;
                cur = next;
                if cur == dst {
                    break;
                }
            }
            self.fluid.seal_flow(step.bytes_per_pair);
            flows += 1;
            hops += h as u64;
        }
        let bandwidth = cfg.params.bandwidth_bytes_per_sec();
        let transfer_ps = if flows == 0 {
            0
        } else {
            self.caps.clear();
            self.caps.resize(links, bandwidth);
            let t0 = Instant::now();
            simulate_flows_scratch(&self.caps, &mut self.fluid);
            self.t.solve_ns += ns_since(t0);
            let worst = (0..self.fluid.num_flows())
                .map(|i| {
                    self.fluid.finish_of(i) + cfg.params.delta_s * self.fluid.path_len(i) as f64
                })
                .fold(0.0f64, f64::max);
            secs_to_picos(worst)
        };
        self.t.flows += flows;
        self.t.hops += hops;
        self.t.links += links as u64;
        let exact = transfer_ps == pend.transfer_ps;

        // The α-β link: β·m/θ + δ·ℓ bounds the transfer, with equality when
        // every pair owns a circuit (θ = 1, ℓ = 1). One picosecond of slack
        // absorbs the two roundings to the clock.
        let (th, ell) = if pend.matched {
            (1.0, 1)
        } else {
            (theta.theta, theta.max_hops)
        };
        let model_ps = if flows == 0 {
            0
        } else {
            secs_to_picos(
                cfg.params.beta_s_per_byte * step.bytes_per_pair / th
                    + cfg.params.delta_s * ell as f64,
            )
        };
        let within = pend.transfer_ps <= model_ps + 1;
        let at_model = pend.transfer_ps.abs_diff(model_ps) <= 1;
        self.t.resolved_exact += u64::from(exact);
        self.t.within_model += u64::from(within);
        self.t.matched_at_model += u64::from(pend.matched && at_model);
        self.failures += u64::from(!(exact && within && (at_model || !pend.matched)));
    }
}

/// Times the interval between committed steps and stashes each record
/// for the re-solve at the stream's next pull.
pub struct TraceSink;

impl RecordSink for TraceSink {
    fn record_step(&mut self, rec: &StepRecord<'_>) {
        let now = Instant::now();
        with(|p| {
            if let Some(last) = p.last_mark {
                let gap = now.duration_since(last).as_nanos() as u64;
                p.t.intervals.push(gap.saturating_sub(p.excluded_ns));
            }
            p.excluded_ns = 0;
            if p.pending.is_some() {
                p.protocol_error();
            }
            p.pending = Some(Pending {
                step: rec.step,
                matched: rec.matched,
                transfer_ps: rec.report.transfer_ps,
            });
            match rec.tenant {
                None => match &mut p.config {
                    Some(c) => c.clone_from(rec.config),
                    None => p.config = Some(rec.config.clone()),
                },
                Some(slot) => p.t.live_slots_max = p.t.live_slots_max.max(slot as u64 + 1),
            }
            p.t.steps += 1;
            p.t.matched += u64::from(rec.matched);
            p.t.arbitration_waits += rec
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::ArbitrationWait { .. }))
                .count() as u64;
            p.last_mark = Some(Instant::now());
        });
    }
}

/// `Workload` adapter: times each pull and resolves the pending record.
pub struct TimedWorkload {
    pub inner: Box<dyn Workload>,
    /// Index of this stream's [`Route`] in [`begin`]'s list.
    pub lane: usize,
}

impl Workload for TimedWorkload {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_step(&mut self, ctx: &WorkloadCtx) -> Option<Step> {
        self.inner.next_step(ctx)
    }
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        with(|p| p.resolve(self.lane, ctx, out));
        let t0 = Instant::now();
        let more = self.inner.next_step_into(ctx, out);
        let dt = ns_since(t0);
        with(|p| p.t.pull_ns += dt);
        more
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// `ArrivalProcess` adapter.
pub struct TimedArrivals(pub Box<dyn ArrivalProcess>);

impl ArrivalProcess for TimedArrivals {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn next_gap_ps(&mut self) -> Option<u64> {
        let t0 = Instant::now();
        let gap = self.0.next_gap_ps();
        let dt = ns_since(t0);
        with(|p| p.t.arrival_ns += dt);
        gap
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// `JobDemand` adapter: times each build and wraps the job's stream.
pub struct TimedDemand {
    pub inner: Box<dyn JobDemand>,
    pub lane: usize,
}

impl JobDemand for TimedDemand {
    fn build(&mut self, id: u64) -> Box<dyn Workload> {
        let t0 = Instant::now();
        let inner = self.inner.build(id);
        let dt = ns_since(t0);
        with(|p| p.t.job_build_ns += dt);
        Box::new(TimedWorkload {
            inner,
            lane: self.lane,
        })
    }
}

/// `Controller` adapter.
pub struct TimedController<C>(pub C);

impl<C: Controller> Controller for TimedController<C> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice {
        let t0 = Instant::now();
        let choice = self.0.decide(obs);
        let dt = ns_since(t0);
        with(|p| p.t.decide_ns += dt);
        choice
    }
    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        let t0 = Instant::now();
        let why = self.0.explain(obs, choice);
        let dt = ns_since(t0);
        with(|p| p.t.explain_ns += dt);
        why
    }
}

/// `Fabric` adapter: times reconfiguration requests.
pub struct TimedFabric<'a>(pub &'a mut dyn Fabric);

impl TimedFabric<'_> {
    fn note(t0: Instant, outcome: Option<&ReconfigOutcome>) {
        let dt = ns_since(t0);
        let changed = outcome.map_or(0, |o| o.ports_changed) as u64;
        with(|p| {
            p.t.request_ns += dt;
            p.t.requests += 1;
            p.t.ports_changed += changed;
        });
    }
}

impl Fabric for TimedFabric<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn current(&self) -> &Matching {
        self.0.current()
    }
    fn request(&mut self, target: &Matching, now: Picos) -> Result<ReconfigOutcome, FabricError> {
        let t0 = Instant::now();
        let out = self.0.request(target, now);
        Self::note(t0, out.as_ref().ok());
        out
    }
    fn busy_until(&self) -> Picos {
        self.0.busy_until()
    }
    fn save_state(&self) -> FabricState {
        self.0.save_state()
    }
    fn load_state(&mut self, state: &FabricState) -> Result<(), FabricError> {
        self.0.load_state(state)
    }
    fn request_when_free(
        &mut self,
        target: &Matching,
        now: Picos,
    ) -> Result<(Picos, ReconfigOutcome), FabricError> {
        let t0 = Instant::now();
        let out = self.0.request_when_free(target, now);
        Self::note(t0, out.as_ref().ok().map(|(_, o)| o));
        out
    }
}
