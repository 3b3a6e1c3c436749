//! The three workloads: set-up from a seed, one episode untraced or
//! traced, and the hash of the episode's deterministic outputs.
//!
//! An episode is one fixed amount of simulated work, so its outputs
//! repeat exactly for a seed; a run repeats episodes until its time is
//! up. For the stream workloads an episode is one job running alone on
//! the fabric; its stream is built finite, which is the endless stream
//! cut after a fixed number of steps.

use crate::probe::{self, Route};
use aps_collectives::workload::generators::{RandomPermutations, TrainingLoop};
use aps_collectives::{allreduce, ScheduleStream, Workload};
use aps_core::controller::Greedy;
use aps_core::ConfigChoice;
use aps_cost::units::{KIB, MIB};
use aps_cost::ReconfigModel;
use aps_faas::{
    run_service, run_service_recorded, AdmissionPolicy, LatencyHistogram, PoissonArrivals,
    ServiceConfig, ServiceSummary, ServiceSwitching, TenantClass,
};
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_sim::{run_workload_segment, run_workload_totals, RunConfig, StreamPricing, StreamSummary};
use aps_topology::{builders, Topology};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, whose outputs are recorded too.
pub const HELD_OUT_SEED: u64 = 20261017;

const RING_PORTS: usize = 1024;
/// ring-train episode: 28-step epochs (4 + 4 pipeline steps and the
/// 2·log₂ 1024 AllReduce steps).
const RING_EPOCHS: usize = 10;
const PERM_PORTS: usize = 512;
const PERM_STEPS: usize = 100;
const FAAS_PORTS: usize = 4096;
const RING_JOBS: u64 = 1000;
const MATCHED_JOBS: u64 = 50;

/// Output hashes recorded for `(workload, seed)`; `None` matches every
/// seed (ring-train does not draw from its seed). Other seeds are checked
/// episode against episode and by the outputs' invariants.
const EXPECTED: &[(&str, Option<u64>, u64)] = &[
    ("ring-train", None, 0x56d3_8f6f_e84d_d077),
    ("perm-ring", Some(DEFAULT_SEED), 0x0c89_1227_8235_83b1),
    ("perm-ring", Some(HELD_OUT_SEED), 0xa7d0_74bd_2ef5_2753),
    ("faas-mix", Some(DEFAULT_SEED), 0x43c2_32e4_35ed_6c75),
    ("faas-mix", Some(HELD_OUT_SEED), 0x4af6_5669_7bc8_5852),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RingTrain,
    PermRing,
    FaasMix,
}

impl Kind {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ring-train" => Ok(Self::RingTrain),
            "perm-ring" => Ok(Self::PermRing),
            "faas-mix" => Ok(Self::FaasMix),
            _ => Err(format!("unknown workload {s:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::RingTrain => "ring-train",
            Self::PermRing => "perm-ring",
            Self::FaasMix => "faas-mix",
        }
    }
}

pub fn expected_hash(kind: Kind, seed: u64) -> Option<u64> {
    EXPECTED
        .iter()
        .find(|(name, s, _)| *name == kind.name() && s.is_none_or(|s| s == seed))
        .map(|&(_, _, h)| h)
}

/// One episode's deterministic outputs.
pub struct Outcome {
    pub steps: u64,
    /// Completed jobs; a stream episode is one job.
    pub jobs: u64,
    pub queued: u64,
    pub rejected: u64,
    pub hash: u64,
    /// The outputs' own invariants hold.
    pub sound: bool,
}

/// A built workload, ready for one episode.
pub enum Instance {
    Stream {
        base: Topology,
        fabric: CircuitSwitch,
        workload: Box<dyn Workload>,
        pricing: StreamPricing,
        steps: u64,
    },
    Service {
        fabric: CircuitSwitch,
        classes: Vec<TenantClass>,
        cfg: ServiceConfig,
    },
}

fn ring(n: usize) -> Matching {
    Matching::shift(n, 1).expect("n ≥ 2")
}

fn delay(alpha_r: f64) -> ReconfigModel {
    ReconfigModel::constant(alpha_r).expect("valid delay")
}

/// Builds the topology, fabric, generators and classes: what `setup_s`
/// times.
pub fn build(kind: Kind, seed: u64) -> Instance {
    match kind {
        Kind::RingTrain => stream(
            RING_PORTS,
            10e-6,
            Box::new(
                TrainingLoop::new(RING_PORTS, 4, MIB, 4.0 * MIB, Some(RING_EPOCHS))
                    .expect("valid training loop"),
            ),
        ),
        Kind::PermRing => stream(
            PERM_PORTS,
            100e-6,
            Box::new(
                RandomPermutations::new(PERM_PORTS, 16.0 * KIB, Some(PERM_STEPS), seed)
                    .expect("valid permutations"),
            ),
        ),
        Kind::FaasMix => service(seed),
    }
}

fn stream(n: usize, alpha_r: f64, workload: Box<dyn Workload>) -> Instance {
    let reconfig = delay(alpha_r);
    Instance::Stream {
        base: builders::ring_unidirectional(n).expect("ring"),
        fabric: CircuitSwitch::new(ring(n), reconfig),
        steps: workload.size_hint().1.expect("finite episode") as u64,
        workload,
        pricing: StreamPricing::new(reconfig),
    }
}

fn service(seed: u64) -> Instance {
    let hd16 = allreduce::halving_doubling::build(16, 16.0 * MIB)
        .expect("16-port allreduce")
        .schedule;
    let classes = vec![
        TenantClass::new(
            "ring-jobs",
            4,
            ring(4),
            ServiceSwitching::Uniform(ConfigChoice::Base),
            Box::new(PoissonArrivals::new(1.2e6, Some(RING_JOBS), seed).expect("valid rate")),
            Box::new(|_id: u64| -> Box<dyn Workload> {
                Box::new(TrainingLoop::new(4, 4, MIB, 4.0 * MIB, Some(2)).expect("valid loop"))
            }),
        ),
        TenantClass::new(
            "matched-jobs",
            16,
            ring(16),
            ServiceSwitching::Uniform(ConfigChoice::Matched),
            Box::new(
                PoissonArrivals::new(6e4, Some(MATCHED_JOBS), seed ^ 0x9e37_79b9_7f4a_7c15)
                    .expect("valid rate"),
            ),
            Box::new(move |_id: u64| -> Box<dyn Workload> {
                Box::new(ScheduleStream::new(hd16.clone()))
            }),
        ),
    ];
    Instance::Service {
        fabric: CircuitSwitch::new(ring(FAAS_PORTS), delay(10e-6)),
        classes,
        cfg: ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 64 },
            ..ServiceConfig::paper_defaults()
        },
    }
}

impl Instance {
    /// One untraced episode: no sink, no adapters.
    pub fn run(&mut self) -> Result<Outcome, String> {
        match self {
            Self::Stream {
                base,
                fabric,
                workload,
                pricing,
                steps,
            } => {
                let cfg = RunConfig::paper_defaults();
                let s = run_workload_totals(
                    fabric,
                    base,
                    workload.as_mut(),
                    &Greedy,
                    *pricing,
                    &cfg,
                    usize::MAX,
                )
                .map_err(|e| e.to_string())?;
                Ok(stream_outcome(&s, *steps))
            }
            Self::Service {
                fabric,
                classes,
                cfg,
            } => {
                let r = run_service(fabric, classes, cfg).map_err(|e| e.to_string())?;
                Ok(service_outcome(&r.summary, RING_JOBS + MATCHED_JOBS))
            }
        }
    }

    /// One traced episode through the adapters of [`probe`], which keeps
    /// the layer totals; returns the outcome, unsound when a step failed
    /// the cross-layer check, and the host ns the probe's re-solves took.
    pub fn run_traced(self) -> Result<(Outcome, u64), String> {
        match self {
            Self::Stream {
                base,
                mut fabric,
                workload,
                pricing,
                steps,
            } => {
                let cfg = RunConfig::paper_defaults();
                probe::begin(
                    cfg,
                    vec![Route {
                        base: base.clone(),
                        local_base: None,
                        engine_prices: true,
                    }],
                );
                let mut timed = probe::TimedWorkload {
                    inner: workload,
                    lane: 0,
                };
                let res = run_workload_segment(
                    &mut probe::TimedFabric(&mut fabric),
                    &base,
                    &mut timed,
                    &probe::TimedController(Greedy),
                    pricing,
                    &cfg,
                    None,
                    usize::MAX,
                    Some(&mut probe::TraceSink),
                );
                let (probe_ns, checked) = probe::finish();
                let (s, _) = res.map_err(|e| e.to_string())?;
                let mut out = stream_outcome(&s, steps);
                out.sound &= checked;
                Ok((out, probe_ns))
            }
            Self::Service {
                mut fabric,
                classes,
                cfg,
            } => {
                let routes = classes
                    .iter()
                    .map(|k| Route {
                        base: builders::ring_unidirectional(k.ports).expect("ring"),
                        local_base: Some(k.base_config.clone()),
                        engine_prices: false,
                    })
                    .collect();
                let mut classes: Vec<TenantClass> = classes
                    .into_iter()
                    .enumerate()
                    .map(|(lane, k)| TenantClass {
                        arrivals: Box::new(probe::TimedArrivals(k.arrivals)),
                        demand: Box::new(probe::TimedDemand {
                            inner: k.demand,
                            lane,
                        }),
                        ..k
                    })
                    .collect();
                probe::begin(cfg.run, routes);
                let res = run_service_recorded(
                    &mut probe::TimedFabric(&mut fabric),
                    &mut classes,
                    &cfg,
                    Some(&mut probe::TraceSink),
                );
                let (probe_ns, checked) = probe::finish();
                let r = res.map_err(|e| e.to_string())?;
                let mut out = service_outcome(&r.summary, RING_JOBS + MATCHED_JOBS);
                out.sound &= checked;
                Ok((out, probe_ns))
            }
        }
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_summary(h: &mut Fnv, s: &StreamSummary) {
    for w in [
        s.steps as u64,
        s.matched_steps as u64,
        s.reconfig_events as u64,
        s.total_ps,
        s.barrier_ps,
        s.alpha_ps,
        s.reconfig_ps,
        s.transfer_ps,
        s.compute_ps,
    ] {
        h.word(w);
    }
}

fn hash_histogram(h: &mut Fnv, hist: &LatencyHistogram) {
    h.word(hist.count());
    h.word(hist.max_ps());
    h.word(hist.mean_ps().to_bits());
    for q in 1..=100 {
        h.word(hist.quantile(f64::from(q) / 100.0).unwrap_or(0));
    }
}

fn stream_outcome(s: &StreamSummary, steps: u64) -> Outcome {
    let mut h = Fnv::new();
    hash_summary(&mut h, s);
    // Steps run back to back with no compute or overlap, so the stream's
    // completion time is the sum of its phases.
    let phases = s.barrier_ps + s.alpha_ps + s.reconfig_ps + s.transfer_ps + s.compute_ps;
    Outcome {
        steps: s.steps as u64,
        jobs: 1,
        queued: 0,
        rejected: 0,
        hash: h.0,
        sound: s.steps as u64 == steps && s.total_ps == phases,
    }
}

fn service_outcome(s: &ServiceSummary, offered: u64) -> Outcome {
    let mut h = Fnv::new();
    let mut sound = s.offered() == offered;
    for t in &s.tenants {
        for w in [
            t.offered,
            t.admitted,
            t.queued,
            t.backpressured,
            t.rejected_too_large,
            t.rejected_ports_busy,
            t.rejected_queue_full,
            t.completed,
            t.failed,
        ] {
            h.word(w);
        }
        hash_histogram(&mut h, &t.completion);
        hash_histogram(&mut h, &t.wait);
        // Job conservation; none of these workloads' jobs can fail.
        sound &=
            t.offered == t.admitted + t.rejected() && t.admitted == t.completed && t.failed == 0;
    }
    h.word(s.makespan_ps);
    hash_summary(&mut h, &s.steps);
    Outcome {
        steps: s.steps.steps as u64,
        jobs: s.completed(),
        queued: s.tenants.iter().map(|t| t.queued).sum(),
        rejected: s.tenants.iter().map(|t| t.rejected()).sum(),
        hash: h.0,
        sound,
    }
}
