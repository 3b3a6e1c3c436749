//! Parameter sweeps over `α_r × message size` — the grid behind every
//! heatmap in the paper's Figure 1 and Figure 2.

use crate::domain::PolicyComparison;
use crate::error::CoreError;
use crate::objective::ReconfigAccounting;
use crate::problem::SwitchingProblem;
use aps_collectives::{Collective, CollectiveError};
use aps_cost::steptable::step_cost_table;
use aps_cost::units::{GIB, KIB, MICROS, MILLIS, NANOS};
use aps_cost::{CostParams, ReconfigModel};
use aps_flow::solver::{CacheStats, ThetaCache, ThroughputSolver};
use aps_par::Pool;
use aps_topology::Topology;

/// The sweep axes: reconfiguration delays (columns) × message sizes (rows).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Reconfiguration delays `α_r` in seconds, ascending (x-axis).
    pub reconf_delays_s: Vec<f64>,
    /// Message sizes in bytes, ascending (y-axis).
    pub message_bytes: Vec<f64>,
}

impl SweepGrid {
    /// The grid used by the figure harnesses: `α_r` from 100 ns to 10 ms
    /// (decades) and messages from 1 KiB to 1 GiB (factor-16 steps) —
    /// covering the §3.4 regimes.
    pub fn paper_default() -> Self {
        Self {
            reconf_delays_s: vec![
                100.0 * NANOS,
                1.0 * MICROS,
                10.0 * MICROS,
                100.0 * MICROS,
                1.0 * MILLIS,
                10.0 * MILLIS,
            ],
            message_bytes: vec![
                KIB,
                16.0 * KIB,
                256.0 * KIB,
                4096.0 * KIB,
                64.0 * 1024.0 * KIB,
                GIB,
            ],
        }
    }

    /// Compact grid for tests.
    pub fn small() -> Self {
        Self {
            reconf_delays_s: vec![100.0 * NANOS, 10.0 * MICROS, 1.0 * MILLIS],
            message_bytes: vec![KIB, 1024.0 * KIB, GIB],
        }
    }
}

/// A completed sweep: `cells[row][col]` follows `grid.message_bytes[row]` ×
/// `grid.reconf_delays_s[col]`.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The axes.
    pub grid: SweepGrid,
    /// Row-major policy timings.
    pub cells: Vec<Vec<PolicyComparison>>,
    /// θ-cache counters, merged across the pool's per-worker caches.
    pub theta_stats: CacheStats,
}

impl SweepResult {
    /// Extracts a per-cell scalar (e.g. a speedup) as a row-major matrix.
    pub fn map(&self, f: impl Fn(&PolicyComparison) -> f64) -> Vec<Vec<f64>> {
        self.cells
            .iter()
            .map(|row| row.iter().map(&f).collect())
            .collect()
    }
}

/// Runs the sweep on `pool` in two parallel phases:
///
/// 1. **θ pricing** — the collectives of all rows are built, their step
///    matchings deduplicated, and each *unique* matching priced once,
///    distributed over the pool ([`ThetaCache::warm`]). This is the hot
///    part of a sweep and it parallelizes without redundancy — naively
///    parallelizing rows instead would re-price the same matchings once
///    per worker, because every message size reuses the same patterns.
/// 2. **cell evaluation** — rows are distributed over the pool; each
///    worker clones the warmed cache (all lookups hit) and evaluates the
///    four policies at every reconfiguration delay.
///
/// Results are **bit-identical at any thread count**: every θ solve and
/// every cell is a pure function of its inputs, and ordering is fixed by
/// [`aps_par::Pool::map_with`]'s chunked index assignment.
///
/// # Errors
///
/// Propagates collective construction and routing errors; when several rows
/// fail, the error of the lowest row index is returned.
pub fn run_sweep_on(
    pool: &Pool,
    base: &Topology,
    build: impl Fn(f64) -> Result<Collective, CollectiveError> + Sync,
    params: CostParams,
    grid: &SweepGrid,
    accounting: ReconfigAccounting,
    solver: ThroughputSolver,
) -> Result<SweepResult, CoreError> {
    // Phase 1: build each row's collective, then price the union of their
    // step matchings across the pool.
    let collectives = grid
        .message_bytes
        .iter()
        .map(|&m| build(m))
        .collect::<Result<Vec<_>, _>>()?;
    let warm = ThetaCache::warm(
        pool,
        base,
        solver,
        collectives
            .iter()
            .flat_map(|c| c.schedule.steps().iter().map(|s| &s.matching)),
    )?;

    // Phase 2: evaluate rows; every θ lookup hits the warmed cache.
    let sweep_row = |cache: &mut ThetaCache,
                     collective: &Collective|
     -> Result<Vec<PolicyComparison>, CoreError> {
        let table = step_cost_table(base, &collective.schedule, cache)?;
        let mut row = Vec::with_capacity(grid.reconf_delays_s.len());
        for &alpha_r in &grid.reconf_delays_s {
            let problem = SwitchingProblem {
                n: base.n(),
                params,
                reconfig: ReconfigModel::constant(alpha_r)?,
                base_config: crate::problem::config_of_topology(base),
                steps: table.clone(),
            };
            row.push(PolicyComparison::price(&problem, accounting)?);
        }
        Ok(row)
    };
    let (rows, worker_caches) = pool.map_with(
        &collectives,
        || {
            let mut cache = warm.clone();
            cache.reset_stats();
            cache
        },
        |cache, _, collective| sweep_row(cache, collective),
    );
    let cells = rows.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Pricing counted once (phase 1); workers contribute only lookups.
    let mut theta_stats = warm.stats();
    for c in &worker_caches {
        theta_stats.hits += c.stats().hits;
        theta_stats.misses += c.stats().misses;
    }
    Ok(SweepResult {
        grid: grid.clone(),
        cells,
        theta_stats,
    })
}

/// One independent planning job for [`plan_jobs_on`]: a collective
/// bound to the base topology it would run on (jobs may differ in size —
/// e.g. the tenants of a partitioned fabric).
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Base topology of the job's domain (or partition).
    pub base: Topology,
    /// The collective to plan.
    pub schedule: aps_collectives::Schedule,
}

impl PlanJob {
    /// A planning job over workload-derived demand: drains up to `limit`
    /// steps of `workload` (from its current position) into the job's
    /// schedule.
    ///
    /// # Errors
    ///
    /// Fails when the workload exceeds `limit` steps or yields a
    /// malformed step.
    pub fn from_workload(
        base: Topology,
        workload: &mut dyn aps_collectives::Workload,
        limit: usize,
    ) -> Result<Self, CoreError> {
        let schedule = aps_collectives::workload::materialize(workload, limit)
            .map_err(CoreError::Collective)?;
        Ok(Self { base, schedule })
    }
}

/// Lets `controller` plan every job on `pool`, one independent
/// [`crate::ScaleupDomain`] per job, under the given accounting rule and
/// θ solver. `plans[i]` belongs to `jobs[i]` at any thread count —
/// controllers are required to be deterministic and jobs share no state,
/// so the batch is bit-identical at any `APS_THREADS` setting.
///
/// This is the sweep engine's integration point for multi-tenant
/// scenarios: `aps-sim`'s scenario generator plans each tenant's switch
/// schedule here before handing the mix to the tenant executor.
///
/// # Errors
///
/// All jobs are evaluated; when several fail, the error of the lowest job
/// index is returned.
pub fn plan_jobs_on(
    pool: &Pool,
    jobs: &[PlanJob],
    controller: &dyn crate::controller::Controller,
    params: CostParams,
    reconfig: ReconfigModel,
    accounting: ReconfigAccounting,
    solver: ThroughputSolver,
) -> Result<Vec<(crate::SwitchSchedule, crate::CostReport)>, CoreError> {
    pool.try_map(jobs, |_, job| {
        let mut domain = crate::ScaleupDomain::new(job.base.clone(), params, reconfig)
            .with_solver(solver)
            .with_accounting(accounting);
        domain.plan_with(&job.schedule, controller)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::allreduce;
    use aps_topology::builders;

    fn sweep_hd(n: usize) -> SweepResult {
        let topo = builders::ring_unidirectional(n).unwrap();
        run_sweep_on(
            &Pool::from_env(),
            &topo,
            |m| allreduce::halving_doubling::build(n, m),
            CostParams::paper_defaults(),
            &SweepGrid::small(),
            Default::default(),
            ThroughputSolver::ForcedPath,
        )
        .unwrap()
    }

    #[test]
    fn opt_dominates_everywhere() {
        let r = sweep_hd(16);
        for row in &r.cells {
            for c in row {
                assert!(c.speedup_vs_static() >= 1.0 - 1e-12);
                assert!(c.speedup_vs_bvn() >= 1.0 - 1e-12);
                assert!(c.speedup_vs_best_of_both() >= 1.0 - 1e-12);
                assert!(c.threshold_gap() >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn regimes_match_the_papers_story() {
        let r = sweep_hd(16);
        // Top-right of speedup-vs-bvn (small message, huge delay): naive
        // per-step reconfiguration is much worse than OPT.
        let vs_bvn_small_msg_big_delay = r.cells[0][2].speedup_vs_bvn();
        assert!(
            vs_bvn_small_msg_big_delay > 10.0,
            "expected large win over BvN, got {vs_bvn_small_msg_big_delay}"
        );
        // Large message, tiny delay: OPT ≈ BvN (both fully reconfigure) and
        // both crush the static ring.
        let c = &r.cells[2][0];
        assert!((c.speedup_vs_bvn() - 1.0).abs() < 0.05);
        assert!(c.speedup_vs_static() > 2.0);
        // Small message, tiny-delay corner: static is optimal → vs-static
        // speedup 1.
        let c = &r.cells[0][2];
        assert!((c.speedup_vs_static() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn map_extracts_matrices() {
        let r = sweep_hd(8);
        let m = r.map(PolicyComparison::speedup_vs_static);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].len(), 3);
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let topo = builders::ring_unidirectional(16).unwrap();
        let run = |threads: usize| {
            run_sweep_on(
                &Pool::new(threads),
                &topo,
                |m| allreduce::halving_doubling::build(16, m),
                CostParams::paper_defaults(),
                &SweepGrid::small(),
                Default::default(),
                ThroughputSolver::ForcedPath,
            )
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            let parallel = run(threads);
            assert_eq!(serial.cells, parallel.cells, "threads = {threads}");
            // The same lookups are served regardless of the partitioning.
            assert_eq!(serial.theta_stats.lookups(), parallel.theta_stats.lookups());
        }
        // Per-worker caches actually memoize: with every row on one worker
        // all repeated matchings hit.
        assert!(serial.theta_stats.hits > 0);
        assert!(serial.theta_stats.misses > 0);
    }

    #[test]
    fn plan_batch_matches_individual_plans_at_any_thread_count() {
        let jobs: Vec<PlanJob> = [(8usize, 4.0 * 1024.0 * 1024.0), (16, 64.0), (4, 1e9)]
            .into_iter()
            .map(|(n, bytes)| PlanJob {
                base: builders::ring_unidirectional(n).unwrap(),
                schedule: allreduce::halving_doubling::build(n, bytes)
                    .unwrap()
                    .schedule,
            })
            .collect();
        let params = CostParams::paper_defaults();
        let reconfig = ReconfigModel::constant(10e-6).unwrap();
        let ctl = crate::controller::DpPlanned;
        let serial = plan_jobs_on(
            &Pool::serial(),
            &jobs,
            &ctl,
            params,
            reconfig,
            Default::default(),
            ThroughputSolver::ForcedPath,
        )
        .unwrap();
        assert_eq!(serial.len(), jobs.len());
        for (job, (schedule, report)) in jobs.iter().zip(&serial) {
            let mut d = crate::ScaleupDomain::new(job.base.clone(), params, reconfig);
            let (want_s, want_r) = d.plan(&job.schedule).unwrap();
            assert_eq!(schedule, &want_s);
            assert_eq!(report, &want_r);
        }
        for threads in [2, 4] {
            let parallel = plan_jobs_on(
                &Pool::new(threads),
                &jobs,
                &ctl,
                params,
                reconfig,
                Default::default(),
                ThroughputSolver::ForcedPath,
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn controllers_plan_job_batches_deterministically() {
        let jobs: Vec<PlanJob> = [(8usize, 4.0 * 1024.0 * 1024.0), (16, 2e6)]
            .into_iter()
            .map(|(n, bytes)| PlanJob {
                base: builders::ring_unidirectional(n).unwrap(),
                schedule: allreduce::halving_doubling::build(n, bytes)
                    .unwrap()
                    .schedule,
            })
            .collect();
        let params = CostParams::paper_defaults();
        let reconfig = ReconfigModel::constant(10e-6).unwrap();
        for ctl in crate::controller::shipped() {
            let serial = plan_jobs_on(
                &Pool::serial(),
                &jobs,
                ctl,
                params,
                reconfig,
                Default::default(),
                ThroughputSolver::ForcedPath,
            )
            .unwrap();
            let parallel = plan_jobs_on(
                &Pool::new(3),
                &jobs,
                ctl,
                params,
                reconfig,
                Default::default(),
                ThroughputSolver::ForcedPath,
            )
            .unwrap();
            assert_eq!(serial, parallel, "{}", ctl.name());
        }
    }

    #[test]
    fn default_grids_are_sane() {
        let g = SweepGrid::paper_default();
        assert_eq!(g.reconf_delays_s.len(), 6);
        assert_eq!(g.message_bytes.len(), 6);
        assert!(g.reconf_delays_s.windows(2).all(|w| w[0] < w[1]));
        assert!(g.message_bytes.windows(2).all(|w| w[0] < w[1]));
    }
}
