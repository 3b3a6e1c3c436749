//! Engine entrypoints agree with the front doors built on them.
//!
//! 1. **Batch planning** — `plan_jobs_on` on a multi-threaded pool yields,
//!    job for job, the plan `Experiment::plan` gives each job alone.
//! 2. **Tenant recording** — attaching a record sink to the tenant
//!    executor changes no result, and the sink sees exactly one frame per
//!    committed tenant step, tagged with that tenant's input index.

use adaptive_photonics::prelude::*;
use aps_core::sweep::{plan_jobs_on, PlanJob};
use aps_cost::units::MIB;
use aps_sim::execute_tenants_recorded;

#[test]
fn plan_jobs_on_matches_per_job_experiment_plan() {
    let jobs: Vec<PlanJob> = [(8usize, 4.0 * MIB), (16, 64.0 * MIB)]
        .into_iter()
        .map(|(n, bytes)| PlanJob {
            base: topology::builders::ring_unidirectional(n).unwrap(),
            schedule: collectives::allreduce::halving_doubling::build(n, bytes)
                .unwrap()
                .schedule,
        })
        .collect();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let batch = plan_jobs_on(
        &Pool::new(3),
        &jobs,
        &DpPlanned,
        CostParams::paper_defaults(),
        reconfig,
        ReconfigAccounting::PaperConservative,
        ThroughputSolver::ForcedPath,
    )
    .unwrap();
    assert_eq!(batch.len(), jobs.len());
    for (job, (switches, report)) in jobs.iter().zip(&batch) {
        let plan = Experiment::domain(job.base.clone())
            .reconfig(reconfig)
            .schedule(&job.schedule)
            .plan()
            .unwrap();
        assert_eq!(&plan.switches, switches);
        assert_eq!(&plan.report, report);
    }
}

#[test]
fn recording_tenants_changes_no_result_and_tags_every_step() {
    let scenario = scenarios::skewed_tenants(MIB);
    let cfg = RunConfig::paper_defaults();
    let reconfig = ReconfigModel::constant(5e-6).unwrap();
    let plain = execute_tenants(
        &mut scenario.fabric(reconfig).unwrap(),
        &scenario.tenants,
        &cfg,
    )
    .unwrap();
    let mut recorder = Recorder::new(scenario.n, "scheduled", &scenario.name);
    let recorded = execute_tenants_recorded(
        &mut scenario.fabric(reconfig).unwrap(),
        &scenario.tenants,
        &cfg,
        Some(&mut recorder),
    )
    .unwrap();
    let record = recorder.into_record();
    assert_eq!(plain.len(), scenario.tenants.len());
    for (t, (a, b)) in plain.iter().zip(&recorded).enumerate() {
        let report = a.as_ref().unwrap();
        assert_eq!(report, b.as_ref().unwrap());
        let frames = record
            .frames
            .iter()
            .filter(|f| f.tenant as usize == t)
            .count();
        assert_eq!(frames, report.report.steps.len(), "{}", report.name);
    }
    let total: usize = plain
        .iter()
        .map(|r| r.as_ref().unwrap().report.steps.len())
        .sum();
    assert_eq!(record.frames.len(), total);
}
