//! The native-Rust oracle for `examples/ffi_smoke.c`.
//!
//! Reproduces the smoke client's experiments through the **native**
//! `Experiment` API — no FFI — and prints the identical canonical line
//! format (doubles as raw IEEE-754 bit patterns). `scripts/ffi_smoke.sh`
//! diffs the two outputs byte-for-byte: any divergence between what the
//! C ABI reports and what the native API computes fails the check.

use adaptive_photonics::experiment::{collective_by_name, Experiment};
use aps_core::controller::by_name as controller_by_name;
use aps_core::sweep::SweepGrid;
use aps_core::ConfigChoice;
use aps_cost::units::MIB;
use aps_cost::{CostParams, ReconfigModel};
use aps_faas::{AdmissionPolicy, PoissonArrivals, TenantClass};
use aps_ffi::{ABI_MAJOR, ABI_MINOR, ABI_PATCH};
use aps_matrix::Matching;
use aps_sim::scenarios::hetero::{self, FabricKind, FailureStorm};
use aps_sim::{ServiceSwitching, TenantReport};
use aps_topology::builders::ring_unidirectional;

const ALPHA_S: f64 = 100e-9;
const BANDWIDTH_GBPS: f64 = 800.0;
const DELTA_S: f64 = 100e-9;
const ALPHA_R_S: f64 = 10e-6;

fn experiment(
    ports: usize,
    controller: &str,
) -> Experiment<adaptive_photonics::experiment::Unbound> {
    Experiment::domain(ring_unidirectional(ports).expect("valid ring"))
        .params(CostParams::new(ALPHA_S, BANDWIDTH_GBPS, DELTA_S).expect("valid params"))
        .reconfig(ReconfigModel::constant(ALPHA_R_S).expect("valid delay"))
        .controller(controller_by_name(controller).expect("shipped controller"))
}

fn fabric(kind: FabricKind, n: usize, storm: Option<FailureStorm>) -> Box<dyn aps_fabric::Fabric> {
    hetero::build_fabric_stormy(
        kind,
        Matching::shift(n, 1).expect("valid shift"),
        ReconfigModel::constant(ALPHA_R_S).expect("valid delay"),
        storm,
    )
    .expect("buildable fabric")
}

/// One detail row, matching `aps_run_row_t`.
struct Row {
    index: u64,
    total_ps: u64,
    reconfig_ps: u64,
    transfer_ps: u64,
    arbitration_ps: u64,
}

fn collective_rows(run: &adaptive_photonics::experiment::SimRun) -> Vec<Row> {
    run.report
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| Row {
            index: i as u64,
            total_ps: s.total_ps(),
            reconfig_ps: s.reconfig_ps,
            transfer_ps: s.transfer_ps,
            arbitration_ps: s.arbitration_ps,
        })
        .collect()
}

fn tenant_rows(reports: &[TenantReport]) -> Vec<Row> {
    reports
        .iter()
        .enumerate()
        .map(|(i, t)| Row {
            index: i as u64,
            total_ps: t.finish_ps,
            reconfig_ps: t.report.steps.iter().map(|s| s.reconfig_ps).sum(),
            transfer_ps: t.report.steps.iter().map(|s| s.transfer_ps).sum(),
            arbitration_ps: t.arbitration_ps(),
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn print_sim(tag: &str, completion_ps: u64, events: u64, speedup: f64, rows: &[Row]) {
    let reconfig_ps: u64 = rows.iter().map(|r| r.reconfig_ps).sum();
    let transfer_ps: u64 = rows.iter().map(|r| r.transfer_ps).sum();
    let arbitration_ps: u64 = rows.iter().map(|r| r.arbitration_ps).sum();
    println!(
        "{tag} completion_ps={completion_ps} rows={} events={events} \
         reconfig_ps={reconfig_ps} transfer_ps={transfer_ps} \
         arbitration_ps={arbitration_ps} speedup={:016x}",
        rows.len(),
        speedup.to_bits()
    );
    for r in rows {
        println!(
            "{tag}.row index={} total_ps={} reconfig_ps={} transfer_ps={} arbitration_ps={}",
            r.index, r.total_ps, r.reconfig_ps, r.transfer_ps, r.arbitration_ps
        );
    }
}

fn scenario_run(
    name: &str,
    controller: &str,
    kind: FabricKind,
    storm: Option<FailureStorm>,
) -> Vec<TenantReport> {
    let scenario = hetero::by_name(name, MIB).expect("shipped scenario");
    let n = scenario.n;
    let mut shared = experiment(n, controller).scenario(scenario);
    shared.plan().expect("plannable scenario");
    let mut fab = fabric(kind, n, storm);
    shared
        .simulate_on(fab.as_mut())
        .expect("runnable scenario")
        .into_iter()
        .map(|r| r.expect("healthy tenant"))
        .collect()
}

fn main() {
    println!("abi {ABI_MAJOR}.{ABI_MINOR}.{ABI_PATCH}");

    // 1. Collective on the optical baseline: plan, then simulate.
    {
        let collective = collective_by_name("hd-allreduce", 16, MIB)
            .expect("shipped family")
            .expect("valid size");
        let plan = experiment(16, "opt")
            .collective(&collective)
            .plan()
            .expect("plannable");
        let matched = (0..plan.switches.len())
            .filter(|&i| plan.switches.choice(i) == ConfigChoice::Matched)
            .count();
        println!(
            "plan steps={} matched={matched} events={} total_s={:016x} \
             reconfig_s={:016x} transmission_s={:016x}",
            plan.switches.len(),
            plan.report.reconfig_events,
            plan.report.total_s().to_bits(),
            plan.report.reconfig_s.to_bits(),
            plan.report.transmission_s.to_bits()
        );

        let mut fab = fabric(FabricKind::Optical, 16, None);
        let run = experiment(16, "opt")
            .collective(&collective)
            .simulate_on(fab.as_mut())
            .expect("runnable");
        let mut base_fab = fabric(FabricKind::Optical, 16, None);
        let baseline = experiment(16, "static")
            .collective(&collective)
            .simulate_on(base_fab.as_mut())
            .expect("runnable baseline");
        let speedup = baseline.report.total_ps as f64 / run.report.total_ps.max(1) as f64;
        print_sim(
            "sim",
            run.report.total_ps,
            run.report.reconfig_events() as u64,
            speedup,
            &collective_rows(&run),
        );
    }

    // 2. Heterogeneous scenario: stormy hybrid fabric, greedy controller.
    {
        let storm = || Some(FailureStorm::new(42));
        let adapted = scenario_run("hetero-hybrid", "greedy", FabricKind::Hybrid, storm());
        let baseline = scenario_run("hetero-hybrid", "static", FabricKind::Hybrid, storm());
        let completion = adapted.iter().map(|t| t.finish_ps).max().unwrap_or(0);
        let base = baseline.iter().map(|t| t.finish_ps).max().unwrap_or(0);
        let events = adapted
            .iter()
            .map(|t| t.report.reconfig_events() as u64)
            .sum();
        print_sim(
            "hetero",
            completion,
            events,
            base as f64 / completion.max(1) as f64,
            &tenant_rows(&adapted),
        );
    }

    // 3. Multi-wavelength scenario on the wavelength bank.
    {
        let adapted = scenario_run("multi-wavelength", "opt", FabricKind::WavelengthBank, None);
        let baseline = scenario_run(
            "multi-wavelength",
            "static",
            FabricKind::WavelengthBank,
            None,
        );
        let completion = adapted.iter().map(|t| t.finish_ps).max().unwrap_or(0);
        let base = baseline.iter().map(|t| t.finish_ps).max().unwrap_or(0);
        let events = adapted
            .iter()
            .map(|t| t.report.reconfig_events() as u64)
            .sum();
        print_sim(
            "bank",
            completion,
            events,
            base as f64 / completion.max(1) as f64,
            &tenant_rows(&adapted),
        );
    }

    // 4. Policy sweep over a small alpha_r x message-size grid.
    {
        let result = experiment(8, "opt")
            .collective_family(|m| collective_by_name("alltoall", 8, m).expect("shipped family"))
            .sweep(&SweepGrid {
                reconf_delays_s: vec![1e-6, 10e-6],
                message_bytes: vec![MIB, 4.0 * MIB],
            })
            .expect("sweepable");
        // The C layout puts delays outermost; native rows are sizes.
        let mut index = 0usize;
        for c in 0..result.grid.reconf_delays_s.len() {
            for row in &result.cells {
                let cell = &row[c];
                println!(
                    "sweep.cell index={index} static={:016x} bvn={:016x} opt={:016x} \
                     threshold={:016x}",
                    cell.static_s.to_bits(),
                    cell.bvn_s.to_bits(),
                    cell.opt_s.to_bits(),
                    cell.threshold_s.to_bits()
                );
                index += 1;
            }
        }
    }

    // 5. Fabric-as-a-service: one bursty class, bounded-queue admission.
    {
        let collective = collective_by_name("hd-allreduce", 8, MIB)
            .expect("shipped family")
            .expect("valid size");
        let schedule = collective.schedule;
        let class = TenantClass::new(
            "burst",
            8,
            Matching::shift(8, 1).expect("valid shift"),
            ServiceSwitching::Uniform(ConfigChoice::Matched),
            Box::new(PoissonArrivals::new(2000.0, Some(24), 7).expect("valid arrivals")),
            Box::new(move |_id: u64| -> Box<dyn aps_collectives::Workload> {
                Box::new(aps_collectives::ScheduleStream::new(schedule.clone()))
            }),
        );
        let mut fab = fabric(FabricKind::Optical, 16, None);
        let summary = experiment(16, "opt")
            .service(vec![class])
            .admission(AdmissionPolicy::Queue { capacity: 4 })
            .run_on(fab.as_mut())
            .expect("runnable service")
            .summary;
        println!(
            "service makespan_ps={} offered={} completed={} steps={} events={} classes={}",
            summary.makespan_ps,
            summary.offered(),
            summary.completed(),
            summary.steps.steps,
            summary.steps.reconfig_events,
            summary.tenants.len()
        );
        for (name, t) in summary.class_names.iter().zip(&summary.tenants) {
            println!(
                "slo name={name} offered={} admitted={} queued={} completed={} p50={} p99={} \
                 max={} wait_p99={} goodput={:016x}",
                t.offered,
                t.admitted,
                t.queued,
                t.completed,
                t.completion.p50_ps().unwrap_or(0),
                t.completion.p99_ps().unwrap_or(0),
                t.completion.max_ps(),
                t.wait.p99_ps().unwrap_or(0),
                t.goodput().to_bits()
            );
        }
    }
}
