//! Golden-file test for the multi-tenant executor, the reference the
//! lockstep parity suites compare the service engine against.
//!
//! One mix pins the replay-record bytes and every tenant's finish time or
//! error: interleaved collectives, a staggered arrival that queues on the
//! shared controller, a stuck-port failure mid-run, a validation failure
//! mid-list (later record tags must still equal input indices) and an
//! empty schedule. Regenerate the fixture with `UPDATE_GOLDEN=1` only for
//! an intentional behaviour change.

use adaptive_photonics::prelude::*;
use aps_cost::units::MIB;
use aps_sim::{execute_tenants_recorded, SimError};
use ConfigChoice::{Base, Matched};

const GOLDEN_PATH: &str = "tests/fixtures/tenant_replay_golden.bin";

fn tenant(
    name: &str,
    first_port: usize,
    schedule: Schedule,
    choices: Vec<ConfigChoice>,
    arrival_s: f64,
) -> TenantSpec {
    let n = schedule.n();
    TenantSpec {
        name: name.into(),
        ports: (first_port..first_port + n).collect(),
        base_config: Matching::shift(n, 1).unwrap(),
        schedule,
        switch_schedule: SwitchSchedule::new(choices),
        arrival_s,
    }
}

fn golden_run() -> (Vec<Result<TenantReport, SimError>>, ReplayRecord) {
    let hd = |n, bytes| {
        collectives::allreduce::halving_doubling::build(n, bytes)
            .unwrap()
            .schedule
    };
    let xor = collectives::alltoall::xor_exchange(4, 64.0 * 1024.0)
        .unwrap()
        .schedule;
    let empty = Schedule::new(4, CollectiveKind::Barrier, "empty", Vec::new()).unwrap();
    // Tenants 0..=2 interleave on ports 0..28.
    let mut tenants = scenarios::mixed_collectives(MIB).tenants;
    tenants.extend([
        // One switch choice short: rejected before it runs.
        tenant("short-switches", 28, hd(4, MIB), vec![Matched; 3], 0.0),
        // No steps: finishes the instant it arrives.
        tenant("empty", 44, empty, vec![], 3e-6),
        // Arrives while the controller is busy, and queues.
        tenant("late-matched", 32, hd(8, MIB), vec![Matched; 6], 12e-6),
        // A base step 0, then matched steps the stuck port 40 disconnects.
        tenant("stuck-xor", 40, xor, vec![Base, Matched, Matched], 0.0),
    ]);
    let scenario = Scenario {
        name: "tenant-golden".into(),
        n: 48,
        tenants,
    };
    let mut fabric = scenario
        .fabric(ReconfigModel::constant(10e-6).unwrap())
        .unwrap();
    fabric.stick_port(40).unwrap();
    let mut recorder = Recorder::new(48, "scheduled", &scenario.name);
    let results = execute_tenants_recorded(
        &mut fabric,
        &scenario.tenants,
        &RunConfig::paper_defaults(),
        Some(&mut recorder),
    )
    .unwrap();
    (results, recorder.into_record())
}

#[test]
fn tenant_record_bytes_match_the_committed_golden_file() {
    let bytes = golden_run().1.to_bytes();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &bytes).expect("write golden fixture");
    }
    let golden = std::fs::read(GOLDEN_PATH)
        .expect("golden fixture missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        bytes, golden,
        "tenant replay record drifted from {GOLDEN_PATH}; regenerate with \
         UPDATE_GOLDEN=1 only for an intentional behaviour change"
    );
}

#[test]
fn tenant_outcomes_match_the_pinned_literals() {
    let outcomes: Vec<String> = golden_run()
        .0
        .iter()
        .map(|r| match r {
            Ok(r) => format!(
                "{} arrival={} finish={} arbitration={} steps={}",
                r.name,
                r.arrival_ps,
                r.finish_ps,
                r.arbitration_ps(),
                r.report.steps.len()
            ),
            Err(e) => format!("{e:?}"),
        })
        .collect();
    assert_eq!(
        outcomes,
        [
            "ring-allreduce arrival=0 finish=21150080 arbitration=0 steps=14",
            "moe-alltoall arrival=0 finish=162821440 arbitration=83071360 steps=7",
            "stencil-halo arrival=0 finish=101510720 arbitration=55467840 steps=4",
            "Tenant { tenant: 3, name: \"short-switches\", source: \
             ScheduleLengthMismatch { expected: 4, got: 3 } }",
            "empty arrival=3000000 finish=3000000 arbitration=0 steps=0",
            "late-matched arrival=12000000 finish=155442880 arbitration=73892800 steps=6",
            "Tenant { tenant: 6, name: \"stuck-xor\", source: \
             Unroutable { step: 1, src: 40, dst: 42 } }",
        ]
    );
}

#[test]
fn record_tags_equal_input_indices() {
    let record = golden_run().1;
    let tags: std::collections::BTreeSet<u32> = record.frames.iter().map(|f| f.tenant).collect();
    // Rejected tenant 3 and empty tenant 4 never record.
    assert_eq!(tags.into_iter().collect::<Vec<_>>(), [0, 1, 2, 5, 6]);
    // The stuck tenant commits its base step 0 before failing.
    let stuck: Vec<u64> = record
        .frames
        .iter()
        .filter(|f| f.tenant == 6)
        .map(|f| f.step)
        .collect();
    assert_eq!(stuck, [0]);
}
