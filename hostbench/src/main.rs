//! Host-time benchmark of the streaming step engine (`aps-sim`) and the
//! service engine (`aps-faas`). See `README.md` beside this crate for the
//! workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload ring-train --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! measured by the adapters in [`probe`].

mod probe;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use workloads::{Instance, Kind, Outcome};

/// Set-ups timed before each episode, at most this many or for at most
/// [`SETUP_SLICE_S`]; `setup_s` is the median over the whole run.
const SETUP_REPS: usize = 64;
const SETUP_SLICE_S: f64 = 0.05;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required (ring-train, perm-ring, faas-mix)")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (sorted in place).
fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Episodes of one kind, run back to back, each checked against the
/// first and against the recorded hash when the seed has one.
#[derive(Default)]
struct Tally {
    expected: Option<u64>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
    steps: u64,
    jobs: u64,
    queued: u64,
    rejected: u64,
    /// Per-episode `(steps, jobs)` per host second.
    rates: Vec<(f64, f64)>,
}

impl Tally {
    fn add(&mut self, out: Result<Outcome, String>, host_s: f64) {
        self.attempted += 1;
        match out {
            Ok(o) => {
                let reference = self.expected.or(self.first).unwrap_or(o.hash);
                self.first.get_or_insert(o.hash);
                if !o.sound || o.hash != reference {
                    eprintln!("episode output check failed: hash {:#018x}", o.hash);
                    self.failed += 1;
                }
                self.steps += o.steps;
                self.jobs += o.jobs;
                self.queued += o.queued;
                self.rejected += o.rejected;
                self.rates
                    .push((o.steps as f64 / host_s, o.jobs as f64 / host_s));
            }
            Err(e) => {
                eprintln!("engine error: {e}");
                self.failed += 1;
            }
        }
    }

    /// Median over episodes of steps per host second.
    fn steps_per_s(&self) -> f64 {
        median(self.rates.iter().map(|r| r.0).collect())
    }

    /// Median over episodes of completed jobs per host second.
    fn jobs_per_s(&self) -> f64 {
        median(self.rates.iter().map(|r| r.1).collect())
    }
}

/// Builds the instance for the next episode, timing up to
/// [`SETUP_REPS`] builds or [`SETUP_SLICE_S`] into `setup`. Spreading the
/// builds over the run lets `setup_s` see the same host conditions as the
/// episodes.
fn timed_build(args: &Args, setup: &mut Vec<f64>) -> Instance {
    let slice = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let inst = workloads::build(args.kind, args.seed);
        setup.push(t0.elapsed().as_secs_f64());
        reps += 1;
        if reps == SETUP_REPS || slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return inst;
        }
    }
}

/// Runs one untraced episode.
fn untraced_episode(mut inst: Instance, tally: &mut Tally) {
    let t0 = Instant::now();
    let out = inst.run();
    tally.add(out, t0.elapsed().as_secs_f64());
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run_end_to_end(args: &Args) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut tally = Tally {
        expected: workloads::expected_hash(args.kind, args.seed),
        ..Tally::default()
    };
    let start = Instant::now();
    while tally.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let inst = timed_build(args, &mut setup);
        untraced_episode(inst, &mut tally);
    }
    let correct = tally.failed == 0;
    println!(
        "{}: seed {}, output hash {:#018x}, {} episodes, {} steps, {} jobs ({} queued, {} rejected); \
         output check {}",
        args.kind.name(),
        args.seed,
        tally.first.unwrap_or(0),
        tally.attempted,
        tally.steps,
        tally.jobs,
        tally.queued,
        tally.rejected,
        if correct { "passed" } else { "FAILED" }
    );
    let per_episode: Vec<String> = tally.rates.iter().map(|r| format!("{:.1}", r.0)).collect();
    println!("steps/s per episode: {}", per_episode.join(" "));
    let metrics = [
        metric("setup_s", median(setup), "s"),
        metric("steps_per_s", tally.steps_per_s(), "1/s"),
        metric("jobs_per_s", tally.jobs_per_s(), "1/s"),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ];
    print_result(correct, tally.attempted, tally.failed, &metrics);
    Ok(())
}

fn run_traced(args: &Args) -> Result<(), String> {
    let expected = workloads::expected_hash(args.kind, args.seed);
    // Untraced and traced episodes alternate, so both see the same host
    // conditions; the difference of their rates is the tracing overhead.
    let mut plain = Tally {
        expected,
        ..Tally::default()
    };
    let mut traced = Tally {
        expected,
        ..Tally::default()
    };
    let start = Instant::now();
    while traced.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        untraced_episode(workloads::build(args.kind, args.seed), &mut plain);
        traced.expected = traced.expected.or(plain.first);
        let inst = workloads::build(args.kind, args.seed);
        let t0 = Instant::now();
        let out = inst.run_traced();
        let mut host_s = t0.elapsed().as_secs_f64();
        // The re-solve is the benchmark's own work, not tracing cost.
        let out = out.map(|(o, probe_ns)| {
            host_s -= probe_ns as f64 * 1e-9;
            o
        });
        traced.add(out, host_s);
    }
    let mut t = probe::take_totals();
    let mut iv = std::mem::take(&mut t.intervals);
    let episodes = traced.rates.len();
    let steps = t.steps.max(1) as f64;
    let per_ep = |x: u64| x as f64 / episodes.max(1) as f64;
    let per_step = |x: u64| x as f64 / steps;
    let mean_step = iv.iter().sum::<u64>() as f64 / iv.len().max(1) as f64;
    let (p50, p99) = (percentile(&mut iv, 0.50), percentile(&mut iv, 0.99));
    let correct = plain.failed == 0 && traced.failed == 0;
    let service = args.kind == Kind::FaasMix;
    let (sim_p50, sim_p99, faas_p50, faas_p99) = if service {
        (0.0, 0.0, p50, p99)
    } else {
        (p50, p99, 0.0, 0.0)
    };
    let layers = t.pull_ns + t.theta_ns + t.decide_ns + t.explain_ns + t.request_ns + t.solve_ns;
    let self_ns = mean_step - per_step(layers + t.arrival_ns + t.job_build_ns);
    let overhead = traced.steps_per_s() - plain.steps_per_s();

    println!(
        "{}: traced {} steps in {} episodes; untraced {:.2} steps/s, traced {:.2} steps/s",
        args.kind.name(),
        t.steps,
        traced.attempted,
        plain.steps_per_s(),
        traced.steps_per_s()
    );
    println!(
        "tracing overhead: {overhead:+.2} steps/s (traced − untraced); \
         core.explain_ns = {:.1} ns/step is paid only when a sink is attached",
        per_step(t.explain_ns)
    );
    println!(
        "cross-layer check: {}/{} steps re-solve to the recorded transfer_ps, {}/{} within \
         β·m/θ + δ·ℓ, {}/{} matched steps at equality, {} protocol errors",
        t.resolved_exact,
        t.steps,
        t.within_model,
        t.steps,
        t.matched_at_model,
        t.matched,
        t.protocol_errors
    );
    println!(
        "flow.theta_ns and sim.solve_ns are inferred: the probe calls ThetaCache::get and \
         simulate_flows_scratch on each step's inputs after the step, outside the engine. \
         The α-β model is checked against the simulator only; it is not validated against \
         hardware."
    );
    let m = metric;
    let metrics = [
        m("collectives.pull_ns", per_step(t.pull_ns), "ns/step"),
        m("collectives.arrival_ns", per_step(t.arrival_ns), "ns/step"),
        m(
            "collectives.job_build_ns",
            per_step(t.job_build_ns),
            "ns/step",
        ),
        m("flow.theta_ns", per_step(t.theta_ns), "ns/step"),
        m("flow.theta_misses", per_ep(t.theta_misses), "count"),
        m(
            "flow.theta_hit_ratio",
            t.theta_hits as f64 / (t.theta_hits + t.theta_misses).max(1) as f64,
            "ratio",
        ),
        m("core.decide_ns", per_step(t.decide_ns), "ns/step"),
        m("core.explain_ns", per_step(t.explain_ns), "ns/step"),
        m("core.matched_ratio", per_step(t.matched), "ratio"),
        m("fabric.request_ns", per_step(t.request_ns), "ns/step"),
        m("fabric.requests", per_ep(t.requests), "count"),
        m("fabric.ports_changed", per_ep(t.ports_changed), "count"),
        m(
            "fabric.arbitration_waits",
            per_ep(t.arbitration_waits),
            "count",
        ),
        m("sim.step_ns_p50", sim_p50, "ns"),
        m("sim.step_ns_p99", sim_p99, "ns"),
        m(
            "sim.step_samples",
            if service { 0.0 } else { iv.len() as f64 },
            "count",
        ),
        m("sim.solve_ns", per_step(t.solve_ns), "ns/step"),
        m("sim.flows", per_step(t.flows), "flows/step"),
        m("sim.hops", per_step(t.hops), "hops/step"),
        m("sim.links", per_step(t.links), "links/step"),
        m(
            "sim.other_ns",
            if service { 0.0 } else { self_ns },
            "ns/step",
        ),
        m("faas.step_ns_p50", faas_p50, "ns"),
        m("faas.step_ns_p99", faas_p99, "ns"),
        m(
            "faas.step_samples",
            if service { iv.len() as f64 } else { 0.0 },
            "count",
        ),
        m(
            "faas.engine_self_ns",
            if service { self_ns } else { 0.0 },
            "ns/step",
        ),
        m("faas.live_slots_max", t.live_slots_max as f64, "count"),
        m("faas.queued", per_ep(traced.queued), "count"),
        m("faas.rejected", per_ep(traced.rejected), "count"),
        m("trace.overhead_steps_per_s", overhead, "1/s"),
    ];
    print_result(
        correct,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &metrics,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Both step paths are sequential; keep any worker pool at one thread.
    std::env::set_var("APS_THREADS", "1");
    let res = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
