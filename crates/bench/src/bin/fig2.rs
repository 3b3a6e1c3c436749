//! Regenerates Figure 2 of the paper: the speedup of the optimized schedule
//! over the *best of both* baselines — `min(static ring, BvN)` — exposing
//! the transitional regime (the diagonal band) where neither always-static
//! nor always-reconfigure is sufficient and only an adaptive schedule wins.
//!
//! Usage:
//!
//! ```text
//! cargo run -p aps-bench --release --bin fig2 [-- --n 64]
//! ```
//!
//! Prints the best-of-both heatmap plus the per-cell regime map
//! (S = static optimal, B = BvN optimal, * = only mixed wins) and writes
//! `results/fig2.csv` plus the machine-readable `results/bench_fig2.json`
//! report. Grid cells are evaluated on an `APS_THREADS`-sized worker pool;
//! the report's `data` section is bit-identical at any thread count.

use aps_bench::cli::{emit_bench_report, parse_flags};
use aps_bench::figures::{
    grid_json, panel, panel_json, run_panel_on, theta_stats_json, Panel, PAPER_N,
};
use aps_bench::output::{write_result, Json};
use aps_core::analysis::{render_heatmap, render_regimes, to_csv};
use aps_core::sweep::SweepGrid;
use aps_core::PolicyComparison;
use aps_par::Pool;

fn main() {
    let n = parse_flags(&["--n"]).parsed_or("n", PAPER_N);

    // Figure 2 uses the Figure-1a workload (bandwidth-optimal AllReduce at
    // α = 100 ns) but reports OPT against min(static, BvN).
    let pool = Pool::from_env();
    let grid = SweepGrid::paper_default();
    let spec = panel(Panel::A);
    let started = std::time::Instant::now();
    let result = run_panel_on(&pool, &spec, n, &grid).expect("figure 2 sweep failed");
    let wall_s = started.elapsed().as_secs_f64();
    let values = result.map(PolicyComparison::speedup_vs_best_of_both);
    let title = format!(
        "Figure 2: speedup of OPT vs best-of-both (static, BvN) — {}, n = {n}, \
         {} worker thread(s)",
        spec.workload.name(),
        pool.threads()
    );
    println!("{}", render_heatmap(&title, &result.grid, &values));
    println!(
        "{}",
        render_regimes("Regime map (tolerance 1%)", &result, 0.01)
    );
    let csv = to_csv(&result.grid, &values);
    match write_result("fig2.csv", &csv) {
        Ok(path) => println!("  → {}", path.display()),
        Err(e) => eprintln!("  (csv write failed: {e})"),
    }

    let data = Json::obj([
        ("figure", Json::Str("fig2".into())),
        ("n", Json::UInt(n as u64)),
        ("grid", grid_json(&grid)),
        ("theta_cache", theta_stats_json(&result.theta_stats)),
        ("panels", Json::Arr(vec![panel_json(&spec, &result)])),
    ]);
    emit_bench_report("fig2", &pool, wall_s, data);
}
