//! Regenerates Figure 1 of the paper: eight heatmaps of the speedup
//! achieved by the optimized circuit-switching schedule (OPT) over (top
//! row) naive per-step BvN reconfiguration and (bottom row) a static ring,
//! for halving-doubling AllReduce, Swing AllReduce and All-to-All on a
//! 64-GPU photonic scale-up domain.
//!
//! Usage:
//!
//! ```text
//! cargo run -p aps-bench --release --bin fig1             # all panels
//! cargo run -p aps-bench --release --bin fig1 -- --panel c
//! cargo run -p aps-bench --release --bin fig1 -- --n 32   # smaller domain
//! APS_THREADS=4 cargo run -p aps-bench --release --bin fig1
//! ```
//!
//! Each panel prints an ASCII heatmap (rows: message size, columns: α_r)
//! and writes `results/fig1<panel>.csv`; the whole run additionally writes
//! the machine-readable `results/bench_fig1.json` report (see the README's
//! "JSON bench reports" section). Grid cells are evaluated on an
//! `APS_THREADS`-sized worker pool; the report's `data` section is
//! bit-identical at any thread count.

use aps_bench::cli::{emit_bench_report, parse_flags};
use aps_bench::figures::{
    grid_json, panel, panel_json, run_panel_on, theta_stats_json, Panel, PAPER_N,
};
use aps_bench::output::{write_result, Json};
use aps_core::analysis::{render_heatmap, to_csv};
use aps_core::sweep::SweepGrid;
use aps_core::PolicyComparison;
use aps_flow::CacheStats;
use aps_par::Pool;

fn main() {
    let flags = parse_flags(&["--panel", "--n"]);
    let panels: Vec<Panel> = match flags.get("panel") {
        None => Panel::ALL.to_vec(),
        Some(v) => match Panel::parse(v) {
            Some(p) => vec![p],
            None => {
                eprintln!("unknown panel '{v}' (expected a–h)");
                std::process::exit(2);
            }
        },
    };
    let n = flags.parsed_or("n", PAPER_N);

    let pool = Pool::from_env();
    println!(
        "Figure 1 — n = {n} GPUs, 800 Gbps links, δ = 100 ns, base = unidirectional ring, \
         {} worker thread(s)\n",
        pool.threads()
    );
    let grid = SweepGrid::paper_default();
    let started = std::time::Instant::now();
    let mut panel_reports = Vec::with_capacity(panels.len());
    let mut theta_stats = CacheStats::default();
    for p in panels {
        let spec = panel(p);
        let result = run_panel_on(&pool, &spec, n, &grid)
            .unwrap_or_else(|e| panic!("panel {:?} failed: {e}", p));
        let values = if spec.vs_bvn {
            result.map(PolicyComparison::speedup_vs_bvn)
        } else {
            result.map(PolicyComparison::speedup_vs_static)
        };
        println!("{}", render_heatmap(&spec.title(), &result.grid, &values));
        let csv = to_csv(&result.grid, &values);
        match write_result(&format!("fig1{}.csv", spec.panel.letter()), &csv) {
            Ok(path) => println!("  → {}\n", path.display()),
            Err(e) => eprintln!("  (csv write failed: {e})\n"),
        }
        theta_stats.merge(result.theta_stats);
        panel_reports.push(panel_json(&spec, &result));
    }
    let wall_s = started.elapsed().as_secs_f64();

    let data = Json::obj([
        ("figure", Json::Str("fig1".into())),
        ("n", Json::UInt(n as u64)),
        ("grid", grid_json(&grid)),
        ("theta_cache", theta_stats_json(&theta_stats)),
        ("panels", Json::Arr(panel_reports)),
    ]);
    emit_bench_report("fig1", &pool, wall_s, data);
}
