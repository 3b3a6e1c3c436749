//! End-to-end regime assertions for the paper's figures (§3.4): the
//! qualitative claims that define a successful reproduction, checked on a
//! reduced grid so they run in CI time.

use aps_bench::figures::{panel, run_panel, Panel};
use aps_core::analysis::{classify, Regime};
use aps_core::sweep::SweepGrid;
use aps_core::PolicyComparison;

fn grid() -> SweepGrid {
    SweepGrid::paper_default()
}

#[test]
fn fig1_top_row_speedup_grows_with_delay_and_shrinks_with_size() {
    // "significant performance gains over BvN schedules appear when
    // reconfiguration delay is high or message sizes are small".
    for p in [Panel::A, Panel::C, Panel::D] {
        let r = run_panel(&panel(p), 32, &grid()).unwrap();
        let v = r.map(PolicyComparison::speedup_vs_bvn);
        let (rows, cols) = (v.len(), v[0].len());
        // Monotone (weakly) along columns: higher α_r → larger speedup.
        for row in &v {
            for c in 1..cols {
                assert!(row[c] >= row[c - 1] - 1e-9, "{p:?}: {row:?}");
            }
        }
        // The small-message/high-delay corner is a large win; the
        // large-message/low-delay corner is ~1 (OPT may shave a hair off
        // BvN when a step's matching coincides with the base ring).
        assert!(v[0][cols - 1] > 50.0, "{p:?}");
        assert!(
            v[rows - 1][0] >= 1.0 - 1e-9 && v[rows - 1][0] < 1.05,
            "{p:?}"
        );
    }
}

#[test]
fn fig1_bottom_row_speedup_grows_with_size_and_shrinks_with_delay() {
    // "substantial speedup [over the static ring] when reconfiguration
    // delay is low and message sizes are large".
    for p in [Panel::E, Panel::G, Panel::H] {
        let r = run_panel(&panel(p), 32, &grid()).unwrap();
        let v = r.map(PolicyComparison::speedup_vs_static);
        let (rows, cols) = (v.len(), v[0].len());
        // Monotone (weakly) down columns: larger messages → larger speedup.
        for (row, (below, above)) in v.windows(2).map(|w| (&w[0], &w[1])).enumerate() {
            for (c, (lo, hi)) in below.iter().zip(above).enumerate() {
                assert!(hi >= &(lo - 1e-9), "{p:?} row {} col {c}", row + 1);
            }
        }
        // The large-message/low-delay corner is a big win (≈ n/2 for the
        // AllReduce panels); the small-message/high-delay corner is ~1.
        assert!(v[rows - 1][0] > 4.0, "{p:?}");
        assert!(
            v[0][cols - 1] >= 1.0 - 1e-9 && v[0][cols - 1] < 1.05,
            "{p:?}"
        );
    }
}

#[test]
fn fig1b_higher_alpha_dampens_small_message_gains() {
    // Panels 1a vs 1b: with α = 10 µs the per-step overhead dominates tiny
    // messages, so the OPT-vs-BvN gains shrink relative to α = 100 ns.
    let a = run_panel(&panel(Panel::A), 32, &grid()).unwrap();
    let b = run_panel(&panel(Panel::B), 32, &grid()).unwrap();
    let va = a.map(PolicyComparison::speedup_vs_bvn);
    let vb = b.map(PolicyComparison::speedup_vs_bvn);
    // Small-message, high-delay corner.
    assert!(vb[0][5] < va[0][5]);
}

#[test]
fn fig2_transitional_regime_exists() {
    // "there is also a transitional regime — visible as the diagonal — where
    // our optimized schedules outperform both static and naive BvN".
    let r = run_panel(&panel(Panel::A), 64, &grid()).unwrap();
    let mut mixed_cells = Vec::new();
    for (ri, row) in r.cells.iter().enumerate() {
        for (ci, cell) in row.iter().enumerate() {
            if classify(cell, 0.01) == Regime::MixedWins {
                assert!(cell.speedup_vs_best_of_both() > 1.01);
                mixed_cells.push((ri, ci));
            }
        }
    }
    assert!(
        !mixed_cells.is_empty(),
        "no transitional cells found — the diagonal regime is missing"
    );
    // The mixed cells sit between the static and BvN regions: for each,
    // larger messages at the same α_r lean BvN and smaller lean static.
    for &(ri, ci) in &mixed_cells {
        if ri + 1 < r.cells.len() {
            assert_ne!(
                classify(&r.cells[ri + 1][ci], 0.01),
                Regime::StaticOptimal,
                "cell above a mixed cell should not be static-optimal"
            );
        }
        if ri > 0 {
            assert_ne!(
                classify(&r.cells[ri - 1][ci], 0.01),
                Regime::BvnOptimal,
                "cell below a mixed cell should not be BvN-optimal"
            );
        }
    }
}

#[test]
fn regime_map_is_monotone_along_the_axes() {
    // Sanity on the phase structure: scanning a row left→right (increasing
    // α_r), once the static regime starts it never reverts to BvN.
    let r = run_panel(&panel(Panel::A), 32, &grid()).unwrap();
    for row in &r.cells {
        let mut seen_static = false;
        for cell in row {
            match classify(cell, 0.01) {
                Regime::StaticOptimal => seen_static = true,
                Regime::BvnOptimal => {
                    assert!(!seen_static, "BvN regime after static regime in a row")
                }
                Regime::MixedWins => {}
            }
        }
    }
}
