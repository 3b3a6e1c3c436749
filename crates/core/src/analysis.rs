//! Rendering and regime analysis for sweep results.
//!
//! The paper's Figure 1/2 heatmaps become ASCII tables (one number per
//! cell) and CSV files; [`classify`] reproduces the three-regime reading of
//! §3.4: static-optimal, BvN-optimal, and the transitional band where only
//! a mixed schedule wins.

use crate::domain::PolicyComparison;
use crate::sweep::{SweepGrid, SweepResult};
use aps_cost::units::{format_bytes, format_time};

/// Which §3.4 regime a grid cell falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// The static base topology is (essentially) optimal.
    StaticOptimal,
    /// Naive per-step reconfiguration is (essentially) optimal.
    BvnOptimal,
    /// Only a mixed schedule attains the optimum — the diagonal band of
    /// Figure 2.
    MixedWins,
}

impl Regime {
    /// Single-character cell marker for regime maps.
    pub fn glyph(self) -> char {
        match self {
            Regime::StaticOptimal => 'S',
            Regime::BvnOptimal => 'B',
            Regime::MixedWins => '*',
        }
    }
}

/// Classifies a cell: a baseline counts as "essentially optimal" when it is
/// within `tol` (relative) of the optimized schedule.
pub fn classify(cell: &PolicyComparison, tol: f64) -> Regime {
    let opt = cell.opt_s;
    let static_ok = cell.static_s <= opt * (1.0 + tol);
    let bvn_ok = cell.bvn_s <= opt * (1.0 + tol);
    match (static_ok, bvn_ok) {
        (true, _) => Regime::StaticOptimal,
        (false, true) => Regime::BvnOptimal,
        (false, false) => Regime::MixedWins,
    }
}

/// Renders a row-major value matrix as an ASCII heatmap with labelled axes
/// (message sizes down, `α_r` across; largest message first, like the
/// paper's heatmaps).
pub fn render_heatmap(title: &str, grid: &SweepGrid, values: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:>10} |", "msg \\ α_r"));
    for &d in &grid.reconf_delays_s {
        out.push_str(&format!("{:>9}", format_time(d)));
    }
    out.push('\n');
    out.push_str(&"-".repeat(12 + 9 * grid.reconf_delays_s.len()));
    out.push('\n');
    for (ri, &m) in grid.message_bytes.iter().enumerate().rev() {
        out.push_str(&format!("{:>10} |", format_bytes(m)));
        for v in &values[ri] {
            out.push_str(&format!("{v:>9.2}"));
        }
        out.push('\n');
    }
    out
}

/// Renders the per-cell regime map (same orientation as
/// [`render_heatmap`]).
pub fn render_regimes(title: &str, result: &SweepResult, tol: f64) -> String {
    let grid = &result.grid;
    let mut out = String::new();
    out.push_str(title);
    out.push_str("\n  S = static optimal, B = BvN optimal, * = only mixed wins\n");
    for (ri, &m) in grid.message_bytes.iter().enumerate().rev() {
        out.push_str(&format!("{:>10} |", format_bytes(m)));
        for cell in &result.cells[ri] {
            out.push_str(&format!("  {}", classify(cell, tol).glyph()));
        }
        out.push('\n');
    }
    // Column labels (α_r), abbreviated to fit the 3-char cells.
    out.push_str(&format!("{:>10}  ", ""));
    for &d in &grid.reconf_delays_s {
        let label: String = format_time(d).replace(' ', "").chars().take(3).collect();
        out.push_str(&format!("{label:>3}"));
    }
    out.push('\n');
    out
}

/// Serializes a value matrix to CSV (`message_bytes,reconf_delay_s,value`).
pub fn to_csv(grid: &SweepGrid, values: &[Vec<f64>]) -> String {
    let mut out = String::from("message_bytes,reconf_delay_s,value\n");
    for (ri, &m) in grid.message_bytes.iter().enumerate() {
        for (ci, &d) in grid.reconf_delays_s.iter().enumerate() {
            out.push_str(&format!("{m},{d},{}\n", values[ri][ci]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(st: f64, bvn: f64, opt: f64) -> PolicyComparison {
        PolicyComparison {
            static_s: st,
            bvn_s: bvn,
            opt_s: opt,
            threshold_s: opt,
        }
    }

    #[test]
    fn classification() {
        assert_eq!(classify(&cell(1.0, 5.0, 1.0), 0.01), Regime::StaticOptimal);
        assert_eq!(classify(&cell(5.0, 1.0, 1.0), 0.01), Regime::BvnOptimal);
        assert_eq!(classify(&cell(2.0, 2.0, 1.0), 0.01), Regime::MixedWins);
        assert_eq!(Regime::MixedWins.glyph(), '*');
    }

    #[test]
    fn heatmap_rendering_includes_axes() {
        let grid = SweepGrid {
            reconf_delays_s: vec![1e-7, 1e-5],
            message_bytes: vec![1024.0, 1048576.0],
        };
        let values = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let s = render_heatmap("test", &grid, &values);
        assert!(s.contains("test"));
        assert!(s.contains("1 KiB"));
        assert!(s.contains("1 MiB"));
        assert!(s.contains("100 ns"));
        assert!(s.contains("10 µs"));
        // Largest message renders first.
        let mib = s.find("1 MiB").unwrap();
        let kib = s.find("1 KiB").unwrap();
        assert!(mib < kib);
    }

    #[test]
    fn csv_rendering() {
        let grid = SweepGrid {
            reconf_delays_s: vec![1e-7],
            message_bytes: vec![1024.0],
        };
        let csv = to_csv(&grid, &[vec![2.5]]);
        assert_eq!(
            csv,
            "message_bytes,reconf_delay_s,value\n1024,0.0000001,2.5\n"
        );
    }
}
