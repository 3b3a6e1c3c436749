//! Figure 1 / Figure 2 panel definitions (§3.4 of the paper).
//!
//! Evaluation setup reproduced from the paper: `n = 64` GPUs, one 800 Gbps
//! link each, `δ = 100 ns`, base topology = ring, AllReduce via
//! (bandwidth-optimal) recursive halving-doubling and Swing, plus the
//! All-to-All transpose; sweep `α_r` (columns) × message size (rows).

use crate::output::Json;
use aps_collectives::{allreduce, alltoall, Collective, CollectiveError};
use aps_core::objective::ReconfigAccounting;
use aps_core::sweep::{run_sweep_on, SweepGrid, SweepResult};
use aps_core::{CoreError, PolicyComparison};
use aps_cost::CostParams;
use aps_flow::solver::ThroughputSolver;
use aps_par::Pool;
use aps_topology::builders;

/// GPUs in the evaluated scale-up domain.
pub const PAPER_N: usize = 64;

/// One heatmap of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Panel {
    /// 1a: OPT vs BvN, halving-doubling AllReduce, α = 100 ns.
    A,
    /// 1b: OPT vs BvN, halving-doubling AllReduce, α = 10 µs.
    B,
    /// 1c: OPT vs BvN, Swing AllReduce, α = 100 ns.
    C,
    /// 1d: OPT vs BvN, All-to-All, α = 100 ns.
    D,
    /// 1e: OPT vs static ring, halving-doubling AllReduce, α = 100 ns.
    E,
    /// 1f: OPT vs static ring, halving-doubling AllReduce, α = 10 µs.
    F,
    /// 1g: OPT vs static ring, Swing AllReduce, α = 100 ns.
    G,
    /// 1h: OPT vs static ring, All-to-All, α = 100 ns.
    H,
}

impl Panel {
    /// All panels, figure order.
    pub const ALL: [Panel; 8] = [
        Panel::A,
        Panel::B,
        Panel::C,
        Panel::D,
        Panel::E,
        Panel::F,
        Panel::G,
        Panel::H,
    ];

    /// Parses a panel letter.
    pub fn parse(s: &str) -> Option<Panel> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(Panel::A),
            "b" => Some(Panel::B),
            "c" => Some(Panel::C),
            "d" => Some(Panel::D),
            "e" => Some(Panel::E),
            "f" => Some(Panel::F),
            "g" => Some(Panel::G),
            "h" => Some(Panel::H),
            _ => None,
        }
    }

    /// Lowercase letter for file names.
    pub fn letter(self) -> char {
        match self {
            Panel::A => 'a',
            Panel::B => 'b',
            Panel::C => 'c',
            Panel::D => 'd',
            Panel::E => 'e',
            Panel::F => 'f',
            Panel::G => 'g',
            Panel::H => 'h',
        }
    }
}

/// Which collective a panel sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Recursive halving-doubling AllReduce (the paper's bandwidth-optimal
    /// "recursive doubling").
    HalvingDoubling,
    /// Swing AllReduce.
    Swing,
    /// Linear-shift All-to-All (transpose).
    AllToAll,
}

impl Workload {
    /// Builds the collective for a message size.
    ///
    /// # Errors
    ///
    /// Propagates collective construction errors.
    pub fn build(self, n: usize, bytes: f64) -> Result<Collective, CollectiveError> {
        match self {
            Workload::HalvingDoubling => allreduce::halving_doubling::build(n, bytes),
            Workload::Swing => allreduce::swing::build(n, bytes),
            Workload::AllToAll => alltoall::linear_shift(n, bytes),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HalvingDoubling => "halving-doubling AllReduce",
            Workload::Swing => "Swing AllReduce",
            Workload::AllToAll => "All-to-All (linear shift)",
        }
    }
}

/// Full specification of one panel.
#[derive(Debug, Clone, Copy)]
pub struct PanelSpec {
    /// Which figure panel.
    pub panel: Panel,
    /// The collective under test.
    pub workload: Workload,
    /// Cost parameters (α differs between panels).
    pub params: CostParams,
    /// `true` → report speedup vs the BvN baseline (top row); `false` → vs
    /// the static ring (bottom row).
    pub vs_bvn: bool,
}

impl PanelSpec {
    /// Human-readable title matching the paper's caption.
    pub fn title(&self) -> String {
        format!(
            "Figure 1{}: speedup of OPT vs {} — {}, α = {}",
            self.panel.letter(),
            if self.vs_bvn {
                "BvN schedule"
            } else {
                "static ring"
            },
            self.workload.name(),
            aps_cost::units::format_time(self.params.alpha_s),
        )
    }
}

/// The specification of a Figure 1 panel.
pub fn panel(p: Panel) -> PanelSpec {
    let low = CostParams::paper_defaults();
    let high = CostParams::paper_high_alpha();
    match p {
        Panel::A => PanelSpec {
            panel: p,
            workload: Workload::HalvingDoubling,
            params: low,
            vs_bvn: true,
        },
        Panel::B => PanelSpec {
            panel: p,
            workload: Workload::HalvingDoubling,
            params: high,
            vs_bvn: true,
        },
        Panel::C => PanelSpec {
            panel: p,
            workload: Workload::Swing,
            params: low,
            vs_bvn: true,
        },
        Panel::D => PanelSpec {
            panel: p,
            workload: Workload::AllToAll,
            params: low,
            vs_bvn: true,
        },
        Panel::E => PanelSpec {
            panel: p,
            workload: Workload::HalvingDoubling,
            params: low,
            vs_bvn: false,
        },
        Panel::F => PanelSpec {
            panel: p,
            workload: Workload::HalvingDoubling,
            params: high,
            vs_bvn: false,
        },
        Panel::G => PanelSpec {
            panel: p,
            workload: Workload::Swing,
            params: low,
            vs_bvn: false,
        },
        Panel::H => PanelSpec {
            panel: p,
            workload: Workload::AllToAll,
            params: low,
            vs_bvn: false,
        },
    }
}

/// Runs one panel's sweep on the paper's setup (`n = 64`, unidirectional
/// ring base, exact forced-path θ) with a pool sized from `APS_THREADS`.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn run_panel(spec: &PanelSpec, n: usize, grid: &SweepGrid) -> Result<SweepResult, CoreError> {
    run_panel_on(&Pool::from_env(), spec, n, grid)
}

/// [`run_panel`] on an explicit pool.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn run_panel_on(
    pool: &Pool,
    spec: &PanelSpec,
    n: usize,
    grid: &SweepGrid,
) -> Result<SweepResult, CoreError> {
    let base = builders::ring_unidirectional(n).expect("n >= 2");
    run_sweep_on(
        pool,
        &base,
        |m| spec.workload.build(n, m),
        spec.params,
        grid,
        ReconfigAccounting::PaperConservative,
        ThroughputSolver::ForcedPath,
    )
}

/// The sweep axes as a JSON object (`data.grid` of a bench report).
pub fn grid_json(grid: &SweepGrid) -> Json {
    Json::obj([
        (
            "reconf_delays_s",
            Json::nums(grid.reconf_delays_s.iter().copied()),
        ),
        (
            "message_bytes",
            Json::nums(grid.message_bytes.iter().copied()),
        ),
    ])
}

/// One panel's sweep as a JSON object: the workload, α, and the row-major
/// `cells_s[msg][α_r]` grid of `[static, bvn, opt, threshold]` completion
/// times. `policies` names the controllers behind those columns
/// ([`PolicyComparison::CONTROLLERS`]).
pub fn panel_json(spec: &PanelSpec, result: &SweepResult) -> Json {
    let cells = result
        .cells
        .iter()
        .map(|row| Json::Arr(row.iter().map(|c| Json::nums(c.times_s())).collect()))
        .collect();
    Json::obj([
        ("panel", Json::Str(spec.panel.letter().to_string())),
        ("workload", Json::Str(spec.workload.name().to_string())),
        ("alpha_s", Json::Num(spec.params.alpha_s)),
        ("vs_bvn", Json::Bool(spec.vs_bvn)),
        (
            "policies",
            Json::Arr(
                PolicyComparison::CONTROLLERS
                    .iter()
                    .map(|c| Json::Str(c.name().to_string()))
                    .collect(),
            ),
        ),
        ("cells_s", Json::Arr(cells)),
    ])
}

/// θ-cache counters as a JSON object (`data.theta_cache`).
pub fn theta_stats_json(stats: &aps_flow::CacheStats) -> Json {
    Json::obj([
        ("hits", Json::UInt(stats.hits)),
        ("misses", Json::UInt(stats.misses)),
        ("entries", Json::UInt(stats.entries as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_parsing_roundtrips() {
        for p in Panel::ALL {
            assert_eq!(Panel::parse(&p.letter().to_string()), Some(p));
        }
        assert_eq!(Panel::parse("z"), None);
    }

    #[test]
    fn titles_mention_workload_and_alpha() {
        let t = panel(Panel::B).title();
        assert!(t.contains("halving-doubling"));
        assert!(t.contains("10 µs"));
        assert!(t.contains("BvN"));
        let t = panel(Panel::H).title();
        assert!(t.contains("static ring"));
        assert!(t.contains("All-to-All"));
    }

    #[test]
    fn small_panel_run_has_expected_regimes() {
        // n = 16 keeps the test quick; regime structure is the same.
        let spec = panel(Panel::A);
        let grid = SweepGrid::small();
        let r = run_panel(&spec, 16, &grid).unwrap();
        // Speedups vs BvN grow toward high α_r / small messages.
        let m = r.map(PolicyComparison::speedup_vs_bvn);
        assert!(m[0][2] > m[2][0]);
        assert!(m[0][2] > 5.0);
        // And everything is ≥ 1: OPT dominates.
        assert!(m.iter().flatten().all(|&v| v >= 1.0 - 1e-12));
    }
}
