//! Tie-heavy differential tests at scale: the heap-ordered max-min kernel
//! vs the seed linear-scan oracle, bit for bit.
//!
//! The production solver takes each bottleneck off a min-heap keyed by
//! `(fair share, link id)`; the oracle (`aps_sim::fluid::reference`) scans
//! every link and keeps the first strict minimum. The two agree only if
//! the heap breaks every fair-share tie exactly as the scan does. The
//! randomized networks in `tests/fluid_differential.rs` have at most ten
//! links with random capacities, so ties almost never occur there. Here
//! every link of a unidirectional ring has the same capacity, so ties are
//! the rule: exact ties when the share divides evenly, and last-bit near
//! ties when it does not (shift-3 flows share links three ways).
//!
//! Inputs: equal-capacity rings with n ∈ {64, 256, 1024} ports, shift-k
//! flows with k ∈ {1, 3, n/2}, and seeded random permutations with mixed
//! volumes. The bare rate allocation is compared bitwise on every input.
//! The fluid simulation is compared bitwise where the flows hold at most
//! [`MAX_SIM_HOPS`] path entries: the oracle re-runs its quadratic solver
//! at every completion round, which at n = 1024 with n/2-hop paths takes
//! seconds per input in a debug build.

use aps_sim::fluid::reference::{max_min_rates_reference, simulate_flows_reference};
use aps_sim::fluid::{max_min_rates, simulate_flows, FlowSpec};

/// 100 Gb/s in bytes per second, on every ring link.
const CAP: f64 = 12.5e9;
const MIB: f64 = 1024.0 * 1024.0;
/// Largest total path length on which the simulations are compared.
const MAX_SIM_HOPS: usize = 1 << 16;

/// The path from `src` to `dst` on a unidirectional n-ring whose link `l`
/// runs from node `l` to node `l + 1`.
fn ring_path(n: usize, src: usize, dst: usize) -> Vec<usize> {
    let hops = (dst + n - src) % n;
    (0..hops).map(|h| (src + h) % n).collect()
}

/// Every node sends `bytes` to the node `k` hops downstream.
fn shift_flows(n: usize, k: usize, bytes: f64) -> Vec<FlowSpec> {
    (0..n)
        .map(|src| FlowSpec {
            bytes,
            path: ring_path(n, src, (src + k) % n),
        })
        .collect()
}

/// SplitMix64: a self-contained seeded stream, so the inputs are fixed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random permutation on the ring, each flow 1, 2 or 4 MiB.
/// Fixed points give empty-path flows, which ride along.
fn permutation_flows(n: usize, seed: u64) -> Vec<FlowSpec> {
    let mut state = seed;
    let mut dst: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        dst.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
    }
    dst.iter()
        .enumerate()
        .map(|(src, &d)| FlowSpec {
            bytes: MIB * (1u64 << (next(&mut state) % 3)) as f64,
            path: ring_path(n, src, d),
        })
        .collect()
}

fn assert_rates_match(n: usize, specs: &[FlowSpec], label: &str) {
    let caps = vec![CAP; n];
    let paths: Vec<&[usize]> = specs.iter().map(|s| s.path.as_slice()).collect();
    let rates = max_min_rates(&caps, &paths);
    let oracle = max_min_rates_reference(&caps, &paths);
    assert_eq!(rates.len(), oracle.len(), "{label}");
    for (i, (r, o)) in rates.iter().zip(&oracle).enumerate() {
        assert_eq!(
            r.to_bits(),
            o.to_bits(),
            "{label}: flow {i} rate {r} vs reference {o}"
        );
    }
}

/// Compares the rate allocation, and the simulation if it is small enough.
fn assert_engines_match(n: usize, specs: &[FlowSpec], label: &str) {
    assert_rates_match(n, specs, label);
    if specs.iter().map(|s| s.path.len()).sum::<usize>() <= MAX_SIM_HOPS {
        assert_finish_matches(n, specs, label);
    }
}

fn assert_finish_matches(n: usize, specs: &[FlowSpec], label: &str) {
    let caps = vec![CAP; n];
    let finish = simulate_flows(&caps, specs);
    let oracle = simulate_flows_reference(&caps, specs);
    assert_eq!(finish.len(), oracle.len(), "{label}");
    for (i, (f, o)) in finish.iter().zip(&oracle).enumerate() {
        assert_eq!(
            f.to_bits(),
            o.to_bits(),
            "{label}: flow {i} finish {f} vs reference {o}"
        );
    }
}

#[test]
fn shift_flows_on_equal_rings_match_the_oracle_bitwise() {
    for n in [64, 256, 1024] {
        for k in [1, 3, n / 2] {
            let specs = shift_flows(n, k, MIB);
            let label = format!("n={n} shift={k}");
            assert_engines_match(n, &specs, &label);
        }
    }
}

#[test]
fn random_permutations_with_mixed_volumes_match_the_oracle_bitwise() {
    for n in [64, 256, 1024] {
        for seed in [1, 2, 3] {
            let specs = permutation_flows(n, seed);
            let label = format!("n={n} permutation seed={seed}");
            assert_engines_match(n, &specs, &label);
        }
    }
}
