//! Event-driven max-min fair fluid flow engine.
//!
//! Flows are fluids: each flow has a path and a remaining volume, link
//! capacity is shared by progressive filling (the classic max-min fair
//! allocation), and rates change only at flow completions — a textbook
//! flow-level network model. For a set of equal-volume flows whose worst
//! link has normalized load `L`, every flow crossing that link drains at
//! `cap/L` for the whole step, so the step's transfer time equals the
//! analytic `β·m·L` — the simulator-side face of the paper's
//! concurrent-flow congestion factor.
//!
//! ## The event engine
//!
//! The seed engine re-ran the full progressive-filling solver over *all*
//! links and *all* active flows after every completion —
//! `O(completions × bottlenecks × (links + flows·hops))`. This engine is
//! event-driven instead:
//!
//! * **completion events** drive the clock: each round advances time to
//!   the earliest candidate drain. Simultaneous completions are handled
//!   deterministically with stable flow-id ordering — the active list is
//!   kept ascending, completions are collected in that order, and the
//!   per-component solver's result does not depend on the order in which
//!   it freezes flows (invariant 3) — so results are identical on every
//!   run and at any `APS_THREADS` setting. (A
//!   *persistent* event queue would buy nothing here: bit-identity with
//!   the seed arithmetic, below, requires re-materializing every flow's
//!   remaining volume — and hence every candidate event — each round.);
//! * rates are recomputed **incrementally**: when flows finish, only the
//!   links whose user sets changed — the connected sharing component(s) of
//!   the departed flows — are re-solved. Flows in untouched components keep
//!   their cached rates and bottleneck levels, so the solver drops out of
//!   the per-event cost for everything the completion didn't touch;
//! * each solve is **sub-quadratic**: the next bottleneck comes off an
//!   indexed min-heap of links, and a round freezes flows through the
//!   link→flows index and re-keys only the links on their paths. A solve
//!   over `L` links and `Σhops` path entries costs
//!   `O(L + Σhops·log L)`, where the seed's linear scans cost
//!   `O(rounds·(L + Σhops))` with rounds ≈ `L`.
//!
//! ## Incremental-recompute invariants
//!
//! The component-level caching is exact, not approximate, because the
//! max-min allocation decomposes over the connected components of the
//! flow/link sharing graph:
//!
//! 1. **Isolation** — a link's residual capacity is only ever reduced by
//!    flows crossing it, and those flows are by definition in the link's
//!    component. Solving a component alone therefore performs *bitwise*
//!    the same arithmetic the global solver would perform on it.
//! 2. **Restriction** — the global progressive-filling bottleneck sequence,
//!    restricted to one component, equals the component-local bottleneck
//!    sequence: picking a bottleneck in another component touches neither
//!    this component's residual capacities nor its user counts.
//! 3. **Stable order** — the bottleneck is the heap minimum under the key
//!    `(fair share, link id)`, which is exactly the link the seed's
//!    ascending-id scan picks as its first strict minimum, so ties break
//!    identically. The order in which a round's flows freeze does not
//!    matter: each applies the same `(cap_left - fair).max(0.0)` to its
//!    links, so every link ends the round with the same bits.
//!
//! Together these make the event engine **bit-identical** to the seed
//! from-scratch engine (kept with its own solver as [`mod@reference`]):
//! every f64 operation is the seed's, and per round the engine
//! advances `t += dt` with `dt` drawn from the earliest completion event
//! (equal to the fold-min the seed computed, since `min` over finite
//! floats is order-independent) and materializes every active flow's
//! remaining volume with the same `remaining -= rate·dt` update — only
//! the *solver* work is skipped for untouched components, and skipped
//! work is exactly the work whose results are unchanged.

use crate::arena::{FluidScratch, UNUSED};

/// One flow to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Volume in bytes.
    pub bytes: f64,
    /// Link ids along the path (must be non-empty for a real transfer).
    pub path: Vec<usize>,
}

/// Max-min fair rates for the given flows over links with `link_caps`
/// capacity, by progressive filling: repeatedly find the tightest link
/// (smallest fair share among links still carrying unfrozen flows, ties to
/// the lowest link id) and freeze every flow crossing it at that fair
/// share. Returns bytes-per-second per flow, in input order; a flow with an
/// empty path gets rate 0, and so does every user of a zero-capacity link.
///
/// The allocation is the unique max-min fair point: no link is
/// oversubscribed, and no flow's rate can be raised without lowering the
/// rate of a flow that is no faster (see `crates/sim/tests/maxmin.rs`).
/// It runs the event engine's kernel (`solve_subset`) on a fresh
/// [`FluidScratch`] holding every flow: O(L + Σhops·log L) for L used
/// links. Capacities must be non-negative and not NaN.
pub fn max_min_rates(link_caps: &[f64], paths: &[&[usize]]) -> Vec<f64> {
    let mut s = FluidScratch::new();
    s.start();
    for p in paths {
        for &l in *p {
            s.push_link(l);
        }
        s.seal_flow(0.0);
    }
    s.rates.resize(paths.len(), 0.0);
    s.active.extend(0..paths.len());
    solve_active(&mut s, link_caps);
    s.rates
}

/// Indexed binary min-heap over a solve's dense links, keyed by
/// `(fair share, dense index)`. Dense indices ascend with link id, so the
/// minimum is the link the seed solver's scan picked: the smallest fair
/// share, ties to the lowest link id. Keys compare with
/// [`f64::total_cmp`], which agrees with `<` on the non-negative,
/// non-NaN fair shares a solve produces.
///
/// Every buffer is O(links) and recycled across solves: the heap holds
/// exactly the links that still carry unfrozen flows (no stale entries),
/// and a link touched several times in one round is re-keyed once.
#[derive(Debug, Default)]
pub(crate) struct LinkHeap {
    /// Dense links in heap order; `heap[0]` is the next bottleneck.
    heap: Vec<usize>,
    /// Dense link → its position in `heap`; [`UNUSED`] once removed.
    pos: Vec<usize>,
    /// Fair share per dense link (`cap_left / users`): the heap key.
    fair: Vec<f64>,
    /// Dense links touched in the current round, each listed once.
    touched: Vec<usize>,
    /// Per dense link: already in `touched`.
    is_touched: Vec<bool>,
}

impl LinkHeap {
    /// Loads every dense link with key `cap_left[k] / users[k]` (all
    /// `users` must be positive) and heapifies in O(links).
    fn build(&mut self, cap_left: &[f64], users: &[usize]) {
        let n = cap_left.len();
        self.fair.clear();
        self.fair
            .extend(cap_left.iter().zip(users).map(|(&c, &u)| c / u as f64));
        self.heap.clear();
        self.heap.extend(0..n);
        self.pos.clear();
        self.pos.extend(0..n);
        self.touched.clear();
        self.is_touched.clear();
        self.is_touched.resize(n, false);
        for p in (0..n / 2).rev() {
            self.sift_down(p);
        }
    }

    /// The tightest link and its fair share, or `None` once every link's
    /// users are frozen.
    fn min(&self) -> Option<(usize, f64)> {
        self.heap.first().map(|&k| (k, self.fair[k]))
    }

    /// Notes that link `k`'s residual capacity or user count changed this
    /// round.
    fn touch(&mut self, k: usize) {
        if !self.is_touched[k] {
            self.is_touched[k] = true;
            self.touched.push(k);
        }
    }

    /// Ends a round: re-keys every touched link from its new residual
    /// capacity and user count, and removes those left without users.
    fn rekey_touched(&mut self, cap_left: &[f64], users: &[usize]) {
        for idx in 0..self.touched.len() {
            let k = self.touched[idx];
            self.is_touched[k] = false;
            if users[k] == 0 {
                self.remove(k);
            } else {
                self.fair[k] = cap_left[k] / users[k] as f64;
                let p = self.sift_up(self.pos[k]);
                self.sift_down(p);
            }
        }
        self.touched.clear();
    }

    fn remove(&mut self, k: usize) {
        let p = self.pos[k];
        self.pos[k] = UNUSED;
        let last = self.heap.pop().expect("a removed link is in the heap");
        if p < self.heap.len() {
            self.heap[p] = last;
            let p = self.sift_up(p);
            self.sift_down(p);
        }
    }

    fn less(&self, a: usize, b: usize) -> bool {
        self.fair[a]
            .total_cmp(&self.fair[b])
            .then(a.cmp(&b))
            .is_lt()
    }

    /// Moves the link at position `p` toward the root; returns its final
    /// position.
    fn sift_up(&mut self, mut p: usize) -> usize {
        let k = self.heap[p];
        while p > 0 {
            let parent = (p - 1) / 2;
            let q = self.heap[parent];
            if !self.less(k, q) {
                break;
            }
            self.heap[p] = q;
            self.pos[q] = p;
            p = parent;
        }
        self.heap[p] = k;
        self.pos[k] = p;
        p
    }

    /// Moves the link at position `p` toward the leaves.
    fn sift_down(&mut self, mut p: usize) {
        let k = self.heap[p];
        let n = self.heap.len();
        loop {
            let mut c = 2 * p + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && self.less(self.heap[c + 1], self.heap[c]) {
                c += 1;
            }
            let q = self.heap[c];
            if !self.less(q, k) {
                break;
            }
            self.heap[p] = q;
            self.pos[q] = p;
            p = c;
        }
        self.heap[p] = k;
        self.pos[k] = p;
    }
}

/// Re-solves max-min progressive filling restricted to `flows` (ascending
/// flow ids forming a union of sharing components), writing the new rates
/// into `s.rates` in place. Only links used by these flows are touched —
/// by the isolation invariant the result is bitwise what a full global
/// re-solve would assign them.
///
/// Each round takes the tightest link from [`LinkHeap`] and freezes the
/// unfrozen flows crossing it through `s.flows_of_link`, which must hold
/// exactly the active flows, so every flow on a link of `flows` is in
/// `flows`. Only links on the frozen flows' paths are re-keyed, so a solve
/// costs O(L + Σhops·log L) for L used links, not the seed scan's
/// O(rounds·(L + Σhops)).
///
/// `flows` is passed separately (typically `mem::take`n out of the scratch)
/// so the scratch's own buffers stay mutably borrowable; `s.slot` entries
/// are restored to [`UNUSED`] on exit, so no O(links) reset is ever needed.
fn solve_subset(s: &mut FluidScratch, caps: &[f64], flows: &[usize]) {
    let num_flows = s.path_off.len() - 1;
    if s.frozen.len() < num_flows {
        s.frozen.resize(num_flows, false);
    }
    for &i in flows {
        s.frozen[i] = false;
    }
    // Residual capacity and user count, only for links these flows use,
    // in a dense list sorted by link id so dense order is id order (the
    // heap's tie-break); `slot` maps link id → dense index.
    if s.slot.len() < caps.len() {
        s.slot.resize(caps.len(), UNUSED);
    }
    s.links.clear();
    for &i in flows {
        for h in s.path_off[i]..s.path_off[i + 1] {
            let l = s.path_data[h];
            if s.slot[l] == UNUSED {
                s.slot[l] = 0; // mark; real indices assigned after sorting
                s.links.push(l);
            }
        }
    }
    s.links.sort_unstable();
    for (k, &l) in s.links.iter().enumerate() {
        s.slot[l] = k;
    }
    s.cap_left.clear();
    for &l in &s.links {
        s.cap_left.push(caps[l]);
    }
    s.users.clear();
    s.users.resize(s.links.len(), 0);
    for &i in flows {
        for h in s.path_off[i]..s.path_off[i + 1] {
            s.users[s.slot[s.path_data[h]]] += 1;
        }
    }
    s.heap.build(&s.cap_left, &s.users);
    while let Some((top, fair)) = s.heap.min() {
        // Freeze every unfrozen flow crossing the bottleneck at `fair`.
        // Each subtracts the same `fair`, so the index's order is moot.
        let bottleneck = s.links[top];
        for j in 0..s.flows_of_link[bottleneck].len() {
            let i = s.flows_of_link[bottleneck][j];
            if s.frozen[i] {
                continue;
            }
            s.frozen[i] = true;
            s.rates[i] = fair;
            for h in s.path_off[i]..s.path_off[i + 1] {
                let d = s.slot[s.path_data[h]];
                s.cap_left[d] = (s.cap_left[d] - fair).max(0.0);
                s.users[d] -= 1;
                s.heap.touch(d);
            }
        }
        debug_assert_eq!(s.users[top], 0, "link→flows index out of sync");
        s.heap.rekey_touched(&s.cap_left, &s.users);
    }
    // Restore the slot map's "all UNUSED" invariant for the next solve.
    for idx in 0..s.links.len() {
        let l = s.links[idx];
        s.slot[l] = UNUSED;
    }
}

/// Builds the sharing index over `s.active` and solves every active flow.
fn solve_active(s: &mut FluidScratch, caps: &[f64]) {
    build_link_index(s, caps.len());
    // The active list is taken out and put back so the scratch stays
    // mutably borrowable — `mem::take` swaps in an unallocated empty Vec,
    // so this costs nothing on the heap.
    let all = std::mem::take(&mut s.active);
    solve_subset(s, caps, &all);
    s.active = all;
}

/// Computes the flows whose rates may change when `s.completed` depart:
/// the transitive closure, over the surviving active set, of link sharing
/// with the departed flows, written ascending into `s.affected_list`. BFS
/// over the incrementally-maintained link→flows index — the departed flows
/// must already have been removed from the index (the closure is over
/// survivors), which `simulate_flows_scratch` does at each round boundary.
fn affected_by(s: &mut FluidScratch, num_links: usize) {
    let num_flows = s.bytes.len();
    s.link_seen.clear();
    s.link_seen.resize(num_links, false);
    s.affected.clear();
    s.affected.resize(num_flows, false);
    s.frontier.clear();
    for idx in 0..s.completed.len() {
        let i = s.completed[idx];
        for h in s.path_off[i]..s.path_off[i + 1] {
            let l = s.path_data[h];
            if !s.link_seen[l] {
                s.link_seen[l] = true;
                s.frontier.push(l);
            }
        }
    }
    while let Some(l) = s.frontier.pop() {
        for k in 0..s.flows_of_link[l].len() {
            let i = s.flows_of_link[l][k];
            if !s.affected[i] {
                s.affected[i] = true;
                for h in s.path_off[i]..s.path_off[i + 1] {
                    let l2 = s.path_data[h];
                    if !s.link_seen[l2] {
                        s.link_seen[l2] = true;
                        s.frontier.push(l2);
                    }
                }
            }
        }
    }
    s.affected_list.clear();
    for idx in 0..s.active.len() {
        let i = s.active[idx];
        if s.affected[i] {
            s.affected_list.push(i);
        }
    }
}

/// Builds the link→flows sharing index from the current active set —
/// called exactly once per simulation; afterwards the index is maintained
/// incrementally as flows complete. (The pre-arena engine rebuilt it on
/// *every completion event*; [`FluidScratch::index_builds`] pins the fix.)
fn build_link_index(s: &mut FluidScratch, num_links: usize) {
    if s.flows_of_link.len() < num_links {
        s.flows_of_link.resize_with(num_links, Vec::new);
    }
    for bucket in &mut s.flows_of_link[..num_links] {
        bucket.clear();
    }
    for idx in 0..s.active.len() {
        let i = s.active[idx];
        for h in s.path_off[i]..s.path_off[i + 1] {
            let l = s.path_data[h];
            s.flows_of_link[l].push(i);
        }
    }
    s.note_index_build();
}

/// Simulates the flows loaded in `s` (via [`FluidScratch::start`] /
/// [`FluidScratch::push_link`] / [`FluidScratch::seal_flow`] or
/// [`FluidScratch::load_specs`]) to completion, writing per-flow finish
/// times in seconds into `s.finish` (transmission only — the caller adds
/// propagation). The zero-allocation core of [`simulate_flows`]: after
/// warm-up, a call touches no heap.
///
/// Zero-byte flows and empty-path flows finish at `t = 0`. Flows only
/// depart — the per-step model releases all of a step's flows together —
/// so every rate change is triggered by a completion event. (Departures do
/// *not* make individual rates monotone: a departure elsewhere in a
/// component can speed up a neighbor that then claims more of a shared
/// link. Only the minimum rate is non-decreasing, which is why the engine
/// re-solves whole sharing components rather than patching rates locally.)
///
/// # Panics
///
/// Panics if a path references an out-of-range link or a link capacity is
/// non-positive while used.
pub fn simulate_flows_scratch(link_caps_bytes_per_s: &[f64], s: &mut FluidScratch) {
    let caps = link_caps_bytes_per_s;
    let num_flows = s.bytes.len();
    for i in 0..num_flows {
        for h in s.path_off[i]..s.path_off[i + 1] {
            let l = s.path_data[h];
            assert!(l < caps.len(), "path references unknown link {l}");
            assert!(caps[l] > 0.0, "link {l} has no capacity");
        }
    }
    s.finish.clear();
    s.finish.resize(num_flows, 0.0);
    s.rates.clear();
    s.rates.resize(num_flows, 0.0);
    s.remaining.clear();
    s.remaining.extend_from_slice(&s.bytes);
    s.active.clear();
    for i in 0..num_flows {
        if s.bytes[i] > 0.0 && s.path_off[i + 1] > s.path_off[i] {
            s.active.push(i);
        }
    }
    // The sharing index is built once here and maintained incrementally
    // below; the initial allocation is one full solve.
    solve_active(s, caps);

    let mut t = 0.0f64;
    // Each round retires at least one flow: ≤ F rounds.
    while !s.active.is_empty() {
        debug_assert!(
            s.active.iter().all(|&i| s.rates[i] > 0.0),
            "active flow starved"
        );
        // Time of the earliest candidate completion. (Every candidate
        // changes every round — a by-product of the seed-identical
        // materialization below — so a persistent event queue has nothing
        // to cache; the plain minimum is the whole event selection. Which
        // flow attains it is irrelevant: all flows within ε of zero at
        // `t + dt` complete together, in ascending flow id, below.)
        let mut dt = f64::INFINITY;
        for idx in 0..s.active.len() {
            let i = s.active[idx];
            dt = dt.min(s.remaining[i] / s.rates[i]);
        }
        t += dt;
        // Materialize every active flow at the event time; flows at (or
        // numerically within ε of) zero remaining complete together. The
        // survivors fill the `still` generation, which then ping-pongs
        // with `active` — no per-round Vec is ever constructed.
        s.still.clear();
        s.completed.clear();
        for idx in 0..s.active.len() {
            let i = s.active[idx];
            s.remaining[i] -= s.rates[i] * dt;
            if s.remaining[i] <= 1e-9 * s.bytes[i].max(1.0) {
                s.finish[i] = t;
                s.completed.push(i);
            } else {
                s.still.push(i);
            }
        }
        std::mem::swap(&mut s.active, &mut s.still);
        if s.active.is_empty() {
            break;
        }
        // Retire the departures from the sharing index *before* the
        // closure walk: `affected_by` must see exactly the survivors.
        for idx in 0..s.completed.len() {
            let i = s.completed[idx];
            for h in s.path_off[i]..s.path_off[i + 1] {
                let l = s.path_data[h];
                let bucket = &mut s.flows_of_link[l];
                if let Some(pos) = bucket.iter().position(|&f| f == i) {
                    bucket.swap_remove(pos);
                }
            }
        }
        // Incremental re-solve: only the sharing components the departures
        // touched; everyone else keeps their cached bottleneck rate.
        affected_by(s, caps.len());
        if !s.affected_list.is_empty() {
            let aff = std::mem::take(&mut s.affected_list);
            solve_subset(s, caps, &aff);
            s.affected_list = aff;
        }
    }
}

/// Simulates the flows to completion; returns per-flow finish times in
/// seconds (transmission only — the caller adds propagation). The
/// materialized-spec face of [`simulate_flows_scratch`] — it builds a
/// fresh scratch per call, so hot paths that care about allocation load a
/// long-lived [`FluidScratch`] instead.
///
/// # Panics
///
/// Panics if a path references an out-of-range link or a link capacity is
/// non-positive while used.
pub fn simulate_flows(link_caps_bytes_per_s: &[f64], specs: &[FlowSpec]) -> Vec<f64> {
    let mut scratch = FluidScratch::new();
    scratch.load_specs(specs);
    simulate_flows_scratch(link_caps_bytes_per_s, &mut scratch);
    scratch.finish
}

pub mod reference {
    //! The seed from-scratch engine and its progressive-filling solver,
    //! kept verbatim as the differential oracle: it re-runs the full
    //! linear-scan solver over all links and all active flows after every
    //! completion. It shares no solver code with the parent module, whose
    //! event engine and [`super::max_min_rates`] must match it bit-for-bit
    //! (see `tests/fluid_differential.rs` and `tests/fluid_ties.rs` at the
    //! workspace root).

    use super::FlowSpec;

    /// Seed implementation of [`super::max_min_rates`]: each round scans
    /// every link for the smallest fair share (ties to the lowest link id)
    /// and every flow's path for the bottleneck —
    /// O(rounds·(links + Σhops)).
    pub fn max_min_rates_reference(link_caps: &[f64], paths: &[&[usize]]) -> Vec<f64> {
        let f = paths.len();
        let mut rates = vec![0.0f64; f];
        let mut frozen = vec![false; f];
        let mut cap_left = link_caps.to_vec();
        let mut link_users: Vec<usize> = vec![0; link_caps.len()];
        for p in paths {
            for &l in *p {
                link_users[l] += 1;
            }
        }
        loop {
            // Find the tightest link among those still carrying unfrozen flows.
            let mut best: Option<(usize, f64)> = None;
            for (l, &users) in link_users.iter().enumerate() {
                if users > 0 {
                    let fair = cap_left[l] / users as f64;
                    if best.is_none_or(|(_, b)| fair < b) {
                        best = Some((l, fair));
                    }
                }
            }
            let Some((bottleneck, fair)) = best else {
                break;
            };
            // Freeze every unfrozen flow crossing the bottleneck at `fair`.
            for (i, p) in paths.iter().enumerate() {
                if !frozen[i] && p.contains(&bottleneck) {
                    frozen[i] = true;
                    rates[i] = fair;
                    for &l in *p {
                        cap_left[l] = (cap_left[l] - fair).max(0.0);
                        link_users[l] -= 1;
                    }
                }
            }
        }
        rates
    }

    /// Seed implementation of [`super::simulate_flows`]: full max-min
    /// recompute at every completion.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range links or non-positive used capacities,
    /// exactly like the event engine.
    pub fn simulate_flows_reference(link_caps_bytes_per_s: &[f64], specs: &[FlowSpec]) -> Vec<f64> {
        for s in specs {
            for &l in &s.path {
                assert!(
                    l < link_caps_bytes_per_s.len(),
                    "path references unknown link {l}"
                );
                assert!(link_caps_bytes_per_s[l] > 0.0, "link {l} has no capacity");
            }
        }
        let mut finish = vec![0.0f64; specs.len()];
        let mut remaining: Vec<f64> = specs.iter().map(|s| s.bytes).collect();
        let mut active: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].bytes > 0.0 && !specs[i].path.is_empty())
            .collect();
        let mut t = 0.0f64;
        while !active.is_empty() {
            let paths: Vec<&[usize]> = active.iter().map(|&i| specs[i].path.as_slice()).collect();
            let rates = max_min_rates_reference(link_caps_bytes_per_s, &paths);
            debug_assert!(rates.iter().all(|&r| r > 0.0), "active flow starved");
            let dt = active
                .iter()
                .zip(&rates)
                .map(|(&i, &r)| remaining[i] / r)
                .fold(f64::INFINITY, f64::min);
            t += dt;
            let mut still = Vec::with_capacity(active.len());
            for (k, &i) in active.iter().enumerate() {
                remaining[i] -= rates[k] * dt;
                if remaining[i] <= 1e-9 * specs[i].bytes.max(1.0) {
                    finish[i] = t;
                } else {
                    still.push(i);
                }
            }
            active = still;
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::reference::simulate_flows_reference;
    use super::*;

    #[test]
    fn single_flow_drains_at_line_rate() {
        let finish = simulate_flows(
            &[100.0],
            &[FlowSpec {
                bytes: 50.0,
                path: vec![0],
            }],
        );
        assert!((finish[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Both flows share link 0 (cap 100); flow 1 is twice as large.
        // Phase 1: both at 50 B/s until flow 0 finishes at t=1 (50 B).
        // Phase 2: flow 1 alone at 100 B/s for remaining 50 B: t=1.5.
        let finish = simulate_flows(
            &[100.0],
            &[
                FlowSpec {
                    bytes: 50.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0],
                },
            ],
        );
        assert!((finish[0] - 1.0).abs() < 1e-9);
        assert!((finish[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_flow_constrained_elsewhere() {
        // Flow A uses links 0,1; flow B uses link 1 only. Link 0 cap 10,
        // link 1 cap 100. Max-min: A is frozen by link 0 at 10; B then gets
        // the rest of link 1: 90.
        let finish = simulate_flows(
            &[10.0, 100.0],
            &[
                FlowSpec {
                    bytes: 10.0,
                    path: vec![0, 1],
                },
                FlowSpec {
                    bytes: 90.0,
                    path: vec![1],
                },
            ],
        );
        assert!((finish[0] - 1.0).abs() < 1e-9);
        assert!((finish[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_ring_load_matches_analytic_theta() {
        // 4 equal flows, each crossing 2 of 4 ring links (shift-by-2-ish):
        // every link load 2, cap c → rate c/2 each, finish = m·2/c. This is
        // exactly β·m/θ with θ = c/2 normalized.
        let c = 100.0;
        let m = 200.0;
        let specs = vec![
            FlowSpec {
                bytes: m,
                path: vec![0, 1],
            },
            FlowSpec {
                bytes: m,
                path: vec![1, 2],
            },
            FlowSpec {
                bytes: m,
                path: vec![2, 3],
            },
            FlowSpec {
                bytes: m,
                path: vec![3, 0],
            },
        ];
        let finish = simulate_flows(&[c; 4], &specs);
        for f in finish {
            assert!((f - m * 2.0 / c).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_byte_and_empty_path_flows() {
        let finish = simulate_flows(
            &[10.0],
            &[
                FlowSpec {
                    bytes: 0.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 5.0,
                    path: vec![],
                },
                FlowSpec {
                    bytes: 10.0,
                    path: vec![0],
                },
            ],
        );
        assert_eq!(finish[0], 0.0);
        assert_eq!(finish[1], 0.0);
        assert!((finish[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_empty_active_set_yields_no_rates() {
        assert!(max_min_rates(&[10.0, 20.0], &[]).is_empty());
        // Links with no users are simply never bottlenecks.
        let rates = max_min_rates(&[10.0, 20.0], &[&[1][..]]);
        assert_eq!(rates, vec![20.0]);
    }

    #[test]
    fn max_min_zero_capacity_link_starves_its_flows_only() {
        // Flow 0 crosses the dead link and is frozen at rate 0; flow 1
        // still gets all of link 1. Termination is the real property under
        // test: the dead link must not spin the progressive-filling loop.
        let rates = max_min_rates(&[0.0, 100.0], &[&[0, 1][..], &[1][..]]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_flow_sharing_every_link_gets_the_global_bottleneck() {
        // Flow 0 crosses all three links; flows 1 and 2 each cross one.
        // Link 1 (cap 30) is the first bottleneck: both its users freeze at
        // 15. Flow 2 then takes what flow 0 left free on link 2.
        let rates = max_min_rates(&[100.0, 30.0, 40.0], &[&[0, 1, 2][..], &[1][..], &[2][..]]);
        assert!((rates[0] - 15.0).abs() < 1e-12);
        assert!((rates[1] - 15.0).abs() < 1e-12);
        assert!((rates[2] - 25.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_equal_flows_on_one_link_split_evenly() {
        let paths: Vec<&[usize]> = vec![&[0]; 4];
        let rates = max_min_rates(&[100.0], &paths);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_path_panics() {
        simulate_flows(
            &[10.0],
            &[FlowSpec {
                bytes: 1.0,
                path: vec![3],
            }],
        );
    }

    #[test]
    fn simultaneous_completions_finish_in_one_round() {
        // Two disjoint flows with identical drain times complete in the
        // same round at the same instant — the ascending-id scan makes
        // tie handling deterministic without any per-event ordering.
        let finish = simulate_flows(
            &[10.0, 10.0],
            &[
                FlowSpec {
                    bytes: 20.0,
                    path: vec![1],
                },
                FlowSpec {
                    bytes: 20.0,
                    path: vec![0],
                },
            ],
        );
        assert_eq!(finish[0].to_bits(), finish[1].to_bits());
        assert!((finish[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_components_keep_cached_rates() {
        // Flows 0,1 share link 0; flow 2 is alone on link 1. When flow 2
        // completes first nothing in component {0,1} changes; when flow 0
        // completes, flow 1 speeds up. The finish times pin all of it.
        let finish = simulate_flows(
            &[100.0, 100.0],
            &[
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 200.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 50.0,
                    path: vec![1],
                },
            ],
        );
        assert!((finish[2] - 0.5).abs() < 1e-9); // alone at 100 B/s
        assert!((finish[0] - 2.0).abs() < 1e-9); // 50 B/s until done
        assert!((finish[1] - 3.0).abs() < 1e-9); // 100 B left at full rate
    }

    #[test]
    fn transitive_sharing_is_one_component() {
        // 0 shares link0 with 1; 1 shares link1 with 2 — completing 0 must
        // re-solve 2 as well (its rate rises transitively).
        let finish = simulate_flows(
            &[90.0, 90.0],
            &[
                FlowSpec {
                    bytes: 45.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0, 1],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![1],
                },
            ],
        );
        let oracle = simulate_flows_reference(
            &[90.0, 90.0],
            &[
                FlowSpec {
                    bytes: 45.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0, 1],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![1],
                },
            ],
        );
        for (a, b) in finish.iter().zip(&oracle) {
            assert_eq!(a.to_bits(), b.to_bits(), "event {a} vs reference {b}");
        }
    }

    #[test]
    fn event_engine_matches_reference_bitwise_on_mixed_volumes() {
        // Heterogeneous volumes and overlapping ring arcs: several rounds,
        // several components merging and splitting.
        let caps = vec![100.0; 6];
        let specs: Vec<FlowSpec> = (0..9)
            .map(|i| FlowSpec {
                bytes: 10.0 + 37.0 * i as f64,
                path: (0..=(i % 4)).map(|h| (i + h) % 6).collect(),
            })
            .collect();
        let a = simulate_flows(&caps, &specs);
        let b = simulate_flows_reference(&caps, &specs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "event {x} vs reference {y}");
        }
    }

    #[test]
    fn link_index_is_built_exactly_once_per_simulation() {
        // The regression hook for the old per-completion rebuild: this
        // flow set completes in several distinct rounds (staggered
        // volumes on one shared link), yet the link→flows index must be
        // constructed once per call — completions maintain it
        // incrementally.
        let caps = vec![100.0; 3];
        let specs: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec {
                bytes: 50.0 * (i + 1) as f64,
                path: vec![i % 3, (i + 1) % 3],
            })
            .collect();
        let mut s = FluidScratch::new();
        assert_eq!(s.index_builds(), 0);
        for round in 1..=4u64 {
            s.load_specs(&specs);
            simulate_flows_scratch(&caps, &mut s);
            assert_eq!(
                s.index_builds(),
                round,
                "one index build per simulation, even with multiple \
                 completion rounds"
            );
        }
    }

    #[test]
    fn recycled_scratch_is_bit_identical_to_fresh_scratch() {
        // Arena reuse must be invisible: running flow set B in a scratch
        // warmed by flow set A gives bitwise the same finish times as a
        // fresh scratch — stale capacity, slot maps, and index buckets
        // from A must not leak into B.
        let caps_a = vec![100.0; 6];
        let specs_a: Vec<FlowSpec> = (0..9)
            .map(|i| FlowSpec {
                bytes: 10.0 + 37.0 * i as f64,
                path: (0..=(i % 4)).map(|h| (i + h) % 6).collect(),
            })
            .collect();
        // B is smaller in every dimension (fewer links, fewer flows,
        // shorter paths) so every buffer must correctly shrink its live
        // region while keeping capacity.
        let caps_b = vec![40.0, 70.0];
        let specs_b = vec![
            FlowSpec {
                bytes: 30.0,
                path: vec![0, 1],
            },
            FlowSpec {
                bytes: 80.0,
                path: vec![1],
            },
        ];
        let mut warmed = FluidScratch::new();
        warmed.load_specs(&specs_a);
        simulate_flows_scratch(&caps_a, &mut warmed);
        warmed.load_specs(&specs_b);
        simulate_flows_scratch(&caps_b, &mut warmed);
        let fresh = simulate_flows(&caps_b, &specs_b);
        for (i, fresh_finish) in fresh.iter().enumerate() {
            assert_eq!(
                warmed.finish_of(i).to_bits(),
                fresh_finish.to_bits(),
                "recycled scratch diverged on flow {i}"
            );
        }
    }
}
