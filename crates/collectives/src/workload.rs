//! Streaming workloads: lazily-pulled demand for open-ended runs.
//!
//! A [`Schedule`] is a *materialized* demand: every step resident in memory
//! before the first simulated picosecond. Real scale-up domains see
//! open-ended demand — epoch-looped DNN training, bursty permutation
//! traffic, parameter-server incast — whose step streams are unbounded or
//! too long to precompute. The [`Workload`] trait is the lazy face of the
//! same `⟨(M₁, m₁), …⟩` model: a seeded, deterministic stream of [`Step`]s
//! pulled one at a time, so executors run million-step (or endless)
//! workloads in O(1) schedule memory.
//!
//! * [`ScheduleStream`] makes every materialized [`Schedule`] a workload
//!   (the trivial impl — see [`Schedule::into_workload`] /
//!   [`Schedule::stream`]).
//! * Combinators compose workloads without materializing them:
//!   [`Workload::then`], [`Workload::repeat`] / [`Workload::loop_epochs`],
//!   [`Workload::interleave`], [`Workload::scaled`], and [`Overlay`] for
//!   concurrent jobs on disjoint port partitions.
//! * [`generators`] ships lazy demand sources: a pipeline-parallel
//!   training loop, parameter-server incast, seeded random-permutation
//!   traffic and on/off bursty uniform traffic.
//! * [`materialize`] drains a (bounded prefix of a) workload back into a
//!   [`Schedule`] for planners that need the whole problem.
//!
//! Determinism contract: a workload is a pure function of its construction
//! arguments (including any RNG seed) and the pull sequence. After
//! [`Workload::reset`] the stream replays bit-identically, on any thread
//! and at any `APS_THREADS` setting — generators hold their own
//! [`rand::StdRng`] and never consult ambient state.

use crate::error::CollectiveError;
use crate::schedule::{CollectiveKind, Schedule, Step};
use aps_matrix::{Matching, MatrixError};
use std::borrow::Borrow;
use std::collections::VecDeque;

pub mod arrivals;
pub mod generators;

/// Context handed to a workload at each pull. Carries the executor-side
/// view of the stream; extend-only (`#[non_exhaustive]`), so new context
/// (e.g. simulated time) can be added without breaking workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkloadCtx {
    /// Global index of the step being pulled (0-based).
    pub step: usize,
}

impl WorkloadCtx {
    /// Context for pulling global step `step`.
    pub fn at(step: usize) -> Self {
        Self { step }
    }
}

/// A lazily-pulled stream of demand steps — the open, object-safe
/// counterpart of [`Schedule`].
///
/// Implementations must be deterministic: the same construction arguments
/// and pull sequence always yield the same steps, and [`Workload::reset`]
/// rewinds to the initial state so the stream replays bit-identically.
/// Every yielded step must span exactly [`Workload::n`] nodes and carry a
/// finite, non-negative volume (executors validate and reject violations).
pub trait Workload: Send {
    /// Number of participating nodes, fixed for the workload's lifetime.
    fn n(&self) -> usize;

    /// Human-readable name (used in traces, benches and reports).
    fn name(&self) -> &str;

    /// The collective operation the stream implements;
    /// [`CollectiveKind::Composite`] for mixes.
    fn kind(&self) -> CollectiveKind {
        CollectiveKind::Composite
    }

    /// Pulls the next step *into* a caller-owned buffer; `false` means the
    /// stream is exhausted (and `out` is left untouched).
    ///
    /// The one pull every source implements, and the zero-allocation
    /// streaming hook: executors keep one long-lived [`Step`] and recycle
    /// its matching buffer across pulls. Sources whose steps live in
    /// stable storage (e.g. [`ScheduleStream`], `TrainingLoop`) fill it
    /// with a [`Clone::clone_from`] copy so a steady-state pull never
    /// allocates, and the combinators forward it so that copy is reached
    /// through arbitrarily nested compositions.
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool;

    /// Pulls the next step as a fresh value; `None` means the stream is
    /// exhausted. Returns the step [`Workload::next_step_into`] fills in.
    fn next_step(&mut self, ctx: &WorkloadCtx) -> Option<Step> {
        let mut step = Step::empty();
        self.next_step_into(ctx, &mut step).then_some(step)
    }

    /// Bounds on the number of steps *remaining*: `(lower, upper)`, with
    /// `None` meaning unbounded or unknown. Exact streams report
    /// `(k, Some(k))`; executors use the upper bound to refuse to
    /// materialize endless workloads.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Rewinds the stream to its initial state for a bit-identical replay.
    fn reset(&mut self);

    /// Sequential composition: `self`'s steps, then `other`'s.
    ///
    /// # Errors
    ///
    /// Rejects node-count mismatches.
    fn then<W: Workload>(self, other: W) -> Result<Then<Self, W>, CollectiveError>
    where
        Self: Sized,
    {
        Then::new(self, other)
    }

    /// Repeats the stream `epochs` times, [`reset`](Workload::reset)ting
    /// between epochs.
    fn repeat(self, epochs: usize) -> Repeat<Self>
    where
        Self: Sized,
    {
        Repeat::new(self, Some(epochs))
    }

    /// [`Workload::repeat`] under its training-loop name.
    fn loop_epochs(self, epochs: usize) -> Repeat<Self>
    where
        Self: Sized,
    {
        self.repeat(epochs)
    }

    /// Repeats the stream endlessly — an unbounded workload
    /// (`size_hint` upper bound `None`).
    fn repeat_forever(self) -> Repeat<Self>
    where
        Self: Sized,
    {
        Repeat::new(self, None)
    }

    /// Round-robin interleaving: one step from `self`, one from `other`,
    /// …; when either exhausts, the survivor continues alone.
    ///
    /// # Errors
    ///
    /// Rejects node-count mismatches.
    fn interleave<W: Workload>(self, other: W) -> Result<Interleave<Self, W>, CollectiveError>
    where
        Self: Sized,
    {
        Interleave::new(self, other)
    }

    /// Scales every step's volume by `factor` (message-size what-ifs
    /// without rebuilding the source).
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative factors.
    fn scaled(self, factor: f64) -> Result<Scaled<Self>, CollectiveError>
    where
        Self: Sized,
    {
        Scaled::new(self, factor)
    }
}

/// Every `Box<dyn Workload>` is itself a workload, so combinators and
/// executors compose over heterogeneous sources.
impl Workload for Box<dyn Workload> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn kind(&self) -> CollectiveKind {
        (**self).kind()
    }
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        (**self).next_step_into(ctx, out)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// Drains up to `limit` steps of `workload` (from its *current* position)
/// into a materialized [`Schedule`] — the bridge back to planners that
/// need the whole eq. (7) problem at once.
///
/// # Errors
///
/// [`CollectiveError::WorkloadTooLong`] when the stream yields more than
/// `limit` steps; schedule validation errors for malformed steps.
pub fn materialize(workload: &mut dyn Workload, limit: usize) -> Result<Schedule, CollectiveError> {
    let (lo, _) = workload.size_hint();
    let mut steps = Vec::with_capacity(lo.min(limit));
    while let Some(step) = workload.next_step(&WorkloadCtx::at(steps.len())) {
        if steps.len() >= limit {
            return Err(CollectiveError::WorkloadTooLong { limit });
        }
        steps.push(step);
    }
    Schedule::new(workload.n(), workload.kind(), workload.name(), steps)
}

/// A cursor streaming a materialized [`Schedule`]'s steps — the trivial
/// [`Workload`] impl. Generic over ownership: `ScheduleStream<Schedule>`
/// owns its schedule (boxable, `'static`), `ScheduleStream<&Schedule>`
/// borrows it (what the executors use internally).
#[derive(Debug, Clone)]
pub struct ScheduleStream<S = Schedule> {
    schedule: S,
    pos: usize,
}

impl<S: Borrow<Schedule>> ScheduleStream<S> {
    /// A fresh cursor at the schedule's first step.
    pub fn new(schedule: S) -> Self {
        Self { schedule, pos: 0 }
    }

    /// The underlying materialized schedule.
    pub fn schedule(&self) -> &Schedule {
        self.schedule.borrow()
    }
}

impl<S: Borrow<Schedule> + Send> Workload for ScheduleStream<S> {
    fn n(&self) -> usize {
        self.schedule().n()
    }

    fn name(&self) -> &str {
        self.schedule().algorithm()
    }

    fn kind(&self) -> CollectiveKind {
        self.schedule().kind()
    }

    fn next_step_into(&mut self, _ctx: &WorkloadCtx, out: &mut Step) -> bool {
        match self.schedule().steps().get(self.pos) {
            Some(step) => {
                out.clone_from(step);
                self.pos += 1;
                true
            }
            None => false,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.schedule().num_steps() - self.pos;
        (left, Some(left))
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

impl Schedule {
    /// Consumes the schedule into an owning stream cursor (the
    /// [`Workload`] face of a materialized schedule).
    pub fn into_workload(self) -> ScheduleStream {
        ScheduleStream::new(self)
    }

    /// A borrowing stream cursor over the schedule's steps.
    pub fn stream(&self) -> ScheduleStream<&Schedule> {
        ScheduleStream::new(self)
    }
}

/// Sequential composition of two workloads (see [`Workload::then`]).
#[derive(Debug, Clone)]
pub struct Then<A, B> {
    first: A,
    second: B,
    in_second: bool,
    name: String,
}

impl<A: Workload, B: Workload> Then<A, B> {
    /// Composes `first` then `second`. The composite name is formatted
    /// once here (construction-time, O(accumulated name length) per
    /// link); for very deep sequential chains of *materialized*
    /// schedules, [`Schedule::then`] appends in place and is the cheaper
    /// spelling.
    ///
    /// # Errors
    ///
    /// Rejects node-count mismatches.
    pub fn new(first: A, second: B) -> Result<Self, CollectiveError> {
        if first.n() != second.n() {
            return Err(CollectiveError::Matrix(MatrixError::DimensionMismatch {
                left: first.n(),
                right: second.n(),
            }));
        }
        let name = format!("{}+{}", first.name(), second.name());
        Ok(Self {
            first,
            second,
            in_second: false,
            name,
        })
    }
}

impl<A: Workload, B: Workload> Workload for Then<A, B> {
    fn n(&self) -> usize {
        self.first.n()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        if !self.in_second {
            if self.first.next_step_into(ctx, out) {
                return true;
            }
            self.in_second = true;
        }
        self.second.next_step_into(ctx, out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (al, au) = if self.in_second {
            (0, Some(0))
        } else {
            self.first.size_hint()
        };
        let (bl, bu) = self.second.size_hint();
        (al + bl, au.zip(bu).map(|(a, b)| a + b))
    }

    fn reset(&mut self) {
        self.first.reset();
        self.second.reset();
        self.in_second = false;
    }
}

/// Epoch looping of a workload (see [`Workload::repeat`]).
#[derive(Debug, Clone)]
pub struct Repeat<W> {
    inner: W,
    epochs: Option<usize>,
    /// Epochs fully replayed so far.
    done: usize,
    /// Whether the epoch currently draining has yielded any step — an
    /// epoch that drains without yielding proves the inner workload is
    /// empty, so the repeat terminates instead of spinning (size hints
    /// may be inexact, so this cannot rely on them).
    yielded: bool,
    /// Steps one epoch yields, exact when known at construction.
    per_epoch: Option<usize>,
    name: String,
}

impl<W: Workload> Repeat<W> {
    fn new(inner: W, epochs: Option<usize>) -> Self {
        let (lo, hi) = inner.size_hint();
        let per_epoch = hi.filter(|&h| h == lo);
        let name = match epochs {
            Some(k) => format!("repeat({k}, {})", inner.name()),
            None => format!("repeat(∞, {})", inner.name()),
        };
        Self {
            inner,
            epochs,
            done: 0,
            yielded: false,
            per_epoch,
            name,
        }
    }
}

impl<W: Workload> Workload for Repeat<W> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        loop {
            if self.epochs.is_some_and(|k| self.done >= k) {
                return false;
            }
            if self.inner.next_step_into(ctx, out) {
                self.yielded = true;
                return true;
            }
            // One epoch drained: rewind and account for it. An epoch
            // that yielded nothing proves the inner workload is empty —
            // every further epoch would be empty too, so stop rather
            // than spin (size hints may be inexact).
            self.done += 1;
            if !self.yielded {
                return false;
            }
            self.inner.reset();
            self.yielded = false;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        match self.epochs {
            None => (lo, None),
            Some(k) => {
                let left_epochs = k.saturating_sub(self.done).saturating_sub(1);
                match (self.per_epoch, hi) {
                    _ if k <= self.done => (0, Some(0)),
                    (Some(per), Some(h)) if h == lo => {
                        let total = lo + left_epochs * per;
                        (total, Some(total))
                    }
                    (Some(per), _) => (lo, hi.map(|h| h + left_epochs * per)),
                    (None, _) => (lo, None),
                }
            }
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.done = 0;
        self.yielded = false;
    }
}

/// Round-robin interleaving of two workloads (see
/// [`Workload::interleave`]).
#[derive(Debug, Clone)]
pub struct Interleave<A, B> {
    a: A,
    b: B,
    /// Pull from `b` next (when both are live).
    b_turn: bool,
    name: String,
}

impl<A: Workload, B: Workload> Interleave<A, B> {
    /// Interleaves `a` and `b`, starting with `a`.
    ///
    /// # Errors
    ///
    /// Rejects node-count mismatches.
    pub fn new(a: A, b: B) -> Result<Self, CollectiveError> {
        if a.n() != b.n() {
            return Err(CollectiveError::Matrix(MatrixError::DimensionMismatch {
                left: a.n(),
                right: b.n(),
            }));
        }
        let name = format!("interleave({}, {})", a.name(), b.name());
        Ok(Self {
            a,
            b,
            b_turn: false,
            name,
        })
    }
}

impl<A: Workload, B: Workload> Workload for Interleave<A, B> {
    fn n(&self) -> usize {
        self.a.n()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        let first_b = self.b_turn;
        self.b_turn = !self.b_turn;
        if first_b {
            return self.b.next_step_into(ctx, out) || self.a.next_step_into(ctx, out);
        }
        self.a.next_step_into(ctx, out) || self.b.next_step_into(ctx, out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (al, au) = self.a.size_hint();
        let (bl, bu) = self.b.size_hint();
        (al + bl, au.zip(bu).map(|(x, y)| x + y))
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
        self.b_turn = false;
    }
}

/// Volume scaling of a workload (see [`Workload::scaled`]).
#[derive(Debug, Clone)]
pub struct Scaled<W> {
    inner: W,
    factor: f64,
    name: String,
}

impl<W: Workload> Scaled<W> {
    /// Scales every step of `inner` by `factor`.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative factors.
    pub fn new(inner: W, factor: f64) -> Result<Self, CollectiveError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(CollectiveError::BadMessageSize(factor));
        }
        let name = format!("scaled({factor}, {})", inner.name());
        Ok(Self {
            inner,
            factor,
            name,
        })
    }
}

impl<W: Workload> Workload for Scaled<W> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> CollectiveKind {
        self.inner.kind()
    }

    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        if self.inner.next_step_into(ctx, out) {
            out.bytes_per_pair *= self.factor;
            true
        } else {
            false
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// One job of an [`Overlay`]: a workload embedded on a subset of the
/// domain's global ports (local rank `i` ↔ `ports[i]`).
struct OverlayJob {
    ports: Vec<usize>,
    workload: Box<dyn Workload>,
    done: bool,
}

/// Concurrent jobs on disjoint port partitions of one domain, overlaid
/// into a single stream. Each *round* pulls one step from every live job;
/// steps whose volumes are equal merge into one step (their matchings
/// live on disjoint ports, so the union is a matching — the jobs truly
/// run concurrently), while unequal volumes stay separate steps, emitted
/// in job order. Deterministic: job order and grouping are fixed by the
/// construction order.
///
/// The streaming counterpart of the multi-tenant executor's port
/// partitioning — useful when several jobs should be *scheduled as one
/// demand stream* rather than arbitrated as separate tenants.
pub struct Overlay {
    n: usize,
    jobs: Vec<OverlayJob>,
    buffer: VecDeque<Step>,
    name: String,
}

impl Overlay {
    /// Overlays `jobs` — `(global ports, workload)` pairs — onto an
    /// `n`-port domain.
    ///
    /// # Errors
    ///
    /// Rejects empty job lists, port lists whose length differs from the
    /// job's node count, out-of-range ports, and ports claimed twice.
    pub fn new(
        n: usize,
        jobs: Vec<(Vec<usize>, Box<dyn Workload>)>,
    ) -> Result<Self, CollectiveError> {
        if jobs.is_empty() {
            return Err(CollectiveError::TooFewNodes { n: 0, min: 1 });
        }
        let mut owned = vec![false; n];
        for (ports, workload) in &jobs {
            if ports.len() != workload.n() {
                return Err(CollectiveError::Matrix(MatrixError::DimensionMismatch {
                    left: ports.len(),
                    right: workload.n(),
                }));
            }
            for &p in ports {
                if p >= n {
                    return Err(CollectiveError::Matrix(MatrixError::EndpointOutOfRange {
                        endpoint: p,
                        n,
                    }));
                }
                if owned[p] {
                    return Err(CollectiveError::Matrix(MatrixError::DuplicateSender(p)));
                }
                owned[p] = true;
            }
        }
        let name = format!(
            "overlay({})",
            jobs.iter()
                .map(|(_, w)| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Ok(Self {
            n,
            jobs: jobs
                .into_iter()
                .map(|(ports, workload)| OverlayJob {
                    ports,
                    workload,
                    done: false,
                })
                .collect(),
            buffer: VecDeque::new(),
            name,
        })
    }

    /// Pulls one round — a step from every live job — merging
    /// equal-volume steps, and queues the result.
    fn pull_round(&mut self, ctx: &WorkloadCtx) {
        // (bytes, merged global pairs), in order of first appearance.
        let mut groups: Vec<(f64, Vec<(usize, usize)>)> = Vec::new();
        for job in &mut self.jobs {
            if job.done {
                continue;
            }
            let Some(step) = job.workload.next_step(ctx) else {
                job.done = true;
                continue;
            };
            let pairs: Vec<(usize, usize)> = step
                .matching
                .pairs()
                .map(|(s, d)| (job.ports[s], job.ports[d]))
                .collect();
            match groups.iter_mut().find(|(b, _)| *b == step.bytes_per_pair) {
                Some((_, g)) => g.extend(pairs),
                None => groups.push((step.bytes_per_pair, pairs)),
            }
        }
        for (bytes, pairs) in groups {
            let matching = Matching::from_pairs(self.n, &pairs)
                .expect("disjoint job partitions keep the union a matching");
            self.buffer.push_back(Step {
                matching,
                bytes_per_pair: bytes,
            });
        }
    }
}

impl Workload for Overlay {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        while self.buffer.is_empty() && self.jobs.iter().any(|j| !j.done) {
            self.pull_round(ctx);
        }
        self.buffer.pop_front().map(|step| *out = step).is_some()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Rounds merge at least down to one step per round and at most
        // keep every constituent step separate.
        let mut lo = self.buffer.len();
        let mut hi = Some(self.buffer.len());
        for job in &self.jobs {
            if job.done {
                continue;
            }
            let (jl, jh) = job.workload.size_hint();
            // A job with jl steps forces at least … nothing alone (it may
            // fully merge into others' rounds), but the longest job's
            // count lower-bounds the rounds.
            lo = lo.max(jl);
            hi = hi.zip(jh).map(|(a, b)| a + b);
        }
        (lo, hi)
    }

    fn reset(&mut self) {
        for job in &mut self.jobs {
            job.workload.reset();
            job.done = false;
        }
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce;

    fn sched(n: usize, steps: usize, bytes: f64) -> Schedule {
        let step = Step {
            matching: Matching::shift(n, 1).unwrap(),
            bytes_per_pair: bytes,
        };
        Schedule::new(n, CollectiveKind::AllGather, "ring", vec![step; steps]).unwrap()
    }

    #[test]
    fn schedule_stream_replays_its_schedule() {
        let s = allreduce::halving_doubling::build(8, 1e6).unwrap().schedule;
        let mut w = s.stream();
        assert_eq!(w.n(), 8);
        assert_eq!(w.kind(), s.kind());
        assert_eq!(w.size_hint(), (s.num_steps(), Some(s.num_steps())));
        let m = materialize(&mut w, 1000).unwrap();
        assert_eq!(m.steps(), s.steps());
        assert_eq!(w.size_hint(), (0, Some(0)));
        w.reset();
        assert_eq!(materialize(&mut w, 1000).unwrap().steps(), s.steps());
        // Owning variant is equivalent.
        let mut owned = s.clone().into_workload();
        assert_eq!(materialize(&mut owned, 1000).unwrap().steps(), s.steps());
    }

    #[test]
    fn materialize_enforces_its_limit() {
        let mut w = sched(4, 10, 1.0).into_workload();
        assert!(matches!(
            materialize(&mut w, 9),
            Err(CollectiveError::WorkloadTooLong { limit: 9 })
        ));
        w.reset();
        assert_eq!(materialize(&mut w, 10).unwrap().num_steps(), 10);
    }

    #[test]
    fn then_concatenates_and_checks_n() {
        let a = sched(4, 2, 1.0).into_workload();
        let b = sched(4, 3, 2.0).into_workload();
        let mut w = a.then(b).unwrap();
        assert_eq!(w.size_hint(), (5, Some(5)));
        let m = materialize(&mut w, 100).unwrap();
        assert_eq!(m.num_steps(), 5);
        assert_eq!(m.steps()[0].bytes_per_pair, 1.0);
        assert_eq!(m.steps()[4].bytes_per_pair, 2.0);
        assert_eq!(m.algorithm(), "ring+ring");
        w.reset();
        assert_eq!(materialize(&mut w, 100).unwrap().steps(), m.steps());
        let bad = sched(6, 1, 1.0).into_workload();
        assert!(sched(4, 1, 1.0).into_workload().then(bad).is_err());
    }

    #[test]
    fn repeat_loops_epochs_and_hints_exactly() {
        let mut w = sched(4, 3, 1.0).into_workload().repeat(4);
        assert_eq!(w.size_hint(), (12, Some(12)));
        let m = materialize(&mut w, 100).unwrap();
        assert_eq!(m.num_steps(), 12);
        assert_eq!(w.size_hint(), (0, Some(0)));
        w.reset();
        assert_eq!(w.size_hint(), (12, Some(12)));
        // Partially drained: the hint tracks the remainder.
        w.next_step(&WorkloadCtx::at(0)).unwrap();
        assert_eq!(w.size_hint(), (11, Some(11)));
        // loop_epochs is the same combinator.
        let mut e = sched(4, 3, 1.0).into_workload().loop_epochs(2);
        assert_eq!(materialize(&mut e, 100).unwrap().num_steps(), 6);
    }

    #[test]
    fn repeat_forever_is_unbounded_but_lazy() {
        let mut w = sched(2, 2, 1.0).into_workload().repeat_forever();
        assert_eq!(w.size_hint().1, None);
        for i in 0..1000 {
            assert!(w.next_step(&WorkloadCtx::at(i)).is_some());
        }
        assert!(matches!(
            materialize(&mut w, 50),
            Err(CollectiveError::WorkloadTooLong { .. })
        ));
    }

    #[test]
    fn repeat_of_empty_workload_terminates() {
        let empty = Schedule::new(4, CollectiveKind::Barrier, "noop", vec![])
            .unwrap()
            .into_workload();
        let mut w = empty.repeat_forever();
        assert!(w.next_step(&WorkloadCtx::at(0)).is_none());

        // Same with a minimal custom impl that keeps the default
        // (inexact) size_hint: emptiness is detected from the drained
        // epoch itself, not from the hint.
        struct Empty;
        impl Workload for Empty {
            fn n(&self) -> usize {
                4
            }
            fn name(&self) -> &str {
                "empty"
            }
            fn next_step_into(&mut self, _: &WorkloadCtx, _: &mut Step) -> bool {
                false
            }
            fn reset(&mut self) {}
        }
        let mut w = Empty.repeat_forever();
        assert!(w.next_step(&WorkloadCtx::at(0)).is_none());
        let mut w = Empty.repeat(3);
        assert!(w.next_step(&WorkloadCtx::at(0)).is_none());
    }

    #[test]
    fn interleave_alternates_then_drains_the_survivor() {
        let a = sched(4, 2, 1.0).into_workload();
        let b = sched(4, 4, 2.0).into_workload();
        let mut w = a.interleave(b).unwrap();
        assert_eq!(w.size_hint(), (6, Some(6)));
        let vols: Vec<f64> = std::iter::from_fn(|| {
            w.next_step(&WorkloadCtx::default())
                .map(|s| s.bytes_per_pair)
        })
        .collect();
        assert_eq!(vols, vec![1.0, 2.0, 1.0, 2.0, 2.0, 2.0]);
        assert!(sched(4, 1, 1.0)
            .into_workload()
            .interleave(sched(8, 1, 1.0).into_workload())
            .is_err());
    }

    #[test]
    fn scaled_multiplies_volumes_only() {
        let mut w = sched(4, 3, 2.0).into_workload().scaled(1.5).unwrap();
        let m = materialize(&mut w, 10).unwrap();
        assert!(m.steps().iter().all(|s| s.bytes_per_pair == 3.0));
        assert_eq!(m.num_steps(), 3);
        assert!(sched(4, 1, 1.0).into_workload().scaled(f64::NAN).is_err());
        assert!(sched(4, 1, 1.0).into_workload().scaled(-1.0).is_err());
    }

    #[test]
    fn overlay_merges_equal_volumes_on_disjoint_ports() {
        let a = sched(4, 2, 1.0).into_workload(); // ports 0..4
        let b = sched(4, 2, 1.0).into_workload(); // ports 4..8
        let mut w = Overlay::new(
            8,
            vec![
                ((0..4).collect(), Box::new(a) as Box<dyn Workload>),
                ((4..8).collect(), Box::new(b)),
            ],
        )
        .unwrap();
        // Equal volumes merge: 2 rounds → 2 steps of 8 pairs each.
        let m = materialize(&mut w, 100).unwrap();
        assert_eq!(m.num_steps(), 2);
        for s in m.steps() {
            assert_eq!(s.matching.len(), 8);
            assert_eq!(s.bytes_per_pair, 1.0);
        }
        // Unequal volumes stay separate steps within the round.
        let a = sched(4, 1, 1.0).into_workload();
        let b = sched(4, 1, 2.0).into_workload();
        let mut w = Overlay::new(
            8,
            vec![
                ((0..4).collect(), Box::new(a) as Box<dyn Workload>),
                ((4..8).collect(), Box::new(b)),
            ],
        )
        .unwrap();
        let m = materialize(&mut w, 100).unwrap();
        assert_eq!(m.num_steps(), 2);
        assert_eq!(m.steps()[0].bytes_per_pair, 1.0);
        assert_eq!(m.steps()[1].bytes_per_pair, 2.0);
    }

    #[test]
    fn overlay_rejects_bad_partitions() {
        let mk = || Box::new(sched(4, 1, 1.0).into_workload()) as Box<dyn Workload>;
        assert!(Overlay::new(8, vec![]).is_err());
        // Port list length ≠ job node count.
        assert!(Overlay::new(8, vec![(vec![0, 1], mk())]).is_err());
        // Out of range.
        assert!(Overlay::new(8, vec![(vec![0, 1, 2, 9], mk())]).is_err());
        // Overlapping.
        assert!(Overlay::new(8, vec![((0..4).collect(), mk()), ((3..7).collect(), mk())]).is_err());
    }

    #[test]
    fn overlay_conserves_total_pair_bytes() {
        let a = allreduce::halving_doubling::build(4, 3e3).unwrap().schedule;
        let b = sched(4, 5, 7.0);
        let pair_bytes = |s: &Schedule| -> f64 {
            s.steps()
                .iter()
                .map(|st| st.bytes_per_pair * st.matching.len() as f64)
                .sum()
        };
        let want = pair_bytes(&a) + pair_bytes(&b);
        let mut w = Overlay::new(
            8,
            vec![
                (
                    (0..4).collect(),
                    Box::new(a.into_workload()) as Box<dyn Workload>,
                ),
                ((4..8).collect(), Box::new(b.into_workload())),
            ],
        )
        .unwrap();
        let m = materialize(&mut w, 1000).unwrap();
        assert!((pair_bytes(&m) - want).abs() < 1e-9);
        w.reset();
        let again = materialize(&mut w, 1000).unwrap();
        assert_eq!(m.steps(), again.steps());
    }

    #[test]
    fn boxed_workloads_compose() {
        let boxed: Box<dyn Workload> = Box::new(sched(4, 2, 1.0).into_workload());
        let mut w = boxed.repeat(3);
        assert_eq!(w.size_hint(), (6, Some(6)));
        assert_eq!(materialize(&mut w, 100).unwrap().num_steps(), 6);
    }
}
