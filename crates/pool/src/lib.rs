//! # emblookup-pool
//!
//! A persistent work-stealing compute pool built on std primitives only —
//! the shared parallel substrate behind bulk embedding, bulk lookup,
//! shard scatter-gather, k-means assignment and minibatch training.
//!
//! Before this crate, every batched call site spawned fresh OS threads
//! through `std::thread::scope`, paying thread start-up per call. The
//! pool keeps its workers alive for the process lifetime (FAISS-style)
//! and hands out work through per-worker deques plus a global injector:
//!
//! * a submitting worker pushes chunks onto **its own deque** and pops
//!   them LIFO (cache-warm); idle workers **steal FIFO** from the other
//!   end or from the injector;
//! * the **caller participates**: while waiting for its job it executes
//!   pending chunks instead of blocking, which makes nested
//!   fan-outs deadlock-free even on a single worker.
//!   A waiting caller runs chunks only — never a queued detached task —
//!   so one request cannot run nested inside another;
//! * task closures borrow from the caller's stack. This is safe because
//!   the submitting call does not return until every chunk of its job
//!   has completed (the job handle counts outstanding chunks).
//!
//! The public fan-outs are [`Pool::parallel_map`] (task panics rethrown
//! on the caller), [`Pool::scatter`] (one task per index, panics
//! contained per index) and [`Pool::try_parallel_map_traced`]
//! (width-independent chunks, optional per-chunk spans, panics surfaced
//! as a [`TaskPanic`] error); detached work goes through
//! [`Pool::try_submit`]. Panics inside tasks are contained per L001, so a
//! poisoned job never takes a worker down.
//!
//! **A fan-out runs on the pool serving it.** When the calling thread is
//! a worker of some pool, every fan-out it issues runs on that worker's
//! own pool, whichever pool it was called on; other threads use the
//! pool they call. A server that handles requests on a bounded pool
//! therefore spreads a request's batch over its own idle workers with
//! no extra parameter, and never wakes a second pool.
//!
//! Sizing is resolved once per process by [`default_threads`]
//! (`EMBLOOKUP_THREADS` override, else `available_parallelism()`) and
//! shared through the lazily-initialized [`Pool::global`]. Tests that
//! need explicit widths construct their own [`Pool::with_threads`].
//!
//! For network-facing serving, [`Pool::with_threads_bounded`] builds a
//! pool in **bounded-injector mode**: [`Pool::try_submit`] enqueues
//! detached (fire-and-forget) tasks but refuses with [`QueueFull`] once
//! [`BoundedQueue::cap`] tasks are already waiting, so a server sheds
//! load with `429` instead of queueing unboundedly.

#![warn(missing_docs)]

use emblookup_obs::names;
use emblookup_obs::TraceSpan;
use emblookup_obs::{Counter, Gauge};
use std::any::Any;
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, ignoring poison: pool state stays consistent because
/// every critical section is a plain field update and task panics are
/// already contained by `catch_unwind` before completion bookkeeping.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint: allow(L002) the pool's bounded critical sections are its documented design (DESIGN.md: work-stealing pool); every other lock in the workspace must justify itself
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task raised a panic; carries the payload's message when extractable.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Human-readable panic message (`"task panicked"` when the payload
    /// was not a string).
    pub message: String,
}

impl TaskPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            // lint: allow(L002) panic error path: a worker task already panicked, the copy is for the report
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            // lint: allow(L002) panic error path: a worker task already panicked, the copy is for the report
            "task panicked".to_owned()
        };
        TaskPanic { message }
    }

    fn resume(self) -> ! {
        // lint: allow(L002) panic resume path: re-throws a captured worker panic
        panic::resume_unwind(Box::new(self.message))
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// One outstanding chunked fan-out: a lifetime- and
/// type-erased chunk runner plus completion bookkeeping. The raw pointer
/// stays valid because the submitting call blocks (work-helping) until
/// `pending` reaches zero, and only then lets the pointee drop.
struct JobCore {
    data: *const (),
    call: unsafe fn(*const (), usize, usize),
    // lint: atomic(refcount) chunks outstanding; the zero observer frees `data`
    pending: AtomicUsize,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `data` points at a `Sync` closure owned by the submitting
// frame, which outlives every task of the job (see struct docs).
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

/// Monomorphized trampoline re-typing `data` back to the concrete
/// closure; pairing it with `data` in [`job_for`] is what keeps the
/// erasure sound (no dyn fat pointers involved).
unsafe fn call_chunk<F: Fn(usize, usize) + Sync>(data: *const (), lo: usize, hi: usize) {
    unsafe { (*(data as *const F))(lo, hi) }
}

/// Erases `runner` into a [`JobCore`] expecting `pending` chunks.
fn job_for<F: Fn(usize, usize) + Sync>(runner: &F, pending: usize) -> Arc<JobCore> {
    Arc::new(JobCore {
        data: runner as *const F as *const (),
        call: call_chunk::<F>,
        pending: AtomicUsize::new(pending),
        panic_payload: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    })
}

/// Capacity of the bounded-injector backpressure mode: at most `cap`
/// detached tasks (submitted through [`Pool::try_submit`]) may wait in
/// the injector at once. Chunked jobs (`parallel_map` family) are not
/// bounded — their callers help-execute and thus self-limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedQueue {
    /// Maximum queued (not yet running) detached tasks.
    pub cap: usize,
}

/// A detached submission was rejected because the bounded injector is at
/// capacity — the caller should shed load (HTTP 429) or retry later.
#[derive(Debug, Clone)]
pub struct QueueFull {
    /// Configured injector capacity.
    pub cap: usize,
    /// Detached tasks queued at the time of rejection.
    pub depth: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool injector full: {} queued / cap {}", self.depth, self.cap)
    }
}

impl std::error::Error for QueueFull {}

/// One chunk of a fan-out job: the half-open index range
/// `lo..hi`.
struct Chunk {
    job: Arc<JobCore>,
    lo: usize,
    hi: usize,
}

/// A detached fire-and-forget closure from [`Pool::try_submit`]; panics
/// are contained and dropped so the worker survives.
type Detached = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One deque per worker; owners pop LIFO, thieves steal FIFO.
    deques: Vec<Mutex<VecDeque<Chunk>>>,
    /// Chunks submitted from threads outside the pool.
    injector: Mutex<VecDeque<Chunk>>,
    /// Detached tasks waiting for a worker. Kept apart from the chunk
    /// queues so a help-waiting caller can never pick one up.
    detached: Mutex<VecDeque<Detached>>,
    /// Tasks currently sitting in any queue (not yet picked up).
    // lint: atomic(refcount) gates the worker sleep/wake handshake
    queued: AtomicUsize,
    /// Detached tasks currently waiting (the quantity the bounded mode
    /// caps).
    // lint: atomic(refcount) gates the bounded-injector admission wait
    detached_queued: AtomicUsize,
    /// `usize::MAX` when unbounded.
    injector_cap: usize,
    sleep: Mutex<()>,
    wake: Condvar,
    // lint: atomic(flag) one-way shutdown publication to workers
    shutdown: AtomicBool,
    tasks_total: Arc<Counter>,
    steals: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl Shared {
    fn note_enqueued(&self, added: usize) {
        let now = self.queued.fetch_add(added, Ordering::AcqRel) + added;
        self.queue_depth.set(now as f64);
    }

    fn note_dequeued(&self) {
        let prev = self.queued.fetch_sub(1, Ordering::AcqRel);
        self.queue_depth.set(prev.saturating_sub(1) as f64);
    }

    /// Wakes parked workers; taking the sleep lock orders this notify
    /// after any in-progress queue check inside their park sequence.
    fn wake_workers(&self) {
        let _g = lock(&self.sleep);
        self.wake.notify_all();
    }

    /// Pops a chunk: own deque back (LIFO) first when called from worker
    /// `me`, then the injector front.
    fn find_chunk(&self, me: Option<usize>) -> Option<Chunk> {
        if let Some(i) = me {
            if let Some(c) = lock(&self.deques[i]).pop_back() {
                self.note_dequeued();
                return Some(c);
            }
        }
        if let Some(c) = lock(&self.injector).pop_front() {
            self.note_dequeued();
            return Some(c);
        }
        None
    }

    /// Steals the front chunk of another worker's deque.
    fn steal_chunk(&self, me: Option<usize>) -> Option<Chunk> {
        let n = self.deques.len();
        let start = me.map(|i| i + 1).unwrap_or(0);
        for off in 0..n {
            let j = (start + off) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(c) = lock(&self.deques[j]).pop_front() {
                self.note_dequeued();
                self.steals.inc();
                return Some(c);
            }
        }
        None
    }

    /// Pops a detached task.
    fn find_detached(&self) -> Option<Detached> {
        let f = lock(&self.detached).pop_front()?;
        self.detached_queued.fetch_sub(1, Ordering::AcqRel);
        self.note_dequeued();
        Some(f)
    }

    /// Runs one chunk under `catch_unwind`, recording the first panic
    /// payload on its job and signalling completion of the last chunk.
    fn run_chunk(&self, chunk: Chunk) {
        let Chunk { job, lo, hi } = chunk;
        self.tasks_total.inc();
        // SAFETY: `data` and `call` were paired by `job_for`, and the
        // submitting frame that owns `data` blocks until `pending` hits 0.
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, lo, hi) }));
        if let Err(payload) = result {
            let mut slot = lock(&job.panic_payload);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = lock(&job.done);
            *done = true;
            job.done_cv.notify_all();
        }
    }

    /// Runs one detached task; a panic is contained and dropped — the
    /// submitting side (e.g. the serving layer) is responsible for
    /// converting its own panics into error responses before they reach
    /// the pool boundary.
    fn run_detached(&self, f: Detached) {
        self.tasks_total.inc();
        let _ = panic::catch_unwind(AssertUnwindSafe(f));
    }

    fn push_chunks(&self, chunks: Vec<Chunk>, me: Option<usize>) {
        let n = chunks.len();
        match me {
            Some(i) => lock(&self.deques[i]).extend(chunks),
            None => lock(&self.injector).extend(chunks),
        }
        self.note_enqueued(n);
        self.wake_workers();
    }

    /// Splits `0..n` into chunks and executes `runner(lo, hi)` for each
    /// across this pool, helping from the calling thread (worker `me`,
    /// or an outside thread when `None`) until done.
    fn run_chunked<F>(&self, me: Option<usize>, n: usize, grain: usize, runner: &F) -> Result<(), TaskPanic>
    where
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return Ok(());
        }
        let grain = grain.max(1);
        // threads that can run a chunk: the workers, plus an outside
        // caller, which helps
        let width = self.deques.len() + usize::from(me.is_none());
        // enough chunks for balance, not so many that queue traffic wins
        let chunks = n.div_ceil(grain).min(width * 4).max(1);
        if width == 1 || chunks == 1 {
            // inline execution still counts as one task so `pool.tasks`
            // reflects throughput on single-core hosts
            self.tasks_total.inc();
            let result = panic::catch_unwind(AssertUnwindSafe(|| runner(0, n)));
            return result.map_err(|p| TaskPanic::from_payload(p.as_ref()));
        }
        let chunk = n.div_ceil(chunks);
        let ranges: Vec<(usize, usize)> = (0..chunks)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        let job = job_for(runner, ranges.len());
        let tasks = ranges
            .into_iter()
            .map(|(lo, hi)| Chunk { job: Arc::clone(&job), lo, hi })
            .collect();
        self.push_chunks(tasks, me);
        self.help_until_done(me, &job);
        let panicked = lock(&job.panic_payload).take();
        match panicked {
            Some(payload) => Err(TaskPanic::from_payload(payload.as_ref())),
            None => Ok(()),
        }
    }

    /// Executes pending chunks (any job) until `job` completes; parks on
    /// the job's condvar only when no runnable chunk exists. Detached
    /// tasks are never run here: they are other requests, and running
    /// one would nest it inside the caller's.
    fn help_until_done(&self, me: Option<usize>, job: &Arc<JobCore>) {
        loop {
            if *lock(&job.done) {
                return;
            }
            if let Some(c) = self.find_chunk(me).or_else(|| self.steal_chunk(me)) {
                self.run_chunk(c);
                continue;
            }
            let guard = lock(&job.done);
            if *guard {
                return;
            }
            // short timeout: a nested job may enqueue helpable chunks
            // without signalling this job's condvar
            let _ = job
                .done_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

thread_local! {
    /// The pool this thread works for and its worker index; set once
    /// when a worker starts. Fan-outs from a worker run on this pool.
    static WORKER: OnceCell<(Arc<Shared>, usize)> = const { OnceCell::new() };
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    WORKER.with(|w| {
        let _ = w.set((Arc::clone(&shared), me));
    });
    loop {
        // own and injected chunks first (in-flight requests finish
        // before new ones start), then a new detached task, then steal
        if let Some(c) = shared.find_chunk(Some(me)) {
            shared.run_chunk(c);
            continue;
        }
        if let Some(f) = shared.find_detached() {
            shared.run_detached(f);
            continue;
        }
        if let Some(c) = shared.steal_chunk(Some(me)) {
            shared.run_chunk(c);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let guard = lock(&shared.sleep);
        if shared.queued.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            // timed wait as a lost-wakeup backstop; producers notify under
            // the same lock, so this normally wakes promptly on new work
            let _ = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Persistent work-stealing pool; see the crate docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Builds a pool with `threads` total parallelism **including the
    /// submitting thread**: `threads - 1` workers are spawned, and the
    /// caller of a fan-out works alongside them.
    /// `with_threads(1)` spawns no workers and executes everything inline
    /// on the caller — the deterministic serial configuration.
    pub fn with_threads(threads: usize) -> Self {
        Self::build(threads.max(1) - 1, usize::MAX)
    }

    /// Builds a pool in **bounded-injector mode** for serving workloads:
    /// `workers` dedicated worker threads (min 1 — detached submissions
    /// have no help-waiting caller, so every unit of parallelism must be
    /// a real worker) and an injector that admits at most `queue.cap`
    /// waiting detached tasks. [`Pool::try_submit`] sheds beyond the cap.
    pub fn with_threads_bounded(workers: usize, queue: BoundedQueue) -> Self {
        Self::build(workers.max(1), queue.cap)
    }

    fn build(workers: usize, injector_cap: usize) -> Self {
        let reg = emblookup_obs::global();
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            detached: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            detached_queued: AtomicUsize::new(0),
            injector_cap,
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks_total: reg.counter(names::POOL_TASKS),
            steals: reg.counter(names::POOL_STEALS),
            queue_depth: reg.gauge(names::POOL_QUEUE_DEPTH),
        });
        let handles = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                // a failed spawn only narrows parallelism: the missing
                // worker's deque is still drained through steals
                std::thread::Builder::new()
                    .name(format!("emblookup-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .ok()
            })
            .collect();
        Pool { shared, workers: handles }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] parallelism.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
    }

    /// Total parallelism of this pool (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.shared.deques.len() + 1
    }

    /// Detached tasks currently waiting for a worker — the serving
    /// layer mirrors this into its `serve.queue.depth` gauge.
    pub fn detached_depth(&self) -> usize {
        self.shared.detached_queued.load(Ordering::Acquire)
    }

    /// Configured bounded-injector capacity, `None` when unbounded.
    pub fn injector_cap(&self) -> Option<usize> {
        (self.shared.injector_cap != usize::MAX).then_some(self.shared.injector_cap)
    }

    /// Submits a detached fire-and-forget task, refusing with [`QueueFull`]
    /// when the bounded injector already holds `cap` waiting tasks — the
    /// admission-control primitive of the serving layer: reject work while
    /// it is still cheap instead of queueing unboundedly.
    ///
    /// The capacity check and the push happen under the queue lock, so
    /// the cap is exact. Tasks already *executing* on a worker do not
    /// count against the cap — the bound is on waiting work. A panic
    /// inside `f` is contained by the worker and dropped.
    ///
    /// On a pool built with no workers (`with_threads(1)`) the task runs
    /// inline on the calling thread — the degenerate serial mode; real
    /// serving pools come from [`Pool::with_threads_bounded`], which
    /// always spawns at least one worker.
    pub fn try_submit<F>(&self, f: F) -> Result<(), QueueFull>
    where
        F: FnOnce() + Send + 'static,
    {
        if self.shared.deques.is_empty() {
            self.shared.tasks_total.inc();
            let _ = panic::catch_unwind(AssertUnwindSafe(f));
            return Ok(());
        }
        {
            let mut queue = lock(&self.shared.detached);
            let depth = self.shared.detached_queued.load(Ordering::Acquire);
            if depth >= self.shared.injector_cap {
                return Err(QueueFull { cap: self.shared.injector_cap, depth });
            }
            self.shared.detached_queued.fetch_add(1, Ordering::AcqRel);
            queue.push_back(Box::new(f));
        }
        self.shared.note_enqueued(1);
        self.shared.wake_workers();
        Ok(())
    }

    /// Calls `f` with the pool a fan-out from this thread runs on, and
    /// the caller's worker index there: the pool this thread is a worker
    /// of, else `self` with no index.
    fn on_serving_pool<R>(&self, f: impl FnOnce(&Shared, Option<usize>) -> R) -> R {
        WORKER.with(|w| match w.get() {
            Some((shared, me)) => f(shared, Some(*me)),
            None => f(&self.shared, None),
        })
    }

    /// Maps `f` over `0..n` into a `Vec` in index order, splitting the
    /// range into chunks of at least `grain` indices executed across the
    /// pool. Returns a [`TaskPanic`] error if any invocation panicked
    /// (every chunk still runs to completion or unwinds before this
    /// returns).
    fn map_chunked<U, F>(&self, n: usize, grain: usize, f: F) -> Result<Vec<U>, TaskPanic>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        struct SlotPtr<U>(*mut Option<U>);
        // SAFETY: the pointer is only used through `write`, whose callers
        // write disjoint slots; moving a `U` to another thread needs only
        // `U: Send`.
        unsafe impl<U: Send> Sync for SlotPtr<U> {}
        unsafe impl<U: Send> Send for SlotPtr<U> {}
        impl<U> SlotPtr<U> {
            /// # Safety
            /// Each index must be written at most once while the backing
            /// buffer is alive and no other reference observes slot `i`.
            unsafe fn write(&self, i: usize, v: U) {
                unsafe { *self.0.add(i) = Some(v) }
            }
        }

        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = SlotPtr(out.as_mut_ptr());
        let runner = |lo: usize, hi: usize| {
            for i in lo..hi {
                let v = f(i);
                // SAFETY: chunks partition 0..n, so each index is visited
                // exactly once and writes land in disjoint slots of a
                // buffer that outlives the call.
                unsafe { slots.write(i, v) };
            }
        };
        self.on_serving_pool(|shared, me| shared.run_chunked(me, n, grain, &runner))?;
        let collected: Vec<U> = out.into_iter().flatten().collect();
        debug_assert_eq!(collected.len(), n, "map_chunked lost a slot");
        Ok(collected)
    }

    /// Maps `f` over `0..n` into a `Vec` in index order, computing the
    /// entries across the pool in chunks of at least `grain` indices.
    /// Task panics are rethrown on the caller.
    pub fn parallel_map<U, F>(&self, n: usize, grain: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.map_chunked(n, grain, f) {
            Ok(v) => v,
            Err(e) => e.resume(),
        }
    }

    /// Fans `f` out over `0..n` (grain 1, one task per index) with
    /// **per-index panic containment**: unlike [`Pool::parallel_map`],
    /// where one panicking index fails the whole job, each index's
    /// outcome is reported independently as `Ok(value)` or
    /// `Err(TaskPanic)` in index order. This is the scatter-gather
    /// primitive for sharded serving, where one misbehaving shard must
    /// cost only its own slot of the response, never its siblings'.
    pub fn scatter<U, F>(&self, n: usize, f: F) -> Vec<Result<U, TaskPanic>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.map_chunked(n, 1, |i| {
            panic::catch_unwind(AssertUnwindSafe(|| f(i)))
                .map_err(|payload| TaskPanic::from_payload(payload.as_ref()))
        }) {
            Ok(v) => v,
            // Unreachable in practice: every index's panic is already
            // contained above, so the outer job cannot fail.
            Err(e) => e.resume(),
        }
    }

    /// Fallible map over `0..n` in chunks derived from `n` and `grain`
    /// **only** — never from the worker count. With a `parent` span,
    /// each chunk gets one `chunk_name` child span annotated with its
    /// `lo`/`hi` range and stamped with the worker thread that ran it,
    /// so the span tree a request produces has an identical shape at
    /// every pool width (only the `thread` ordinal each chunk records
    /// may differ). All chunk spans are created sequentially on the
    /// calling thread before execution begins, which pins their span
    /// ids. A task panic surfaces as a [`TaskPanic`] error.
    pub fn try_parallel_map_traced<U, F>(
        &self,
        n: usize,
        grain: usize,
        parent: Option<&TraceSpan>,
        chunk_name: &'static str,
        f: F,
    ) -> Result<Vec<U>, TaskPanic>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let grain = grain.max(1);
        let chunks = n.div_ceil(grain);
        let chunk = n.div_ceil(chunks);
        let ranges: Vec<(usize, usize)> = (0..chunks)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        let spans: Vec<TraceSpan> = parent
            .map(|parent| {
                ranges
                    .iter()
                    .map(|&(lo, hi)| {
                        let span = parent.child_deferred(chunk_name);
                        span.annotate("lo", lo as u64);
                        span.annotate("hi", hi as u64);
                        span
                    })
                    .collect()
            })
            .unwrap_or_default();
        // One task per chunk: the pool's own width-dependent grouping of
        // tasks never changes how many chunks (or chunk spans) exist.
        let per_chunk = self.map_chunked(ranges.len(), 1, |ci| {
            let (lo, hi) = ranges[ci];
            let span = spans.get(ci);
            if let Some(span) = span {
                span.begin();
            }
            let out: Vec<U> = (lo..hi).map(&f).collect();
            if let Some(span) = span {
                span.finish();
            }
            out
        })?;
        Ok(per_chunk.into_iter().flatten().collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Process-wide parallelism: the `EMBLOOKUP_THREADS` environment variable
/// when set to a positive integer, else `available_parallelism()` (1 when
/// unknown). Resolved once and cached — every sizing decision in the
/// workspace routes through this single point.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Some(n) = std::env::var("EMBLOOKUP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_map_visits_every_index_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::with_threads(threads);
            let n = 1000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_map(n, 7, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let out = pool.parallel_map(257, 16, |i| i * i);
            assert_eq!(out.len(), 257);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn scatter_preserves_order_and_contains_panics_per_index() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let out = pool.scatter(7, |i| {
                if i == 3 {
                    panic!("index 3 misbehaved");
                }
                i * 10
            });
            assert_eq!(out.len(), 7);
            for (i, res) in out.iter().enumerate() {
                if i == 3 {
                    let err = res.as_ref().expect_err("index 3 must fail alone");
                    assert!(err.message.contains("index 3 misbehaved"));
                } else {
                    assert_eq!(*res.as_ref().expect("healthy index"), i * 10);
                }
            }
        }
    }

    #[test]
    fn scatter_all_panicking_still_returns_every_slot() {
        let pool = Pool::with_threads(2);
        let out = pool.scatter(4, |_i| -> usize {
            panic!("every shard down");
        });
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.is_err()));
    }

    #[test]
    fn zero_len_and_single_index_work() {
        let pool = Pool::with_threads(4);
        let none: Vec<()> = pool.parallel_map(0, 8, |_| unreachable!("no indices"));
        assert!(none.is_empty());
        let out = pool.parallel_map(1, 8, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn nested_parallel_map_completes() {
        let pool = Pool::with_threads(4);
        let total = AtomicU64::new(0);
        pool.parallel_map(8, 1, |i| {
            // nested submission from both worker and caller threads
            let local: u64 = pool
                .parallel_map(10, 2, |j| (i * 10 + j) as u64)
                .into_iter()
                .sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        let expect: u64 = (0..80u64).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn try_parallel_map_surfaces_panic_as_error() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let err = pool
                .try_parallel_map_traced(64, 4, None, names::SPAN_POOL_CHUNK, |i| {
                    if i == 13 {
                        panic!("boom at 13");
                    }
                })
                .expect_err("panic must surface");
            assert!(err.message.contains("boom at 13"), "got: {}", err.message);
            // the pool must stay usable afterwards
            let out = pool.parallel_map(8, 2, |i| i);
            assert_eq!(out.len(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn parallel_map_rethrows_panic() {
        let pool = Pool::with_threads(4);
        pool.parallel_map(16, 1, |i| {
            if i == 5 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let serial = Pool::with_threads(1);
        let wide = Pool::with_threads(4);
        let f = |i: usize| (i as f32).sqrt() * 1.5 + (i % 7) as f32;
        let a = serial.parallel_map(500, 8, f);
        let b = wide.parallel_map(500, 8, f);
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn traced_map_has_width_independent_span_shape() {
        use emblookup_obs::{AnnoValue, Trace, TraceClock};
        use std::sync::atomic::AtomicU64 as Ns;

        let shape = |threads: usize| {
            let pool = Pool::with_threads(threads);
            let ns = Arc::new(Ns::new(0));
            let trace = Trace::start(threads as u64, TraceClock::virtual_shared(ns));
            let root = trace.root(names::SPAN_LOOKUP_REQUEST);
            let out = pool
                .try_parallel_map_traced(100, 13, Some(&root), names::SPAN_POOL_CHUNK, |i| i * 2)
                .unwrap();
            root.finish();
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
            let data = trace.snapshot();
            data.spans
                .iter()
                .map(|s| (s.id, s.parent, s.name, s.start_ns, s.end_ns, s.annotations.clone()))
                .collect::<Vec<_>>()
        };
        let narrow = shape(1);
        let wide = shape(4);
        assert_eq!(narrow, wide, "span tree must not depend on pool width");
        // 100 / 13 → 8 chunks under the root
        assert_eq!(narrow.len(), 9);
        assert_eq!(narrow[1].5[0], ("lo", AnnoValue::U64(0)));
        assert_eq!(narrow[8].5[1], ("hi", AnnoValue::U64(100)));
    }

    #[test]
    fn traced_map_surfaces_panics_and_keeps_tree() {
        use emblookup_obs::{Trace, TraceClock};
        let pool = Pool::with_threads(2);
        let trace = Trace::start(1, TraceClock::real());
        let root = trace.root(names::SPAN_LOOKUP_REQUEST);
        let err = pool
            .try_parallel_map_traced(32, 4, Some(&root), names::SPAN_POOL_CHUNK, |i| {
                if i == 17 {
                    panic!("chunk boom");
                }
                i
            })
            .expect_err("panic must surface");
        assert!(err.message.contains("chunk boom"));
        root.finish();
        let data = trace.snapshot();
        assert_eq!(data.spans.len(), 9, "all chunk spans exist even after a panic");
    }

    #[test]
    fn try_submit_runs_detached_tasks() {
        let pool = Pool::with_threads_bounded(2, BoundedQueue { cap: 64 });
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let hits = Arc::clone(&hits);
            pool.try_submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            })
            .expect("under cap");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::SeqCst) < 20 {
            assert!(std::time::Instant::now() < deadline, "detached tasks not drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn try_submit_sheds_at_capacity() {
        // one worker, blocked; cap 2 → two queued tasks admitted, third shed
        let pool = Pool::with_threads_bounded(1, BoundedQueue { cap: 2 });
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        pool.try_submit(move || {
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .expect("blocker admitted");
        // give the worker a moment to pick the blocker up
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.detached_depth() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.try_submit(|| {}).expect("first queued");
        pool.try_submit(|| {}).expect("second queued");
        let err = pool.try_submit(|| {}).expect_err("cap reached");
        assert_eq!(err.cap, 2);
        assert!(err.depth >= 2, "depth {}", err.depth);
        release.store(true, Ordering::Release);
    }

    #[test]
    fn detached_panic_leaves_pool_serving() {
        let pool = Pool::with_threads_bounded(1, BoundedQueue { cap: 8 });
        pool.try_submit(|| panic!("injected detached panic")).expect("admitted");
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        pool.try_submit(move || flag.store(true, Ordering::Release))
            .expect("admitted after panic");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done.load(Ordering::Acquire) {
            assert!(std::time::Instant::now() < deadline, "worker died after panic");
            std::thread::sleep(Duration::from_millis(1));
        }
        // chunked jobs still work on the same pool
        let out = pool.parallel_map(8, 2, |i| i);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn zero_worker_pool_runs_submissions_inline() {
        let pool = Pool::with_threads(1);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.try_submit(move || flag.store(true, Ordering::Release))
            .expect("inline execution");
        assert!(ran.load(Ordering::Acquire));
        assert_eq!(pool.injector_cap(), None);
    }

    #[test]
    fn bounded_pool_reports_cap() {
        let pool = Pool::with_threads_bounded(2, BoundedQueue { cap: 7 });
        assert_eq!(pool.injector_cap(), Some(7));
        assert_eq!(pool.detached_depth(), 0);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::with_threads(4);
        pool.parallel_map(100, 5, |_| {});
        drop(pool); // must not hang
    }

    /// Address of the pool the current thread is a worker of.
    fn home_pool() -> Option<usize> {
        WORKER.with(|w| w.get().map(|(shared, _)| Arc::as_ptr(shared) as usize))
    }

    /// Spins (sleeping 1 ms) until `flag` is set or 5 s pass.
    fn wait_for(flag: &AtomicBool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !flag.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn worker_fan_out_runs_on_its_own_pool_and_is_stolen() {
        let f = |i: usize| (i as f32).sqrt() * 1.5 + (i % 7) as f32;
        let pool = Pool::with_threads_bounded(2, BoundedQueue { cap: 8 });
        let steals = emblookup_obs::global().counter(names::POOL_STEALS);
        let before = steals.get();
        let (tx, rx) = std::sync::mpsc::channel();
        pool.try_submit(move || {
            let owner = std::thread::current().id();
            let home = home_pool();
            let sibling_ran = AtomicBool::new(false);
            let foreign_ran = AtomicBool::new(false);
            // called on the global pool, but issued from a worker: it
            // must run on this worker's pool
            let out = Pool::global().parallel_map(64, 1, |i| {
                if std::thread::current().id() == owner {
                    // hold the submitter until the idle sibling has
                    // stolen a chunk from its deque
                    wait_for(&sibling_ran);
                } else if home_pool() == home {
                    sibling_ran.store(true, Ordering::Release);
                } else {
                    foreign_ran.store(true, Ordering::Release);
                }
                f(i)
            });
            let _ = tx.send((out, sibling_ran.into_inner(), foreign_ran.into_inner()));
        })
        .expect("admitted");
        let (out, sibling_ran, foreign_ran) = rx.recv_timeout(Duration::from_secs(10)).expect("fan-out done");
        assert!(sibling_ran, "the idle sibling worker never ran a chunk");
        assert!(!foreign_ran, "a chunk ran outside the submitting worker's pool");
        assert!(steals.get() > before, "pool.steal did not move");
        let serial = Pool::with_threads(1).parallel_map(64, 1, f);
        assert!(out.iter().zip(&serial).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(out.len(), serial.len());
    }

    #[test]
    fn help_waiting_caller_never_runs_a_detached_task() {
        let pool = Pool::with_threads_bounded(2, BoundedQueue { cap: 8 });
        let owner: Arc<Mutex<Option<std::thread::ThreadId>>> = Arc::new(Mutex::new(None));
        let in_fan_out = Arc::new(AtomicBool::new(false));
        let stolen = Arc::new(AtomicBool::new(false));
        let b_ran = Arc::new(AtomicBool::new(false));
        let (a_owner, a_in, a_stolen, a_b_ran) =
            (Arc::clone(&owner), Arc::clone(&in_fan_out), Arc::clone(&stolen), Arc::clone(&b_ran));
        let (a_tx, a_rx) = std::sync::mpsc::channel();
        pool.try_submit(move || {
            let me = std::thread::current().id();
            *lock(&a_owner) = Some(me);
            a_in.store(true, Ordering::Release);
            Pool::global().parallel_map(2, 1, |_| {
                if std::thread::current().id() == me {
                    wait_for(&a_stolen);
                } else {
                    // keep the job open while the submitter, its own
                    // chunk done, help-waits next to the queued task B;
                    // both workers are busy, so B can only run early by
                    // nesting inside the submitter's wait
                    a_stolen.store(true, Ordering::Release);
                    let deadline = std::time::Instant::now() + Duration::from_millis(500);
                    while !a_b_ran.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            a_in.store(false, Ordering::Release);
            let _ = a_tx.send(());
        })
        .expect("A admitted");
        wait_for(&stolen);
        assert!(stolen.load(Ordering::Acquire), "no sibling took a chunk");
        let (b_owner, b_in, b_done) = (Arc::clone(&owner), Arc::clone(&in_fan_out), Arc::clone(&b_ran));
        let (b_tx, b_rx) = std::sync::mpsc::channel();
        pool.try_submit(move || {
            let nested = b_in.load(Ordering::Acquire) && *lock(&b_owner) == Some(std::thread::current().id());
            b_done.store(true, Ordering::Release);
            let _ = b_tx.send(nested);
        })
        .expect("B admitted");
        a_rx.recv_timeout(Duration::from_secs(10)).expect("A finished");
        let nested = b_rx.recv_timeout(Duration::from_secs(10)).expect("B ran");
        assert!(!nested, "a detached task ran nested inside a help-waiting fan-out");
    }

    #[test]
    fn default_width_is_the_machine_width() {
        let env = std::env::var("EMBLOOKUP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(default_threads(), env.unwrap_or(machine));
        assert_eq!(Pool::global().threads(), default_threads());
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = Pool::global();
        let p2 = Pool::global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.threads() >= 1);
        let out = p1.parallel_map(32, 4, |i| i as u32);
        assert_eq!(out.len(), 32);
    }
}
