//! The model-checking runtime: a deterministic cooperative scheduler plus a
//! DFS schedule explorer with a preemption bound.
//!
//! # How an execution runs
//!
//! Model threads are real OS threads, but at most one is ever logically
//! running: every instrumented operation (lock, atomic access, join)
//! first calls [`Rt::yield_point`], which hands the baton
//! to the scheduler. The scheduler computes the set of *runnable* threads
//! (not finished, blocking condition satisfied), consults the explorer for
//! which one continues, and grants it the baton. Because threads only
//! interleave at instrumented operations and everything in between is
//! thread-local, replaying the same sequence of choices replays the same
//! execution bit-for-bit.
//!
//! # How the space is explored
//!
//! The explorer keeps the current schedule as a path of choice frames
//! (`candidates`, `chosen`). An execution replays the recorded prefix, then
//! extends it by always picking the first candidate (the previously running
//! thread, making the first schedule near-sequential). After each execution
//! the deepest frame with an untried candidate is advanced and everything
//! below it is discarded — classic iterative DFS. Context switches away
//! from a still-runnable thread count as *preemptions*; once an execution
//! has used its preemption budget, only forced switches (current thread
//! blocked or finished) remain, which is the standard preemption-bounding
//! trick: almost all concurrency bugs manifest within 2–3 preemptions.
//!
//! Blocked-forever states are detected positively: if no thread is runnable
//! and not all threads have finished, the execution aborts with a deadlock
//! report naming every thread's pending operation.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Once, PoisonError};

/// Panic payload used to unwind model threads when an execution aborts
/// (deadlock, another thread's failure, budget exhausted). Never escapes
/// [`model_with`]: the wrapper catches it and the real failure is re-raised
/// from the controlling thread with the schedule trace attached.
pub(crate) struct ModelAbort;

/// What a parked model thread is waiting for. `Always` means the thread is
/// at a plain scheduling point and can run immediately.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Condition {
    Always,
    MutexFree(usize),
    RwRead(usize),
    RwWrite(usize),
    Join(usize),
}

/// Scheduler-visible mirror of one synchronization object's state. The
/// objects themselves (the guarded data) live outside the runtime; the
/// mirror exists so blocking conditions can be evaluated without touching
/// user types.
#[derive(Debug)]
pub(crate) enum Resource {
    Mutex { held: bool },
    RwLock { readers: usize, writer: bool },
}

struct ThreadCell {
    finished: bool,
    cond: Condition,
    /// Label of the pending operation, for deadlock/failure reports.
    op: &'static str,
}

/// One DFS choice point: which threads were runnable and which was taken.
struct Frame {
    candidates: Vec<usize>,
    chosen: usize,
}

struct Inner {
    // Per-execution state, reset by `begin`.
    turn: usize,
    threads: Vec<ThreadCell>,
    resources: Vec<Resource>,
    ops: u64,
    preemptions: usize,
    cursor: usize,
    trace: Vec<(usize, &'static str)>,
    abort: Option<String>,
    // Explorer state, persistent across executions.
    path: Vec<Frame>,
    schedules: u64,
    max_depth: usize,
    epoch: u64,
}

/// Exploration limits for [`crate::model_with`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum context switches away from a runnable thread per execution.
    pub preemptions: usize,
    /// Stop after exploring this many schedules even if the space is not
    /// exhausted.
    pub max_schedules: u64,
    /// Abort a single execution after this many instrumented operations
    /// (livelock guard).
    pub max_ops: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemptions: 2,
            max_schedules: 4096,
            max_ops: 1_000_000,
        }
    }
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Distinct schedules executed to completion.
    pub schedules: u64,
    /// True when every schedule within the preemption bound was explored
    /// (rather than stopping at `max_schedules`).
    pub exhausted: bool,
    /// Longest schedule, in scheduling decisions.
    pub max_depth: usize,
}

pub(crate) struct Rt {
    m: StdMutex<Inner>,
    cv: Condvar,
    cfg: Config,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Rt>, usize)>> = const { RefCell::new(None) };
}

/// The runtime of the model execution this thread belongs to, if any.
/// `None` outside `model()`: instrumented primitives fall back to plain
/// blocking behavior so feature-unified test binaries still run normally.
pub(crate) fn ctx() -> Option<(Arc<Rt>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(rt: Arc<Rt>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((rt, tid)));
}

impl Inner {
    fn cond_ok(&self, c: Condition) -> bool {
        match c {
            Condition::Always => true,
            Condition::MutexFree(r) => match &self.resources[r] {
                Resource::Mutex { held } => !held,
                other => unreachable!("mutex condition on {other:?}"),
            },
            Condition::RwRead(r) => match &self.resources[r] {
                Resource::RwLock { writer, .. } => !writer,
                other => unreachable!("rwlock condition on {other:?}"),
            },
            Condition::RwWrite(r) => match &self.resources[r] {
                Resource::RwLock { readers, writer } => !writer && *readers == 0,
                other => unreachable!("rwlock condition on {other:?}"),
            },
            Condition::Join(t) => self.threads[t].finished,
        }
    }

    fn set_abort(&mut self, msg: String) {
        if self.abort.is_none() {
            let mut full = msg;
            full.push_str("\nschedule trace (thread:op):");
            let tail = self.trace.len().saturating_sub(200);
            if tail > 0 {
                full.push_str(&format!(" …{tail} earlier decisions elided…"));
            }
            for (tid, op) in &self.trace[tail..] {
                full.push_str(&format!(" {tid}:{op}"));
            }
            self.abort = Some(full);
        }
    }
}

impl Rt {
    pub(crate) fn new(cfg: Config) -> Self {
        Rt {
            m: StdMutex::new(Inner {
                turn: usize::MAX,
                threads: Vec::new(),
                resources: Vec::new(),
                ops: 0,
                preemptions: 0,
                cursor: 0,
                trace: Vec::new(),
                abort: None,
                path: Vec::new(),
                schedules: 0,
                max_depth: 0,
                epoch: 0,
            }),
            cv: Condvar::new(),
            cfg,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Reset per-execution state and register the root thread (tid 0).
    fn begin(&self) {
        let mut st = self.lock();
        st.turn = usize::MAX;
        st.threads.clear();
        st.resources.clear();
        st.ops = 0;
        st.preemptions = 0;
        st.cursor = 0;
        st.trace.clear();
        st.abort = None;
        st.epoch += 1;
        st.threads.push(ThreadCell {
            finished: false,
            cond: Condition::Always,
            op: "start",
        });
    }

    /// Register a freshly spawned model thread; it becomes schedulable at
    /// the spawner's next yield point.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock();
        st.threads.push(ThreadCell {
            finished: false,
            cond: Condition::Always,
            op: "start",
        });
        st.threads.len() - 1
    }

    /// Register a synchronization object for the current execution.
    pub(crate) fn register_resource(&self, r: Resource) -> usize {
        let mut st = self.lock();
        st.resources.push(r);
        st.resources.len() - 1
    }

    /// Mutate a resource mirror without yielding (release-style updates:
    /// unlocks). These only ever
    /// *unblock* other threads; the next scheduling point picks them up.
    pub(crate) fn update_resource(&self, id: usize, f: impl FnOnce(&mut Resource)) {
        let mut st = self.lock();
        f(&mut st.resources[id]);
    }

    /// Read a resource mirror (only sound while holding the baton).
    pub(crate) fn read_resource<T>(&self, id: usize, f: impl FnOnce(&Resource) -> T) -> T {
        let st = self.lock();
        f(&st.resources[id])
    }

    /// The heart of the checker: park the calling thread at a scheduling
    /// point with blocking condition `cond`, let the explorer pick who runs
    /// next, and return once this thread is granted the baton *and* `cond`
    /// holds. Panics with [`ModelAbort`] if the execution aborted meanwhile.
    pub(crate) fn yield_point(self: &Arc<Self>, me: usize, cond: Condition, op: &'static str) {
        let mut st = self.lock();
        st.ops += 1;
        if st.ops > self.cfg.max_ops {
            st.set_abort(format!(
                "execution exceeded {} instrumented operations (livelock?)",
                self.cfg.max_ops
            ));
        }
        st.threads[me].cond = cond;
        st.threads[me].op = op;
        self.schedule(&mut st, Some(me));
        loop {
            if st.abort.is_some() {
                drop(st);
                self.cv.notify_all();
                panic::panic_any(ModelAbort);
            }
            if st.turn == me {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark `me` finished and hand the baton onward. `failure` carries a
    /// real panic message (not a [`ModelAbort`] unwind) and aborts the
    /// whole execution.
    pub(crate) fn finish_thread(&self, me: usize, failure: Option<String>) {
        let mut st = self.lock();
        st.threads[me].finished = true;
        st.threads[me].op = "exit";
        if let Some(msg) = failure {
            st.set_abort(format!("model thread {me} panicked: {msg}"));
        }
        if st.abort.is_none() {
            self.schedule(&mut st, None);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Pick the next thread to run and grant it the baton. `yielder` is the
    /// thread releasing the baton (None when it just finished).
    fn schedule(&self, st: &mut Inner, yielder: Option<usize>) {
        if st.abort.is_some() {
            self.cv.notify_all();
            return;
        }
        if st.threads.iter().all(|t| t.finished) {
            st.turn = usize::MAX;
            self.cv.notify_all();
            return;
        }
        let runnable: Vec<usize> = (0..st.threads.len())
            .filter(|&i| !st.threads[i].finished && st.cond_ok(st.threads[i].cond))
            .collect();
        if runnable.is_empty() {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.finished)
                .map(|(i, t)| format!("thread {i} blocked at {} on {:?}", t.op, t.cond))
                .collect();
            st.set_abort(format!("deadlock: {}", blocked.join("; ")));
            self.cv.notify_all();
            return;
        }
        // Candidate order: the yielding thread first (so the first DFS
        // schedule is near-sequential), then the rest by id. Once the
        // preemption budget is spent, a still-runnable yielder must keep
        // running.
        let mut candidates = Vec::with_capacity(runnable.len());
        let yielder_runnable = yielder.is_some_and(|y| runnable.contains(&y));
        if let Some(y) = yielder {
            if yielder_runnable {
                candidates.push(y);
                if st.preemptions < self.cfg.preemptions {
                    candidates.extend(runnable.iter().copied().filter(|&t| t != y));
                }
            } else {
                candidates.extend(runnable.iter().copied());
            }
        } else {
            candidates.extend(runnable.iter().copied());
        }
        // Explore: replay the recorded prefix, extend past it with choice 0.
        let cursor = st.cursor;
        let chosen_idx = if cursor < st.path.len() {
            if st.path[cursor].candidates != candidates {
                let recorded = format!("{:?}", st.path[cursor].candidates);
                st.set_abort(format!(
                    "nondeterministic model: replay step {cursor} saw candidates {candidates:?}, \
                     recorded {recorded} — model closures must not depend on time, \
                     ambient randomness or address-dependent ordering"
                ));
                self.cv.notify_all();
                return;
            }
            st.path[cursor].chosen
        } else {
            st.path.push(Frame {
                candidates: candidates.clone(),
                chosen: 0,
            });
            0
        };
        st.cursor += 1;
        let choice = candidates[chosen_idx];
        if yielder_runnable && Some(choice) != yielder {
            st.preemptions += 1;
        }
        let op = st.threads[choice].op;
        st.trace.push((choice, op));
        st.turn = choice;
        self.cv.notify_all();
    }

    /// Block the controlling thread until every model thread has finished.
    fn wait_all_finished(&self) -> Option<String> {
        let mut st = self.lock();
        while !st.threads.iter().all(|t| t.finished) {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.max_depth = st.max_depth.max(st.cursor);
        st.abort.take()
    }

    /// Advance the explorer to the next unexplored schedule. Returns false
    /// once the bounded space is exhausted.
    fn advance(&self) -> bool {
        let mut st = self.lock();
        st.schedules += 1;
        loop {
            match st.path.last_mut() {
                None => return false,
                Some(last) if last.chosen + 1 < last.candidates.len() => {
                    last.chosen += 1;
                    return true;
                }
                Some(_) => {
                    st.path.pop();
                }
            }
        }
    }

    fn schedules(&self) -> u64 {
        self.lock().schedules
    }
}

/// Lazily assigned, per-execution scheduler slot for one sync object.
/// Packs `(epoch, id + 1)` into a single atomic word so an object
/// constructed during one execution transparently re-registers itself when
/// the next execution (a new epoch) first touches it; `0` means unset.
/// Only the running model thread ever assigns, so plain relaxed accesses
/// suffice.
pub(crate) struct ResourceId(std::sync::atomic::AtomicU64);

impl Default for ResourceId {
    fn default() -> Self {
        ResourceId::new()
    }
}

impl ResourceId {
    pub(crate) const fn new() -> Self {
        ResourceId(std::sync::atomic::AtomicU64::new(0))
    }

    /// The object's slot for the current execution, registering it with
    /// `make`'s initial mirror state on first touch.
    pub(crate) fn get(&self, rt: &Rt, make: impl FnOnce() -> Resource) -> usize {
        if let Some(id) = self.peek(rt) {
            return id;
        }
        let id = rt.register_resource(make());
        let epoch = rt.epoch() & 0xffff_ffff;
        self.0.store(
            (epoch << 32) | (id as u64 + 1),
            std::sync::atomic::Ordering::Relaxed,
        );
        id
    }

    /// The slot if it was already assigned during the current execution.
    pub(crate) fn peek(&self, rt: &Rt) -> Option<usize> {
        let cur = self.0.load(std::sync::atomic::Ordering::Relaxed);
        if cur != 0 && (cur >> 32) == (rt.epoch() & 0xffff_ffff) {
            Some((cur & 0xffff_ffff) as usize - 1)
        } else {
            None
        }
    }
}

/// Spawn a model OS thread running `f` as model thread `tid`, storing the
/// result where the matching `JoinHandle` can pick it up.
pub(crate) type ResultSlot<T> = Arc<StdMutex<Option<std::thread::Result<T>>>>;

pub(crate) fn spawn_model_thread<F, T>(
    rt: Arc<Rt>,
    tid: usize,
    name: Option<String>,
    f: F,
) -> (ResultSlot<T>, std::thread::JoinHandle<()>)
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let result: ResultSlot<T> = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let mut b = std::thread::Builder::new();
    if let Some(n) = name {
        b = b.name(n);
    }
    let os = b
        .spawn(move || {
            set_ctx(Arc::clone(&rt), tid);
            // Wait for the first grant of the baton.
            {
                let mut st = rt.lock();
                loop {
                    if st.abort.is_some() {
                        drop(st);
                        rt.finish_thread(tid, None);
                        return;
                    }
                    if st.turn == tid {
                        break;
                    }
                    st = rt.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
            let out = panic::catch_unwind(AssertUnwindSafe(f));
            match out {
                Ok(v) => {
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(Ok(v));
                    rt.finish_thread(tid, None);
                }
                Err(payload) => {
                    if payload.downcast_ref::<ModelAbort>().is_some() {
                        rt.finish_thread(tid, None);
                    } else {
                        // `as_ref`, not `&payload`: a `&Box<dyn Any>`
                        // would unsize-coerce to `&dyn Any` with the Box
                        // itself as the concrete type, defeating downcast.
                        let msg = panic_message(payload.as_ref());
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(Err(payload));
                        rt.finish_thread(tid, Some(msg));
                    }
                }
            }
        })
        .expect("spawning model OS thread");
    (result, os)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Install (once, process-wide) a panic hook that silences the expected
/// [`ModelAbort`] unwinds model threads use to tear down an aborted
/// execution, while forwarding every real panic to the previous hook.
fn install_quiet_abort_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Explore every thread interleaving of `f` (within `cfg`'s bounds),
/// panicking with a schedule trace on the first assertion failure, panic,
/// or deadlock. See the crate docs for the execution model.
pub fn model_with<F>(cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_abort_hook();
    let rt = Arc::new(Rt::new(cfg));
    let f = Arc::new(f);
    loop {
        rt.begin();
        let body = Arc::clone(&f);
        let (_result, os) = spawn_model_thread(Arc::clone(&rt), 0, None, move || body());
        {
            let mut st = rt.lock();
            rt.schedule(&mut st, None);
        }
        let failure = rt.wait_all_finished();
        let _ = os.join();
        if let Some(msg) = failure {
            let done = rt.schedules();
            panic!("model failed after {done} fully explored schedules: {msg}");
        }
        if !rt.advance() {
            let st = rt.lock();
            return Report {
                schedules: st.schedules,
                exhausted: true,
                max_depth: st.max_depth,
            };
        }
        if rt.schedules() >= rt.cfg.max_schedules {
            let st = rt.lock();
            return Report {
                schedules: st.schedules,
                exhausted: false,
                max_depth: st.max_depth,
            };
        }
    }
}

/// [`model_with`] under the default [`Config`].
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Config::default(), f)
}
