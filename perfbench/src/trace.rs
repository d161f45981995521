//! Span recorder for the traced run.
//!
//! A span is one call into a layer: a name, start and end in ns since a
//! process-wide epoch, the span that was open on the same thread when
//! it started (its parent), and the task it concerns. Open spans form a
//! per-thread stack; closing a span adds its duration to its parent's
//! child time, so every span carries its own self time
//! (`end - start - child_ns`) without a second pass.
//!
//! Closed spans collect in a thread-local buffer that is moved to a
//! per-thread sink each time the thread's stack empties. The sink is
//! registered globally when the thread records its first span, so
//! [`drain`] sees every span once the traced call has returned — even
//! from worker threads whose thread-local destructors have not run yet.
//!
//! Recording is off until [`set_enabled`] turns it on. The untraced run
//! never reaches this module: it calls the program's own types directly.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// mp-apps DAG generator.
    Generate,
    /// `Runtime::register`.
    Register,
    /// `Runtime::submit`, or one STF re-submission.
    Submit,
    /// Mirroring a graph into a `Runtime` (registration and submission).
    Mirror,
    /// Staging and committing a stream through `StfBuilder`.
    Stage,
    /// `mp_sim::simulate`.
    Simulate,
    /// `Runtime::run_concurrent`.
    Run,
    /// `Runtime::serve_concurrent`.
    Serve,
    /// `ConcurrentScheduler::push`.
    FrontPush,
    /// `ConcurrentScheduler::pop`.
    FrontPop,
    /// `ConcurrentScheduler::feedback`.
    FrontFeedback,
    /// Any other `ConcurrentScheduler` call (pending, prefetch drain,
    /// retry, quarantine).
    FrontOther,
    /// `Scheduler::push`.
    SchedPush,
    /// `Scheduler::pop`.
    SchedPop,
    /// `Scheduler::feedback`.
    SchedFeedback,
    /// Any other `Scheduler` call (pending, prefetch drain, retry,
    /// quarantine).
    SchedOther,
    /// `PerfModel::estimate`.
    ModelEstimate,
    /// `PerfModel::record`.
    ModelRecord,
    /// A benchmark kernel body.
    Kernel,
}

/// Marks a task-less span.
pub const NO_TASK: u32 = u32::MAX;

/// Outcome flags a wrapper attaches to a span.
pub mod flag {
    /// A pop that returned a task.
    pub const POP_HIT: u8 = 1;
    /// A pop that returned nothing while the policy still held tasks.
    pub const HOLDBACK: u8 = 2;
    /// A feedback call reporting a task start.
    pub const STARTED: u8 = 4;
}

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Recording thread (dense, in order of first span).
    pub thread: u32,
    /// Unique id: `thread << 32 | sequence`.
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// What the span covers.
    pub name: Name,
    /// Task index, or [`NO_TASK`].
    pub task: u32,
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
    /// Time covered by direct child spans, ns.
    pub child_ns: u64,
    /// [`flag`] bits.
    pub flags: u8,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// Duration minus the time covered by direct children, in ns.
    pub fn self_ns(&self) -> u64 {
        self.dur().saturating_sub(self.child_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SINKS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// ns since the process epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn recording on or off for spans opened afterwards.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Is recording on?
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Open {
    id: u64,
    parent: u64,
    name: Name,
    task: u32,
    start: u64,
    child_ns: u64,
}

struct Local {
    thread: u32,
    seq: u32,
    stack: Vec<Open>,
    buf: Vec<Span>,
    sink: Arc<Mutex<Vec<Span>>>,
}

impl Local {
    fn new() -> Self {
        let sink = Arc::new(Mutex::new(Vec::new()));
        SINKS
            .lock()
            .expect("span sink registry poisoned")
            .push(Arc::clone(&sink));
        Self {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            seq: 0,
            stack: Vec::with_capacity(8),
            buf: Vec::with_capacity(1024),
            sink,
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// An open span; closes on drop. Inert when recording was off at open.
pub struct Guard {
    live: bool,
    flags: u8,
}

impl Guard {
    /// Attach [`flag`] bits to the span.
    pub fn flag(&mut self, bits: u8) {
        self.flags |= bits;
    }

    /// Name the task once it is known (a pop's result). Call with no
    /// child span open.
    pub fn set_task(&mut self, task: u32) {
        if !self.live {
            return;
        }
        LOCAL.with(|cell| {
            if let Some(open) = cell.borrow_mut().as_mut().and_then(|l| l.stack.last_mut()) {
                open.task = task;
            }
        });
    }
}

/// Open a span named `name` for `task` ([`NO_TASK`] for none).
pub fn span(name: Name, task: u32) -> Guard {
    if !enabled() {
        return Guard {
            live: false,
            flags: 0,
        };
    }
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(Local::new);
        local.seq += 1;
        let id = (u64::from(local.thread) << 32) | u64::from(local.seq);
        let parent = local.stack.last().map_or(0, |o| o.id);
        local.stack.push(Open {
            id,
            parent,
            name,
            task,
            start: now_ns(),
            child_ns: 0,
        });
    });
    Guard {
        live: true,
        flags: 0,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        let flags = self.flags;
        LOCAL.with(|cell| {
            let mut slot = cell.borrow_mut();
            let Some(local) = slot.as_mut() else {
                return;
            };
            let Some(open) = local.stack.pop() else {
                return;
            };
            let dur = end.saturating_sub(open.start);
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += dur;
            }
            let thread = local.thread;
            local.buf.push(Span {
                thread,
                id: open.id,
                parent: open.parent,
                name: open.name,
                task: open.task,
                start: open.start,
                end,
                child_ns: open.child_ns,
                flags,
            });
            if local.stack.is_empty() {
                // A poisoned sink only means another thread panicked
                // while draining; the spans in it stay valid.
                let mut sink = local.sink.lock().unwrap_or_else(|p| p.into_inner());
                sink.append(&mut local.buf);
            }
        });
    }
}

/// OR `bits` into the flags of the span this thread closed last (an
/// outcome learnt just after the call). Call before opening another
/// span.
pub fn flag_last(bits: u8) {
    if !enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(local) = slot.as_mut() else {
            return;
        };
        if let Some(last) = local.buf.last_mut() {
            last.flags |= bits;
        } else if let Some(last) = local
            .sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .last_mut()
        {
            last.flags |= bits;
        }
    });
}

/// Take every span recorded so far, grouped by thread, each group in
/// order of closing. Sinks of threads that have ended are dropped.
pub fn drain() -> Vec<Vec<Span>> {
    let mut sinks = SINKS.lock().expect("span sink registry poisoned");
    let spans = sinks
        .iter()
        .map(|s| std::mem::take(&mut *s.lock().unwrap_or_else(|p| p.into_inner())))
        .filter(|v| !v.is_empty())
        .collect();
    sinks.retain(|s| Arc::strong_count(s) > 1);
    spans
}

/// Write spans as tab-separated text, one span a line, after a header.
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tid\tparent\tname\ttask\tstart_ns\tend_ns\tself_ns\tflags"
    )?;
    for s in threads.iter().flatten() {
        let task = if s.task == NO_TASK {
            "-".to_string()
        } else {
            s.task.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}",
            s.thread,
            s.id,
            s.parent,
            s.name,
            task,
            s.start,
            s.end,
            s.self_ns(),
            s.flags
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        set_enabled(true);
        drain();
        {
            let _outer = span(Name::Simulate, NO_TASK);
            {
                let mut pop = span(Name::SchedPop, 7);
                pop.flag(flag::POP_HIT);
                let _est = span(Name::ModelEstimate, 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        {
            let _outer = span(Name::Simulate, 8);
            drop(span(Name::SchedPop, 8));
            flag_last(flag::HOLDBACK);
        }
        set_enabled(false);
        let spans: Vec<Span> = drain().into_iter().flatten().collect();
        let held: Vec<&Span> = spans.iter().filter(|s| s.task == 8).collect();
        assert_eq!(held.len(), 2);
        assert!(held
            .iter()
            .any(|s| s.name == Name::SchedPop && s.flags == flag::HOLDBACK));
        let mine: Vec<&Span> = spans
            .iter()
            .filter(|s| s.task == 7 || (s.name == Name::Simulate && s.task == NO_TASK))
            .collect();
        assert_eq!(mine.len(), 3);
        let est = mine.iter().find(|s| s.name == Name::ModelEstimate).unwrap();
        let pop = mine.iter().find(|s| s.name == Name::SchedPop).unwrap();
        let sim = mine.iter().find(|s| s.name == Name::Simulate).unwrap();
        assert_eq!(est.parent, pop.id);
        assert_eq!(pop.parent, sim.id);
        assert_eq!(sim.parent, 0);
        assert_eq!(pop.flags, flag::POP_HIT);
        assert_eq!(pop.child_ns, est.dur());
        assert!(est.dur() >= 2_000_000);
        assert!(pop.self_ns() < est.dur());
        assert_eq!(sim.child_ns, pop.dur());
    }
}
