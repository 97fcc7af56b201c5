//! Spans recorded from benchmark code around calls into the crates.
//!
//! Each thread keeps its own open-span stack, per-name totals and a
//! bounded span list; [`flush_thread`] moves them into the process-wide
//! collector. A span's self time is its duration minus the time its child
//! spans (opened later on the same thread, closed before it) cover.
//! Nothing is recorded while tracing is off: [`open`] is one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Option<Collected>> = Mutex::new(None);

/// Spans kept per thread for the span file; every span still counts in
/// the per-name totals once the list is full.
const KEEP_PER_THREAD: usize = 20_000;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    /// The commit this span served (0 when none).
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
struct Collected {
    agg: BTreeMap<&'static str, Agg>,
    spans: Vec<Span>,
    spans_not_kept: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    key: u64,
    start: Instant,
    child_ns: u64,
}

struct ThreadTrace {
    thread: u64,
    seq: u64,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    spans: Vec<Span>,
    not_kept: u64,
}

impl ThreadTrace {
    fn new() -> Self {
        ThreadTrace {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            seq: 0,
            stack: Vec::new(),
            agg: BTreeMap::new(),
            spans: Vec::new(),
            not_kept: 0,
        }
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Open a span on this thread. Returns false (and records nothing) when
/// tracing is off; pass the result to [`close`].
#[inline]
pub fn open(name: &'static str, key: u64) -> bool {
    if !enabled() {
        return false;
    }
    LOCAL.with(|t| {
        let mut t = t.borrow_mut();
        t.seq += 1;
        let id = (t.thread << 40) | t.seq;
        let key = if key == 0 {
            t.stack.last().map_or(0, |o| o.key)
        } else {
            key
        };
        t.stack.push(Open {
            name,
            id,
            key,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    true
}

/// Close the innermost open span (when `opened`); returns its duration in
/// nanoseconds.
#[inline]
pub fn close(opened: bool) -> u64 {
    if !opened {
        return 0;
    }
    let end = Instant::now();
    LOCAL.with(|t| {
        let mut t = t.borrow_mut();
        let Some(o) = t.stack.pop() else { return 0 };
        let dur = u64::try_from(end.duration_since(o.start).as_nanos()).unwrap_or(u64::MAX);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns = p.child_ns.saturating_add(dur);
                p.id
            }
            None => 0,
        };
        let a = t.agg.entry(o.name).or_default();
        a.count += 1;
        a.total_ns = a.total_ns.saturating_add(dur);
        a.self_ns = a.self_ns.saturating_add(dur.saturating_sub(o.child_ns));
        if t.spans.len() < KEEP_PER_THREAD {
            let e = epoch();
            let start_ns = u64::try_from(o.start.duration_since(e).as_nanos()).unwrap_or(0);
            t.spans.push(Span {
                name: o.name,
                id: o.id,
                parent,
                key: o.key,
                start_ns,
                end_ns: start_ns.saturating_add(dur),
            });
        } else {
            t.not_kept += 1;
        }
        dur
    })
}

/// Time `f` as a span named `name`.
#[inline]
pub fn span<T>(name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
    let o = open(name, key);
    let r = f();
    close(o);
    r
}

/// Move this thread's totals and spans into the process-wide collector.
pub fn flush_thread() {
    LOCAL.with(|t| {
        let mut t = t.borrow_mut();
        if t.agg.is_empty() && t.spans.is_empty() {
            return;
        }
        let agg = std::mem::take(&mut t.agg);
        let spans = std::mem::take(&mut t.spans);
        let not_kept = std::mem::take(&mut t.not_kept);
        let mut g = COLLECTED.lock().expect("trace collector poisoned");
        let c = g.get_or_insert_with(Collected::default);
        for (name, a) in agg {
            let e = c.agg.entry(name).or_default();
            e.count += a.count;
            e.total_ns = e.total_ns.saturating_add(a.total_ns);
            e.self_ns = e.self_ns.saturating_add(a.self_ns);
        }
        c.spans.extend(spans);
        c.spans_not_kept += not_kept;
    });
}

/// Forget everything collected so far (this thread's too).
pub fn reset() {
    LOCAL.with(|t| {
        let mut t = t.borrow_mut();
        t.agg.clear();
        t.spans.clear();
        t.not_kept = 0;
    });
    *COLLECTED.lock().expect("trace collector poisoned") = None;
}

/// Per-name totals collected so far (flushes this thread first).
pub fn totals() -> BTreeMap<&'static str, Agg> {
    flush_thread();
    COLLECTED
        .lock()
        .expect("trace collector poisoned")
        .as_ref()
        .map(|c| c.agg.clone())
        .unwrap_or_default()
}

/// Write the kept spans as tab-separated lines; returns (kept, not kept).
pub fn write_spans(path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    flush_thread();
    let g = COLLECTED.lock().expect("trace collector poisoned");
    let Some(c) = g.as_ref() else {
        return Ok((0, 0));
    };
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# name\tid\tparent\tkey\tstart_ns\tend_ns")?;
    let mut spans = c.spans.clone();
    spans.sort_by_key(|s| s.start_ns);
    for s in &spans {
        writeln!(
            f,
            "{}\t{:x}\t{:x}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.key, s.start_ns, s.end_ns
        )?;
    }
    f.flush()?;
    Ok((spans.len(), c.spans_not_kept))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        reset();
        let outer = open("t.outer", 7);
        let inner = open("t.inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_ns = close(inner);
        let outer_ns = close(outer);
        set_enabled(false);
        let t = totals();
        let o = t["t.outer"];
        let i = t["t.inner"];
        assert_eq!(o.count, 1);
        assert_eq!(o.total_ns, outer_ns);
        assert_eq!(o.self_ns, outer_ns - inner_ns);
        assert_eq!(i.self_ns, inner_ns);
        assert!(inner_ns >= 5_000_000);
        reset();
    }
}
