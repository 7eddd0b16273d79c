//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, end, the enclosing span on the same thread (the span that
//! caused it), and the op it belongs to, so every span of one request
//! shares an identifier. They stay in memory until the run ends and are
//! then written out as Chrome trace-event JSON. With tracing off a span
//! costs one branch, and end-to-end numbers always come from such a run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Enclosing span on the same thread, `0` at top level.
    pub parent: u64,
    /// Op (request) the span belongs to.
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Span recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Open span; records itself when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<(u64, u64, u64, &'static str, Instant)>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` for op `op`.
    pub fn span(&self, name: &'static str, op: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Guard {
            tracer: self,
            open: Some((id, parent, op, name, Instant::now())),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, op);
        f()
    }

    /// Every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Per-name self time in ns: each span's duration minus the time its
    /// direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &spans {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            *out.entry(s.name).or_default() += s.dur_ns.saturating_sub(children);
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(s.tid)),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::Int(s.op)),
                            ("id", Json::Int(s.id)),
                            ("parent", Json::Int(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).render()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, op, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        CURRENT.with(|c| c.set(parent));
        let span = Span {
            name,
            id,
            parent,
            op,
            tid: tid(),
            start_ns: start.duration_since(self.tracer.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Mean cost of one recorded span in ns, measured on a separate tracer.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let t = Tracer::on();
    let t0 = Instant::now();
    for i in 0..N {
        let _g = t.span("calibrate", i);
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let t = Tracer::on();
        {
            let _outer = t.span("outer", 7);
            let _inner = t.span("inner", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.op, outer.op), (7, 7));
        let selfs = t.self_time_ns();
        assert!(selfs["outer"] < selfs["inner"]);
        assert!(t.chrome_json().contains("\"traceEvents\""));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        t.time("x", 0, || ());
        assert!(t.spans().is_empty());
    }
}
