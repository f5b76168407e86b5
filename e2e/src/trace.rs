//! Benchmark-side spans around the calls into each layer.
//!
//! The program itself carries no spans: the traced replay calls each layer's
//! public entry points in turn and wraps every call here. Each unit of work
//! (a matrix, a request, a drift step) is one root span named [`UNIT`];
//! computations that only *estimate* the inside of a real call (the split
//! eigensolve behind `core.reorder`, the in-process copy of what the daemon
//! does for a request) run outside the units under [`SHADOW`] roots and are
//! grafted into the unit they describe, scaled to fit it. A span's self time
//! is its duration minus its children's, so the self times of every span in
//! the units add up to the units' total, which is the traced end-to-end time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::Value;

/// Name of the root span of one unit of work.
pub const UNIT: &str = "unit";
/// Name of the root span of a shadow computation.
pub const SHADOW: &str = "shadow";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// `layer.call`, or [`UNIT`] / [`SHADOW`].
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Unit of work the span belongs to.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; written out once, when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// A tracer whose clock starts at `origin`, for spans measured since.
    pub fn since(origin: Instant) -> Tracer {
        Tracer {
            origin,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens `name` under the innermost open span; a root opened with
    /// `name == UNIT` starts a new unit of work.
    pub fn open(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() && name == UNIT {
            self.request += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records a span whose times were measured elsewhere (the daemon's
    /// queue and execution times, which arrive in its responses).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        let request = self.spans[parent].request;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns,
            end_ns,
            request,
        });
        id
    }

    /// A root span measured elsewhere (a request's send-to-answer interval).
    pub fn record_unit(&mut self, start_ns: u64, end_ns: u64) -> usize {
        self.request += 1;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: None,
            name: UNIT,
            start_ns,
            end_ns,
            request: self.request,
        });
        id
    }

    /// Nanoseconds between the tracer's origin and `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration(&self, id: usize) -> u64 {
        self.spans[id].duration()
    }

    /// Direct children of `id`, in start order.
    pub fn children(&self, id: usize) -> Vec<usize> {
        self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.id)
            .collect()
    }

    /// Copies the subtrees `ids` (typically a shadow root's children) under
    /// `into`, laid end to end from `start_ns` and shrunk, when they are
    /// longer, to fit in `budget_ns`. Returns where the last copy ends.
    pub fn graft(&mut self, ids: &[usize], into: usize, start_ns: u64, budget_ns: u64) -> u64 {
        let total: u64 = ids.iter().map(|&id| self.duration(id)).sum();
        let scale = if total > budget_ns {
            budget_ns as f64 / total as f64
        } else {
            1.0
        };
        let mut cursor = start_ns;
        for &id in ids {
            let origin = self.spans[id].start_ns;
            self.copy_subtree(id, into, origin, cursor, scale);
            cursor += (self.duration(id) as f64 * scale) as u64;
        }
        cursor
    }

    fn copy_subtree(&mut self, id: usize, parent: usize, origin: u64, at: u64, scale: f64) {
        let map = |t: u64| at + ((t - origin) as f64 * scale) as u64;
        let (name, start, end) = (
            self.spans[id].name,
            self.spans[id].start_ns,
            self.spans[id].end_ns,
        );
        let copy = self.record(name, parent, map(start), map(end));
        for child in self.children(id) {
            self.copy_subtree(child, copy, origin, at, scale);
        }
    }

    /// Writes every span as a JSON array of
    /// `{id, parent, name, start_ns, end_ns, request}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("request".into(), Value::UInt(s.request)),
                ])
            })
            .collect();
        let text = serde_json::to_string(&Value::Array(spans))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, text)
    }
}

/// Where the traced time of the units went.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    /// Number of units of work.
    pub units: usize,
    /// Sum of the units' durations: the traced end-to-end time.
    pub e2e_ns: u64,
    /// Unit time covered by no layer span.
    pub unattributed_ns: u64,
    /// Total duration of each span name inside the units.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Total self time of each span name inside the units.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Busy milliseconds of `name` per unit of work.
    pub fn ms_per_unit(&self, name: &str) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.units.max(1) as f64
    }

    /// Share of the traced time spent in spans of `layer` (the part of a
    /// span name before the first dot), counting self time only.
    pub fn layer_share(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / self.e2e_ns.max(1) as f64
    }
}

/// Per-name busy and self time over the [`UNIT`] trees of `spans`; shadow
/// trees are left out.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration();
        }
    }
    let mut root_of = vec![0usize; spans.len()];
    let mut out = Breakdown::default();
    for s in spans {
        root_of[s.id] = s.parent.map_or(s.id, |p| root_of[p]);
        if spans[root_of[s.id]].name != UNIT {
            continue;
        }
        let own = s.duration().saturating_sub(child_ns[s.id]);
        if s.parent.is_none() {
            out.units += 1;
            out.e2e_ns += s.duration();
            out.unattributed_ns += own;
        } else {
            *out.busy_ns.entry(s.name).or_default() += s.duration();
            *out.self_ns.entry(s.name).or_default() += own;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_the_units() {
        let mut t = Tracer::default();
        for _ in 0..3 {
            t.span(UNIT, |t| {
                t.span("sparse.parse", |_| spin(200));
                t.span("core.reorder", |t| {
                    spin(100);
                    t.span("linalg.lanczos", |_| spin(300));
                });
                spin(50);
            });
        }
        // A shadow tree is not part of the traced time.
        t.span(SHADOW, |t| t.span("linalg.kmeans", |_| spin(100)));
        let b = breakdown(t.spans());
        assert_eq!(b.units, 3);
        assert!(!b.busy_ns.contains_key("linalg.kmeans"));
        let total: u64 = b.self_ns.values().sum::<u64>() + b.unattributed_ns;
        assert_eq!(total, b.e2e_ns);
        assert!(b.busy_ns["core.reorder"] > b.self_ns["core.reorder"]);
        assert!(b.ms_per_unit("linalg.lanczos") >= 0.3);
        let shares: f64 = ["sparse", "core", "linalg"]
            .iter()
            .map(|l| b.layer_share(l))
            .sum::<f64>()
            + b.unattributed_ns as f64 / b.e2e_ns as f64;
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grafted_shadows_fit_inside_their_target() {
        let mut t = Tracer::default();
        let unit = t.open(UNIT);
        let reorder = t.open("core.reorder");
        spin(200);
        t.close(reorder);
        t.close(unit);
        let shadow = t.open(SHADOW);
        t.span("linalg.laplacian", |_| spin(200));
        t.span("linalg.lanczos", |t| t.span("linalg.kmeans", |_| spin(200)));
        t.close(shadow);
        let kids = t.children(shadow);
        assert_eq!(kids.len(), 2);
        let target = t.spans()[reorder].clone();
        let end = t.graft(
            &kids,
            reorder,
            target.start_ns,
            target.end_ns - target.start_ns,
        );
        assert!(end <= target.end_ns);
        assert_eq!(t.children(reorder).len(), 2);
        let b = breakdown(t.spans());
        assert!(
            b.busy_ns.contains_key("linalg.kmeans"),
            "descendants come along"
        );
        assert!(
            b.busy_ns["linalg.laplacian"] + b.busy_ns["linalg.lanczos"]
                <= b.busy_ns["core.reorder"]
        );
        let total: u64 = b.self_ns.values().sum::<u64>() + b.unattributed_ns;
        assert_eq!(total, b.e2e_ns);
    }
}
