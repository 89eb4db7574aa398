//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out at the end as Chrome trace-event JSON (Perfetto
//! opens it). A span's self time is its duration minus the part of it
//! its children cover; the self time of the root spans is the time no
//! layer accounts for.

use serve::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `codegen.build`.
    pub name: &'static str,
    /// Request id: the `(model, config)` pair or the job id.
    pub req: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the parent span; `None` for a root.
    pub parent: Option<usize>,
    /// Lane in the trace viewer (client thread for serve jobs).
    pub lane: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The span recorder. Disabled, it records nothing and costs one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled` is the `--trace` flag.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        req: &str,
        parent: Option<usize>,
        lane: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            req: req.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            lane,
        };
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children
    /// recorded in between name it as their parent.
    pub fn open(&self, name: &'static str, req: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, req, parent, 0, now, now)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let end = self.us(Instant::now());
        self.spans.lock().expect("tracer lock poisoned")[id].end_us = end;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(
        &self,
        name: &'static str,
        req: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, 0, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Self time of every span in milliseconds: its duration minus the union
/// of its children's intervals.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_us);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            ((s.end_us - s.start_us) - covered) / 1e3
        })
        .collect()
}

/// Total self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ms) in spans.iter().zip(self_ms(spans)) {
        *out.entry(s.name).or_insert(0.0) += ms;
    }
    out
}

/// The spans as a Chrome trace-event document (`"ph":"X"` complete
/// events; the layer is the part of the name before the first dot).
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut args = vec![("req", Json::str(&s.req)), ("id", i.into())];
            if let Some(p) = s.parent {
                args.push(("parent", p.into()));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer)),
                ("ph", Json::str("X")),
                ("ts", s.start_us.into()),
                ("dur", (s.end_us - s.start_us).into()),
                ("pid", 1u64.into()),
                ("tid", s.lane.into()),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            req: String::new(),
            start_us,
            end_us,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0.0, 10_000.0, None),
            span(1_000.0, 4_000.0, Some(0)),
            span(3_000.0, 5_000.0, Some(0)),
            span(8_000.0, 12_000.0, Some(0)),
        ];
        let own = self_ms(&spans);
        // Children cover [1,5] and [8,10] ms of the root's [0,10] ms.
        assert!((own[0] - 4.0).abs() < 1e-9, "{}", own[0]);
        assert!((own[1] - 3.0).abs() < 1e-9);
    }
}
