//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`; spans of one
//! request share `request_id`. Nothing is written until the run ends. A
//! layer's self time is its span's duration minus its direct children's.

use std::collections::BTreeMap;
use std::time::Instant;

use teccl_util::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: usize,
}

/// Name of the span that wraps one whole request; its self time is the
/// glue between layers, not a layer.
pub const ROOT: &str = "request";

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, a child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as one request: a [`ROOT`] span with a fresh `request_id`.
    /// Returns the result and the request's wall time in seconds.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.request_id += 1;
        let id = self.spans.len();
        let out = self.span(ROOT, f);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::from(s.name)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("request_id", Value::from(s.request_id as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, in seconds, in span order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= (s.end_ns - s.start_ns) as i64;
        }
    }
    own.into_iter().map(|ns| ns.max(0) as f64 * 1e-9).collect()
}

/// Per-name view of a finished trace.
pub struct Profile {
    /// Self time of each call, seconds, per span name.
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Profile {
    pub fn new(spans: &[Span]) -> Profile {
        let mut calls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            calls.entry(s.name).or_default().push(own);
        }
        Profile { calls }
    }

    /// Total self time under `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Median self time of one call of `name`, seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// Self time of every named layer (all spans but [`ROOT`]), seconds.
    pub fn layers_total_s(&self) -> f64 {
        self.calls
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(ROOT, 0, 1_000, None),
            span("a", 100, 600, Some(0)),
            span("b", 200, 300, Some(1)),
            span("b", 300, 500, Some(1)),
            span("c", 700, 900, Some(0)),
        ];
        let own = self_times(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(
            own.iter().copied().map(ns).collect::<Vec<_>>(),
            [300, 200, 100, 200, 200]
        );
        let p = Profile::new(&spans);
        assert_eq!(ns(p.total_s("b")), 300);
        assert_eq!(ns(p.layers_total_s()), 700);
        // Self times partition the root's duration.
        assert_eq!(ns(own.iter().sum::<f64>()), 1_000);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut tr = Tracer::new();
        let (v, wall) = tr.request(|tr| tr.span("outer", |tr| tr.span("inner", |_| 7)));
        assert_eq!(v, 7);
        tr.request(|tr| tr.span("outer", |_| ()));
        let s = tr.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            [ROOT, "outer", "inner", ROOT, "outer"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), None, Some(3)]
        );
        assert_eq!(
            s.iter().map(|s| s.request_id).collect::<Vec<_>>(),
            [1, 1, 1, 2, 2]
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!((wall - (s[0].end_ns - s[0].start_ns) as f64 * 1e-9).abs() < 1e-12);
    }
}
