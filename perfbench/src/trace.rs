//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the request or sweep point it belongs to. Spans are kept in a
//! `Vec` and written out once, when the run ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover; the same rule gives `trace.unattributed_frac` for root spans.
//! The tracer times its own recording, which gives `trace.overhead_frac`.

use std::time::Instant;

/// One recorded interval, in seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `engine.world` or `http.ttfb`.
    pub name: String,
    /// Request or point id shared by every span of that request/point.
    pub group: String,
    /// Index of the causing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span store for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Seconds spent recording spans.
    cost_s: f64,
}

impl Tracer {
    /// An empty tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            cost_s: 0.0,
        }
    }

    /// Record the interval `[t0, t1]` and return its index.
    pub fn push(
        &mut self,
        name: &str,
        group: &str,
        parent: Option<usize>,
        t0: Instant,
        t1: Instant,
    ) -> usize {
        self.push_secs(name, group, parent, self.secs(t0), self.secs(t1))
    }

    /// Record an interval given in seconds since the epoch.
    pub fn push_secs(
        &mut self,
        name: &str,
        group: &str,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        let t = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            group: group.to_string(),
            parent,
            start,
            end,
        });
        self.cost_s += t.elapsed().as_secs_f64();
        self.spans.len() - 1
    }

    /// Seconds from the epoch to `t` (negative if `t` is earlier).
    pub fn secs(&self, t: Instant) -> f64 {
        match t.checked_duration_since(self.epoch) {
            Some(d) => d.as_secs_f64(),
            None => -self.epoch.duration_since(t).as_secs_f64(),
        }
    }

    /// Seconds spent inside [`Tracer::push`] and [`Tracer::push_secs`]
    /// so far: what recording the spans cost.
    pub fn cost_s(&self) -> f64 {
        self.cost_s
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\":{i},\"name\":{:?},\"group\":{:?},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}{}\n",
                s.name,
                s.group,
                s.start,
                s.end,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of `spans[idx]`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let parent = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = parent.start;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.dur() - covered
}

/// Share of the spans named `root` that no child span covers: the sum
/// of their self times over the sum of their durations (0 without any).
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let mut total = 0.0;
    let mut unattributed = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            total += s.dur();
            unattributed += self_time(spans, i);
        }
    }
    if total > 0.0 {
        unattributed / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&str, Option<usize>, f64, f64)]) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        for &(name, parent, a, b) in spans {
            t.push_secs(name, "g", parent, a, b);
        }
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,10]; children [1,3] and [5,6]; a grandchild [1,2]
        // inside the first child must not be subtracted from the root.
        let t = tracer_with(&[
            ("root", None, 0.0, 10.0),
            ("a", Some(0), 1.0, 3.0),
            ("b", Some(0), 5.0, 6.0),
            ("a1", Some(1), 1.0, 2.0),
        ]);
        assert!((self_time(t.spans(), 0) - 7.0).abs() < 1e-12);
        assert!((self_time(t.spans(), 1) - 1.0).abs() < 1e-12);
        assert!((self_time(t.spans(), 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two overlapping children ([2,6] and [4,8]) cover 6 s; a child
        // leaking past the parent's end is clipped at 10.
        let t = tracer_with(&[
            ("root", None, 0.0, 10.0),
            ("a", Some(0), 2.0, 6.0),
            ("b", Some(0), 4.0, 8.0),
            ("c", Some(0), 9.0, 12.0),
        ]);
        assert!((self_time(t.spans(), 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unattributed_frac_sums_over_roots() {
        let t = tracer_with(&[
            ("unit", None, 0.0, 4.0),
            ("w", Some(0), 0.0, 3.0),
            ("unit", None, 4.0, 8.0),
            ("w", Some(2), 4.0, 8.0),
        ]);
        assert!((unattributed_frac(t.spans(), "unit") - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(unattributed_frac(t.spans(), "none"), 0.0);
    }

    #[test]
    fn recording_cost_accumulates() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.cost_s(), 0.0);
        t.push_secs("a", "g", None, 0.0, 1.0);
        let one = t.cost_s();
        t.push("b", "g", None, Instant::now(), Instant::now());
        assert!(one > 0.0 && t.cost_s() > one, "{one} {}", t.cost_s());
    }

    #[test]
    fn json_lists_every_span() {
        let t = tracer_with(&[("root", None, 0.0, 1.0), ("kid", Some(0), 0.25, 0.5)]);
        let json = t.to_json();
        assert!(json.contains("\"parent\":0"), "{json}");
        assert_eq!(json.matches("\"name\"").count(), 2);
    }
}
