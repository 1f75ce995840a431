//! The benchmark's metric names, units and directions: one table that
//! the runs fill and `BENCHMARK.json` must list.

use crate::worlds::{Kind, Point};

/// A metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, reported by untraced runs of every workload.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("wall_s", "s", "lower"),
        m("setup_s", "s", "lower"),
        m("peak_rss_bytes", "bytes", "lower"),
        m("cpu_s", "s", "lower"),
        m("goodput_rps", "1/s", "higher"),
    ]
}

/// Per-layer metrics, reported by traced runs of every workload (0 for a
/// layer the workload does not exercise).
pub fn per_layer() -> Vec<Metric> {
    let mut v = Vec::new();
    for kind in [Kind::Sweep, Kind::Wide] {
        for p in kind.points() {
            let n = p.name();
            v.push(m(format!("engine.world_s.{n}"), "s", "lower"));
            v.push(m(format!("mailbox.msgs.{n}"), "count", "lower"));
            if p.is_virtual() {
                v.push(m(format!("engine.empty_world_s.{n}"), "s", "lower"));
                v.push(m(format!("engine.decisions.{n}"), "count", "lower"));
            } else {
                v.push(m(format!("engine.events.{n}"), "count", "lower"));
                v.push(m(format!("engine.bytes_per_rank.{n}"), "bytes", "lower"));
            }
        }
    }
    v.extend([
        m("engine.world_s", "s", "lower"),
        m("engine.cpu_user_s", "s", "lower"),
        m("engine.cpu_sys_s", "s", "lower"),
        m("engine.decisions", "count", "lower"),
        m("engine.decisions_per_s", "1/s", "higher"),
        m("engine.events", "count", "lower"),
        m("engine.events_per_s", "1/s", "higher"),
        m("mailbox.msgs", "count", "lower"),
        m("mailbox.msgs_per_s", "1/s", "higher"),
        m("codec.bytes", "bytes", "lower"),
        m("codec.encode_gbps", "GB/s", "higher"),
        m("codec.decode_gbps", "GB/s", "higher"),
        m("datagen_s", "s", "lower"),
    ]);
    for phase in ["connect", "send", "ttfb", "body"] {
        for q in ["p50", "p99"] {
            v.push(m(format!("http.{phase}_ms.{q}"), "ms", "lower"));
        }
    }
    v.extend([
        m("server.residual_ms.p50", "ms", "lower"),
        m("server.residual_ms.p99", "ms", "lower"),
        m("identity.key_us", "us", "lower"),
        m("cache.lookup_us", "us", "lower"),
        m("cache.fill_us", "us", "lower"),
        m("cache.entries", "count", "lower"),
        m("cache.bytes", "bytes", "lower"),
        m("cache.hits", "count", "higher"),
        m("cache.misses", "count", "lower"),
        m("cache.coalesced", "count", "higher"),
        m("runner.execute_ms.p50", "ms", "lower"),
        m("runner.execute_ms.p99", "ms", "lower"),
        m("runner.world_ms", "ms", "lower"),
        m("runner.check_ms", "ms", "lower"),
        m("runner.profile_ms", "ms", "lower"),
        m("runner.trace_ms", "ms", "lower"),
        m("runner.artifact_bytes", "bytes", "lower"),
        m("tenant.queue_us", "us", "lower"),
        m("loadgen.late_frac", "frac", "lower"),
        m("loadgen.late_p99_ms", "ms", "lower"),
        m("loadgen.requests", "count", "higher"),
        m("trace.overhead_frac", "frac", "lower"),
        m("trace.unattributed_frac", "frac", "lower"),
    ]);
    v
}

/// Per-point metric name, e.g. `engine.world_s.sort-1024`.
pub fn point_metric(base: &str, p: Point) -> String {
    format!("{base}.{}", p.name())
}

/// Metric values collected by a run, checked against a table.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Set `name` (replacing an earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every metric of `table` in table order, unset ones as 0, after
    /// checking that nothing outside the table was set and every value
    /// is finite.
    pub fn complete(&self, table: &[Metric]) -> Result<Vec<(Metric, f64)>, String> {
        if let Some((n, _)) = self
            .0
            .iter()
            .find(|(n, _)| !table.iter().any(|m| m.name == *n))
        {
            return Err(format!("metric {n} is not in the table"));
        }
        table
            .iter()
            .map(|m| {
                let v = self.get(&m.name).unwrap_or(0.0);
                if v.is_finite() {
                    Ok((m.clone(), v))
                } else {
                    Err(format!("metric {} is not finite", m.name))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_meet_the_benchmark_file_limits() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name repeats");
        assert!(per_layer().len() <= 128);
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for m in &all {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }

    #[test]
    fn complete_fills_zeros_and_rejects_strangers() {
        let table = end_to_end();
        let mut v = Values::default();
        v.set("wall_s", 2.0);
        v.set("wall_s", 3.0);
        let full = v.complete(&table).expect("complete");
        assert_eq!(full.len(), table.len());
        assert_eq!(full[0].1, 3.0);
        assert_eq!(full[1].1, 0.0);
        v.set("bogus", 1.0);
        assert!(v.complete(&table).is_err());
        let mut nan = Values::default();
        nan.set("cpu_s", f64::NAN);
        assert!(nan.complete(&table).is_err());
    }
}
