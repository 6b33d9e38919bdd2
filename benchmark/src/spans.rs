//! Benchmark-owned spans around every call the benchmark makes into a
//! layer: name, start, end, parent and op id, kept in memory and written
//! as a Chrome trace when the run ends. No span is added inside the
//! program; these stand outside it.

use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
}

/// Recorder. When off (the untraced run) `time` only calls the closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    records: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            records: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off, here and in `rql_trace`.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        rql_trace::set_enabled(on);
    }

    /// Run `f` inside a span named `layer.call`, attributed to op `op`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.records.len();
        self.records.push(SpanRec {
            name,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            end_us: 0.0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        // The same phase in the program's own ring, so the exported ring
        // shows which benchmark phase its events belong to.
        let guard = rql_trace::span_labeled(rql_trace::SpanId::BenchPhase, name);
        let out = f(self);
        drop(guard);
        self.stack.pop();
        self.records[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Total milliseconds per span name over top-level children of spans
    /// named `parent`, in first-seen order: the layer sum of an op class.
    pub fn children_ms(&self, parent: &str) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for r in &self.records {
            let Some(p) = r.parent else { continue };
            if self.records[p].name != parent {
                continue;
            }
            let ms = (r.end_us - r.start_us) / 1e3;
            match out.iter_mut().find(|(n, _)| *n == r.name) {
                Some(slot) => slot.1 += ms,
                None => out.push((r.name, ms)),
            }
        }
        out
    }

    /// Total milliseconds of spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_us - r.start_us) / 1e3)
            .sum()
    }

    /// The spans as Chrome-trace JSON (complete `X` events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = r.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                r.name,
                r.start_us,
                r.end_us - r.start_us,
                r.op
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_sums() {
        let mut s = Spans::new();
        s.time("off", 0, |_| ());
        assert!(s.records.is_empty());
        s.set_on(true);
        s.time("op", 1, |s| {
            s.time("a.x", 1, |_| ());
            s.time("a.x", 1, |_| ());
            s.time("b.y", 1, |s| s.time("deep", 1, |_| ()));
        });
        s.set_on(false);
        let names: Vec<_> = s.children_ms("op").iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a.x", "b.y"]);
        assert_eq!(s.records[4].parent, Some(3));
        assert!(s.total_ms("op") >= s.total_ms("a.x"));
        assert!(crate::json::parse(&s.chrome_json()).is_ok());
    }
}
