//! Chrome-trace / Perfetto JSON export.
//!
//! Produces the "JSON Array Format" object — `{"traceEvents": [...]}` —
//! that `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Completed spans become `"ph":"X"` complete events
//! (timestamp + duration, microseconds); instants become `"ph":"i"`
//! thread-scoped instant events; still-open spans (enter without exit,
//! e.g. a crash mid-query) become `"ph":"B"` begin events so the viewer
//! shows them as unterminated.
//!
//! Hand-rolled serialization: the workspace builds offline, and every
//! field is a number or a known-clean static string, so no escaping
//! machinery is needed beyond [`json_str`] for labels.

use std::io::{self, Write};
use std::path::Path;

use crate::event::{EventKind, TraceEvent};
use crate::ring::{global, wall_anchor_micros};

/// `s` as a JSON string literal, quotes included, with everything JSON
/// requires escaped: the quote, the backslash, and the control characters
/// (`\n`, `\r` and `\t` by name, the rest as `\u00XX`). The workspace's
/// one JSON string escaper.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn push_event(out: &mut String, e: &TraceEvent, ph: &str) {
    let ts = e.start_nanos as f64 / 1e3; // Chrome trace timestamps are µs
    out.push_str(&format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"ts\":{:.3},",
        json_str(e.span.name()),
        json_str(e.span.category()),
        ph,
        ts
    ));
    if ph == "X" {
        out.push_str(&format!("\"dur\":{:.3},", e.dur_nanos as f64 / 1e3));
    }
    if ph == "i" {
        out.push_str("\"s\":\"t\",");
    }
    out.push_str(&format!("\"pid\":1,\"tid\":{},\"args\":{{", e.tid));
    out.push_str(&format!("\"seq\":{},\"arg\":{}", e.seq, e.arg));
    if let Some(label) = e.label {
        out.push_str(&format!(",\"label\":{}", json_str(label)));
    }
    out.push_str("}}");
}

/// Render `events` as a Chrome-trace JSON document. The top-level
/// `otherData.wallClockAnchorMicros` field records the wall-clock time
/// of `ts` 0, letting `stitch_trace.py` align exports from different
/// processes (and machines) on one timeline.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // An enter is "matched" when the same (tid, span, start) shows up as
    // an exit — the exit's X event covers it. Unmatched enters (spans
    // still open when the ring was read) are emitted as B events.
    let mut out = format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"wallClockAnchorMicros\":{}}},\"traceEvents\":[",
        wall_anchor_micros()
    );
    let mut first = true;
    for e in events {
        let ph = match e.kind {
            EventKind::Exit => "X",
            EventKind::Instant => "i",
            EventKind::Enter => {
                let matched = events.iter().any(|x| {
                    x.kind == EventKind::Exit
                        && x.tid == e.tid
                        && x.span == e.span
                        && x.start_nanos == e.start_nanos
                });
                if matched {
                    continue;
                }
                "B"
            }
        };
        if !first {
            out.push(',');
        }
        first = false;
        push_event(&mut out, e, ph);
    }
    out.push_str("]}");
    out
}

/// Export the global ring's current contents to `path`.
pub fn export_global(path: &Path) -> io::Result<()> {
    let json = chrome_trace_json(&global().snapshot());
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.flush()
}

/// Honour the `RQL_TRACE=out.json` environment contract: when the
/// variable names a path, export the global ring there and return the
/// path. Call at process exit (binaries) — errors are reported to the
/// caller, not swallowed.
pub fn export_from_env() -> Option<(std::path::PathBuf, io::Result<()>)> {
    let path = std::env::var_os("RQL_TRACE")?;
    if path.is_empty() {
        return None;
    }
    let path = std::path::PathBuf::from(path);
    let result = export_global(&path);
    Some((path, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;

    fn ev(seq: u64, kind: EventKind, span: SpanId, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            seq,
            kind,
            span,
            tid: 3,
            start_nanos: start,
            dur_nanos: dur,
            arg: 11,
            label: None,
        }
    }

    #[test]
    fn exits_become_complete_events_and_matched_enters_collapse() {
        let events = vec![
            ev(0, EventKind::Enter, SpanId::Scan, 1_000, 0),
            ev(1, EventKind::Instant, SpanId::CacheHit, 1_500, 0),
            ev(2, EventKind::Exit, SpanId::Scan, 1_000, 4_000),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        // One X for the scan, one i for the cache hit, no B.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 0);
        assert!(json.contains("\"name\":\"scan\""));
        assert!(json.contains("\"cat\":\"pagestore\""));
        assert!(json.contains("\"dur\":4.000"));
    }

    #[test]
    fn unmatched_enter_becomes_begin_event() {
        let events = vec![ev(0, EventKind::Enter, SpanId::QqIteration, 10, 0)];
        let json = chrome_trace_json(&events);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
    }

    #[test]
    fn labels_are_escaped_into_args() {
        let mut e = ev(0, EventKind::Exit, SpanId::BenchPhase, 0, 5);
        e.label = Some("load \"cold\"");
        let json = chrome_trace_json(&[e]);
        assert!(json.contains("\"label\":\"load \\\"cold\\\"\""));
    }

    #[test]
    fn empty_ring_is_still_valid_json() {
        let json = chrome_trace_json(&[]);
        let anchor = crate::ring::wall_anchor_micros();
        assert_eq!(
            json,
            format!(
                "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"wallClockAnchorMicros\":{anchor}}},\"traceEvents\":[]}}"
            )
        );
    }
}
