//! Trace exporters: chrome-trace JSON and the compact self-describing
//! format.
//!
//! * [`chrome_trace`] emits the Trace Event Format consumed by
//!   Perfetto / `chrome://tracing`: one `"ph": "X"` (complete) event
//!   per span with microsecond `ts`/`dur`, plus `"ph": "M"` metadata
//!   events naming each thread. Nesting is implied by containment, so
//!   the per-thread well-nestedness of the recorder renders directly as
//!   stacked slices.
//! * [`compact_trace`] emits `mttkrp-trace-v1`: nanosecond-precision
//!   records with explicit `depth`, smaller and easier to post-process
//!   than the chrome format.
//!
//! Both formats order spans as drained (grouped by thread, closing
//! order within a thread) and carry the recording crate as the span
//! category.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::escape;
use crate::trace::{dropped_spans, take_spans, thread_names, SpanRecord};

/// Render spans as a chrome-trace (Trace Event Format) JSON document.
///
/// Thread-name metadata covers every thread that has recorded a span,
/// so the prefetch/compute threads are labeled even when `spans` was
/// filtered. Timestamps are microseconds from the process trace epoch,
/// with nanosecond precision kept in the fraction.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, name) in thread_names() {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = write!(
            s,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(&name)
        );
    }
    // Buffer-overflow visibility: a metadata event viewers surface
    // next to the thread names (the count is also in `otherData`).
    if !first {
        s.push_str(",\n");
    }
    first = false;
    let _ = write!(
        s,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"dropped_spans\",\"args\":{{\"count\":{}}}}}",
        dropped_spans()
    );
    for r in spans {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = write!(
            s,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"depth\":{}",
            r.tid,
            escape(r.name),
            escape(r.cat),
            r.start_ns as f64 / 1e3,
            r.dur_ns as f64 / 1e3,
            r.depth,
        );
        if !r.arg_key.is_empty() {
            let _ = write!(s, ",\"{}\":{}", escape(r.arg_key), r.arg_val);
        }
        s.push_str("}}");
    }
    let _ = write!(
        s,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}}}}\n",
        dropped_spans()
    );
    s
}

/// Render spans in the compact self-describing `mttkrp-trace-v1`
/// format (nanosecond timestamps, explicit depth).
pub fn compact_trace(spans: &[SpanRecord]) -> String {
    let mut s = String::from("{\n  \"schema\": \"mttkrp-trace-v1\",\n");
    let _ = writeln!(s, "  \"clock\": \"ns since first span\",");
    let _ = writeln!(s, "  \"dropped_spans\": {},", dropped_spans());
    s.push_str("  \"threads\": [");
    let names = thread_names();
    for (i, (tid, name)) in names.iter().enumerate() {
        let comma = if i + 1 < names.len() { "," } else { "" };
        let _ = write!(
            s,
            "\n    {{\"tid\": {tid}, \"name\": \"{}\"}}{comma}",
            escape(name)
        );
    }
    s.push_str("\n  ],\n  \"spans\": [");
    for (i, r) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = write!(
            s,
            "\n    {{\"name\": \"{}\", \"cat\": \"{}\", \"tid\": {}, \"depth\": {}, \"start_ns\": {}, \"dur_ns\": {}",
            escape(r.name),
            escape(r.cat),
            r.tid,
            r.depth,
            r.start_ns,
            r.dur_ns,
        );
        if !r.arg_key.is_empty() {
            let _ = write!(s, ", \"{}\": {}", escape(r.arg_key), r.arg_val);
        }
        let _ = write!(s, "}}{comma}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn warn_if_spans_dropped() {
    let dropped = dropped_spans();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} spans dropped to buffer overflow; the trace is incomplete \
             (lower the trace level or shorten the traced region)"
        );
    }
}

/// Drain all buffered spans and write them to `path` as chrome-trace
/// JSON; returns the number of spans written. Warns on stderr when
/// spans were dropped to buffer overflow.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<usize> {
    let spans = take_spans();
    warn_if_spans_dropped();
    std::fs::write(path, chrome_trace(&spans))?;
    Ok(spans.len())
}

/// Drain all buffered spans and write them to `path` in the compact
/// format; returns the number of spans written. Warns on stderr when
/// spans were dropped to buffer overflow.
pub fn write_compact_trace(path: impl AsRef<Path>) -> io::Result<usize> {
    let spans = take_spans();
    warn_if_spans_dropped();
    std::fs::write(path, compact_trace(&spans))?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "mttkrp-obs",
            arg_key: "mode",
            arg_val: 2,
            tid: 0,
            depth: 1,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn chrome_trace_has_events_and_metadata() {
        let s = chrome_trace(&[rec("gemm", 1500, 2500)]);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"name\":\"gemm\""));
        assert!(s.contains("\"cat\":\"mttkrp-obs\""));
        assert!(s.contains("\"ts\":1.500"), "µs with ns fraction: {s}");
        assert!(s.contains("\"dur\":2.500"));
        assert!(s.contains("\"mode\":2"));
        assert!(s.contains("\"dropped_spans\":"));
    }

    #[test]
    fn compact_trace_is_self_describing() {
        let s = compact_trace(&[rec("krp", 10, 20)]);
        assert!(s.contains("\"schema\": \"mttkrp-trace-v1\""));
        assert!(s.contains("\"start_ns\": 10"));
        assert!(s.contains("\"dur_ns\": 20"));
        assert!(s.contains("\"depth\": 1"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_span_list_is_valid() {
        let c = chrome_trace(&[]);
        assert!(c.contains("\"traceEvents\":["));
        let k = compact_trace(&[]);
        assert!(k.contains("\"spans\": [\n  ]"), "got: {k}");
    }

    use crate::json::JsonValue;

    fn chrome_x_events(doc: &JsonValue) -> Vec<&JsonValue> {
        doc.get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect()
    }

    #[test]
    fn zero_duration_spans_render_as_valid_complete_events() {
        let doc = JsonValue::parse(&chrome_trace(&[rec("instant", 1500, 0)]))
            .expect("chrome trace with a zero-duration span must parse");
        let events = chrome_x_events(&doc);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("dur").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_f64), Some(1.5));
    }

    #[test]
    fn hostile_span_names_are_escaped_in_both_exporters() {
        // Quotes, backslashes, and a control character in the span
        // name, category, and arg key.
        let mut r = rec("he said \"hi\\there\"\u{1}", 10, 20);
        r.cat = "cat\"\\\n";
        r.arg_key = "key\twith\"tab";
        let chrome =
            JsonValue::parse(&chrome_trace(&[r.clone()])).expect("escaped chrome trace must parse");
        let ev = chrome_x_events(&chrome)[0];
        assert_eq!(
            ev.get("name").and_then(JsonValue::as_str),
            Some("he said \"hi\\there\"\u{1}"),
            "span name must round-trip through escaping"
        );
        assert_eq!(ev.get("cat").and_then(JsonValue::as_str), Some("cat\"\\\n"));
        assert_eq!(
            ev.get("args")
                .unwrap()
                .get("key\twith\"tab")
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let compact =
            JsonValue::parse(&compact_trace(&[r])).expect("escaped compact trace must parse");
        let span = &compact.get("spans").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(
            span.get("name").and_then(JsonValue::as_str),
            Some("he said \"hi\\there\"\u{1}")
        );
    }

    #[test]
    fn draining_an_empty_recorder_yields_a_valid_empty_document() {
        // With tracing off nothing records, so a drain is empty; the
        // resulting document must still be well-formed with zero
        // complete events and the dropped_spans metadata present.
        // (Rendered via the same pure functions `write_*_trace` uses on
        // the drained buffer.)
        let doc = JsonValue::parse(&chrome_trace(&[])).expect("empty chrome trace must parse");
        assert_eq!(chrome_x_events(&doc).len(), 0);
        let meta_dropped = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("dropped_spans"))
            .expect("dropped_spans metadata event");
        assert_eq!(
            meta_dropped
                .get("args")
                .unwrap()
                .get("count")
                .and_then(JsonValue::as_f64),
            Some(dropped_spans() as f64)
        );
        assert!(
            doc.get("otherData").unwrap().get("dropped_spans").is_some(),
            "footer keeps the count too"
        );
        let compact =
            JsonValue::parse(&compact_trace(&[])).expect("empty compact trace must parse");
        assert_eq!(
            compact.get("schema").and_then(JsonValue::as_str),
            Some("mttkrp-trace-v1")
        );
        assert_eq!(
            compact
                .get("spans")
                .and_then(JsonValue::as_arr)
                .unwrap()
                .len(),
            0
        );
        assert!(compact.get("dropped_spans").is_some());
    }
}
