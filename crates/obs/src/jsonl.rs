//! JSONL export of a tracer's record, for the experiment scripts.
//!
//! One JSON object per line. Three record shapes, discriminated by
//! `"rec"`:
//!
//! * `{"rec":"event", "seq":…, "t_us":…, "span":…, "parent":…,
//!    "name":…, "kind":"span_start"|"span_end"|"instant"|"counter",
//!    "elapsed_us"?:…, "value"?:…, "fields"?:{…}}`
//! * `{"rec":"counter", "name":…, "value":…}` — final totals.
//! * `{"rec":"stage", "name":…, "count":…, "sum_us":…, "min_us":…,
//!    "max_us":…, "p50_us":…, "p99_us":…}` — stage histogram summary.
//!
//! The writer is hand-rolled (std-only workspace); [`escape_json_into`]
//! covers the string-escaping corner cases and is unit-tested below.

use crate::tracer::{EventKind, Tracer};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Append `s` to `out` as a JSON string literal (including quotes).
pub fn escape_json_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a [`Tracer`]'s events, counters, and stage summaries as JSON
/// lines to any `Write` target (`results/*.jsonl` by convention).
pub struct JsonlSink<W: Write> {
    out: W,
    lines: usize,
}

impl JsonlSink<BufWriter<std::fs::File>> {
    /// Create (truncate) a JSONL file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "a trace export, not a store or model file: a torn line is what a reader of an interrupted run expects"
        )]
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> usize {
        self.lines
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Export the full record of `tracer`: every event in causal order,
    /// then counter totals, then stage summaries. Returns the number of
    /// lines written by this call.
    pub fn export(&mut self, tracer: &Tracer) -> io::Result<usize> {
        let before = self.lines;
        let mut line = String::new();
        for e in tracer.events() {
            line.clear();
            let _ = write!(
                line,
                "{{\"rec\":\"event\",\"seq\":{},\"t_us\":{},\"span\":{},\"parent\":{},\"name\":",
                e.seq, e.t_us, e.span, e.parent
            );
            escape_json_into(e.name, &mut line);
            match &e.kind {
                EventKind::SpanStart => line.push_str(",\"kind\":\"span_start\""),
                EventKind::SpanEnd { elapsed_us } => {
                    let _ = write!(line, ",\"kind\":\"span_end\",\"elapsed_us\":{elapsed_us}");
                }
                EventKind::Instant => line.push_str(",\"kind\":\"instant\""),
                EventKind::Counter { value } => {
                    let _ = write!(line, ",\"kind\":\"counter\",\"value\":{value}");
                }
            }
            if !e.fields.is_empty() {
                line.push_str(",\"fields\":{");
                for (i, (k, v)) in e.fields.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    escape_json_into(k, &mut line);
                    line.push(':');
                    escape_json_into(v, &mut line);
                }
                line.push('}');
            }
            line.push('}');
            self.write_line(&line)?;
        }
        for (name, value) in tracer.counters() {
            line.clear();
            line.push_str("{\"rec\":\"counter\",\"name\":");
            escape_json_into(name, &mut line);
            let _ = write!(line, ",\"value\":{value}}}");
            self.write_line(&line)?;
        }
        for (name, h) in tracer.stages() {
            line.clear();
            line.push_str("{\"rec\":\"stage\",\"name\":");
            escape_json_into(name, &mut line);
            let _ = write!(
                line,
                ",\"count\":{},\"sum_us\":{},\"min_us\":{},\"max_us\":{},\"p50_us\":{},\"p99_us\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.p50(),
                h.p99()
            );
            self.write_line(&line)?;
        }
        self.out.flush()?;
        Ok(self.lines - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_json_into(s, &mut out);
        out
    }

    #[test]
    fn escaping_covers_the_corners() {
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b"), "\"a\\\\b\"");
        assert_eq!(escaped("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("naïve 表"), "\"naïve 表\"");
    }

    #[test]
    fn export_writes_one_json_object_per_line() {
        let t = Tracer::enabled();
        {
            let _s = t.span("annotate");
            t.incr("cache.hit", 2);
            t.event_with("degrade.column", vec![("column", "1".to_string())]);
        }
        t.record_us("serve.queue_wait", 55);
        let mut sink = JsonlSink::new(Vec::new());
        let n = sink.export(&t).expect("in-memory export");
        let text = String::from_utf8(sink.out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), n);
        // events: span start/end + counter + instant = 4; counters: 1;
        // stages: annotate + serve.queue_wait = 2.
        assert_eq!(n, 7);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
            // Balanced braces (flat objects, escaped strings only).
            assert_eq!(
                l.matches('{').count(),
                l.matches('}').count(),
                "unbalanced: {l}"
            );
        }
        assert!(text.contains("\"rec\":\"event\""));
        assert!(text.contains("\"name\":\"degrade.column\""));
        assert!(text.contains("\"fields\":{\"column\":\"1\"}"));
        assert!(text.contains("\"rec\":\"counter\",\"name\":\"cache.hit\",\"value\":2"));
        assert!(text.contains("\"rec\":\"stage\",\"name\":\"serve.queue_wait\""));
    }

    #[test]
    fn export_of_disabled_tracer_is_empty() {
        let mut sink = JsonlSink::new(Vec::new());
        let n = sink.export(&Tracer::disabled()).unwrap();
        assert_eq!(n, 0);
        assert!(sink.out.is_empty());
    }
}
