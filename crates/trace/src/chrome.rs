//! Chrome `chrome://tracing` / Perfetto JSON export.
//!
//! Renders drained [`Event`]s as complete-duration (`"ph":"X"`) trace
//! events. Jobs map to `tid`s in first-seen order, so one job's spans
//! stack on one timeline row; the process id is fixed. Load the output
//! in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::span::{EndReason, Event, SpanKind};
use std::fmt::Write as _;

/// Minimal JSON string escaping (names are `'static` identifiers, but a
/// malformed dump is never acceptable).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes events as a Chrome trace (`{"traceEvents":[...]}`).
/// Timestamps are microseconds from the tracer epoch; durations are
/// floored at 1 ns so instant events stay visible.
pub fn chrome_trace_json(events: &[Event]) -> String {
    // tid per distinct job, in first-seen order (tid 0 = unattributed).
    let mut jobs: Vec<u128> = Vec::new();
    let mut tid_of = |job: u128| -> usize {
        if job == 0 {
            return 0;
        }
        match jobs.iter().position(|&j| j == job) {
            Some(i) => i + 1,
            None => {
                jobs.push(job);
                jobs.len()
            }
        }
    };
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = ev.start_ns as f64 / 1000.0;
        let dur = (ev.dur_ns.max(1)) as f64 / 1000.0;
        let tid = tid_of(ev.job);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{",
            escape(ev.name),
            ev.kind.slug(),
        );
        let _ = write!(out, "\"job\":\"{:032x}\"", ev.job);
        if let Some(engine) = ev.engine {
            let _ = write!(out, ",\"engine\":\"{}\"", engine.slug());
        }
        if ev.kind == SpanKind::Rung || ev.kind == SpanKind::Job {
            let _ = write!(
                out,
                ",\"end\":\"{}\"",
                EndReason::from_code(ev.code).label()
            );
        } else if ev.code != 0 {
            let _ = write!(out, ",\"code\":{}", ev.code);
        }
        for (label, value) in [
            ("conflicts", ev.cost.conflicts),
            ("decisions", ev.cost.decisions),
            ("propagations", ev.cost.propagations),
            ("rounds", ev.cost.rounds),
            ("aig_nodes", ev.cost.aig_nodes),
            ("stimuli", ev.cost.stimuli),
            ("ops", ev.cost.ops),
        ] {
            if value != 0 {
                let _ = write!(out, ",\"{label}\":{value}");
            }
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Cost, EngineTag};

    #[test]
    fn renders_complete_events_with_args() {
        let events = vec![
            Event {
                name: "rung.symbolic",
                kind: SpanKind::Rung,
                job: 7,
                engine: Some(EngineTag::Symbolic),
                start_ns: 1500,
                dur_ns: 2500,
                code: EndReason::Holds.code(),
                cost: Cost {
                    conflicts: 12,
                    ..Cost::default()
                },
            },
            Event {
                name: "serve.memo",
                kind: SpanKind::MemoLookup,
                job: 7,
                engine: None,
                start_ns: 100,
                dur_ns: 0,
                code: 0,
                cost: Cost::default(),
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"rung.symbolic\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"end\":\"holds\""));
        assert!(json.contains("\"conflicts\":12"));
        assert!(json.contains("\"engine\":\"symbolic\""));
        // Both events share a job → same tid.
        assert_eq!(json.matches("\"tid\":1").count(), 2);
    }

    #[test]
    fn escaping_keeps_json_well_formed() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
