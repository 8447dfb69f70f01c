//! Trace emission: JSONL streams and Chrome trace-event JSON.
//!
//! Both formats contain only simulation time — nanoseconds for JSONL,
//! microseconds (the Chrome convention) for trace-event — so two runs with
//! the same seed emit byte-identical output.

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::MetricsSnapshot;
use serde::{Serialize, Value};

/// Emit records as JSONL: one compact JSON object per line, trailing
/// newline after each record.
pub fn jsonl<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&serde_json::to_string(rec).expect("trace records always serialize"));
        out.push('\n');
    }
    out
}

/// The one metrics-JSON shape every surface shares: the snapshot's derived
/// serialization, verbatim. The CLI `summary --json` path and the serve
/// daemon's Stats / metrics ops all go through here so their `"metrics"`
/// sections can never drift apart (golden-tested).
pub fn metrics_value(snap: &MetricsSnapshot) -> Value {
    snap.to_value()
}

/// Per-name counter totals with labels summed, sorted by name — the flat
/// counter section of the serve daemon's Stats response.
pub fn counter_totals(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for e in &snap.counters {
        let base = e.key.split('{').next().unwrap_or(&e.key);
        match totals.iter_mut().find(|(n, _)| n == base) {
            Some((_, v)) => *v += e.value,
            None => totals.push((base.to_string(), e.value)),
        }
    }
    totals.sort_by(|a, b| a.0.cmp(&b.0));
    totals
}

/// Process ID used for diagnosis-pipeline (non-switch) rows in the Chrome
/// trace. Switch `s` maps to pid `s + 1`, so pid 0 is free.
const ANALYZER_PID: u64 = 0;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

/// A complete-span event (`ph: "X"`).
fn complete(name: &str, pid: u64, tid: u64, start_ns: u64, dur_ns: u64, args: Value) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("X".to_string())),
        ("ts", us(start_ns)),
        ("dur", us(dur_ns)),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(tid)),
        ("args", args),
    ])
}

/// An instant event (`ph: "i"`, thread scope).
fn instant(name: &str, pid: u64, tid: u64, at_ns: u64, args: Value) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("i".to_string())),
        ("s", Value::Str("t".to_string())),
        ("ts", us(at_ns)),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(tid)),
        ("args", args),
    ])
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, label: String) -> Value {
    let mut fields = vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(pid)),
    ];
    if let Some(t) = tid {
        fields.push(("tid", Value::UInt(t)));
    }
    fields.push(("args", obj(vec![("name", Value::Str(label))])));
    obj(fields)
}

fn flow_args(src: u32, dst: u32, sport: u16) -> (&'static str, Value) {
    ("victim", Value::Str(format!("{src}:{sport}->{dst}")))
}

/// Render records into Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). Layout:
///
/// * each switch is a *process* (pid = switch + 1), each of its ports a
///   *thread*;
/// * PFC pause intervals become complete spans on the (switch, port) row,
///   bracketed by `pfc_pause` / `pfc_resume` instants; a pause with no
///   matching resume is closed at the trace end;
/// * probe hops, CPU mirrors and enqueues are instants on their rows;
/// * detections and diagnosis stage spans live on pid 0 ("diagnosis").
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<Value> = Vec::new();
    let mut seen_rows: Vec<(u64, u64)> = Vec::new(); // (pid, tid) emitted metadata
    let mut open_pauses: Vec<((u32, u8, u8), u64)> = Vec::new();
    let last_ns = records.iter().map(|r| r.at_ns).max().unwrap_or(0);

    events.push(metadata(
        "process_name",
        ANALYZER_PID,
        None,
        "diagnosis".to_string(),
    ));

    let note_row = |events: &mut Vec<Value>, seen: &mut Vec<(u64, u64)>, sw: u32, port: u8| {
        let pid = sw as u64 + 1;
        let tid = port as u64;
        if !seen.contains(&(pid, 0)) {
            // One process_name per switch; tid 0 marks the process as seen.
            events.push(metadata("process_name", pid, None, format!("switch {sw}")));
            seen.push((pid, 0));
        }
        if !seen.contains(&(pid, tid + 1)) {
            events.push(metadata(
                "thread_name",
                pid,
                Some(tid),
                format!("port {port}"),
            ));
            seen.push((pid, tid + 1));
        }
        (pid, tid)
    };

    for rec in records {
        match &rec.event {
            TraceEvent::Enqueue {
                switch,
                out_port,
                flow,
                qdepth_pkts,
                qdepth_bytes,
                paused,
                ..
            } => {
                let (pid, tid) = note_row(&mut events, &mut seen_rows, *switch, *out_port);
                events.push(instant(
                    "enqueue",
                    pid,
                    tid,
                    rec.at_ns,
                    obj(vec![
                        ("flow", Value::UInt(*flow as u64)),
                        ("qdepth_pkts", Value::UInt(*qdepth_pkts as u64)),
                        ("qdepth_bytes", Value::UInt(*qdepth_bytes)),
                        ("paused", Value::Bool(*paused)),
                    ]),
                ));
            }
            TraceEvent::PfcPause {
                switch,
                port,
                class,
                pause_ns,
            } => {
                let (pid, tid) = note_row(&mut events, &mut seen_rows, *switch, *port);
                events.push(instant(
                    "pfc_pause",
                    pid,
                    tid,
                    rec.at_ns,
                    obj(vec![
                        ("class", Value::UInt(*class as u64)),
                        ("pause_ns", Value::UInt(*pause_ns)),
                    ]),
                ));
                let key = (*switch, *port, *class);
                // A re-pause refreshes the pause; keep the original start.
                if !open_pauses.iter().any(|(k, _)| *k == key) {
                    open_pauses.push((key, rec.at_ns));
                }
            }
            TraceEvent::PfcResume {
                switch,
                port,
                class,
            } => {
                let (pid, tid) = note_row(&mut events, &mut seen_rows, *switch, *port);
                events.push(instant(
                    "pfc_resume",
                    pid,
                    tid,
                    rec.at_ns,
                    obj(vec![("class", Value::UInt(*class as u64))]),
                ));
                let key = (*switch, *port, *class);
                if let Some(i) = open_pauses.iter().position(|(k, _)| *k == key) {
                    let (_, start) = open_pauses.remove(i);
                    events.push(complete(
                        "PFC paused",
                        pid,
                        tid,
                        start,
                        rec.at_ns.saturating_sub(start),
                        obj(vec![("class", Value::UInt(*class as u64))]),
                    ));
                }
            }
            TraceEvent::ProbeHop {
                switch,
                in_port,
                victim_src,
                victim_dst,
                victim_sport,
                flags,
                ttl,
                emitted,
                mirrored,
            } => {
                let (pid, tid) = note_row(&mut events, &mut seen_rows, *switch, *in_port);
                events.push(instant(
                    "probe_hop",
                    pid,
                    tid,
                    rec.at_ns,
                    obj(vec![
                        flow_args(*victim_src, *victim_dst, *victim_sport),
                        ("flags", Value::UInt(*flags as u64)),
                        ("ttl", Value::UInt(*ttl as u64)),
                        ("emitted", Value::UInt(*emitted as u64)),
                        ("mirrored", Value::Bool(*mirrored)),
                    ]),
                ));
            }
            TraceEvent::CpuMirror {
                switch,
                victim_src,
                victim_dst,
                victim_sport,
            } => {
                // CPU mirror is switch-wide, not per-port: use tid 255.
                let (pid, _) = note_row(&mut events, &mut seen_rows, *switch, 255);
                events.push(instant(
                    "cpu_mirror",
                    pid,
                    255,
                    rec.at_ns,
                    obj(vec![flow_args(*victim_src, *victim_dst, *victim_sport)]),
                ));
            }
            TraceEvent::Detection {
                victim_src,
                victim_dst,
                victim_sport,
                rtt_ns,
            } => {
                events.push(instant(
                    "detection",
                    ANALYZER_PID,
                    0,
                    rec.at_ns,
                    obj(vec![
                        flow_args(*victim_src, *victim_dst, *victim_sport),
                        ("rtt_ns", Value::UInt(*rtt_ns)),
                    ]),
                ));
            }
            TraceEvent::StageSpan {
                stage,
                from_ns,
                to_ns,
            } => {
                events.push(complete(
                    stage,
                    ANALYZER_PID,
                    1,
                    *from_ns,
                    to_ns.saturating_sub(*from_ns),
                    obj(vec![]),
                ));
            }
            TraceEvent::DropWarning {
                switch,
                what,
                count,
            } => {
                // Switch-wide, like CPU mirrors: use tid 255.
                let (pid, _) = note_row(&mut events, &mut seen_rows, *switch, 255);
                events.push(instant(
                    "drop_warning",
                    pid,
                    255,
                    rec.at_ns,
                    obj(vec![
                        ("what", Value::Str(what.clone())),
                        ("count", Value::UInt(*count)),
                    ]),
                ));
            }
        }
    }

    // Close pauses that never saw a resume, so the stall is visible.
    for ((sw, port, class), start) in open_pauses {
        let pid = sw as u64 + 1;
        events.push(complete(
            "PFC paused (unresolved)",
            pid,
            port as u64,
            start,
            last_ns.saturating_sub(start),
            obj(vec![("class", Value::UInt(class as u64))]),
        ));
    }

    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ]);
    serde_json::to_string(&doc).expect("chrome trace always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<TraceRecord> {
        let mut t = crate::Tracer::new(64);
        t.record(
            100,
            TraceEvent::PfcPause {
                switch: 2,
                port: 1,
                class: 0,
                pause_ns: 900,
            },
        );
        t.record(
            150,
            TraceEvent::ProbeHop {
                switch: 2,
                in_port: 1,
                victim_src: 0,
                victim_dst: 5,
                victim_sport: 77,
                flags: 3,
                ttl: 30,
                emitted: 2,
                mirrored: true,
            },
        );
        t.record(
            400,
            TraceEvent::PfcResume {
                switch: 2,
                port: 1,
                class: 0,
            },
        );
        t.record(
            500,
            TraceEvent::StageSpan {
                stage: "graph_build".into(),
                from_ns: 0,
                to_ns: 500,
            },
        );
        t.records().cloned().collect()
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let recs = records();
        let out = jsonl(&recs);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            serde_json::parse(line).expect("line parses as JSON");
        }
        assert!(lines[0].contains("PfcPause"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_parses_and_pairs_pauses() {
        let out = chrome_trace(&records());
        let doc = serde_json::parse(&out).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"pfc_pause"));
        assert!(names.contains(&"pfc_resume"));
        assert!(names.contains(&"probe_hop"));
        assert!(names.contains(&"PFC paused"));
        assert!(names.contains(&"graph_build"));
        // The paired pause span covers [100, 400] ns => ts 0.1 us, dur 0.3 us.
        let span = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("PFC paused"))
            .unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert!((span.get("ts").unwrap().as_f64().unwrap() - 0.1).abs() < 1e-9);
        assert!((span.get("dur").unwrap().as_f64().unwrap() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn unresolved_pause_is_closed_at_trace_end() {
        let mut t = crate::Tracer::new(8);
        t.record(
            10,
            TraceEvent::PfcPause {
                switch: 0,
                port: 3,
                class: 0,
                pause_ns: 1000,
            },
        );
        t.record(
            90,
            TraceEvent::PfcResume {
                switch: 0,
                port: 4,
                class: 0,
            },
        ); // other port
        let recs: Vec<TraceRecord> = t.records().cloned().collect();
        let out = chrome_trace(&recs);
        let doc = serde_json::parse(&out).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("PFC paused (unresolved)"))
            .unwrap();
        assert!((span.get("dur").unwrap().as_f64().unwrap() - 0.08).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_of_empty_records_is_valid() {
        let out = chrome_trace(&[]);
        let doc = serde_json::parse(&out).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() == 1);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        use crate::metrics::{MetricKey, MetricsRegistry};
        let mut reg = MetricsRegistry::new();
        reg.add(MetricKey::global("epochs_ingested"), 7);
        reg.add(MetricKey::at_switch("epochs_ingested", 2), 3);
        reg.add(MetricKey::at_switch("epochs_ingested", 0), 1);
        reg.set(MetricKey::global("goodput_bps"), 2.5e9);
        for v in [0u64, 3, 3, 900] {
            reg.observe(MetricKey::at_port("lat_ns", 1, 0), v);
        }
        reg.snapshot()
    }

    #[test]
    fn metrics_value_is_snapshot_to_value() {
        let snap = sample_snapshot();
        assert_eq!(metrics_value(&snap), snap.to_value());
    }

    /// Golden bytes for the shared metrics-JSON shape: the CLI `summary
    /// --json` "metrics" section and the daemon's `Metrics` response both
    /// go through [`metrics_value`], so this string IS the wire format —
    /// a change here breaks both surfaces at once, on purpose.
    #[test]
    fn metrics_value_golden_bytes() {
        use crate::metrics::{MetricKey, MetricsRegistry};
        let mut reg = MetricsRegistry::new();
        reg.add(MetricKey::global("epochs_ingested"), 7);
        reg.set(MetricKey::global("goodput_bps"), 2.5e9);
        for v in [0u64, 3, 3, 900] {
            reg.observe(MetricKey::at_port("lat_ns", 1, 0), v);
        }
        let out = serde_json::to_string(&metrics_value(&reg.snapshot()))
            .expect("value serialization is infallible");
        assert_eq!(
            out,
            r#"{"counters":[{"key":"epochs_ingested","value":7}],"gauges":[{"key":"goodput_bps","value":2500000000.0}],"histograms":[{"key":"lat_ns{switch=1,port=0}","count":4,"sum":906,"min":0,"max":900,"buckets":[[0,1],[2,2],[10,1]]}]}"#
        );
    }

    #[test]
    fn counter_totals_folds_labels_sorted() {
        let totals = counter_totals(&sample_snapshot());
        assert_eq!(totals, vec![("epochs_ingested".to_string(), 11)]);
    }
}
